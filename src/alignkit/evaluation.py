"""Alignment quality metrics against Sure/Possible gold annotations.

AER = 1 - (|A n S| + |A n P|) / (|A| + |S|) over hypothesis links A, sure
gold links S, and possible gold links P (S is always a subset of P;
loading enforces it by unioning). Corpus-level numbers pool the four
counts over sentences before applying the formulas (micro style), which
in general differs from averaging per-sentence ratios.

Gold files use the WPT shared-task layout, one link per line:

    sentence_id src_pos tgt_pos [S|P]

with 1-based positions and a missing flag meaning S.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, TextIO

from .alignment import AlignmentSet, Link
from .errors import DataFormatError


def aer(a: Iterable[Link], sure: Iterable[Link], possible: Iterable[Link]) -> float:
    a, sure, possible = set(a), set(sure), set(possible)
    possible |= sure
    denom = len(a) + len(sure)
    if denom == 0:
        return 0.0
    return 1.0 - (len(a & sure) + len(a & possible)) / denom


def precision_recall(
    a: Iterable[Link], sure: Iterable[Link], possible: Iterable[Link]
) -> tuple[float, float, float]:
    """(precision, recall, F1); precision is judged against P, recall
    against S. Empty hypothesis or gold sides count as perfect."""
    a, sure, possible = set(a), set(sure), set(possible)
    possible |= sure
    precision = len(a & possible) / len(a) if a else 1.0
    recall = len(a & sure) / len(sure) if sure else 1.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0.0
        else 0.0
    )
    return precision, recall, f1


@dataclass
class GoldAlignment:
    """Per-sentence sure and possible link sets, 0-based, keyed by the
    1-based sentence id of the gold file."""

    sentences: dict[int, tuple[frozenset[Link], frozenset[Link]]] = field(
        default_factory=dict
    )

    def ids(self) -> list[int]:
        return sorted(self.sentences)


def parse_gold(lines: Iterable[str]) -> GoldAlignment:
    sure: dict[int, set[Link]] = {}
    possible: dict[int, set[Link]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise DataFormatError(f"gold line {lineno}: expected 3 or 4 fields")
        try:
            sid, src, trg = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise DataFormatError(f"gold line {lineno}: {exc}") from exc
        if sid < 1:
            raise DataFormatError(f"gold line {lineno}: sentence ids are 1-based")
        if src < 1 or trg < 1:
            raise DataFormatError(f"gold line {lineno}: positions are 1-based")
        flag = parts[3] if len(parts) == 4 else "S"
        if flag not in ("S", "P"):
            raise DataFormatError(f"gold line {lineno}: flag must be S or P, got {flag!r}")
        link = (src - 1, trg - 1)
        possible.setdefault(sid, set()).add(link)
        if flag == "S":
            sure.setdefault(sid, set()).add(link)
    gold = GoldAlignment()
    for sid in possible:
        s = frozenset(sure.get(sid, set()))
        gold.sentences[sid] = (s, frozenset(possible[sid]) | s)
    return gold


@dataclass
class SentenceScore:
    aer: float
    precision: float
    recall: float
    f1: float
    a_size: int
    s_size: int
    a_and_s: int
    a_and_p: int


@dataclass
class EvalReport:
    per_sentence: dict[int, SentenceScore]
    aer: float
    precision: float
    recall: float
    f1: float
    a_size: int
    s_size: int
    a_and_s: int
    a_and_p: int
    evaluated: int
    skipped_hypotheses: list[int]  # hypothesis ids with no gold entry
    missing_hypotheses: list[int]  # gold ids with no hypothesis


def evaluate_corpus(
    hypotheses: Sequence[AlignmentSet] | Mapping[int, AlignmentSet],
    gold: GoldAlignment,
) -> EvalReport:
    """Score hypotheses against gold; sentence ids are 1-based. A list of
    hypotheses is keyed by position: element k is sentence k + 1.

    Hypotheses without a gold entry are skipped (they land in
    `skipped_hypotheses`); gold sentences without a hypothesis are
    reported in `missing_hypotheses`. Only matched sentences contribute
    to the pooled counts.
    """
    if not isinstance(hypotheses, Mapping):
        hypotheses = {k + 1: a for k, a in enumerate(hypotheses)}
    per_sentence: dict[int, SentenceScore] = {}
    totals = [0, 0, 0, 0]  # |A|, |S|, |A n S|, |A n P|
    skipped = []
    for sid in sorted(hypotheses):
        entry = gold.sentences.get(sid)
        if entry is None:
            skipped.append(sid)
            continue
        sure, possible = entry
        links = set(hypotheses[sid].links)
        counts = (
            len(links),
            len(sure),
            len(links & sure),
            len(links & possible),
        )
        p, r, f1 = precision_recall(links, sure, possible)
        per_sentence[sid] = SentenceScore(
            aer=aer(links, sure, possible),
            precision=p,
            recall=r,
            f1=f1,
            a_size=counts[0],
            s_size=counts[1],
            a_and_s=counts[2],
            a_and_p=counts[3],
        )
        for k in range(4):
            totals[k] += counts[k]
    a_size, s_size, a_and_s, a_and_p = totals
    denom = a_size + s_size
    corpus_aer = 1.0 - (a_and_s + a_and_p) / denom if denom else 0.0
    corpus_p = a_and_p / a_size if a_size else 1.0
    corpus_r = a_and_s / s_size if s_size else 1.0
    corpus_f1 = (
        2.0 * corpus_p * corpus_r / (corpus_p + corpus_r)
        if corpus_p + corpus_r > 0.0
        else 0.0
    )
    missing = [sid for sid in gold.ids() if sid not in hypotheses]
    return EvalReport(
        per_sentence=per_sentence,
        aer=corpus_aer,
        precision=corpus_p,
        recall=corpus_r,
        f1=corpus_f1,
        a_size=a_size,
        s_size=s_size,
        a_and_s=a_and_s,
        a_and_p=a_and_p,
        evaluated=len(per_sentence),
        skipped_hypotheses=skipped,
        missing_hypotheses=missing,
    )


def write_report_tsv(report: EvalReport, out: TextIO) -> None:
    rows = [
        ("aer", report.aer),
        ("precision", report.precision),
        ("recall", report.recall),
        ("f1", report.f1),
        ("links", report.a_size),
        ("sure", report.s_size),
        ("links_and_sure", report.a_and_s),
        ("links_and_possible", report.a_and_p),
        ("evaluated", report.evaluated),
        ("skipped_hypotheses", len(report.skipped_hypotheses)),
        ("missing_hypotheses", len(report.missing_hypotheses)),
    ]
    for key, value in rows:
        out.write(f"{key}\t{value!r}\n" if isinstance(value, float) else f"{key}\t{value}\n")


def format_report(report: EvalReport) -> str:
    lines = [
        f"sentences evaluated: {report.evaluated}"
        + (f" (skipped {len(report.skipped_hypotheses)} without gold)" if report.skipped_hypotheses else ""),
        f"AER:       {report.aer:.4f}",
        f"precision: {report.precision:.4f}",
        f"recall:    {report.recall:.4f}",
        f"F1:        {report.f1:.4f}",
    ]
    if report.missing_hypotheses:
        lines.append(f"gold sentences without hypothesis: {len(report.missing_hypotheses)}")
    return "\n".join(lines) + "\n"
