"""Alignment quality metrics against Sure/Possible gold annotations.

AER = 1 - (|A n S| + |A n P|) / (|A| + |S|) over hypothesis links A, sure
gold links S, and possible gold links P, where every sure link counts as
possible (`LinkCounts.of` unions S into P). Corpus-level numbers pool the
four counts over sentences before applying the formulas (micro style),
which in general differs from averaging per-sentence ratios.

Gold files use the WPT shared-task layout, one link per line:

    sentence_id src_pos tgt_pos [S|P]

with 1-based positions and a missing flag meaning S.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TextIO

from .alignment import AlignmentSet, Link
from .errors import DataFormatError, Record


class LinkCounts(Record):
    """The four counts every metric is computed from: |A|, |S|, |A n S|
    and |A n P|. Empty hypothesis or gold sides count as perfect."""

    __slots__ = ("a_size", "s_size", "a_and_s", "a_and_p")

    def __init__(self, a_size: int, s_size: int, a_and_s: int, a_and_p: int) -> None:
        self.a_size, self.s_size, self.a_and_s, self.a_and_p = a_size, s_size, a_and_s, a_and_p

    @classmethod
    def of(
        cls, a: Iterable[Link], sure: Iterable[Link], possible: Iterable[Link]
    ) -> LinkCounts:
        """Counts of hypothesis links a; sure links count as possible."""
        a, sure = set(a), set(sure)
        possible = set(possible) | sure
        return cls(len(a), len(sure), len(a & sure), len(a & possible))

    @property
    def aer(self) -> float:
        denom = self.a_size + self.s_size
        return 1.0 - (self.a_and_s + self.a_and_p) / denom if denom else 0.0

    @property
    def precision(self) -> float:
        """Judged against P."""
        return self.a_and_p / self.a_size if self.a_size else 1.0

    @property
    def recall(self) -> float:
        """Judged against S."""
        return self.a_and_s / self.s_size if self.s_size else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r > 0.0 else 0.0


def aer(a: Iterable[Link], sure: Iterable[Link], possible: Iterable[Link]) -> float:
    return LinkCounts.of(a, sure, possible).aer


class GoldAlignment(Record):
    """Per-sentence sure and possible link sets, 0-based, keyed by the
    1-based sentence id of the gold file."""

    __slots__ = ("sentences",)
    __hash__ = None

    def __init__(
        self, sentences: dict[int, tuple[frozenset[Link], frozenset[Link]]] | None = None
    ) -> None:
        self.sentences = {} if sentences is None else sentences

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
        gold.sentences[sid] = (frozenset(sure.get(sid, ())), frozenset(possible[sid]))
    return gold


class EvalReport(LinkCounts):
    """Counts pooled over the matched sentences, with each sentence's own,
    the hypothesis ids with no gold entry (skipped_hypotheses) and the gold
    ids with no hypothesis (missing_hypotheses)."""

    __slots__ = ("per_sentence", "skipped_hypotheses", "missing_hypotheses")

    def __init__(
        self,
        a_size: int,
        s_size: int,
        a_and_s: int,
        a_and_p: int,
        per_sentence: dict[int, LinkCounts],
        skipped_hypotheses: list[int],
        missing_hypotheses: list[int],
    ) -> None:
        super().__init__(a_size, s_size, a_and_s, a_and_p)
        self.per_sentence = per_sentence
        self.skipped_hypotheses = skipped_hypotheses
        self.missing_hypotheses = missing_hypotheses

    @property
    def evaluated(self) -> int:
        return len(self.per_sentence)


def evaluate_corpus(hypotheses: Sequence[AlignmentSet], gold: GoldAlignment) -> EvalReport:
    """Score hypotheses against gold, where hypothesis k is sentence k + 1
    (gold sentence ids are 1-based).

    Hypotheses without a gold entry are skipped (they land in
    `skipped_hypotheses`); gold sentences without a hypothesis are
    reported in `missing_hypotheses`. Only matched sentences contribute
    to the pooled counts.
    """
    per_sentence: dict[int, LinkCounts] = {}
    skipped = []
    for sid, hypothesis in enumerate(hypotheses, start=1):
        entry = gold.sentences.get(sid)
        if entry is None:
            skipped.append(sid)
        else:
            per_sentence[sid] = LinkCounts.of(hypothesis.links, *entry)
    counts = per_sentence.values()
    return EvalReport(
        a_size=sum(c.a_size for c in counts),
        s_size=sum(c.s_size for c in counts),
        a_and_s=sum(c.a_and_s for c in counts),
        a_and_p=sum(c.a_and_p for c in counts),
        per_sentence=per_sentence,
        skipped_hypotheses=skipped,
        missing_hypotheses=[sid for sid in gold.ids() if sid not in per_sentence],
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
