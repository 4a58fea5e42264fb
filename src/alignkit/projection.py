"""Projecting token labels and labeled spans across word alignments.

Annotations live on the source side of the alignment (transpose the
alignment first to go the other way). Token labels transfer by majority
vote among the source tags aligned to each target position, ties going
to the tag whose earliest aligned source position is leftmost;
unaligned target tokens get the outside tag "O". Labeled spans transfer
to the contiguous hull of the target positions aligned to the span;
projections with no aligned target positions are dropped, and when two
projected hulls overlap the span with the earlier source start wins.

File formats: token annotations as `token/TAG` (split on the last
slash, so tokens may contain slashes); spans as TSV rows
`sentence_id<TAB>start<TAB>end<TAB>label` with 1-based sentence ids and
0-based inclusive positions.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence, TextIO

from .alignment import AlignmentSet
from .errors import DataFormatError, Record

OUTSIDE_TAG = "O"


class LabeledSentence(Record):
    __slots__ = ("tokens", "tags")

    def __init__(self, tokens: tuple[str, ...], tags: tuple[str, ...]) -> None:
        if len(tokens) != len(tags):
            raise ValueError(f"{len(tokens)} tokens but {len(tags)} tags")
        self.tokens, self.tags = tokens, tags

    def __len__(self) -> int:
        return len(self.tokens)


class Span(Record):
    """Inclusive 0-based [start, end] with a label, ordered as the tuple
    (start, end, label)."""

    __slots__ = ("start", "end", "label")

    def __init__(self, start: int, end: int, label: str) -> None:
        if start < 0 or end < start:
            raise ValueError(f"bad span [{start}, {end}]")
        self.start, self.end, self.label = start, end, label

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() < other._values()

    def __le__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() <= other._values()


def project_token_labels(
    tags: Sequence[str], alignment: AlignmentSet
) -> list[str]:
    """Tags for every target position, majority-voted from the source
    tags aligned to it."""
    if len(tags) != alignment.m:
        raise ValueError(
            f"{len(tags)} source tags but alignment has {alignment.m} source positions"
        )
    voters: list[list[int]] = [[] for _ in range(alignment.n)]
    for j, i in alignment.sorted_links():
        voters[i].append(j)
    projected = []
    for js in voters:
        if not js:
            projected.append(OUTSIDE_TAG)
            continue
        counts = Counter(tags[j] for j in js)
        earliest = {}
        for j in js:
            earliest.setdefault(tags[j], j)
        projected.append(
            max(counts, key=lambda tag: (counts[tag], -earliest[tag]))
        )
    return projected


def project_spans(
    spans: Iterable[Span], alignment: AlignmentSet
) -> list[Span]:
    """Project labeled source spans onto the target side.

    Spans are considered in source order; a projected hull that overlaps
    an already-kept one is discarded, so the earliest source start wins.
    """
    by_row: list[list[int]] = [[] for _ in range(alignment.m)]
    for j, i in alignment.links:
        by_row[j].append(i)
    kept: list[Span] = []
    occupied: set[int] = set()
    for span in sorted(spans):
        if span.end >= alignment.m:
            raise ValueError(
                f"span [{span.start}, {span.end}] exceeds {alignment.m} source positions"
            )
        targets = [i for j in range(span.start, span.end + 1) for i in by_row[j]]
        if not targets:
            continue
        lo, hi = min(targets), max(targets)
        hull = range(lo, hi + 1)
        if any(i in occupied for i in hull):
            continue
        occupied.update(hull)
        kept.append(Span(lo, hi, span.label))
    return sorted(kept)


def _per_record(
    project, records: Sequence, alignments: Sequence[AlignmentSet], what: str
) -> list:
    """project(record, alignment) for each record; the two streams must
    agree in length, and a record's ValueError becomes a data error that
    names the record."""
    if len(records) != len(alignments):
        raise DataFormatError(
            f"record {min(len(records), len(alignments)) + 1}: "
            f"{len(records)} {what} but {len(alignments)} alignments"
        )
    out = []
    for k, (record, alignment) in enumerate(zip(records, alignments), start=1):
        try:
            out.append(project(record, alignment))
        except ValueError as exc:
            raise DataFormatError(f"record {k}: {exc}") from exc
    return out


def project_corpus(
    annotated: Sequence[LabeledSentence],
    alignments: Sequence[AlignmentSet],
) -> list[list[str]]:
    """Project token labels record by record; the two streams must agree
    in length and per-record source length."""
    tags = [sentence.tags for sentence in annotated]
    return _per_record(project_token_labels, tags, alignments, "annotated sentences")


def project_corpus_spans(
    spans_by_sentence: Sequence[Sequence[Span]],
    alignments: Sequence[AlignmentSet],
) -> list[list[Span]]:
    return _per_record(project_spans, spans_by_sentence, alignments, "span records")


def parse_labeled_line(raw: str, lineno: int = 0) -> LabeledSentence:
    tokens, tags = [], []
    for field in raw.split():
        token, sep, tag = field.rpartition("/")
        if not sep or not token or not tag:
            raise DataFormatError(
                f"annotation line {lineno}: expected token/TAG, got {field!r}"
            )
        tokens.append(token)
        tags.append(tag)
    return LabeledSentence(tuple(tokens), tuple(tags))


def format_labeled_line(tokens: Sequence[str], tags: Sequence[str]) -> str:
    if len(tokens) != len(tags):
        raise ValueError(f"{len(tokens)} tokens but {len(tags)} tags")
    return " ".join(f"{tok}/{tag}" for tok, tag in zip(tokens, tags))


def read_labeled(lines: Iterable[str]) -> list[LabeledSentence]:
    return [
        parse_labeled_line(raw, lineno)
        for lineno, raw in enumerate(lines, start=1)
    ]


def parse_span_file(lines: Iterable[str]) -> dict[int, list[Span]]:
    """TSV rows `sentence_id start end label` -> spans per sentence id."""
    out: dict[int, list[Span]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataFormatError(f"span line {lineno}: expected 4 tab-separated fields")
        try:
            sid, start, end = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise DataFormatError(f"span line {lineno}: {exc}") from exc
        if sid < 1:
            raise DataFormatError(f"span line {lineno}: sentence ids are 1-based")
        try:
            span = Span(start, end, parts[3])
        except ValueError as exc:
            raise DataFormatError(f"span line {lineno}: {exc}") from exc
        out.setdefault(sid, []).append(span)
    return out


def write_span_file(spans_by_sentence: dict[int, list[Span]], out: TextIO) -> None:
    for sid in sorted(spans_by_sentence):
        for span in sorted(spans_by_sentence[sid]):
            out.write(f"{sid}\t{span.start}\t{span.end}\t{span.label}\n")
