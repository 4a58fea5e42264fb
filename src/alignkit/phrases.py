"""Consistent phrase-pair extraction from word alignments.

A rectangle (source span, target span) is a consistent phrase pair when

  (a) at least one alignment link lies inside it,
  (b) no link connects a word inside either span to a word outside the
      other span, and
  (c) both spans are at most `max_len` words long.

Extraction walks every source span, takes the hull of its aligned
target positions, verifies the hull links back only into the span, and
then widens the target span over adjacent completely-unaligned columns.
Source-side widening over unaligned rows needs no special handling: the
outer enumeration already visits those spans and they inherit the same
hull. The result is exactly the set of rectangles passing (a)-(c).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence, TextIO

from .alignment import AlignmentSet
from .corpus import SEPARATOR


@dataclass(frozen=True, order=True)
class PhrasePair:
    """Inclusive 0-based spans: source [src_start, src_end], target
    [tgt_start, tgt_end]."""

    src_start: int
    src_end: int
    tgt_start: int
    tgt_end: int


def _spans(alignment: AlignmentSet, max_len: int):
    """Yield (j1, j2, i1, i2) for every consistent phrase pair, unordered.

    first[j] and last[j] are the least and greatest target columns linked
    to source row j, and lo[i] and hi[i] the least and greatest source
    rows linked to target column i (n, -1, m and -1 when unaligned). The
    target hull [i1, i2] grows with j2, and a rectangle is consistent
    exactly when every column of its hull has lo and hi inside [j1, j2].
    low and high are min(lo) and max(hi) over the hull, kept up to date by
    folding in each column as the hull widens over it."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    m, n = alignment.m, alignment.n
    first, last = [n] * m, [-1] * m
    lo, hi = [m] * n, [-1] * n
    for j, i in alignment.links:
        if i < first[j]:
            first[j] = i
        if i > last[j]:
            last[j] = i
        if j < lo[i]:
            lo[i] = j
        if j > hi[i]:
            hi[i] = j
    for j1 in range(m):
        i1, i2 = n, -1  # empty while i1 > i2
        low, high = m, -1
        for j2 in range(j1, min(m, j1 + max_len)):
            c1, c2 = first[j2], last[j2]
            if c2 >= 0:
                if i1 > i2:  # the first aligned row: start from its first column
                    i1, i2 = c1, c1 - 1
                if (c2 if c2 > i2 else i2) - (c1 if c1 < i1 else i1) >= max_len:
                    break  # the hull only grows with j2
                while i1 > c1:
                    i1 -= 1
                    if lo[i1] < low:
                        low = lo[i1]
                    if hi[i1] > high:
                        high = hi[i1]
                while i2 < c2:
                    i2 += 1
                    if lo[i2] < low:
                        low = lo[i2]
                    if hi[i2] > high:
                        high = hi[i2]
            elif i1 > i2:
                continue
            if low < j1:
                break  # a hull column links above j1, for every later j2 too
            if high > j2:
                continue
            # Widen over unaligned target columns on either side.
            start = i1
            while start >= 0 and i2 - start < max_len and (start == i1 or hi[start] < 0):
                end = i2
                while end < n and end - start < max_len and (end == i2 or hi[end] < 0):
                    yield j1, j2, start, end
                    end += 1
                start -= 1


def extract_consistent_phrases(
    alignment: AlignmentSet, max_len: int = 7
) -> list[PhrasePair]:
    return sorted(PhrasePair(*span) for span in _spans(alignment, max_len))


@dataclass
class PhraseTable:
    """Co-occurrence counts over phrase pairs with relative frequencies in
    both directions. A phrase is keyed by its text, its tokens joined by
    single spaces; `counts` maps (source text, target text) pairs."""

    counts: Counter
    src_marginals: Counter
    tgt_marginals: Counter

    def __len__(self) -> int:
        return len(self.counts)

    def forward(self, src: Sequence[str], tgt: Sequence[str]) -> float:
        """p(tgt | src) as a relative frequency."""
        src, tgt = " ".join(src), " ".join(tgt)
        total = self.src_marginals[src]
        return self.counts[(src, tgt)] / total if total else 0.0

    def inverse(self, src: Sequence[str], tgt: Sequence[str]) -> float:
        """p(src | tgt) as a relative frequency."""
        src, tgt = " ".join(src), " ".join(tgt)
        total = self.tgt_marginals[tgt]
        return self.counts[(src, tgt)] / total if total else 0.0


def build_phrase_table(
    records: Iterable[tuple[Sequence[str], Sequence[str], AlignmentSet]],
    max_len: int = 7,
) -> PhraseTable:
    """Accumulate phrase-pair counts over (source tokens, target tokens,
    alignment) records. No token may hold a space."""
    pairs: list[tuple[str, str]] = []
    for src, tgt, alignment in records:
        if alignment.m != len(src) or alignment.n != len(tgt):
            raise ValueError(
                f"alignment dimensions {alignment.m}x{alignment.n} do not match "
                f"sentence lengths {len(src)}x{len(tgt)}"
            )
        if any(" " in token for token in chain(src, tgt)):
            raise ValueError(f"a token holds a space: {src!r}, {tgt!r}")
        pairs += [
            (" ".join(src[j1 : j2 + 1]), " ".join(tgt[i1 : i2 + 1]))
            for j1, j2, i1, i2 in _spans(alignment, max_len)
        ]
    return PhraseTable(
        Counter(pairs), Counter(map(itemgetter(0), pairs)), Counter(map(itemgetter(1), pairs))
    )


# Every byte below the space. UTF-8 writes U+0000-U+001F as these bytes
# alone, and phrase texts holding none of them sort as their tokens do.
_BELOW_SPACE = bytes(range(0x20))


class _Reprs(dict):
    """repr of each float key, computed on its first lookup. A table's
    ratios take few distinct values. All are positive and finite, so keys
    that compare equal print alike, as 0.0 and -0.0 would not."""

    def __missing__(self, x: float) -> str:
        text = self[x] = repr(x)
        return text


def write_phrase_table(table: PhraseTable, out: TextIO) -> None:
    """One line per entry of `table.counts`, which is keyed by (source
    text, target text): `src ||| tgt ||| p(tgt|src) p(src|tgt) count`,
    sorted by the source tokens, then by the target tokens."""
    text = "".join(chain.from_iterable(table.counts)).encode()
    if len(text.translate(None, _BELOW_SPACE)) == len(text):
        key = itemgetter(0)
    else:  # a control character sorts below the space that ends a token
        key = lambda item: (item[0][0].split(" "), item[0][1].split(" "))
    src_totals, tgt_totals = table.src_marginals, table.tgt_marginals
    text_of = _Reprs()
    out.writelines(
        f"{src}{SEPARATOR}{tgt}{SEPARATOR}"
        f"{text_of[count / src_totals[src]]} {text_of[count / tgt_totals[tgt]]} {count}\n"
        for (src, tgt), count in sorted(table.counts.items(), key=key)
    )
