"""Sparse conditional translation table t(f | e) shared by all aligners.

Rows are keyed by target id e (NULL_ID = -1 for the empty target word),
each row a dict of source id f -> probability. Rows sum to 1 and only
contain (e, f) pairs that co-occurred in training (the NULL row co-occurs
with everything).

Text format, used as the base of every model file:

    alignkit-ttable v1
    e_id<TAB>f_id<TAB>prob        # sorted by (e_id, f_id), NULL as -1
    ... optional model-specific trailer lines ...
"""

from __future__ import annotations

from typing import Iterable, Iterator, TextIO

from .errors import DataFormatError

NULL_ID = -1

HEADER = "alignkit-ttable v1"


class TranslationTable:
    def __init__(self, rows: dict[int, dict[int, float]]):
        self.rows = rows

    def prob(self, e: int, f: int, floor: float = 0.0) -> float:
        row = self.rows.get(e)
        if row is None:
            return floor
        return max(row.get(f, 0.0), floor)

    def row(self, e: int) -> dict[int, float]:
        return self.rows.get(e, {})

    def __len__(self) -> int:
        return sum(len(row) for row in self.rows.values())

    def entries(self) -> Iterator[tuple[int, int, float]]:
        """Yield (e, f, prob) sorted by (e, f); the canonical entry order."""
        for e in sorted(self.rows):
            row = self.rows[e]
            for f in sorted(row):
                yield e, f, row[f]

    def row_sum_error(self) -> float:
        """Largest |sum(row) - 1| over all rows; used by tests and checks."""
        worst = 0.0
        for row in self.rows.values():
            if row:
                worst = max(worst, abs(sum(row.values()) - 1.0))
        return worst


def write_ttable(out: TextIO, table: TranslationTable, trailer: Iterable[str] = ()) -> None:
    out.write(HEADER + "\n")
    for e, f, p in table.entries():
        out.write(f"{e}\t{f}\t{p!r}\n")
    for line in trailer:
        out.write(line + "\n")


def read_ttable(lines: Iterable[str]) -> tuple[TranslationTable, list[str]]:
    """Parse a model file; returns the table and any trailer lines."""
    it = iter(lines)
    try:
        first = next(it).rstrip("\n")
    except StopIteration:
        raise DataFormatError("empty model file") from None
    if first != HEADER:
        raise DataFormatError(f"model file must start with {HEADER!r}")
    rows: dict[int, dict[int, float]] = {}
    trailer: list[str] = []
    for lineno, raw in enumerate(it, start=2):
        line = raw.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if parts and not _is_int(parts[0]):
            trailer.append(line)
            continue
        if trailer:
            raise DataFormatError(f"model line {lineno}: table row after trailer")
        if len(parts) != 3:
            raise DataFormatError(f"model line {lineno}: expected e, f, prob")
        try:
            e, f, p = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise DataFormatError(f"model line {lineno}: {exc}") from exc
        if p < 0.0 or p > 1.0 or p != p:
            raise DataFormatError(f"model line {lineno}: probability {p} out of range")
        rows.setdefault(e, {})[f] = p
    return TranslationTable(rows), trailer


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True
