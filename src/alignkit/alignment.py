"""Alignment data types and symmetrization heuristics.

A link is a (j, i) pair of 0-based positions: j indexes the source
sentence, i the target sentence. Asymmetric aligners produce one link
per source position (possibly none); symmetrization combines a forward
and a reverse run into a single set of links.

Pharaoh text format: per sentence one line of space-separated `j-i`
fields, 0-based; an empty line is an empty alignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Iterable, Optional, TextIO

from .errors import DataFormatError, DimensionMismatchError

Link = tuple[int, int]

# 8-neighborhood offsets in clockwise order, starting top-left. The growing
# heuristic depends on this exact visit order.
NEIGHBORS: tuple[Link, ...] = (
    (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1),
)

GDF_VARIANTS = ("final", "final-and")


@dataclass(frozen=True)
class AlignmentSet:
    """A set of links over an m-source x n-target sentence pair."""

    links: frozenset[Link]
    m: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "links", frozenset(self.links))
        if self.m < 0 or self.n < 0:
            raise DataFormatError("alignment dimensions must be non-negative")
        for j, i in self.links:
            if not (0 <= j < self.m and 0 <= i < self.n):
                raise DataFormatError(
                    f"link ({j},{i}) out of bounds for {self.m}x{self.n} pair"
                )

    @classmethod
    def _derived(cls, links: frozenset[Link], m: int, n: int) -> AlignmentSet:
        """A set over links that were checked against bounds no larger
        than (m, n) when the set they came from was built, so
        __post_init__'s per-link check is skipped."""
        a = object.__new__(cls)
        object.__setattr__(a, "links", links)
        object.__setattr__(a, "m", m)
        object.__setattr__(a, "n", n)
        return a

    def sorted_links(self) -> list[Link]:
        return sorted(self.links)

    def __contains__(self, link: Link) -> bool:
        return link in self.links

    def __len__(self) -> int:
        return len(self.links)


@dataclass(frozen=True)
class AlignmentFunction:
    """One aligned target position (or None) per source position."""

    targets: tuple[Optional[int], ...]
    n: int

    @property
    def m(self) -> int:
        return len(self.targets)


def to_set(func: AlignmentFunction) -> AlignmentSet:
    """Drop NULL-aligned positions and view the function as a link set."""
    links = {(j, i) for j, i in enumerate(func.targets) if i is not None}
    return AlignmentSet(links=frozenset(links), m=func.m, n=func.n)


def transpose(a: AlignmentSet) -> AlignmentSet:
    return AlignmentSet._derived(frozenset((i, j) for j, i in a.links), a.n, a.m)


def _check_dims(fwd: AlignmentSet, rev: AlignmentSet) -> None:
    if (fwd.m, fwd.n) != (rev.m, rev.n):
        raise DimensionMismatchError(
            f"cannot combine {fwd.m}x{fwd.n} and {rev.m}x{rev.n} alignments"
        )


def intersect(fwd: AlignmentSet, rev: AlignmentSet) -> AlignmentSet:
    _check_dims(fwd, rev)
    return AlignmentSet._derived(fwd.links & rev.links, fwd.m, fwd.n)


def union(fwd: AlignmentSet, rev: AlignmentSet) -> AlignmentSet:
    _check_dims(fwd, rev)
    return AlignmentSet._derived(fwd.links | rev.links, fwd.m, fwd.n)


def grow_diag_final(
    fwd: AlignmentSet, rev: AlignmentSet, variant: str = "final"
) -> AlignmentSet:
    """Grow the intersection toward the union, then add leftover links.

    Both inputs must already be in forward orientation (transpose the
    reverse aligner's output first). Growing visits current links in
    (j, i) order and their 8 neighbors in clockwise order from the
    top-left, adding a neighbor that is in the union and whose source row
    or target column is still unaligned; passes repeat until a fixpoint.

    The final step scans forward links then reverse links in (j, i)
    order and adds those whose row or column (variant "final") or row
    and column (variant "final-and") were unaligned when growing
    finished. Availability is judged against the post-growing state for
    every candidate, which keeps the "final-and" result a subset of the
    "final" result.

    Both steps add only union links, so once all of them are aligned,
    which holds from the start when the inputs are equal, neither step
    has work left and neither runs.
    """
    if variant not in GDF_VARIANTS:
        raise DataFormatError(f"unknown grow-diag-final variant: {variant!r}")
    _check_dims(fwd, rev)
    both = fwd.links | rev.links
    aligned = set(fwd.links & rev.links)
    left = len(both) - len(aligned)  # union links not yet aligned
    rows = {j for j, _ in aligned}
    cols = {i for _, i in aligned}

    changed = True
    while changed and left:
        changed = False
        for j, i in sorted(aligned):
            for dj, di in NEIGHBORS:
                cand = (j + dj, i + di)
                if cand in aligned or cand not in both:
                    continue
                if cand[0] not in rows or cand[1] not in cols:
                    aligned.add(cand)
                    rows.add(cand[0])
                    cols.add(cand[1])
                    changed = True
                    left -= 1
            if not left:
                break

    if left:
        grown_rows = frozenset(rows)
        grown_cols = frozenset(cols)
        for j, i in sorted(fwd.links) + sorted(rev.links):
            if (j, i) in aligned:
                continue
            row_free = j not in grown_rows
            col_free = i not in grown_cols
            ok = (row_free and col_free) if variant == "final-and" else (row_free or col_free)
            if ok:
                aligned.add((j, i))
    return AlignmentSet._derived(frozenset(aligned), fwd.m, fwd.n)


HEURISTICS: dict[str, Callable[[AlignmentSet, AlignmentSet], AlignmentSet]] = {
    "intersect": intersect,
    "union": union,
    "grow-diag-final": grow_diag_final,
    "grow-diag-final-and": partial(grow_diag_final, variant="final-and"),
}


def symmetrize(
    fwd: AlignmentSet, rev: AlignmentSet, heuristic: str = "grow-diag-final"
) -> AlignmentSet:
    """Apply a named symmetrization heuristic to a forward/reverse pair."""
    if heuristic not in HEURISTICS:
        raise DataFormatError(f"unknown symmetrization heuristic: {heuristic!r}")
    return HEURISTICS[heuristic](fwd, rev)


def parse_pharaoh_line(
    raw: str, lineno: int = 0, m: int | None = None, n: int | None = None
) -> AlignmentSet:
    """Parse one `j-i j-i ...` line; dimensions default to max index + 1."""
    links = set()
    max_j = max_i = -1
    for field in raw.split():
        parts = field.split("-")
        if len(parts) != 2:
            raise DataFormatError(f"alignment line {lineno}: bad field {field!r}")
        try:
            j, i = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise DataFormatError(f"alignment line {lineno}: bad field {field!r}") from exc
        if j < 0 or i < 0:
            raise DataFormatError(f"alignment line {lineno}: negative index in {field!r}")
        links.add((j, i))
        max_j = max(max_j, j)
        max_i = max(max_i, i)
    dim_m = m if m is not None else max_j + 1
    dim_n = n if n is not None else max_i + 1
    try:
        return AlignmentSet(links=frozenset(links), m=dim_m, n=dim_n)
    except DataFormatError as exc:
        raise DataFormatError(f"alignment line {lineno}: {exc}") from exc


def read_pharaoh(
    lines: Iterable[str], sizes: Optional[Iterable[tuple[int, int]]] = None
) -> list[AlignmentSet]:
    """One alignment per line, over the (m, n) of sizes when given (one
    per line; zip raises ValueError on a count mismatch), else over the
    dimensions parse_pharaoh_line infers."""
    dims = repeat((None, None)) if sizes is None else sizes
    return [
        parse_pharaoh_line(raw.rstrip("\n"), lineno, m, n)
        for lineno, (raw, (m, n)) in enumerate(
            zip(lines, dims, strict=sizes is not None), start=1
        )
    ]


def format_pharaoh_line(a: AlignmentSet) -> str:
    return " ".join(f"{j}-{i}" for j, i in a.sorted_links())


def format_function_line(func: AlignmentFunction) -> str:
    """format_pharaoh_line(to_set(func)) without building the set: the
    targets are in source order, with at most one link per position."""
    return " ".join(f"{j}-{i}" for j, i in enumerate(func.targets) if i is not None)


def write_pharaoh(alignments: Iterable[AlignmentSet], out: TextIO) -> None:
    for a in alignments:
        out.write(format_pharaoh_line(a) + "\n")


def harmonize_dims(fwd: AlignmentSet, rev: AlignmentSet) -> tuple[AlignmentSet, AlignmentSet]:
    """Pad two alignments over the same pair to common inferred dimensions.

    Needed when dimensions were inferred from link indices alone (Pharaoh
    input carries no sentence lengths).
    """
    m = max(fwd.m, rev.m)
    n = max(fwd.n, rev.n)
    return AlignmentSet._derived(fwd.links, m, n), AlignmentSet._derived(rev.links, m, n)
