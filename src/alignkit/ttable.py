"""Sparse conditional translation table t(f | e) shared by all aligners.

Rows are keyed by target id e (NULL_ID = -1 for the empty target word),
each row a distribution over the source ids f that co-occurred with e in
training (the NULL row co-occurs with everything).

The table is flat. The arrays `es`, `fs` and `theta` hold its entries in
canonical (e, f) order; row `row_ids[r]` starts at entry `row_starts[r]`.
`theta` ends with two more slots, both 0.0: the miss slot len(table),
where `slots` maps every cell the table lacks, and the pad slot
len(table) + 1, where a packed corpus (see _packed.py) points the cells
past a pair's own m or n. So packing, training and decoding all read
t(f | e) as one gather theta[slots]. Decoders gather from decode_theta
instead, which floors the entries and the miss slot at DECODE_FLOOR and
keeps the pad slot 0, so padding adds nothing to a sum and never wins
an argmax. EM maps tables to tables: `normalized` is the M-step, and
the table it returns shares its support arrays with its parent.

Model files, v2, the format `train` writes:

    alignkit-ttable v2<TAB>N      # N entries
    base64 of the target ids      # int64, sorted by (e_id, f_id), no repeats, NULL as -1
    base64 of the source ids      # int64
    base64 of the probabilities   # float64
    ... optional model-specific trailer lines ...

Each body line is the standard padded base64 of one little-endian array
of N values, so a write copies the table's arrays out and a read views
them, without formatting or parsing a number. `read_ttable` also reads
v1 files, where a text row `e_id<TAB>f_id<TAB>prob` stands for each
entry after the header line `alignkit-ttable v1`; nothing writes v1.

Each row of a model file sums to 1 within ROW_SUM_TOL. Decoders score
every cell at least DECODE_FLOOR, so an entry at or below it decodes
exactly like a missing one; `pruned` drops such entries before `train`
saves a model.
"""

from __future__ import annotations

import binascii
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, TextIO

import numpy as np

from .errors import DataFormatError

NULL_ID = -1

HEADER = "alignkit-ttable v2"
HEADER_V1 = "alignkit-ttable v1"

DECODE_FLOOR = 1e-12  # the least score a decoder gives any cell
MSTEP_FLOOR = 1e-12  # the least expected count an M-step renormalizes
ROW_SUM_TOL = 1e-9  # how far from 1 a model file's row may sum

# The arrays of a v2 body, one a line: what each holds and its dtype.
_BODY = (("target ids", "<i8"), ("source ids", "<i8"), ("probabilities", "<f8"))
_ENCODE_BYTES = 3 << 16  # bytes of an array write_ttable encodes at a time
_ROW_DTYPE = [("e", np.int64), ("f", np.int64), ("p", np.float64)]  # a v1 row
# How many values per looked-up id _rank's lookup arrays may span.
DENSE_SPAN = 4
_INT64 = np.iinfo(np.int64)


def distinct_sorted(ids: np.ndarray) -> np.ndarray:
    """Sorted distinct ids (np.unique hashes integers, many times slower)."""
    ids = np.sort(ids)
    return ids[np.diff(ids, prepend=ids[:1] - 1) != 0]


def _rank(sorted_ids: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each id in sorted_ids, as np.searchsorted gives it, and
    whether the id is there. The span is the values that both arrays'
    ranges share. Where it holds at most DENSE_SPAN values per looked-up
    id, both results come from lookup arrays indexed by id over the span,
    with one more cell at each end for the ids below and above it;
    otherwise from binary search. So a lookup array grows with the number
    of ids looked up, never with their magnitude."""
    if ids.size:
        lo = max(int(sorted_ids[0]), int(ids.min()))
        hi = min(int(sorted_ids[-1]), int(ids.max()))
        span = hi - lo + 3  # the values from lo - 1 to hi + 1
        if _INT64.min < lo <= hi < _INT64.max and span <= DENSE_SPAN * ids.size:
            pos, known = _search(sorted_ids, np.arange(span) + (lo - 1))
            index = np.clip(ids, lo - 1, hi + 1)
            index -= lo - 1
            return pos[index], known[index]
    return _search(sorted_ids, ids)


def _search(sorted_ids: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_rank by binary search."""
    pos = np.searchsorted(sorted_ids, ids)
    return pos, sorted_ids[np.minimum(pos, len(sorted_ids) - 1)] == ids


class TranslationTable:
    def __init__(self, rows: Mapping[int, Mapping[int, float]]):
        """A table from literal rows {e: {f: prob}}."""
        cells = sorted((e, f, p) for e, row in rows.items() for f, p in row.items())
        self._setup(*(zip(*cells) if cells else ((), (), ())))

    @classmethod
    def from_arrays(cls, es, fs, probs) -> TranslationTable:
        """A table from entries already in canonical (e, f) order, without repeats."""
        table = cls.__new__(cls)
        table._setup(es, fs, probs)
        return table

    def _setup(self, es, fs, probs) -> None:
        self.es = np.ascontiguousarray(es, dtype=np.int64)
        self.fs = np.ascontiguousarray(fs, dtype=np.int64)
        self.es.flags.writeable = self.fs.flags.writeable = False
        self.row_starts = np.flatnonzero(np.diff(self.es, prepend=self.es[:1] - 1))
        self.row_ids = self.es[self.row_starts]
        self._set_probs(probs)

    def _set_probs(self, probs) -> None:
        self.theta = np.zeros(len(self.es) + 2)  # the miss and pad slots last
        self.theta[:-2] = probs
        self.theta.flags.writeable = False

    @cached_property
    def _cell_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted distinct source ids, and each entry's cell key. Cells
        are keyed by (row rank, source rank), which cannot overflow whatever
        the ids are; slots() guards ids that have no rank. Built on the first
        lookup, so that a table that is only written never builds them."""
        f_ids = distinct_sorted(self.fs)
        lengths = np.diff(self.row_starts, append=len(self))
        row_rank = np.repeat(np.arange(len(self.row_starts)), lengths)
        return f_ids, row_rank * len(f_ids) + _rank(f_ids, self.fs)[0]

    def with_probs(self, probs: np.ndarray) -> TranslationTable:
        """The same support with new probabilities, in entry order. The new
        table shares this one's support arrays but none of its cached views."""
        table = TranslationTable.__new__(TranslationTable)
        table.es, table.fs = self.es, self.fs
        table.row_starts, table.row_ids = self.row_starts, self.row_ids
        table._set_probs(probs)
        return table

    def normalized(self, counts: np.ndarray) -> TranslationTable:
        """The M-step: expected counts, one per entry, floored at MSTEP_FLOOR
        and renormalized per row, as a table of the same support."""
        floored = np.maximum(counts, MSTEP_FLOOR)
        row_sums = np.add.reduceat(floored, self.row_starts)
        floored /= np.repeat(row_sums, np.diff(self.row_starts, append=len(self)))
        return self.with_probs(floored)

    def pruned(self) -> TranslationTable:
        """The table without its entries at or below DECODE_FLOOR. A row whose
        such entries carry more than ROW_SUM_TOL / 2 of mass keeps them all,
        so that it still sums to 1 within ROW_SUM_TOL."""
        probs = self.theta[:-2]
        low = probs <= DECODE_FLOOR
        if not low.any():
            return self
        low_mass = np.add.reduceat(np.where(low, probs, 0.0), self.row_starts)
        lengths = np.diff(self.row_starts, append=len(self))
        keep = ~(low & np.repeat(low_mass <= ROW_SUM_TOL / 2, lengths))
        return TranslationTable.from_arrays(self.es[keep], self.fs[keep], probs[keep])

    def slots(self, es, fs) -> np.ndarray:
        """Entry position of each cell (e, f), es broadcast against fs; a
        cell not in the table maps to the miss slot len(self)."""
        es = np.asarray(es, dtype=np.int64)
        fs = np.asarray(fs, dtype=np.int64)
        miss = len(self)
        if not miss:
            return np.zeros(np.broadcast_shapes(es.shape, fs.shape), dtype=np.int64)
        f_ids, cell_keys = self._cell_keys
        row, row_known = _rank(self.row_ids, es)
        col, col_known = _rank(f_ids, fs)
        # Without the guards an unknown id would take the rank of the next
        # known one, and a source id past the last would alias into row + 1.
        keys = row * len(f_ids) + col
        del row, col
        slot = np.minimum(np.searchsorted(cell_keys, keys), miss - 1)
        found = row_known & col_known & (cell_keys[slot] == keys)
        return np.where(found, slot, miss)

    def prob(self, e: int, f: int) -> float:
        """t(f | e); 0.0 for a cell the table lacks."""
        return float(self.theta[self.slots(e, f)])

    @cached_property
    def rows(self) -> Mapping[int, Mapping[int, float]]:
        """Read-only {e: {f: prob}} view of the table."""
        bounds = np.append(self.row_starts, len(self)).tolist()
        fs, probs = self.fs.tolist(), self.theta.tolist()
        return MappingProxyType({
            e: MappingProxyType(dict(zip(fs[lo:hi], probs[lo:hi])))
            for e, lo, hi in zip(self.row_ids.tolist(), bounds, bounds[1:])
        })

    def __len__(self) -> int:
        return len(self.es)

    def worst_row(self) -> tuple[int | None, float]:
        """(e, row sum) of the row summing farthest from 1; (None, 1.0) if empty."""
        if not len(self):
            return None, 1.0
        sums = np.add.reduceat(self.theta[:-2], self.row_starts)
        r = int(np.argmax(np.abs(sums - 1.0)))
        return int(self.row_ids[r]), float(sums[r])


def decode_theta(table: TranslationTable) -> np.ndarray:
    """table.theta with every entry and the miss slot floored at
    DECODE_FLOOR, as decoders score them; the pad slot stays 0."""
    theta = table.theta.copy()
    np.maximum(theta[:-1], DECODE_FLOOR, out=theta[:-1])
    return theta


def write_ttable(out: TextIO, table: TranslationTable, trailer: Iterable[str] = ()) -> None:
    """Write table and its trailer lines to out as a v2 model file. Each
    array is encoded _ENCODE_BYTES at a time, a multiple of 3, so the
    pieces join into the array's one base64 text without building it."""
    out.write(f"{HEADER}\t{len(table)}\n")
    for array, (_, dtype) in zip((table.es, table.fs, table.theta[:-2]), _BODY):
        data = memoryview(np.ascontiguousarray(array, dtype)).cast("B")
        for lo in range(0, len(data), _ENCODE_BYTES):
            piece = binascii.b2a_base64(data[lo : lo + _ENCODE_BYTES], newline=False)
            out.write(piece.decode("ascii"))
        out.write("\n")
    for text in trailer:
        out.write(text + "\n")


def read_ttable(lines: Iterable[str]) -> tuple[TranslationTable, list[str]]:
    """Parse a v2 or v1 model file; returns the table and any trailer
    lines. Lines may end in "\n". Errors name the model line at fault.

    In a v2 file, lines 2 to 4 are the body and the nonblank lines after
    it the trailer. Each body line must be the canonical base64 of the N
    values the header announces.
    """
    if not isinstance(lines, list):
        lines = list(lines)
    if not lines:
        raise DataFormatError("empty model file")
    head, _, count = _bare(lines[0]).partition("\t")
    if head == HEADER:
        if not (count.isascii() and count.isdigit()):
            raise DataFormatError(f"model line 1: expected {HEADER}<TAB>entries, got {count!r}")
        body = [_decode(lines, k, int(count)) for k in range(2, 5)]
        _check_entries(*body, lambda k, line: f"model line {line}: entry {k + 1}")
        trailer = [line for line in map(_bare, lines[4:]) if line]
        return TranslationTable.from_arrays(*body), trailer
    if _bare(lines[0]) != HEADER_V1:
        raise DataFormatError(f"model file must start with {HEADER!r} or {HEADER_V1!r}")
    return _read_v1(lines)


def _decode(lines: list[str], line: int, n: int) -> np.ndarray:
    """The n values that model line `line` holds, as its _BODY entry says."""
    name, dtype = _BODY[line - 2]
    where = f"model line {line}"
    if line > len(lines):
        raise DataFormatError(f"{where}: missing; expected the {name}")
    try:
        raw = _bare(lines[line - 1]).encode("ascii")
        data = binascii.a2b_base64(raw)
        if binascii.b2a_base64(data, newline=False) != raw:
            raise ValueError
    except ValueError:  # not ASCII, bad padding, or not the one canonical text
        raise DataFormatError(f"{where}: the {name} are not canonical base64") from None
    if len(data) != 8 * n:
        raise DataFormatError(f"{where}: {len(data)} bytes of {name}, not the {8 * n} of {n}")
    return np.frombuffer(data, dtype)


def _check_entries(e, f, p, where) -> None:
    """Raise unless every probability is in [0, 1] and the entries are in
    strictly ascending (e, f) order. where(k, line) names entry k, which
    model line `line` of a v2 file holds."""
    ok = (p >= 0.0) & (p <= 1.0)
    ok[1:] &= (e[1:] > e[:-1]) | ((e[1:] == e[:-1]) & (f[1:] > f[:-1]))
    if ok.all():
        return
    k = int(np.argmin(ok))
    if not 0.0 <= p[k] <= 1.0:
        raise DataFormatError(f"{where(k, 4)}: probability {float(p[k])} out of range")
    raise DataFormatError(
        f"{where(k, 2 if e[k] != e[k - 1] else 3)}: ({e[k]}, {f[k]}) is not after "
        f"({e[k - 1]}, {f[k - 1]})"
    )


def _read_v1(lines: list[str]) -> tuple[TranslationTable, list[str]]:
    """read_ttable of a v1 file, whose rows are `e<TAB>f<TAB>prob` text.

    Blank lines are skipped. The trailer is the run of lines at the end
    whose first field is not an integer; all lines before it are rows.
    np.loadtxt ignores a row's "\n", so only the header, the trailer and
    the lines an error names are stripped.
    """
    end = len(lines)
    while end > 1 and not _is_row(lines[end - 1]):
        end -= 1
    trailer = [line for line in map(_bare, lines[end:]) if line]
    block = lines[1:end]
    try:
        entries = _parse_rows(block)
    except ValueError:
        raise _first_row_error(block) from None
    e, f, p = entries["e"], entries["f"], entries["p"]

    def where(k: int, _) -> str:  # the k-th nonblank line of block
        return f"model line {np.flatnonzero([bool(_bare(line)) for line in block])[k] + 2}"

    _check_entries(e, f, p, where)
    return TranslationTable.from_arrays(e, f, p), trailer


def _parse_rows(block: list[str]) -> np.ndarray:
    """e, f, p records of `e<TAB>f<TAB>p` lines; blank lines are skipped."""
    if not any(map(_bare, block)):
        return np.empty(0, dtype=_ROW_DTYPE)
    return np.loadtxt(block, delimiter="\t", dtype=_ROW_DTYPE, comments=None, ndmin=1)


def _first_row_error(block: list[str]) -> DataFormatError:
    """The error naming the first line of block that _parse_rows rejects."""
    lo, hi = 0, len(block)  # block[:lo] parses and block[lo:hi] does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse_rows(block[lo:mid])
            lo = mid
        except ValueError:
            hi = mid
    if not _is_row(block[lo]):  # a trailer line; table rows follow
        lo = next(k for k in range(lo + 1, len(block)) if _is_row(block[k]))
        return DataFormatError(f"model line {lo + 2}: table row after trailer")
    return DataFormatError(
        f"model line {lo + 2}: expected e<TAB>f<TAB>prob (int, int, float), got "
        f"{_bare(block[lo])!r}"
    )


def _bare(line: str) -> str:
    """line without its trailing newline, if it has one."""
    return line.rstrip("\n")


def _is_row(line: str) -> bool:
    """Whether line's first field is an integer, as a table row's is."""
    return _is_int(_bare(line).split("\t", 1)[0])


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True
