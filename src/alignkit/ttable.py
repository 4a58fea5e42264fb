"""Sparse conditional translation table t(f | e) shared by all aligners.

Rows are keyed by target id e (NULL_ID = -1 for the empty target word),
each row a distribution over the source ids f that co-occurred with e in
training (the NULL row co-occurs with everything).

The table is flat. Its entries run in canonical (e, f) order: row
`row_ids[r]` starts at entry `row_starts[r]`, and the arrays `fs` and
`theta` hold each entry's source id and probability. The table stores
no target id per entry; `es` rebuilds that array from the rows whenever
it is read, for writing a model file or pruning.
`theta` ends with two more slots, both 0.0: the miss slot len(table),
where `slots` maps every cell the table lacks, and the pad slot
len(table) + 1, where a packed corpus (see _packed.py) points the cells
past a pair's own m or n. So packing, training and decoding all read
t(f | e) as one gather theta[slots]. Decoders gather from `decode_theta`
instead, which floors the entries and the miss slot at DECODE_FLOOR and
keeps the pad slot 0, so padding adds nothing to a sum and never wins
an argmax; the table builds that read-only copy on its first decode and
keeps it, so decoding pair by pair floors the table once, not per call.
EM maps tables to tables: `normalized` is the M-step, and the table it
returns shares its support arrays with its parent.

Model files, v3, the format `train` writes:

    alignkit-ttable v3<TAB>N      # N entries
    the body: 24 * N bytes        # model line 2
    a newline
    ... optional model-specific trailer lines, UTF-8 ...

The body is three little-endian arrays of N values back to back: the
target ids (int64, sorted by (e_id, f_id), no repeats, NULL as -1), the
source ids (int64) and the probabilities (float64). So a write copies
the table's arrays out and a read copies them in, without formatting,
parsing or decoding a number; only the header and the trailer are text.
The body counts as model line 2, whatever bytes it holds, and the
trailer starts on model line 3.

`read_ttable` also reads the two text formats `train` wrote before.
In v2, the header is `alignkit-ttable v2<TAB>N` and lines 2 to 4 each
hold the standard padded base64 of one of the three arrays. In v1, a
text row `e_id<TAB>f_id<TAB>prob` stands for each entry after the header
line `alignkit-ttable v1`. Nothing writes either any more.

Each row of a model file sums to 1 within ROW_SUM_TOL. Decoders score
every cell at least DECODE_FLOOR, so an entry at or below it decodes
exactly like a missing one; `pruned` drops such entries before `train`
saves a model.
"""

from __future__ import annotations

import binascii
from functools import cached_property
from types import MappingProxyType
from typing import BinaryIO, Iterable, Mapping

import numpy as np

from .errors import DataFormatError

NULL_ID = -1

HEADER = "alignkit-ttable v3"
HEADER_V2 = "alignkit-ttable v2"
HEADER_V1 = "alignkit-ttable v1"

DECODE_FLOOR = 1e-12  # the least score a decoder gives any cell
MSTEP_FLOOR = 1e-12  # the least expected count an M-step renormalizes
ROW_SUM_TOL = 1e-9  # how far from 1 a model file's row may sum

# The arrays of a body, in order (in v2 one a line): what each holds and its dtype.
_BODY = (("target ids", "<i8"), ("source ids", "<i8"), ("probabilities", "<f8"))
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
        """es is read here only: the rows are all that the table keeps of it."""
        es = np.asarray(es, dtype=np.int64)
        self.fs = np.ascontiguousarray(fs, dtype=np.int64)
        self.fs.flags.writeable = False
        new_row = np.ones(len(es), dtype=bool)
        np.not_equal(es[1:], es[:-1], out=new_row[1:])
        self.row_starts = np.flatnonzero(new_row)
        self.row_ids = es[self.row_starts]
        self._set_probs(probs)

    def _set_probs(self, probs) -> None:
        self.theta = np.zeros(len(self.fs) + 2)  # the miss and pad slots last
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
        table.row_starts, table.row_ids, table.fs = self.row_starts, self.row_ids, self.fs
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

    @cached_property
    def decode_theta(self) -> np.ndarray:
        """theta with every entry and the miss slot floored at DECODE_FLOOR,
        as decoders score them; the pad slot stays 0. Read-only, built on
        the first decode and kept for the next."""
        theta = self.theta.copy()
        np.maximum(theta[:-1], DECODE_FLOOR, out=theta[:-1])
        theta.flags.writeable = False
        return theta

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
        return len(self.fs)

    @property
    def es(self) -> np.ndarray:
        """Each entry's target id, rebuilt from the rows on every read."""
        return np.repeat(self.row_ids, np.diff(self.row_starts, append=len(self)))

    def worst_row(self) -> tuple[int | None, float]:
        """(e, row sum) of the row summing farthest from 1; (None, 1.0) if empty."""
        if not len(self):
            return None, 1.0
        sums = np.add.reduceat(self.theta[:-2], self.row_starts)
        r = int(np.argmax(np.abs(sums - 1.0)))
        return int(self.row_ids[r]), float(sums[r])


def write_ttable(out: BinaryIO, table: TranslationTable, trailer: Iterable[str] = ()) -> None:
    """Write table and its trailer lines to the binary stream out as a v3
    model file."""
    out.write(f"{HEADER}\t{len(table)}\n".encode("ascii"))
    for array, (_, dtype) in zip((table.es, table.fs, table.theta[:-2]), _BODY):
        out.write(np.ascontiguousarray(array, dtype))
    out.write("".join(["\n", *(text + "\n" for text in trailer)]).encode("utf-8"))


def read_ttable(data: bytes) -> tuple[TranslationTable, list[str], list[int]]:
    """Parse the bytes of a v3, v2 or v1 model file; returns the table, the
    trailer rows and the model line of each. Errors name the model line
    at fault.

    A v3 file's body is copied into the table's arrays, so the table
    keeps nothing of data alive. v2 and v1 files are decoded whole as
    UTF-8, and a file that does not decode raises UnicodeDecodeError. In
    a v2 file, lines 2 to 4 are the body and the nonblank lines after it
    the trailer. Each body line must be the canonical base64 of the N
    values the header announces.
    """
    end = data.find(b"\n")  # of the header line
    head, _, count = (data if end < 0 else data[:end]).partition(b"\t")
    if head == HEADER.encode("ascii"):
        return _read_v3(data, count.decode("utf-8", "backslashreplace"), end)
    lines = data.decode("utf-8").splitlines()
    if not lines:
        raise DataFormatError("empty model file")
    head, _, count = lines[0].partition("\t")
    if head != HEADER_V2:
        if lines[0] != HEADER_V1:
            raise DataFormatError(
                f"model file must start with {HEADER!r}, {HEADER_V2!r} or {HEADER_V1!r}"
            )
        return _read_v1(lines)
    n = _count(count, HEADER_V2)
    body = [_decode(lines, k, n) for k in range(2, 5)]
    _check_entries(*body, lambda k, line: f"model line {line}: entry {k + 1}")
    return (TranslationTable.from_arrays(*body), *_trailer(lines[4:], 5))


def _count(count: str, header: str) -> int:
    """The entry count of a header line whose count field is count."""
    if not (count.isascii() and count.isdigit()):
        raise DataFormatError(f"model line 1: expected {header}<TAB>entries, got {count!r}")
    return int(count)


def _read_v3(data: bytes, count: str, end: int) -> tuple[TranslationTable, list[str], list[int]]:
    """read_ttable of a v3 file, whose header line has the count field
    count and ends at data[end] (-1: it has no newline). The body's size
    is checked against the count before anything is sized by it."""
    n = _count(count, HEADER)
    if end < 0:
        raise DataFormatError("model line 1: no newline after the header")
    start, size = end + 1, 24 * n
    where = "model line 2"
    if len(data) - start < size:
        raise DataFormatError(
            f"{where}: {len(data) - start} bytes of entries, not the {size} of {n}"
        )
    if len(data) == start + size:
        raise DataFormatError(f"{where}: no newline after the {size} bytes of {n} entries")
    if data[start + size] != ord("\n"):
        raise DataFormatError(f"{where}: more than the {size} bytes of {n} entries")
    # A copy of the source ids, which the table keeps, and views of the
    # target ids, which it reads only to find its rows, and of the
    # probabilities, which theta copies.
    e, f, p = (
        np.frombuffer(data, dtype, n, start + 8 * n * k) for k, (_, dtype) in enumerate(_BODY)
    )
    f = f.copy()
    _check_entries(e, f, p, lambda k, _: f"{where}: entry {k + 1}")
    tail = data[start + size + 1 :]
    try:
        text = tail.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The lines before the bad byte, and the line it is on.
        line = 2 + len((tail[: exc.start].decode("utf-8") + "x").splitlines())
        raise DataFormatError(f"model line {line}: not UTF-8: {exc.reason}") from None
    return (TranslationTable.from_arrays(e, f, p), *_trailer(text.splitlines(), 3))


def _trailer(lines: list[str], first: int) -> tuple[list[str], list[int]]:
    """The nonblank lines of lines, which start on model line `first`, and
    the model line of each."""
    rows = [(k, line) for k, line in enumerate(lines, start=first) if line]
    return [line for _, line in rows], [k for k, _ in rows]


def _decode(lines: list[str], line: int, n: int) -> np.ndarray:
    """The n values that model line `line` of a v2 file holds, as its
    _BODY entry says."""
    name, dtype = _BODY[line - 2]
    where = f"model line {line}"
    if line > len(lines):
        raise DataFormatError(f"{where}: missing; expected the {name}")
    try:
        raw = lines[line - 1].encode("ascii")
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


def _read_v1(lines: list[str]) -> tuple[TranslationTable, list[str], list[int]]:
    """read_ttable of a v1 file, whose rows are `e<TAB>f<TAB>prob` text.

    Blank lines are skipped. The trailer is the run of lines at the end
    whose first field is not an integer; all lines before it are rows.
    """
    end = len(lines)
    while end > 1 and not _is_row(lines[end - 1]):
        end -= 1
    block = lines[1:end]
    try:
        entries = _parse_rows(block)
    except ValueError:
        raise _first_row_error(block) from None
    e, f, p = entries["e"], entries["f"], entries["p"]

    def where(k: int, _) -> str:  # the k-th nonblank line of block
        return f"model line {np.flatnonzero([bool(line) for line in block])[k] + 2}"

    _check_entries(e, f, p, where)
    return (TranslationTable.from_arrays(e, f, p), *_trailer(lines[end:], end + 1))


def _parse_rows(block: list[str]) -> np.ndarray:
    """e, f, p records of `e<TAB>f<TAB>p` lines; blank lines are skipped."""
    if not any(block):
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
        f"{block[lo]!r}"
    )


def _is_row(line: str) -> bool:
    """Whether line's first field is an integer, as a table row's is."""
    try:
        int(line.split("\t", 1)[0])
    except ValueError:
        return False
    return True
