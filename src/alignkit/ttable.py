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

Text format, used as the base of every model file:

    alignkit-ttable v1
    e_id<TAB>f_id<TAB>prob        # sorted by (e_id, f_id), no repeats, NULL as -1
    ... optional model-specific trailer lines ...

Each row of a model file sums to 1 within ROW_SUM_TOL. Decoders score
every cell at least DECODE_FLOOR, so an entry at or below it decodes
exactly like a missing one; `pruned` drops such entries before `train`
saves a model.
"""

from __future__ import annotations

import gc
import os
import threading
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, TextIO

import numpy as np

from .errors import DataFormatError

NULL_ID = -1

HEADER = "alignkit-ttable v1"

DECODE_FLOOR = 1e-12  # the least score a decoder gives any cell
MSTEP_FLOOR = 1e-12  # the least expected count an M-step renormalizes
ROW_SUM_TOL = 1e-9  # how far from 1 a model file's row may sum

_ROW_DTYPE = [("e", np.int64), ("f", np.int64), ("p", np.float64)]
_WRITE_BATCH = 1 << 16
# The fewest entries write_ttable hands each writer. In a fresh `train`
# process on a 2-vCPU VM, two writers broke even at about 12,000 entries:
# a model of 6,864 took 3.7 ms in process and 5.6 ms on two, one of
# 14,054 took 7.5 ms and 6.7 ms (medians of 20 alternating runs).
MIN_PART = 1 << 13
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


def write_ttable(
    out: TextIO, table: TranslationTable, trailer: Iterable[str] = (), jobs: int = 1
) -> None:
    """Write table and its trailer lines to out as a model file.

    The entries are cut into contiguous ranges, one per writer: up to
    jobs writers, with at least MIN_PART entries each. This process
    formats the first range and children made by os.fork() format the
    others, each sending its range back whole through a pipe, which this
    process appends to out in range order. So the text does not depend
    on the writer count. A child never touches out, stdout or logging,
    and it ends with os._exit, so no buffer it inherited is flushed
    twice. A child that fails or sends short raises an OSError naming
    its writer, and every child is reaped before write_ttable returns or
    raises. Nothing forks where os.fork does not exist or while this
    process runs other threads, since a fork copies none of them and
    Python 3.12 warns of it; `train` writes its model once
    ChunkRunner.map's pool has exited. Should a fork fail, this process
    writes the remaining ranges itself.
    """
    out.write(HEADER + "\n")
    writers = min(jobs, len(table) // MIN_PART)
    if writers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        writers = 1
    bounds = [len(table) * k // writers for k in range(writers + 1)]
    children = {}  # range index -> (pid, pipe read end) of its writer
    try:
        for k in range(1, writers):
            try:
                pipes = [read_end for _, read_end in children.values()]
                children[k] = _fork_writer(table, bounds[k], bounds[k + 1], pipes)
            except OSError:  # no process to spare
                break
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if k in children:
                name = f"model-file writer {k + 1} of {writers}"
                out.write(_collect(*children.pop(k), name, hi - lo))
            else:
                for text in _format_range(table, lo, hi):
                    out.write(text)
    finally:  # what an error left: a child blocked on its pipe stops on EPIPE
        for pid, read_end in children.values():
            os.close(read_end)
            os.waitpid(pid, 0)
    for text in trailer:
        out.write(text + "\n")


def _fork_writer(
    table: TranslationTable, lo: int, hi: int, pipes: list[int]
) -> tuple[int, int]:
    """(pid, pipe read end) of a child that formats entries [lo, hi) of
    table, sends them through the pipe and exits, with status 0 once all
    are sent. The child closes its copies of pipes, the read ends of the
    earlier writers, so that each read end is this process's alone."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            gc.disable()  # a collection could finalize an inherited file
            for fd in (read_end, *pipes):
                os.close(fd)
            data = "".join(_format_range(table, lo, hi)).encode()
            with open(write_end, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)  # else later children would hold it open
    return pid, read_end


def _collect(pid: int, read_end: int, name: str, lines: int) -> str:
    """The text a writer child sends through read_end, once the child is
    reaped; an OSError unless it exited 0 after sending all its lines."""
    try:
        with open(read_end, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status:
        raise OSError(f"{name} failed with exit code {os.waitstatus_to_exitcode(status)}")
    sent = data.count(b"\n")
    if sent != lines:
        raise OSError(f"{name} sent {sent} of its {lines} lines")
    return data.decode()


def _format_range(table: TranslationTable, lo: int, hi: int) -> Iterator[str]:
    """The model-file lines of entries [lo, hi), in pieces of at most
    _WRITE_BATCH lines, which bound the memory their strings take."""
    for start in range(lo, hi, _WRITE_BATCH):
        part = slice(start, min(start + _WRITE_BATCH, hi))
        es, fs = _id_strings(table.es[part]), _id_strings(table.fs[part])
        probs = map(repr, table.theta[part].tolist())
        yield "\n".join(map("\t".join, zip(es, fs, probs))) + "\n"


def _id_strings(ids: np.ndarray) -> list[str]:
    """str of each id, formatting each distinct id once."""
    distinct, inverse = np.unique(ids, return_inverse=True)
    return np.array(list(map(str, distinct.tolist())), dtype=object)[inverse].tolist()


def read_ttable(lines: Iterable[str]) -> tuple[TranslationTable, list[str]]:
    """Parse a model file; returns the table and any trailer lines.

    Blank lines are skipped. The trailer is the run of lines at the end
    whose first field is not an integer; all lines before it are rows.
    Lines may end in "\n". np.loadtxt ignores it in the rows, so only the
    header, the trailer and the lines an error names are stripped.
    """
    if not isinstance(lines, list):
        lines = list(lines)
    if not lines:
        raise DataFormatError("empty model file")
    if _bare(lines[0]) != HEADER:
        raise DataFormatError(f"model file must start with {HEADER!r}")
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
    ok = (p >= 0.0) & (p <= 1.0)
    ok[1:] &= (e[1:] > e[:-1]) | ((e[1:] == e[:-1]) & (f[1:] > f[:-1]))
    if not ok.all():
        k = int(np.argmin(ok))
        where = f"model line {np.flatnonzero([bool(_bare(line)) for line in block])[k] + 2}"
        if not 0.0 <= p[k] <= 1.0:
            raise DataFormatError(f"{where}: probability {float(p[k])} out of range")
        raise DataFormatError(f"{where}: ({e[k]}, {f[k]}) is not after ({e[k-1]}, {f[k-1]})")
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
