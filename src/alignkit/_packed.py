"""The lexical EM engine shared by Model 1, Model 2 and the HMM.

Training runs on the table's flat parameter vector theta (see ttable.py).
A PackedCorpus lays its bitext out once, as slot indices into theta, and
every E-step and decoder reads that one layout. The pairs are cut, in
corpus order, into chunks of at most CHUNK_CELLS cells, m * (n + NULL) a
pair. Inside a chunk they run by descending m, then descending n, then
corpus index, cut into groups whose B * max(M, N) * N stays within
GROUP_CELLS (B pairs, longest source M, longest target N); a pair alone
is always a group. A group is stored position-major, as (M, B, N + NULL)
slot indices with NULL in the last column, so one gather theta[slots]
reads its values. Cells past a pair's own m or n point at the pad slot,
one past the miss slot, which is 0 in every theta gathered from, decoders'
included, so padding adds nothing to a sum and never wins an argmax.

A training run packs its corpus once, in a ChunkRunner. The runner maps
a module-level chunk function (lexical_step's E-step here, hmm.py's
Baum-Welch pass) over the chunks, in process or on one fork pool started
on first use and kept for the whole run; where fork is unavailable the
chunks run in process. A corpus of one chunk starts no pool. On corpora of
two to four chunks a 2-worker pool trained no faster than one process on a
2-vCPU machine, and slower on a 2.25M-slot table: each task carries all of
theta out and a dense count vector back. Results come back, and are
merged, in ascending chunk order. The chunks never depend on the worker
count, so the merges add the same partial sums in the same order and
results are bitwise identical no matter how many processes run the
chunks; a worker that dies ends the run with WorkerDiedError. run_em is
the one iteration loop: it writes the per-iteration log-likelihood line
and warns when an iteration lowers the likelihood, which EM never does.
"""

from __future__ import annotations

import logging
import multiprocessing
from itertools import chain
from typing import Callable, Iterator, NamedTuple, Optional, Protocol, TextIO

import numpy as np

from .corpus import Bitext, SentencePair
from .errors import NumericError, WorkerDiedError
from .ttable import DECODE_FLOOR, NULL_ID, TranslationTable

CHUNK_CELLS = 1 << 20  # cap on the cells m * (n + NULL) of a chunk's pairs
GROUP_CELLS = 1 << 16  # cap on pairs x max(longest m, longest n) x longest n of a group
MONOTONE_SLACK = 1e-9  # rounding allowance before a likelihood drop is reported
MSTEP_FLOOR = 1e-12  # the least expected count an M-step renormalizes

log = logging.getLogger(__name__)


class PriorProvider(Protocol):
    def matrix(self, m: int, n: int, use_null: bool) -> np.ndarray: ...


def corpus_cells(pairs: list[SentencePair], use_null: bool):
    """(e, f) ids of each pair's (target row, source position) cells, row-major
    with the NULL row last, pair after pair; and each pair's rows and m."""
    ms = np.fromiter((pair.m for pair in pairs), np.int64, len(pairs))
    rows = np.fromiter((pair.n + use_null for pair in pairs), np.int64, len(pairs))
    null = (NULL_ID,) if use_null else ()
    tgt = np.fromiter(chain.from_iterable(p.target_ids + null for p in pairs), np.int64)
    src = np.fromiter(chain.from_iterable(pair.source_ids for pair in pairs), np.int64)
    row_m = np.repeat(ms, rows)  # source length behind each target row
    es = np.repeat(tgt, row_m)
    # Cell c of a row reads its pair's source token c - (the row's first cell).
    shift = np.repeat(np.cumsum(ms) - ms, rows) - (np.cumsum(row_m) - row_m)
    fs = src[np.repeat(shift, row_m) + np.arange(len(es))]
    return es, fs, rows, ms


class Group(NamedTuple):
    """Pairs laid out position-major, by descending m, then descending n,
    then corpus index; active[j] of them have m > j. slots is (M, B, N +
    NULL): target positions, then NULL in the last column."""

    pairs: list[int]  # corpus indices
    ms: np.ndarray
    ns: np.ndarray  # target lengths, NULL not counted
    active: list[int]
    slots: np.ndarray

    def shapes(self) -> Iterator[tuple[int, int, int, int]]:
        """(b0, b1, m, n) for each run of pairs b0..b1 - 1 of one shape."""
        cuts = np.flatnonzero((np.diff(self.ms) != 0) | (np.diff(self.ns) != 0)) + 1
        bounds = [0, *cuts.tolist(), len(self.pairs)]
        for b0, b1 in zip(bounds, bounds[1:]):
            yield b0, b1, int(self.ms[b0]), int(self.ns[b0])


class Chunk(NamedTuple):
    """Pairs [lo, hi) as groups, whose slots are views, one after another,
    of the flat array slots."""

    lo: int
    hi: int
    slots: np.ndarray
    groups: list[Group]

    def blocks(self, cells: np.ndarray) -> Iterator[tuple[Group, np.ndarray]]:
        """Each group, with its view of a flat per-cell array shaped like slots."""
        start = 0
        for g in self.groups:
            stop = start + g.slots.size
            yield g, cells[start:stop].reshape(g.slots.shape)
            start = stop


def with_pad(theta: np.ndarray) -> np.ndarray:
    """A table's theta, miss slot last, with the pad slot, 0, appended: the
    theta that E-steps and decoders gather from."""
    return np.append(theta, 0.0)


def decode_theta(table: TranslationTable) -> np.ndarray:
    """with_pad(table.theta) with every entry and the miss slot floored at
    DECODE_FLOOR, as decoders score them; padding stays 0."""
    theta = with_pad(table.theta)
    np.maximum(theta[:-1], DECODE_FLOOR, out=theta[:-1])
    return theta


def chunk_bounds(cells: np.ndarray) -> list[tuple[int, int]]:
    """[lo, hi) ranges of pairs, in corpus order, with at most CHUNK_CELLS
    cells each; a pair alone is always a chunk."""
    bounds, lo, total = [], 0, 0
    for k, size in enumerate(cells.tolist()):
        if k > lo and total + size > CHUNK_CELLS:
            bounds.append((lo, k))
            lo, total = k, 0
        total += size
    if lo < len(cells):
        bounds.append((lo, len(cells)))
    return bounds


def _group_cuts(ms: list[int], ns: list[int]) -> list[tuple[int, int]]:
    """[start, stop) groups of pairs sorted by descending m."""
    cuts, start, width = [], 0, 0
    for i, n in enumerate(ns):
        wider = max(width, n)
        if i > start and (i + 1 - start) * max(ms[start], wider) * wider > GROUP_CELLS:
            cuts.append((start, i))
            start, wider = i, n
        width = wider
    return cuts + [(start, len(ns))] if ns else cuts


class PackedCorpus:
    """A bitext's chunks and groups as slot indices into a fixed table's theta."""

    def __init__(self, bitext: Bitext, table: TranslationTable, use_null: bool):
        self.use_null = use_null
        self.pairs = bitext.pairs
        self.n_slots = len(table)
        self.row_starts = table.row_starts
        es, fs, rows, ms = corpus_cells(bitext.pairs, use_null)
        exact = table.slots(es, fs)  # each pair's cells, row-major, NULL row last
        del es, fs
        cells = rows * ms
        starts = np.cumsum(cells) - cells
        ns = rows - use_null
        self.chunks = [
            self._chunk(lo, hi, exact, starts, ms, ns) for lo, hi in chunk_bounds(cells)
        ]
        self._priors: dict = {}

    def _chunk(self, lo, hi, exact, starts, ms, ns) -> Chunk:
        use_null = self.use_null
        order = (lo + np.lexsort((-ns[lo:hi], -ms[lo:hi]))).tolist()
        sorted_ms, sorted_ns = ms[order], ns[order]
        spans = _group_cuts(sorted_ms.tolist(), sorted_ns.tolist())
        shapes = [
            (int(sorted_ms[start]), stop - start, int(sorted_ns[start:stop].max()) + use_null)
            for start, stop in spans
        ]
        sizes = [m * b * c for m, b, c in shapes]
        slots = np.full(sum(sizes), self.n_slots + 1, dtype=np.int64)  # the pad slot
        groups, offset = [], 0
        for (start, stop), shape, size in zip(spans, shapes, sizes):
            g_ms = sorted_ms[start:stop]
            counts = np.bincount(g_ms, minlength=shape[0] + 1)
            g = Group(
                order[start:stop], g_ms, sorted_ns[start:stop],
                (len(g_ms) - np.cumsum(counts)[:-1]).tolist(),
                slots[offset : offset + size].reshape(shape),
            )
            offset += size
            for b0, b1, m, n in g.shapes():
                pair_cells = exact[
                    starts[g.pairs[b0:b1]][:, None] + np.arange((n + use_null) * m)
                ].reshape(b1 - b0, n + use_null, m)
                g.slots[:m, b0:b1, :n] = pair_cells[:, :n].transpose(2, 0, 1)
                if use_null:
                    g.slots[:m, b0:b1, -1] = pair_cells[:, n].T
            groups.append(g)
        return Chunk(lo, hi, slots, groups)

    def __len__(self) -> int:
        return len(self.pairs)

    def prior_cells(self, prior: PriorProvider) -> list[np.ndarray]:
        """prior.matrix laid out like each chunk's slots, padding 0; built once
        per prior."""
        cached = self._priors.get(prior)
        if cached is None:
            cached = self._priors[prior] = []
            for chunk in self.chunks:
                cells = np.zeros(len(chunk.slots))
                for g, block in chunk.blocks(cells):
                    for b0, b1, m, n in g.shapes():
                        matrix = prior.matrix(m, n, self.use_null)
                        block[:m, b0:b1, :n] = matrix[:n].T[:, None, :]
                        if self.use_null:
                            block[:m, b0:b1, -1] = matrix[n][:, None]
                cached.append(cells)
        return cached

    def scatter(self, slots: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Per-slot sums of the weights of cells `slots`, miss and pad slots dropped."""
        counts = np.bincount(slots, weights, minlength=self.n_slots + 2)
        return counts[: self.n_slots]

    def normalize_counts(self, counts: np.ndarray) -> np.ndarray:
        """M-step: floor expected counts at MSTEP_FLOOR, renormalize each target
        row; returns the new theta with its miss and pad slots."""
        floored = np.maximum(counts, MSTEP_FLOOR)
        row_sums = np.add.reduceat(floored, self.row_starts)
        lengths = np.diff(self.row_starts, append=self.n_slots)
        theta = np.zeros(self.n_slots + 2)
        np.divide(floored, np.repeat(row_sums, lengths), out=theta[: self.n_slots])
        return theta


def _chunk_counts(
    packed: PackedCorpus,
    c: int,
    theta: np.ndarray,
    prior: Optional[PriorProvider],
) -> tuple[np.ndarray, float]:
    """Expected counts and log-likelihood contribution of chunk c: its cells
    of theta, times the prior when given, normalized over each source
    position's rows group by group, and summed per slot in one bincount."""
    chunk = packed.chunks[c]
    probs = theta[chunk.slots]
    if prior is not None:
        probs *= packed.prior_cells(prior)[c]
    ll = 0.0
    failures = []
    for g, block in chunk.blocks(probs):
        denom = block.sum(axis=2)
        denom[np.arange(len(denom))[:, None] >= g.ms] = 1.0  # past a pair's m
        bad = denom <= 0.0
        if bad.any():
            failures.extend((g.pairs[b], j) for j, b in zip(*np.nonzero(bad)))
            continue
        block /= denom[:, :, None]
        ll += float(np.log(denom).sum())
        if prior is None:
            ll -= float(g.ms @ np.log(g.ns + packed.use_null))
    if failures:
        k, j = min(failures)
        raise NumericError(
            f"pair {k + 1}: source token id {packed.pairs[k].source_ids[j]} at "
            f"position {j} has zero total probability under the table"
        )
    return packed.scatter(chunk.slots, probs), ll


_WORKER_PACKED: Optional[PackedCorpus] = None  # set in each pool worker


def _worker_init(packed: PackedCorpus) -> None:
    global _WORKER_PACKED
    _WORKER_PACKED = packed


def _worker_chunk(task):
    fn, c, args = task
    return fn(_WORKER_PACKED, c, *args)


class ChunkRunner:
    """Packs a bitext once and maps chunk functions over its fixed chunks.

    The pool is created lazily on the first parallel call and must be
    closed via the context-manager protocol or close().
    """

    def __init__(
        self, bitext: Bitext, table: TranslationTable, use_null: bool, jobs: int = 1
    ):
        self.packed = PackedCorpus(bitext, table, use_null)
        fork = "fork" in multiprocessing.get_all_start_methods()
        self.jobs = max(1, min(jobs, len(self.packed.chunks))) if fork else 1
        self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def map(self, fn: Callable, *args) -> list:
        """fn(packed, c, *args) for every chunk c, in ascending chunk order.

        fn must be a module-level function, so that a worker can unpickle it.
        """
        chunks = range(len(self.packed.chunks))
        if self.jobs == 1:
            return [fn(self.packed, c, *args) for c in chunks]
        # Imported here: it costs a command about 8 ms of start-up, and most
        # runs are one chunk and start no pool.
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        if self._pool is None:
            # Workers inherit the packed corpus through fork; only the
            # per-call arguments are pickled.
            self._pool = ProcessPoolExecutor(
                self.jobs,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_worker_init,
                initargs=(self.packed,),
            )
        tasks = [(fn, c, args) for c in chunks]
        try:
            return list(
                self._pool.map(_worker_chunk, tasks, chunksize=max(1, len(tasks) // self.jobs))
            )
        except BrokenExecutor:
            raise WorkerDiedError(
                "a worker process died before finishing its chunk; rerun with --jobs 1"
            ) from None


def run_em(step: Callable, state, iterations: int, log_to: Optional[TextIO] = None):
    """Apply step(state) -> (state, ll) `iterations` times; returns the final
    state and the trace of each step's input log-likelihood, which is also
    logged to log_to when given."""
    trace: list[float] = []
    for it in range(iterations):
        state, ll = step(state)
        if trace and ll < trace[-1] - MONOTONE_SLACK:
            log.warning(
                "iteration %d: log-likelihood %.6f is below iteration %d's %.6f",
                it + 1, ll, it, trace[-1],
            )
        trace.append(ll)
        if log_to is not None:
            log_to.write(f"iteration {it + 1}: log-likelihood {ll:.6f}\n")
    return state, trace


def lexical_step(
    runner: ChunkRunner, theta: np.ndarray, prior: Optional[PriorProvider] = None
) -> tuple[np.ndarray, float]:
    """One lexical EM step, Model 1 without a prior and Model 2 with one:
    the re-estimated theta and the log-likelihood of the input theta, both
    with the pad slot (see with_pad)."""
    if prior is not None:
        runner.packed.prior_cells(prior)  # laid out before any worker forks
    counts = np.zeros(runner.packed.n_slots)
    ll = 0.0
    for part_counts, part_ll in runner.map(_chunk_counts, theta, prior):
        counts += part_counts
        ll += part_ll
    return runner.packed.normalize_counts(counts), ll


def train_lexical(
    bitext: Bitext,
    table: TranslationTable,
    use_null: bool,
    iterations: int,
    prior: Optional[PriorProvider] = None,
    jobs: int = 1,
    log_to: Optional[TextIO] = None,
) -> tuple[TranslationTable, list[float]]:
    """Lexical EM from `table`; returns the final table and the trace."""
    with ChunkRunner(bitext, table, use_null, jobs) as runner:
        step = lambda theta: lexical_step(runner, theta, prior)
        theta, trace = run_em(step, with_pad(table.theta), iterations, log_to)
    return table.with_probs(theta[:-2]), trace
