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

Every model's E-step is one driver, _chunk_counts, run on each chunk: it
gathers the chunk's cells of theta once, times Model 2's prior, and hands
each group's block to the model's group pass. The pass overwrites the
block with the group's posterior weights and returns a small report (the
group's log-likelihood here; hmm.py's adds its jump statistics), or the
pairs that failed; the driver names the first failing pair in corpus
order, or sums the weights per slot in one bincount. _lexical_pass, the
pass of Model 1 and Model 2, normalizes each source position's cells over
its rows; hmm.py's _bw_pass runs forward-backward.

A training run packs its corpus once, in a ChunkRunner. Model training
starts from uniform_start: one sort of the corpus cells' (e, f) keys
gives both the uniform start table and every cell's slot in it, so the
runner lays the chunks out without looking a cell up; a runner on any
other table looks the cells up with table.slots. The runner maps
the driver over the chunks, in process or on one fork pool started on
first use and kept for the whole run; where fork is unavailable the
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
from itertools import chain
from typing import Callable, Iterator, NamedTuple, Optional, Protocol, TextIO

import numpy as np

from .corpus import Bitext, SentencePair
from .errors import NumericError, WorkerDiedError
from .ttable import DECODE_FLOOR, NULL_ID, TranslationTable, distinct_sorted

CHUNK_CELLS = 1 << 20  # cap on the cells m * (n + NULL) of a chunk's pairs
GROUP_CELLS = 1 << 16  # cap on pairs x max(longest m, longest n) x longest n of a group
MONOTONE_SLACK = 1e-9  # rounding allowance before a likelihood drop is reported
MSTEP_FLOOR = 1e-12  # the least expected count an M-step renormalizes

log = logging.getLogger(__name__)


class PriorProvider(Protocol):
    def matrix(self, m: int, n: int, use_null: bool) -> np.ndarray: ...


def pair_lengths(pairs: list[SentencePair], use_null: bool):
    """Each pair's rows, n + NULL, and its source length m."""
    rows = np.fromiter((pair.n + use_null for pair in pairs), np.int64, len(pairs))
    ms = np.fromiter((pair.m for pair in pairs), np.int64, len(pairs))
    return rows, ms


def corpus_cells(pairs: list[SentencePair], use_null: bool):
    """(e, f) ids of each pair's (target row, source position) cells, row-major
    with the NULL row last, pair after pair."""
    rows, ms = pair_lengths(pairs, use_null)
    null = (NULL_ID,) if use_null else ()
    tgt = np.fromiter(chain.from_iterable(p.target_ids + null for p in pairs), np.int64)
    src = np.fromiter(chain.from_iterable(pair.source_ids for pair in pairs), np.int64)
    row_m = np.repeat(ms, rows)  # source length behind each target row
    es = np.repeat(tgt, row_m)
    # Cell c of a row reads its pair's source token c - (the row's first cell).
    shift = np.repeat(np.cumsum(ms) - ms, rows) - (np.cumsum(row_m) - row_m)
    fs = src[np.repeat(shift, row_m) + np.arange(len(es))]
    return es, fs


def uniform_start(bitext: Bitext, use_null: bool) -> tuple[TranslationTable, np.ndarray]:
    """Model 1's start table, t(.|e) uniform over the source ids co-occurring
    with each target id (the NULL row, when used, with every source id),
    and each corpus cell's slot in it, cells as corpus_cells orders them.
    One sort of the cells' (e, f) keys gives both: the distinct keys are
    the table's entries in canonical order, and the inverse is what
    table.slots would look up."""
    es, fs = corpus_cells(bitext.pairs, use_null)
    e_ids, f_ids = distinct_sorted(es), distinct_sorted(fs)
    keys = np.searchsorted(e_ids, es) * len(f_ids) + np.searchsorted(f_ids, fs)
    del es, fs
    # Asked for the inverse, np.unique sorts; it does not hash (see distinct_sorted).
    entries, slots = np.unique(keys, return_inverse=True)
    del keys
    row, col = np.divmod(entries, len(f_ids))
    sizes = np.bincount(row)
    table = TranslationTable.from_arrays(e_ids[row], f_ids[col], np.repeat(1.0 / sizes, sizes))
    return table, slots


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
    """A run of pairs as groups, whose slots are views, one after another,
    of the flat array slots."""

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

    def __init__(
        self,
        bitext: Bitext,
        table: TranslationTable,
        use_null: bool,
        exact: Optional[np.ndarray] = None,
    ):
        """exact, when given, is each corpus cell's slot in table, cells as
        corpus_cells orders them (see uniform_start); otherwise table.slots
        looks them up."""
        self.use_null = use_null
        self.pairs = bitext.pairs
        self.n_slots = len(table)
        self.row_starts = table.row_starts
        if exact is None:
            exact = table.slots(*corpus_cells(bitext.pairs, use_null))
        rows, ms = pair_lengths(bitext.pairs, use_null)
        cells = rows * ms
        starts = np.cumsum(cells) - cells
        ns = rows - use_null
        self.max_n = int(ns.max(initial=0))  # the longest target
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
        return Chunk(slots, groups)

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
    group_pass: Callable,
    *args,
) -> tuple[np.ndarray, list]:
    """The E-step of chunk c, for every model: its cells of theta, times the
    prior when given, go group by group to group_pass(packed, g, block,
    *args). The pass overwrites the block with the group's posterior weights
    and returns (report, failures), failures as (pair, position, message).
    Returns the weights summed per slot in one bincount and the groups'
    reports; a failure raises NumericError naming the first failing pair in
    corpus order."""
    chunk = packed.chunks[c]
    cells = theta[chunk.slots]
    if prior is not None:
        cells *= packed.prior_cells(prior)[c]
    reports, failures = [], []
    for g, block in chunk.blocks(cells):
        report, failed = group_pass(packed, g, block, *args)
        reports.append(report)
        failures += failed
    if failures:
        k, _, message = min(failures)
        raise NumericError(f"pair {k + 1}: {message}")
    counts = np.bincount(chunk.slots, cells, minlength=packed.n_slots + 2)
    return counts[: packed.n_slots], reports  # miss and pad slots dropped


def _lexical_pass(packed: PackedCorpus, g: Group, block: np.ndarray, uniform: bool):
    """Group pass of Model 1 and Model 2 (see _chunk_counts): normalizes each
    source position's cells over its rows; reports the group's
    log-likelihood, with Model 1's uniform alignment term when uniform."""
    denom = block.sum(axis=2)
    denom[np.arange(len(denom))[:, None] >= g.ms] = 1.0  # past a pair's m
    bad = denom <= 0.0
    if bad.any():
        return None, [
            (g.pairs[b], j, f"source token id {packed.pairs[g.pairs[b]].source_ids[j]} at "
             f"position {j} has zero total probability under the table")
            for j, b in zip(*np.nonzero(bad))
        ]
    block /= denom[:, :, None]
    ll = float(np.log(denom).sum())
    if uniform:
        ll -= float(g.ms @ np.log(g.ns + packed.use_null))
    return ll, []


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
        self,
        bitext: Bitext,
        table: TranslationTable,
        use_null: bool,
        jobs: int = 1,
        exact: Optional[np.ndarray] = None,
    ):
        self.table = table
        self.packed = PackedCorpus(bitext, table, use_null, exact)
        self.jobs = max(1, min(jobs, len(self.packed.chunks)))
        if self.jobs > 1:
            # Imported only where a pool can start: a run of one chunk, and
            # every align, would pay about 2.6 ms for it.
            import multiprocessing

            if "fork" not in multiprocessing.get_all_start_methods():
                self.jobs = 1
        self._pool = None

    @classmethod
    def uniform(cls, bitext: Bitext, use_null: bool, jobs: int = 1) -> ChunkRunner:
        """A runner on uniform_start's table, packed from its sort."""
        table, exact = uniform_start(bitext, use_null)
        return cls(bitext, table, use_null, jobs, exact)

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
        import multiprocessing
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
    parts = runner.map(_chunk_counts, theta, prior, _lexical_pass, prior is None)
    for part_counts, reports in parts:
        counts += part_counts
        ll += sum(reports)
    return runner.packed.normalize_counts(counts), ll


def train_lexical(
    runner: ChunkRunner,
    iterations: int,
    prior: Optional[PriorProvider] = None,
    log_to: Optional[TextIO] = None,
) -> tuple[TranslationTable, list[float]]:
    """Lexical EM from the runner's table, closing the runner; returns the
    final table and the trace."""
    with runner:
        step = lambda theta: lexical_step(runner, theta, prior)
        theta, trace = run_em(step, with_pad(runner.table.theta), iterations, log_to)
    return runner.table.with_probs(theta[:-2]), trace
