"""The lexical EM engine shared by Model 1, Model 2 and the HMM.

EM runs on TranslationTables: each step gathers from table.theta and
hands the expected counts to table.normalized, the M-step. A PackedCorpus
lays its bitext out once, as slot indices into theta (see ttable.py for
its layout), and every E-step and decoder reads that one layout, one
chunk's cells at a time through PackedCorpus.cells. The pairs are cut, in
corpus order, into chunks of at most CHUNK_CELLS cells, m * (n + NULL) a
pair. Inside a chunk they run by descending m, then descending n, then
corpus index, cut into groups whose B * max(M, N) * N stays within
GROUP_CELLS (B pairs, longest source M, longest target N); a pair alone
is always a group. A group is stored position-major, as (M, B, N + NULL)
slot indices with NULL in the last column, so one gather theta[slots]
reads its values. Cells past a pair's own m or n point at theta's pad
slot.

Every model's E-step is one driver, _chunk_counts, run on each chunk: it
gathers the chunk's cells, times Model 2's prior, and hands each group's
block to the model's group pass. The pass overwrites the block with the
group's posterior weights and returns a small report (the group's
log-likelihood here; hmm.py's adds its jump statistics), or the pairs
that failed; the driver names the first failing pair in corpus order, or
sums the weights per slot in one bincount. _lexical_pass, the pass of
Model 1 and Model 2, normalizes each source position's cells over its
rows; hmm.py's _bw_pass runs forward-backward.

A model run holds one PackedCorpus. Training starts from uniform_packed:
one sort of the corpus cells' (e, f) keys gives both the uniform start
table and every cell's slot in it, so the chunks are laid out without
looking a cell up; on any other table the cells are looked up with
table.slots. Model 2's fixed prior is laid out beside the slots while
packing. PackedCorpus.map runs the driver over the chunks, in process for
one worker or one chunk, and otherwise on a thread pool that lives for
the one map call. The threads share the packed corpus and theta, so
nothing is copied or pickled, and numpy releases the GIL in much of a
chunk's array work. A pass writes only its own chunk's cells and no
module state, so the threads share nothing mutable; an errstate a pass
sets holds in its own thread only. Results come back one at a time, in
ascending chunk order, and are merged as they come: the first chunk's
counts become the sum and later ones are added into it, so a run holds
the sum and at most jobs chunks' counts besides it, and no zero-filled
vector. The chunks never depend on the worker count, so the merges add
the same partial sums in the same order and results are bitwise
identical however many threads run them.
run_em is the one iteration loop: it writes the per-iteration
log-likelihood line and warns when an iteration lowers the likelihood,
which EM never does.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Callable, Iterator, NamedTuple, Optional, Protocol, TextIO

import numpy as np

from .corpus import Bitext, SentencePair
from .errors import NumericError, warn
from .ttable import NULL_ID, TranslationTable, _rank, distinct_sorted

CHUNK_CELLS = 1 << 20  # cap on the cells m * (n + NULL) of a chunk's pairs
GROUP_CELLS = 1 << 16  # cap on pairs x max(longest m, longest n) x longest n of a group
MONOTONE_SLACK = 1e-9  # rounding allowance before a likelihood drop is reported


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
    keys = _rank(e_ids, es)[0] * len(f_ids) + _rank(f_ids, fs)[0]
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


class Chunk(NamedTuple):
    """A run of pairs as groups, whose slots are views, one after another,
    of the flat array slots; prior, when the corpus has one, is the prior's
    value of each cell, laid out like slots, padding 0."""

    slots: np.ndarray
    groups: list[Group]
    prior: Optional[np.ndarray]

    def blocks(self, cells: np.ndarray) -> Iterator[tuple[Group, np.ndarray]]:
        """Each group, with its view of a flat per-cell array shaped like slots."""
        start = 0
        for g in self.groups:
            stop = start + g.slots.size
            yield g, cells[start:stop].reshape(g.slots.shape)
            start = stop


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
    """A bitext's chunks and groups as slot indices into a fixed table's
    theta, with a fixed prior's cells beside them when given; maps chunk
    functions over the chunks on up to jobs threads, one per chunk at most."""

    def __init__(
        self,
        bitext: Bitext,
        table: TranslationTable,
        use_null: bool,
        prior: Optional[PriorProvider] = None,
        jobs: int = 1,
        exact: Optional[np.ndarray] = None,
    ):
        """exact, when given, is each corpus cell's slot in table, cells as
        corpus_cells orders them (see uniform_start); otherwise table.slots
        looks them up."""
        self.use_null = use_null
        self.pairs = bitext.pairs
        # Held for the run though only its length is read: freeing the start
        # table after the first step let glibc trim and re-fault the heap top
        # on every E-step (HMM, 120 long pairs: 4.8x the page faults, +28% time).
        self.table = table
        self.n_slots = len(table)
        self.prior = prior
        if exact is None:
            exact = table.slots(*corpus_cells(bitext.pairs, use_null))
        rows, ms = pair_lengths(bitext.pairs, use_null)
        cells = rows * ms
        starts = np.cumsum(cells) - cells
        ns = rows - use_null
        self.max_n = int(ns.max(initial=0))  # the longest target
        matrices: dict = {}  # prior.matrix of each (m, n), built once
        self.chunks = [
            self._chunk(lo, hi, exact, starts, ms, ns, matrices)
            for lo, hi in chunk_bounds(cells)
        ]
        self.jobs = max(1, min(jobs, len(self.chunks)))

    def _chunk(self, lo, hi, exact, starts, ms, ns, matrices) -> Chunk:
        use_null, prior = self.use_null, self.prior
        order = (lo + np.lexsort((-ns[lo:hi], -ms[lo:hi]))).tolist()
        sorted_ms, sorted_ns = ms[order], ns[order]
        spans = _group_cuts(sorted_ms.tolist(), sorted_ns.tolist())
        shapes = [
            (int(sorted_ms[start]), stop - start, int(sorted_ns[start:stop].max()) + use_null)
            for start, stop in spans
        ]
        sizes = [m * b * c for m, b, c in shapes]
        slots = np.full(sum(sizes), self.n_slots + 1, dtype=np.int64)  # the pad slot
        weights = None if prior is None else np.zeros(len(slots))
        groups, offset = [], 0
        for (start, stop), shape, size in zip(spans, shapes, sizes):
            g_ms, g_ns = sorted_ms[start:stop], sorted_ns[start:stop]
            counts = np.bincount(g_ms, minlength=shape[0] + 1)
            g = Group(
                order[start:stop], g_ms, g_ns, (len(g_ms) - np.cumsum(counts)[:-1]).tolist(),
                slots[offset : offset + size].reshape(shape),
            )
            # Pairs b0..b1 - 1 of one shape (m, n) are laid out together.
            cuts = np.flatnonzero((np.diff(g_ms) != 0) | (np.diff(g_ns) != 0)) + 1
            bounds = [0, *cuts.tolist(), stop - start]
            for b0, b1 in zip(bounds, bounds[1:]):
                m, n = int(g_ms[b0]), int(g_ns[b0])
                pair_cells = exact[starts[g.pairs[b0:b1]][:, None] + np.arange((n + use_null) * m)]
                self._place(g.slots, b0, b1, pair_cells.reshape(b1 - b0, n + use_null, m))
                if prior is not None:
                    if (m, n) not in matrices:
                        matrices[m, n] = prior.matrix(m, n, use_null)
                    block = weights[offset : offset + size].reshape(shape)
                    self._place(block, b0, b1, matrices[m, n][None])
            offset += size
            groups.append(g)
        return Chunk(slots, groups, weights)

    def _place(self, block: np.ndarray, b0: int, b1: int, cells: np.ndarray) -> None:
        """Writes cells, (pairs, n + NULL, m) with NULL last, into pairs b0
        to b1 - 1 of a group's position-major block."""
        n, m = cells.shape[1] - self.use_null, cells.shape[2]
        block[:m, b0:b1, :n] = cells[:, :n].transpose(2, 0, 1)
        if self.use_null:
            block[:m, b0:b1, -1] = cells[:, n].T

    def __len__(self) -> int:
        return len(self.pairs)

    def cells(self, c: int, theta: np.ndarray) -> np.ndarray:
        """Chunk c's cells of theta, laid out like its slots, times the prior
        when there is one."""
        chunk = self.chunks[c]
        cells = theta[chunk.slots]
        if chunk.prior is not None:
            cells *= chunk.prior
        return cells

    def blocks(self, theta: np.ndarray) -> Iterator[tuple[Group, np.ndarray]]:
        """Every chunk's groups, in chunk order, each with its view of its
        chunk's cells of theta."""
        for c, chunk in enumerate(self.chunks):
            yield from chunk.blocks(self.cells(c, theta))

    def map(self, fn: Callable, *args) -> Iterator:
        """Yields fn(self, c, *args) for every chunk c, in ascending chunk
        order; the first chunk's error, in chunk order, is the one raised.
        Chunk c + jobs starts only once the caller has taken chunk c, so a
        caller that merges each result as it comes holds at most jobs of
        them at once."""
        chunks = range(len(self.chunks))
        if self.jobs == 1:
            for c in chunks:
                yield fn(self, c, *args)
            return
        # Imported here: it costs a command about 3 ms of start-up, and most
        # runs are one chunk and start no pool.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(self.jobs) as pool:
            ahead = deque()
            for c in chunks:
                ahead.append(pool.submit(fn, self, c, *args))
                if len(ahead) == self.jobs:
                    yield ahead.popleft().result()
            while ahead:
                yield ahead.popleft().result()


def uniform_packed(
    bitext: Bitext, use_null: bool, prior: Optional[PriorProvider] = None, jobs: int = 1
) -> tuple[TranslationTable, PackedCorpus]:
    """uniform_start's table, and the corpus packed on it from its sort."""
    table, exact = uniform_start(bitext, use_null)
    return table, PackedCorpus(bitext, table, use_null, prior, jobs, exact)


def _chunk_counts(
    packed: PackedCorpus, c: int, theta: np.ndarray, group_pass: Callable, *args
) -> tuple[np.ndarray, list]:
    """The E-step of chunk c, for every model: its cells of theta, times the
    prior when there is one, go group by group to group_pass(packed, g,
    block, *args). The pass overwrites the block with the group's posterior
    weights and returns (report, failures), failures as (pair, position,
    message). Returns the weights summed per slot in one bincount and the
    groups' reports; a failure raises NumericError naming the first failing
    pair in corpus order."""
    chunk = packed.chunks[c]
    cells = packed.cells(c, theta)
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


def _merge_counts(total: Optional[np.ndarray], part: np.ndarray) -> np.ndarray:
    """Chunk counts merged as they come, in chunk order: the first chunk's
    counts become the sum and later ones are added into it, so no
    zero-filled vector is held beside them. Bitwise the sum from zeros,
    since 0.0 + x == x and the additions keep their order."""
    if total is None:
        return part
    total += part
    return total


def _lexical_pass(packed: PackedCorpus, g: Group, block: np.ndarray):
    """Group pass of Model 1 and Model 2 (see _chunk_counts): normalizes each
    source position's cells over its rows; reports the group's
    log-likelihood, with Model 1's uniform alignment term when the corpus
    has no prior."""
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
    if packed.prior is None:
        ll -= float(g.ms @ np.log(g.ns + packed.use_null))
    return ll, []


def run_em(step: Callable, state, iterations: int, log_to: Optional[TextIO] = None):
    """Apply step(state) -> (state, ll) `iterations` times; returns the final
    state and the trace of each step's input log-likelihood, which is also
    logged to log_to when given."""
    trace: list[float] = []
    for it in range(iterations):
        state, ll = step(state)
        if trace and ll < trace[-1] - MONOTONE_SLACK:
            warn(
                __name__,
                "iteration %d: log-likelihood %.6f is below iteration %d's %.6f",
                it + 1, ll, it, trace[-1],
            )
        trace.append(ll)
        if log_to is not None:
            log_to.write(f"iteration {it + 1}: log-likelihood {ll:.6f}\n")
    return state, trace


def lexical_step(
    packed: PackedCorpus, table: TranslationTable
) -> tuple[TranslationTable, float]:
    """One lexical EM step on a table of the packed corpus's support, Model 1
    without a prior and Model 2 with one: the re-estimated table and the
    log-likelihood of the input table. The counts are merged by
    _merge_counts; a corpus with no chunks counts zero everywhere."""
    counts, ll = None, 0.0
    for part_counts, reports in packed.map(_chunk_counts, table.theta, _lexical_pass):
        counts = _merge_counts(counts, part_counts)
        ll += sum(reports)
    if counts is None:
        counts = np.zeros(len(table))
    return table.normalized(counts), ll
