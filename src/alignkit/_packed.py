"""The lexical EM engine shared by Model 1, Model 2 and the HMM.

Training runs on the table's flat parameter vector theta (see
ttable.py). For every sentence pair we precompute the slot index of
each (target row, source position) cell, so an E-step is a gather, a
column normalization, and a bincount scatter per chunk of pairs. The
decoders read their pairs' blocks of t(f | e) from the same packing.

A training run packs its corpus once, in a ChunkRunner. The runner maps
a module-level chunk function (lexical_step's E-step here, hmm.py's
Baum-Welch pass) over fixed-size chunks of pairs, in process or on one
fork pool started on first use and kept for the whole run; where fork is
unavailable the chunks run in process. Results come back, and are merged,
in ascending chunk order. The chunk size never depends on the worker
count, so the merges add the same partial sums in the same order and
results are bitwise identical no matter how many processes run the
chunks. run_em is the one iteration loop: it writes the per-iteration
log-likelihood line and warns when an iteration lowers the likelihood,
which EM never does.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
from itertools import chain
from typing import Callable, Optional, Protocol, TextIO

import numpy as np

from .corpus import Bitext, SentencePair
from .errors import NumericError
from .ttable import NULL_ID, TranslationTable

CHUNK_PAIRS = 1024
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


class PackedCorpus:
    """Per-pair slot indices of a bitext into a fixed table's flat arrays."""

    def __init__(self, bitext: Bitext, table: TranslationTable, use_null: bool):
        self.use_null = use_null
        self.pairs = bitext.pairs
        self.n_slots = len(table)
        self.row_starts = table.row_starts
        es, fs, rows, ms = corpus_cells(bitext.pairs, use_null)
        self.pair_idx = np.split(table.slots(es, fs), np.cumsum(rows * ms))[:-1]
        self.pair_shape = list(zip(rows.tolist(), ms.tolist()))

    def __len__(self) -> int:
        return len(self.pair_idx)

    def block(self, k: int, theta: np.ndarray) -> np.ndarray:
        """Pair k's (rows, m) block of theta: target rows, NULL last, by source words."""
        return theta[self.pair_idx[k]].reshape(self.pair_shape[k])

    def scatter(self, lo: int, hi: int, weights: list[np.ndarray]) -> np.ndarray:
        """Per-slot sums of pairs [lo, hi)'s flattened cell weights, miss slot dropped."""
        idx = np.concatenate(self.pair_idx[lo:hi])
        counts = np.bincount(idx, np.concatenate(weights), minlength=self.n_slots + 1)
        return counts[: self.n_slots]

    def normalize_counts(self, counts: np.ndarray) -> np.ndarray:
        """M-step: floor expected counts at MSTEP_FLOOR, renormalize each target row."""
        floored = np.maximum(counts, MSTEP_FLOOR)
        row_sums = np.add.reduceat(floored, self.row_starts)
        lengths = np.diff(self.row_starts, append=self.n_slots)
        return np.append(floored / np.repeat(row_sums, lengths), 0.0)


def chunk_bounds(n_pairs: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + CHUNK_PAIRS, n_pairs)) for lo in range(0, n_pairs, CHUNK_PAIRS)]


def _chunk_counts(
    packed: PackedCorpus,
    lo: int,
    hi: int,
    theta: np.ndarray,
    prior: Optional[PriorProvider],
) -> tuple[np.ndarray, float]:
    """Expected counts and log-likelihood contribution of pairs [lo, hi)."""
    ll = 0.0
    gamma_parts: list[np.ndarray] = []
    use_null = packed.use_null
    for k in range(lo, hi):
        rows, m = packed.pair_shape[k]
        probs = packed.block(k, theta)
        if prior is not None:
            n = rows - 1 if use_null else rows
            probs = probs * prior.matrix(m, n, use_null)
        denom = probs.sum(axis=0)
        if denom.min() <= 0.0:
            j = int(np.argmin(denom))
            f = packed.pairs[k].source_ids[j]
            raise NumericError(
                f"pair {k + 1}: source token id {f} at position {j} has zero "
                "total probability under the table"
            )
        gamma = probs / denom
        ll += float(np.log(denom).sum())
        if prior is None:
            ll -= m * math.log(rows)
        gamma_parts.append(gamma.reshape(-1))
    return packed.scatter(lo, hi, gamma_parts), ll


_WORKER_PACKED: Optional[PackedCorpus] = None  # set in each pool worker


def _worker_init(packed: PackedCorpus) -> None:
    global _WORKER_PACKED
    _WORKER_PACKED = packed


def _worker_chunk(task):
    fn, lo, hi, args = task
    return fn(_WORKER_PACKED, lo, hi, *args)


class ChunkRunner:
    """Packs a bitext once and maps chunk functions over its fixed chunks.

    The pool is created lazily on the first parallel call and must be
    closed via the context-manager protocol or close().
    """

    def __init__(
        self, bitext: Bitext, table: TranslationTable, use_null: bool, jobs: int = 1
    ):
        self.packed = PackedCorpus(bitext, table, use_null)
        self.bounds = chunk_bounds(len(self.packed))
        fork = "fork" in multiprocessing.get_all_start_methods()
        self.jobs = max(1, min(jobs, len(self.bounds))) if fork else 1
        self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def map(self, fn: Callable, *args) -> list:
        """fn(packed, lo, hi, *args) for every chunk, in ascending chunk order.

        fn must be a module-level function, so that a worker can unpickle it.
        """
        if self.jobs == 1:
            return [fn(self.packed, lo, hi, *args) for lo, hi in self.bounds]
        if self._pool is None:
            # Workers inherit the packed corpus through fork; only the
            # per-call arguments are pickled.
            self._pool = multiprocessing.get_context("fork").Pool(
                processes=self.jobs, initializer=_worker_init, initargs=(self.packed,)
            )
        tasks = [(fn, lo, hi, args) for lo, hi in self.bounds]
        return self._pool.map(
            _worker_chunk, tasks, chunksize=max(1, len(tasks) // self.jobs)
        )


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
    the re-estimated theta and the log-likelihood of the input theta."""
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
        theta, trace = run_em(step, table.theta, iterations, log_to)
    return table.with_probs(theta[:-1]), trace
