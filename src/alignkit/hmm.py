"""First-order HMM aligner over target positions.

Hidden states are the n target positions plus, when NULL is enabled, one
NULL companion per position that remembers the last non-NULL position.
Emissions come from the shared lexical table t(f | e); transitions follow
a bucketed jump distribution over displacement d = i' - i, clamped to
[-w, w] and renormalized over the positions actually reachable in an
n-word sentence:

    p(i -> i')     = (1 - p0) * q[clamp(i' - i)] / Z_i      real successor
    p(i -> NULL_i) = p0                                      fixed
    Z_i            = sum_{k=1..n} q[clamp(k - i)]

A NULL companion jumps onward relative to the remembered position. The
initial distribution is uniform over positions, with mass p0 split
uniformly over the NULL companions when NULL is on.

Because transitions renormalize per sentence length, the closed-form
count-and-normalize jump update is not the exact M-step; re-estimation
backtracks toward the previous jump distribution until the EM auxiliary
objective does not decrease, which keeps the likelihood trace monotone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional, TextIO

import numpy as np

from . import model1
from ._packed import MSTEP_FLOOR, ChunkRunner, PackedCorpus, lexical_step, run_em
from .alignment import AlignmentFunction
from .corpus import Bitext, SentencePair
from .errors import ConfigError, DataFormatError, NumericError
from .ttable import DECODE_FLOOR, NULL_ID, TranslationTable, write_ttable

HMM_TRAILER = "hmm"
JUMP_TRAILER = "jump"
JUMP_HALVINGS = 50  # backtracking steps before jump re-estimation gives up

log = logging.getLogger(__name__)


@dataclass(eq=False)
class JumpTable:
    """Jump distribution over clamped displacements d in [-w, w]."""

    w: int
    probs: np.ndarray  # length 2w + 1, indexed by d + w
    p0: float = 0.2

    def __post_init__(self):
        if self.w < 1:
            raise ConfigError(f"jump window must be >= 1, got {self.w}")
        if not 0.0 <= self.p0 < 1.0:
            raise ConfigError(f"null transition mass must be in [0, 1), got {self.p0}")
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.shape != (2 * self.w + 1,):
            raise ConfigError("jump table must cover exactly 2w + 1 buckets")
        if not (self.probs >= 0.0).all() or not abs(self.probs.sum() - 1.0) <= 1e-9:
            raise ConfigError("jump probabilities must be a distribution")


def uniform_jumps(w: int = 5, p0: float = 0.2) -> JumpTable:
    return JumpTable(w=w, probs=np.full(2 * w + 1, 1.0 / (2 * w + 1)), p0=p0)


@dataclass
class HmmParams:
    table: TranslationTable
    jumps: JumpTable
    use_null: bool = True


@dataclass(frozen=True)
class HmmConfig:
    iterations: int = 5
    model1_iterations: int = 5
    w: int = 5
    p0: float = 0.2
    use_null: bool = True

    def __post_init__(self):
        if self.iterations < 0:
            raise ConfigError(f"iterations must be >= 0, got {self.iterations}")
        if self.model1_iterations < 1:
            raise ConfigError(
                f"initializer iterations must be >= 1, got {self.model1_iterations}"
            )
        if self.w < 1:
            raise ConfigError(f"jump window must be >= 1, got {self.w}")
        if not 0.0 <= self.p0 < 1.0:
            raise ConfigError(f"null transition mass must be in [0, 1), got {self.p0}")


_CLIP_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _clip_index(n: int, w: int) -> np.ndarray:
    """(n, n) matrix of bucket indices for the jump from row pos to col pos."""
    key = (n, w)
    cached = _CLIP_CACHE.get(key)
    if cached is None:
        pos = np.arange(1, n + 1)
        cached = _CLIP_CACHE[key] = np.clip(pos[None, :] - pos[:, None], -w, w) + w
    return cached


def _transition_matrix(n: int, jumps: JumpTable, use_null: bool) -> np.ndarray:
    qm = jumps.probs[_clip_index(n, jumps.w)]
    z = qm.sum(axis=1)
    if (z <= 0.0).any():
        raise NumericError("jump distribution assigns no mass to reachable positions")
    base = qm / z[:, None]
    if not use_null:
        return base
    p0 = jumps.p0
    trans = np.zeros((2 * n, 2 * n))
    trans[:n, :n] = (1.0 - p0) * base
    trans[n:, :n] = (1.0 - p0) * base
    diag = np.arange(n)
    trans[diag, n + diag] = p0
    trans[n + diag, n + diag] = p0
    return trans


def _initial_probs(n: int, p0: float, use_null: bool) -> np.ndarray:
    if not use_null:
        return np.full(n, 1.0 / n)
    pi = np.empty(2 * n)
    pi[:n] = (1.0 - p0) / n
    pi[n:] = p0 / n
    return pi


def _pair_models(packed: PackedCorpus, lo: int, hi: int, theta, jumps, floor):
    """(n, emissions, transitions, initial probabilities) of pairs [lo, hi),
    transitions built once per length n. Emissions are the block floored at
    `floor`, with the NULL row (last) repeated for each NULL companion state.
    Decoding floors at DECODE_FLOOR; Baum-Welch passes 0.0, since its M-step
    entries may fall below DECODE_FLOOR and must be read as they are."""
    use_null = packed.use_null
    per_length: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for k in range(lo, hi):
        emit = np.maximum(packed.block(k, theta), floor)
        n = len(emit) - use_null
        if use_null:
            emit = np.vstack([emit[:-1], np.repeat(emit[-1:], n, axis=0)])
        if n not in per_length:
            per_length[n] = (
                _transition_matrix(n, jumps, use_null),
                _initial_probs(n, jumps.p0, use_null),
            )
        yield (n, emit, *per_length[n])


def _pair_model(pair: SentencePair, params: HmmParams):
    """Decoding emissions, transitions and initial probabilities of a pair."""
    packed = PackedCorpus(Bitext([pair]), params.table, params.use_null)
    theta = params.table.theta
    return next(_pair_models(packed, 0, 1, theta, params.jumps, DECODE_FLOOR))[1:]


def _scaled_forward(
    emit: np.ndarray, trans: np.ndarray, pi: np.ndarray, pair_no: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled forward variables, one (states,) row per source position, and
    the scales: alphas[j] sums to 1 and the product of scales is Z."""
    states, m = emit.shape
    rows = emit.T.copy()  # contiguous per-position emissions
    alphas = np.empty((m, states))
    scales = np.empty(m)
    for j in range(m):
        a = alphas[j]
        if j > 0:
            np.matmul(alphas[j - 1], trans, out=a)
            a *= rows[j]
        else:
            np.multiply(pi, rows[0], out=a)
        c = a.sum()
        if not c > 0.0 or not math.isfinite(c):
            raise NumericError(f"pair {pair_no}: forward scaling underflow at position {j}")
        a /= c
        scales[j] = c
    return alphas, scales


def _scaled_backward(
    emit: np.ndarray, trans: np.ndarray, scales: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled backward variables, and weighted[j] = emit[:, j] * betas[j] /
    scales[j], the arrival factor of the transition posteriors into j."""
    states, m = emit.shape
    weighted = emit.T / scales[:, None]
    betas = np.empty((m, states))
    betas[m - 1] = 1.0
    for j in range(m - 1, 0, -1):
        weighted[j] *= betas[j]
        np.matmul(trans, weighted[j], out=betas[j - 1])
    weighted[0] *= betas[0]
    return betas, weighted


def log_forward(pair: SentencePair, params: HmmParams) -> float:
    """log of the total probability of the source sentence, summed over all
    state paths. Lexical lookups are floored, so the value is finite."""
    emit, trans, pi = _pair_model(pair, params)
    _, scales = _scaled_forward(emit, trans, pi)
    return float(np.log(scales).sum())


def viterbi_decode(pair: SentencePair, params: HmmParams) -> AlignmentFunction:
    """align_corpus on the one pair."""
    return align_corpus(Bitext([pair]), params)[0]


def _viterbi(n: int, emit, trans, pi) -> AlignmentFunction:
    """The best state path as an alignment."""
    with np.errstate(divide="ignore"):
        log_e = np.log(emit)
        log_t = np.log(trans)
        log_pi = np.log(pi)
    states, m = emit.shape
    delta = log_pi + log_e[:, 0]
    pointers = np.empty((m, states), dtype=np.int64)
    for j in range(1, m):
        scores = delta[:, None] + log_t
        best = np.argmax(scores, axis=0)  # first max: smaller state wins ties
        delta = scores[best, np.arange(states)] + log_e[:, j]
        pointers[j] = best
    state = int(np.argmax(delta))
    path = [0] * m
    for j in range(m - 1, -1, -1):
        path[j] = state
        if j > 0:
            state = int(pointers[j, state])
    targets = tuple(s if s < n else None for s in path)
    return AlignmentFunction(targets=targets, n=n)


# ---------------------------------------------------------------------------
# Baum-Welch training


def _bw_chunk(
    packed: PackedCorpus,
    lo: int,
    hi: int,
    theta: np.ndarray,
    jumps: JumpTable,
) -> tuple[np.ndarray, dict[int, np.ndarray], float]:
    """Expected lexicon and jump statistics for pairs [lo, hi).

    Jump statistics are per sentence length n: a (n, n) matrix of expected
    transition counts from position row+1 to position col+1 (real and
    NULL-companion departures pooled, since both jump from the same
    remembered position). Summed over source positions, the transition
    posteriors of a pair are one product,

        sum_j xi_j[s, t] = trans[s, t] * sum_j alphas[j, s] * weighted[j + 1, t]
                         = ((alphas[:-1].T @ weighted[1:]) * trans)[s, t],

    with weighted from _scaled_backward; only arrivals at real positions
    (t < n) are counted.
    """
    use_null = packed.use_null
    weight_parts: list[np.ndarray] = []
    jump_stats: dict[int, np.ndarray] = {}
    ll = 0.0
    models = _pair_models(packed, lo, hi, theta, jumps, 0.0)
    for k, (n, emit, trans, pi) in enumerate(models, start=lo):
        rows, m = packed.pair_shape[k]
        alphas, scales = _scaled_forward(emit, trans, pi, pair_no=k + 1)
        betas, weighted = _scaled_backward(emit, trans, scales)
        gamma = alphas * betas
        ll += float(np.log(scales).sum())

        weights = np.empty((rows, m))
        weights[:n] = gamma[:, :n].T
        if use_null:
            weights[n] = gamma[:, n:].sum(axis=1)
        weight_parts.append(weights.reshape(-1))

        if m > 1:
            xi = (alphas[:-1].T @ weighted[1:, :n]) * trans[:, :n]
            if use_null:
                xi = xi[:n] + xi[n:]
            acc = jump_stats.get(n)
            if acc is None:
                jump_stats[n] = xi
            else:
                acc += xi
    return packed.scatter(lo, hi, weight_parts), jump_stats, ll


def _jump_objective(q: np.ndarray, jump_stats: dict[int, np.ndarray], w: int) -> float:
    """EM auxiliary objective for the jump block (constants dropped)."""
    logq = np.log(q)
    total = 0.0
    for n, stats in jump_stats.items():
        index = _clip_index(n, w)
        z = q[index].sum(axis=1)
        total += float((stats * logq[index]).sum())
        total -= float(stats.sum(axis=1) @ np.log(z))
    return total


def _reestimate_jumps(jumps: JumpTable, jump_stats: dict[int, np.ndarray]) -> JumpTable:
    """Count-normalized jump update with backtracking toward the previous
    distribution whenever the auxiliary objective would decrease; after
    JUMP_HALVINGS halvings it warns and returns the previous table itself."""
    if not jump_stats:
        return jumps
    w = jumps.w
    buckets = np.zeros(2 * w + 1)
    for n in sorted(jump_stats):
        np.add.at(buckets, _clip_index(n, w), jump_stats[n])
    cand = np.maximum(buckets, MSTEP_FLOOR)
    cand = cand / cand.sum()
    old = jumps.probs
    base = _jump_objective(old, jump_stats, w)
    step = cand
    for _ in range(JUMP_HALVINGS):
        if _jump_objective(step, jump_stats, w) >= base:
            return JumpTable(w=w, probs=step, p0=jumps.p0)
        step = 0.5 * step + 0.5 * old
    log.warning(
        "jump re-estimation lowered the EM objective after %d halvings; "
        "kept the previous jump table", JUMP_HALVINGS,
    )
    return jumps


def baum_welch_step(
    bitext: Bitext,
    params: HmmParams,
    config: HmmConfig,
    jobs: int = 1,
) -> tuple[HmmParams, float]:
    """One forward-backward pass over the corpus; returns updated params and
    the corpus log-likelihood (sum of log partition values) of the input.
    config is not read: params hold the whole model."""
    table = params.table
    with ChunkRunner(bitext, table, params.use_null, jobs) as runner:
        (theta, jumps), ll = _bw_iteration(runner, table.theta, params.jumps)
    return HmmParams(table.with_probs(theta[:-1]), jumps, params.use_null), ll


def _bw_iteration(runner: ChunkRunner, theta, jumps):
    """One Baum-Welch EM step: ((new theta, new jumps), ll of the input)."""
    counts = np.zeros(runner.packed.n_slots)
    jump_stats: dict[int, np.ndarray] = {}
    ll = 0.0
    for chunk_counts, chunk_stats, chunk_ll in runner.map(_bw_chunk, theta, jumps):
        counts += chunk_counts
        for n in sorted(chunk_stats):
            acc = jump_stats.get(n)
            if acc is None:
                jump_stats[n] = chunk_stats[n].copy()
            else:
                acc += chunk_stats[n]
        ll += chunk_ll
    new_theta = runner.packed.normalize_counts(counts)
    return (new_theta, _reestimate_jumps(jumps, jump_stats)), ll


def train(
    bitext: Bitext,
    config: HmmConfig,
    jobs: int = 1,
    log_to: Optional[TextIO] = None,
) -> tuple[HmmParams, list[float]]:
    """Warm up the lexical table with a few silent Model 1 iterations and
    uniform jumps, then run Baum-Welch on the same packed corpus and
    workers, writing its trace to log_to when given. With iterations=0
    the warmed-up params are returned."""
    table = model1.init_uniform(bitext, config.use_null)
    with ChunkRunner(bitext, table, config.use_null, jobs) as runner:
        warm_up = lambda theta: lexical_step(runner, theta)
        theta, _ = run_em(warm_up, table.theta, config.model1_iterations)
        (theta, jumps), trace = run_em(
            lambda state: _bw_iteration(runner, *state),
            (theta, uniform_jumps(config.w, config.p0)),
            config.iterations,
            log_to,
        )
    return HmmParams(table.with_probs(theta[:-1]), jumps, config.use_null), trace


def align_corpus(bitext: Bitext, params: HmmParams) -> list[AlignmentFunction]:
    """Most probable state path of every pair; ties break toward the smaller
    state index at every backpointer, so real positions beat their NULL
    companions."""
    packed = PackedCorpus(bitext, params.table, params.use_null)
    theta = params.table.theta
    models = _pair_models(packed, 0, len(packed), theta, params.jumps, DECODE_FLOOR)
    return [_viterbi(*model) for model in models]


def save_model(out: TextIO, params: HmmParams) -> None:
    jumps = params.jumps
    trailer = [f"{HMM_TRAILER}\t{jumps.w}\t{jumps.p0!r}"]
    for d in range(-jumps.w, jumps.w + 1):
        trailer.append(f"{JUMP_TRAILER}\t{d}\t{float(jumps.probs[d + jumps.w])!r}")
    write_ttable(out, params.table, trailer)


def model_from(table: TranslationTable, trailer: list[str]) -> HmmParams:
    """HMM parameters from a parsed model file's table and trailer."""
    if not trailer or not trailer[0].startswith(HMM_TRAILER + "\t"):
        raise DataFormatError("HMM model file must carry an 'hmm' trailer")
    head = trailer[0].split("\t")
    if len(head) != 3:
        raise DataFormatError("malformed 'hmm' trailer")
    try:
        w, p0 = int(head[1]), float(head[2])
    except ValueError as exc:
        raise DataFormatError(f"malformed 'hmm' trailer: {exc}") from exc
    if w < 1:
        raise DataFormatError(f"bad 'hmm' trailer: jump window must be >= 1, got {w}")
    if len(trailer) - 1 != 2 * w + 1:
        raise DataFormatError(f"expected {2 * w + 1} jump buckets, found {len(trailer) - 1}")
    probs = np.zeros(2 * w + 1)
    seen = set()
    for line in trailer[1:]:
        parts = line.split("\t")
        if len(parts) != 3 or parts[0] != JUMP_TRAILER:
            raise DataFormatError(f"unexpected trailer line: {line!r}")
        try:
            d, p = int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise DataFormatError(f"malformed jump line: {exc}") from exc
        if not -w <= d <= w:
            raise DataFormatError(f"jump bucket {d} outside window {w}")
        if d in seen:
            raise DataFormatError(f"jump bucket {d} repeated")
        seen.add(d)
        probs[d + w] = p
    if probs[w] == 0.0:  # staying put is the only move in a one-word sentence
        raise DataFormatError("bad 'hmm' trailer: jump bucket 0 has probability 0")
    try:
        jumps = JumpTable(w=w, probs=probs, p0=p0)
    except ConfigError as exc:
        raise DataFormatError(f"bad 'hmm' trailer: {exc}") from None
    return HmmParams(table=table, jumps=jumps, use_null=NULL_ID in table.row_ids)
