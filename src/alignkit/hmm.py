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

Baum-Welch builds no transition matrix. A real state's row and its NULL
companion's row agree on the real columns, both (1 - p0) q[clamp(i' - i)]
/ Z_i, and the matrix Q[i, i'] = q[clamp(i' - i)] does not depend on n,
so one Q serves every pair (a pair of length n reads its n x n corner).
With c_j the forward scale at source position j, s_j = alpha_real[j] +
alpha_null[j] and W_j = emit_j * beta_j / c_j:

    alpha_real[j+1] = ((1 - p0) / Z * s_j) @ Q * e_real[j+1]    (then / c)
    alpha_null[j+1] = p0 * s_j * e_NULL[j+1]                     (then / c)
    beta[j]         = (1 - p0) / Z * (W_real[j+1] @ Q^T) + p0 * W_null[j+1]
    xi counts       = sum_j ((1 - p0) / Z * s_j)^T W_real[j+1] * Q

A real state and its NULL companion share one beta. So the E-step moves a
whole group of similar-length pairs one source position at a time, one
matrix product per step for the group, with every pair padded by zeros to
the group's longest m and n. The groups are those of the packed corpus
(see _packed.py), built once per run; each iteration's emissions are one
gather from theta. Viterbi decoding walks the same groups, with each
pair's log transitions read from its own length's matrix.

Because transitions renormalize per sentence length, the closed-form
count-and-normalize jump update is not the exact M-step; re-estimation
backtracks toward the previous jump distribution until the EM auxiliary
objective does not decrease, which keeps the likelihood trace monotone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, TextIO

import numpy as np

from . import model1
from ._packed import (
    MSTEP_FLOOR,
    ChunkRunner,
    Group,
    PackedCorpus,
    decode_theta,
    lexical_step,
    run_em,
    with_pad,
)
from .alignment import AlignmentFunction
from .corpus import Bitext, SentencePair
from .errors import ConfigError, DataFormatError, NumericError
from .ttable import NULL_ID, TranslationTable, write_ttable

HMM_TRAILER = "hmm"
JUMP_TRAILER = "jump"
JUMP_HALVINGS = 50  # backtracking steps before jump re-estimation gives up
# A jump longer than a sentence never occurs, so a window wider than the
# longest sentence only adds empty buckets; the bound stops a mistyped --w
# from allocating gigabytes for the 2w + 1 jump buckets.
MAX_WINDOW = 1000

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
        if not 1 <= self.w <= MAX_WINDOW:
            raise ConfigError(f"jump window must be in [1, {MAX_WINDOW}], got {self.w}")
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


class _Group(NamedTuple):
    """A layout group of pairs (see _packed.py) ready for the group passes.

    The pairs run by descending m, so a step at source position j updates
    the first layout.active[j] of them, those with m > j. With N the longest
    target, a pair has S = N states, or 2N with NULL (real positions, then
    NULL companions). emit is (M, B, S) and pi (B, S); scale (B, N) holds
    (1 - p0) / Z_i of each departure position i; q is the (N, N) jump
    matrix q[clamp(i' - i)] that every pair shares. Cells past a pair's own
    m or n are 0, so they add nothing to any sum or product.
    """

    layout: Group  # its pairs, their lengths and its slots
    emit: np.ndarray
    pi: np.ndarray
    scale: np.ndarray
    q: np.ndarray
    p0: float  # 0.0 without NULL
    use_null: bool


def _groups(packed: PackedCorpus, c: int, theta, jumps: JumpTable):
    """Chunk c's layout groups as _Groups, emissions read from theta (with
    its pad slot) as it is."""
    chunk = packed.chunks[c]
    use_null = packed.use_null
    p0 = jumps.p0 if use_null else 0.0
    ns = np.concatenate([g.ns for g in chunk.groups])
    q = jumps.probs[_clip_index(int(ns.max()), jumps.w)]
    scales = {}
    for n in set(ns.tolist()):
        z = q[:n, :n].sum(axis=1)
        if (z <= 0.0).any():
            raise NumericError("jump distribution assigns no mass to reachable positions")
        scales[n] = (1.0 - p0) / z
    for g in chunk.groups:
        yield _group(g, theta[g.slots], q, scales, p0, use_null)


def _group(g: Group, values: np.ndarray, q, scales, p0, use_null) -> _Group:
    """The _Group of layout group g, whose cells of theta are values."""
    m_max, b_count, columns = values.shape
    width = columns - use_null
    ns = g.ns[:, None]
    real = np.arange(width) < ns
    pi = np.where(real, (1.0 - p0) / ns, 0.0)
    scale = np.zeros((b_count, width))
    for b0, b1, _, n in g.shapes():
        scale[b0:b1, :n] = scales[n]
    if use_null:
        emit = np.empty((m_max, b_count, 2 * width))
        emit[:, :, :width] = values[:, :, :width]
        np.multiply(values[:, :, width:], real, out=emit[:, :, width:])
        pi = np.hstack([pi, np.where(real, p0 / ns, 0.0)])
    else:
        emit = values
    return _Group(g, emit, pi, scale, q[:width, :width], p0, use_null)


def _scaled_forward(g: _Group) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled forward variables alphas (M, B, S), each pair's row summing to
    1 at each of its positions; inputs[j] = (alpha_real + alpha_null)[j] *
    scale, the row that the shared q carries to position j + 1; and the
    scales (M, B), whose product over a pair's positions is its Z. Unused
    cells of alphas and inputs are 0 and of scales 1. A pair whose scaling
    fails gets a zero or non-finite scale; see _underflows."""
    m_max, b_count, states = g.emit.shape
    n = len(g.q)
    alphas = np.zeros((m_max, b_count, states))
    inputs = np.zeros((m_max, b_count, n))
    scales = np.ones((m_max, b_count))
    # A failing pair turns its own row to NaN; the caller names it.
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, b in enumerate(g.layout.active):
            a = alphas[j, :b]
            if j == 0:
                np.multiply(g.pi, g.emit[0], out=a)
            else:
                np.matmul(inputs[j - 1, :b], g.q, out=a[:, :n])
                if g.use_null:
                    np.multiply(total[:b], g.p0, out=a[:, n:])
                a *= g.emit[j, :b]
            c = a.sum(axis=1)
            scales[j, :b] = c
            a /= c[:, None]
            total = a[:, :n] + a[:, n:] if g.use_null else a
            np.multiply(total, g.scale[:b], out=inputs[j, :b])
    return alphas, inputs, scales


def _underflows(g: _Group, scales: np.ndarray) -> list[tuple[int, int]]:
    """(corpus index, first position) of each pair whose forward scaling
    underflowed, as _scaled_forward's scales show it."""
    bad = ~((scales > 0.0) & (scales < math.inf))
    pairs = g.layout.pairs
    return [(pairs[b], int(bad[:, b].argmax())) for b in np.flatnonzero(bad.any(axis=0))]


def _scaled_backward(g: _Group, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled backward variables betas (M, B, N), one per position since a
    real state and its NULL companion share their beta; and weighted[j] =
    emit[j] * betas[j] / scales[j], the arrival factors into position j,
    with the NULL half also times p0."""
    m_max, b_count, states = g.emit.shape
    n = len(g.q)
    weighted = g.emit / scales[:, :, None]
    if g.use_null:
        weighted[:, :, n:] *= g.p0
    halves = weighted.reshape(m_max, b_count, states // n, n)
    betas = np.zeros((m_max, b_count, n))
    betas[g.layout.ms - 1, np.arange(b_count)] = 1.0
    for j in range(m_max - 1, 0, -1):
        b = g.layout.active[j]
        halves[j, :b] *= betas[j, :b, None]
        beta = betas[j - 1, :b]
        np.matmul(weighted[j, :b, :n], g.q.T, out=beta)
        beta *= g.scale[:b]
        if g.use_null:
            beta += weighted[j, :b, n:]
    return betas, weighted


def log_forward(pair: SentencePair, params: HmmParams) -> float:
    """log of the total probability of the source sentence, summed over all
    state paths. Lexical lookups are floored, so the value is finite."""
    packed = PackedCorpus(Bitext([pair]), params.table, params.use_null)
    (group,) = _groups(packed, 0, decode_theta(params.table), params.jumps)
    return float(np.log(_scaled_forward(group)[2]).sum())


def viterbi_decode(pair: SentencePair, params: HmmParams) -> AlignmentFunction:
    """align_corpus on the one pair."""
    return align_corpus(Bitext([pair]), params)[0]


def _viterbi(g: _Group, log_t: np.ndarray) -> list[tuple]:
    """Each pair's best state path as target positions, None at a NULL
    companion. States are real positions i and companions N + i; log_t
    (B, N, N) holds log p(i -> i') at [b, i', i], -inf past the pair's n.
    Scores run destination-major; every backpointer keeps the first maximum
    over (real, companion) predecessors, so real positions win ties."""
    m_max, b_count, states = g.emit.shape
    n = len(g.q)
    with np.errstate(divide="ignore"):
        log_e = np.log(g.emit)
        log_p0 = np.log(g.p0)
        delta = np.log(g.pi) + log_e[0]
    pointers = np.empty((m_max, b_count, states), dtype=np.int64)
    for j, b in enumerate(g.layout.active[1:], 1):
        d = delta[:b]
        scores = d[:, None, :n] + log_t[:b]
        best = scores.argmax(axis=2)
        top = np.take_along_axis(scores, best[:, :, None], 2)[:, :, 0]
        if g.use_null:
            scores = d[:, None, n:] + log_t[:b]
            companion = scores.argmax(axis=2)
            jump = np.take_along_axis(scores, companion[:, :, None], 2)[:, :, 0]
            better = jump > top
            best[better] = companion[better] + n
            top[better] = jump[better]
            stay, move = d[:, :n] + log_p0, d[:, n:] + log_p0
            better = move > stay
            pointers[j, :b, n:] = np.arange(n) + n * better
            d[:, n:] = np.where(better, move, stay) + log_e[j, :b, n:]
        pointers[j, :b, :n] = best
        d[:, :n] = top + log_e[j, :b, :n]
    state = delta.argmax(axis=1)
    paths = np.empty((b_count, m_max), dtype=np.int64)
    for j in range(m_max - 1, -1, -1):
        b = g.layout.active[j]
        paths[:b, j] = state[:b]
        if j:
            state[:b] = pointers[j, np.arange(b), state[:b]]
    return [
        tuple(s if s < n else None for s in paths[b, :m].tolist())
        for b, m in enumerate(g.layout.ms.tolist())
    ]


# ---------------------------------------------------------------------------
# Baum-Welch training


def _group_pass(g: _Group, weights: np.ndarray):
    """Forward-backward over group g: its forward scales (M, B); and, unless
    a pair's scaling failed (see _underflows), its (B, N, N) transition
    counts, else None. Unless a pair failed, the lexical weights go into
    weights, (M, B, N + NULL) and laid out like the group's slots. Summed
    over source positions, the transition counts are one batched product,

        sum_j xi_j[i, i'] = q[i, i'] * sum_j inputs[j, i] * weighted[j + 1, i'],

    with only arrivals at real positions counted.
    """
    alphas, inputs, scales = _scaled_forward(g)
    if _underflows(g, scales):
        return scales, None
    betas, weighted = _scaled_backward(g, scales)
    m_max, b_count, states = alphas.shape
    n_max = len(g.q)
    gamma = alphas.reshape(m_max, b_count, states // n_max, n_max) * betas[:, :, None]
    weights[:, :, :n_max] = gamma[:, :, 0]
    if g.use_null:  # NULL, the layout's last column, takes the companions' mass
        gamma[:, :, 1].sum(axis=2, out=weights[:, :, n_max])
    xi = np.matmul(inputs[:-1].transpose(1, 2, 0), weighted[1:, :, :n_max].transpose(1, 0, 2))
    xi *= g.q
    return scales, xi


def _bw_chunk(
    packed: PackedCorpus,
    c: int,
    theta: np.ndarray,
    jumps: JumpTable,
) -> tuple[np.ndarray, dict[int, np.ndarray], float]:
    """Expected lexicon and jump statistics for chunk c.

    Jump statistics are per sentence length n: a (n, n) matrix of expected
    transition counts from position row+1 to position col+1 (real and
    NULL-companion departures pooled, since both jump from the same
    remembered position). Each pair's log-likelihood and jump statistics
    are merged in corpus order.
    """
    chunk = packed.chunks[c]
    weights = np.zeros(len(chunk.slots))
    pair_xi: list = [None] * (chunk.hi - chunk.lo)
    pair_ll = [0.0] * (chunk.hi - chunk.lo)
    failures: list[tuple[int, int]] = []
    groups = _groups(packed, c, theta, jumps)
    for g, (_, block) in zip(groups, chunk.blocks(weights)):
        scales, xi = _group_pass(g, block)
        if xi is None:
            failures += _underflows(g, scales)
        if failures:  # only the first failing pair in corpus order is named
            continue
        log_scales = np.log(scales)
        layout = g.layout
        for b, (k, m, n) in enumerate(zip(layout.pairs, layout.ms.tolist(), layout.ns.tolist())):
            pair_ll[k - chunk.lo] = float(log_scales[:m, b].sum())
            if m > 1:
                pair_xi[k - chunk.lo] = xi[b, :n, :n]
    if failures:
        k, j = min(failures)
        raise NumericError(f"pair {k + 1}: forward scaling underflow at position {j}")
    counts = packed.scatter(chunk.slots, weights)

    jump_stats: dict[int, np.ndarray] = {}
    ll = 0.0
    for part_ll, part_xi in zip(pair_ll, pair_xi):
        ll += part_ll
        if part_xi is not None:
            acc = jump_stats.get(len(part_xi))
            if acc is None:
                jump_stats[len(part_xi)] = part_xi.copy()
            else:
                acc += part_xi
    return counts, jump_stats, ll


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
        (theta, jumps), ll = _bw_iteration(runner, with_pad(table.theta), params.jumps)
    return HmmParams(table.with_probs(theta[:-2]), jumps, params.use_null), ll


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
        theta, _ = run_em(warm_up, with_pad(table.theta), config.model1_iterations)
        (theta, jumps), trace = run_em(
            lambda state: _bw_iteration(runner, *state),
            (theta, uniform_jumps(config.w, config.p0)),
            config.iterations,
            log_to,
        )
    return HmmParams(table.with_probs(theta[:-2]), jumps, config.use_null), trace


def align_corpus(bitext: Bitext, params: HmmParams) -> list[AlignmentFunction]:
    """Most probable state path of every pair, decoded on the Baum-Welch
    groups with lexical lookups floored at DECODE_FLOOR; ties break toward
    the smaller state index at every backpointer, so real positions beat
    their NULL companions."""
    packed = PackedCorpus(bitext, params.table, params.use_null)
    theta = decode_theta(params.table)
    jumps, use_null = params.jumps, params.use_null
    log_rows: dict[int, np.ndarray] = {}  # per target length n, built once
    aligned: list = [None] * len(packed)
    for c in range(len(packed.chunks)):
        for g in _groups(packed, c, theta, jumps):
            width = len(g.q)
            ns = g.layout.ns.tolist()
            log_t = np.full((len(ns), width, width), -math.inf)
            for b, n in enumerate(ns):
                if n not in log_rows:
                    with np.errstate(divide="ignore"):
                        log_rows[n] = np.log(_transition_matrix(n, jumps, use_null)[:n, :n]).T
                log_t[b, :n, :n] = log_rows[n]
            for k, n, targets in zip(g.layout.pairs, ns, _viterbi(g, log_t)):
                aligned[k] = AlignmentFunction(targets=targets, n=n)
    return aligned


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
