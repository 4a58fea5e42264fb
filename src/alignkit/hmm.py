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
(see _packed.py), built once per run. Baum-Welch is _packed's one E-step
driver with _bw_pass as the group pass: the driver gathers a chunk's
emissions from theta once, and the pass writes the state posteriors over
them and reports the group's log-likelihood, its expected jumps per
bucket and its expected departures from each position. Viterbi decoding
and log_forward gather each chunk the same way, from the table's
decode_theta, and walk the same groups. Viterbi reads each pair's log
transitions from its own length's matrix, filled into the group's
(B, N, S) block once per distinct length; with NULL the block holds the
(N, N) transitions twice side by side, for the jumps out of real states
and out of companions, so each step takes one argmax over all 2N
predecessors.

Because transitions renormalize per sentence length, the closed-form
count-and-normalize jump update is not the exact M-step; re-estimation
backtracks toward the previous jump distribution until the EM auxiliary
objective does not decrease, which keeps the likelihood trace monotone.
With c_d the expected jumps in bucket d and D[n, i] those out of position
i of the n-word targets, the objective is

    sum_d c_d log q_d - sum_{n, i} D[n, i] log Z_n(i),

a term with no count being 0, log 0 included; every Z_n(i) is read from
one cumsum of the matrix q[clamp(i' - i)] of the longest target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import BinaryIO, NamedTuple, Optional, Sequence, TextIO

import numpy as np

from ._packed import (
    Group, PackedCorpus, _chunk_counts, _merge_counts, lexical_step, run_em, uniform_packed,
)
from .alignment import AlignmentFunction
from .corpus import Bitext, SentencePair
from .errors import ConfigError, NumericError, trailer_error, warn
from .ttable import MSTEP_FLOOR, NULL_ID, TranslationTable, write_ttable

HMM_TRAILER = "hmm"
JUMP_TRAILER = "jump"
JUMP_HALVINGS = 50  # backtracking steps before jump re-estimation gives up
# A jump longer than a sentence never occurs, so a window wider than the
# longest sentence only adds empty buckets; the bound stops a mistyped --w
# from allocating gigabytes for the 2w + 1 jump buckets.
MAX_WINDOW = 1000


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
        uniform_jumps(self.w, self.p0)  # reuse JumpTable's p0 check


def _clip_index(n: int, w: int) -> np.ndarray:
    """(n, n) matrix of bucket indices for the jump from row pos to col pos."""
    pos = np.arange(1, n + 1)
    return np.clip(pos[None, :] - pos[:, None], -w, w) + w


def _transition_matrix(n: int, jumps: JumpTable, use_null: bool) -> np.ndarray:
    qm = jumps.probs[_clip_index(n, jumps.w)]
    z = qm.sum(axis=1)
    if (z <= 0.0).any():
        raise NumericError("jump distribution assigns no mass to reachable positions")
    base = qm / z[:, None]
    if not use_null:
        return base
    # No src/ caller passes use_null=True; criterion 2 (test_acceptance.py) checks its row sums.
    # A companion leaves as the position it remembers, so its rows repeat the real states'.
    rows = np.hstack([(1.0 - jumps.p0) * base, jumps.p0 * np.eye(n)])
    return np.vstack([rows, rows])


class _Group(NamedTuple):
    """A layout group of pairs (see _packed.py) ready for the group passes.

    The pairs run by descending m, so a step at source position j updates
    the first layout.active[j] of them, those with m > j. With N the longest
    target, a pair has S = N states, or 2N with NULL (real positions, then
    NULL companions). emit is (M, B, S) and pi (B, S); scale (B, N) holds
    (1 - p0) / Z_i of each departure position i; q is the (N, N) jump
    matrix q[clamp(i' - i)] that every pair shares. Cells past a pair's own
    m or n are 0, so they add nothing to any sum or product. Without NULL,
    emit is the group's block of chunk cells itself, and with NULL a copy
    that _group makes. The forward pass and Viterbi only read emit;
    Baum-Welch's backward pass overwrites it with the arrival factors, and
    _bw_pass then overwrites the block with the posteriors.
    """

    layout: Group  # its pairs, their lengths and its slots
    emit: np.ndarray
    pi: np.ndarray
    scale: np.ndarray
    q: np.ndarray
    p0: float  # 0.0 without NULL
    use_null: bool


def _group(g: Group, values: np.ndarray, jumps: JumpTable, use_null: bool) -> _Group:
    """The _Group of layout group g, whose cells of theta are values; without
    NULL its emissions are values itself, with NULL a copy."""
    m_max, b_count, columns = values.shape
    width = columns - use_null
    p0 = jumps.p0 if use_null else 0.0
    q = jumps.probs[_clip_index(width, jumps.w)]
    ns = g.ns[:, None]
    real = np.arange(width) < ns
    z = np.cumsum(q, axis=1)[:, g.ns - 1].T  # Z_i of each pair's own n
    if (z[real] <= 0.0).any():
        raise NumericError("jump distribution assigns no mass to reachable positions")
    scale = np.divide(1.0 - p0, z, out=np.zeros((b_count, width)), where=real)
    pi = np.where(real, (1.0 - p0) / ns, 0.0)
    if use_null:
        emit = np.empty((m_max, b_count, 2 * width))
        emit[:, :, :width] = values[:, :, :width]
        np.multiply(values[:, :, width:], real, out=emit[:, :, width:])
        pi = np.hstack([pi, np.where(real, p0 / ns, 0.0)])
    else:
        emit = values
    return _Group(g, emit, pi, scale, q, p0, use_null)


def _scaled_forward(g: _Group) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled forward variables alphas (M, B, S), each pair's row summing to
    1 at each of its positions; inputs[j] = (alpha_real + alpha_null)[j] *
    scale, the row that the shared q carries to position j + 1; and the
    scales (M, B), whose product over a pair's positions is its Z. Unused
    cells of alphas and inputs are 0 and of scales 1. A pair whose scaling
    fails gets a zero or non-finite scale; see _bw_pass."""
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


def _scaled_backward(g: _Group, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled backward variables betas (M, B, N), one per position since a
    real state and its NULL companion share their beta; and weighted[j] =
    emit[j] * betas[j] / scales[j], the arrival factors into position j,
    with the NULL half also times p0. weighted is g.emit itself, divided
    and multiplied in place, since nothing reads the emissions again: with
    NULL they are _group's own copy, without it the group's block of chunk
    cells, which _bw_pass overwrites with the posteriors only after its
    last read of weighted."""
    m_max, b_count, states = g.emit.shape
    n = len(g.q)
    weighted = np.divide(g.emit, scales[:, :, None], out=g.emit)
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
    ((g, block),) = packed.blocks(params.table.decode_theta)
    group = _group(g, block, params.jumps, params.use_null)
    return float(np.log(_scaled_forward(group)[2]).sum())


def viterbi_decode(pair: SentencePair, params: HmmParams) -> AlignmentFunction:
    """align_corpus on the one pair."""
    return align_corpus(Bitext([pair]), params)[0]


def _viterbi_sweep(g: _Group, log_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Viterbi recursion over a group: each pair's (B, S) scores of the
    best path into each state at its last position, and the (M, B, S)
    backpointers, valid at positions 1 to m - 1 of each pair. States are
    real positions i and, with NULL, companions N + i; log_t (B, N, S)
    holds log p(i -> i') at [b, i', i], -inf past the pair's n, with NULL
    the same (N, N) block again in columns N + i for the jumps out of
    companions. Scores run destination-major: each step adds delta into
    one buffer and takes one argmax over every predecessor, which keeps
    the first maximum, so real positions beat their companions and smaller
    positions win ties."""
    m_max, b_count, states = g.emit.shape
    n = len(g.q)
    with np.errstate(divide="ignore"):
        log_e = np.log(g.emit)
        log_p0 = np.log(g.p0)
        delta = np.log(g.pi) + log_e[0]
    pointers = np.empty((m_max, b_count, states), dtype=np.int64)
    buffer = np.empty((b_count, n, states))
    rows = np.arange(0, buffer.size, states).reshape(b_count, n)  # where each row starts
    positions = np.arange(n)
    for j, b in enumerate(g.layout.active[1:], 1):
        d = delta[:b]
        scores = np.add(d[:, None], log_t[:b], out=buffer[:b])
        best = scores.argmax(axis=2)
        top = scores.ravel()[best + rows[:b]]
        if g.use_null:
            stay, move = d[:, :n] + log_p0, d[:, n:] + log_p0
            better = move > stay
            pointers[j, :b, n:] = positions + n * better
            d[:, n:] = np.where(better, move, stay) + log_e[j, :b, n:]
        pointers[j, :b, :n] = best
        d[:, :n] = top + log_e[j, :b, :n]
    return delta, pointers


def _viterbi(g: _Group, log_t: np.ndarray) -> list[tuple]:
    """Each pair's best state path as target positions, None at a NULL
    companion, from log_t (B, N, S), each pair's log transitions, with
    NULL twice side by side (see _viterbi_sweep)."""
    delta, pointers = _viterbi_sweep(g, log_t)
    m_max, b_count, _ = pointers.shape
    n = len(g.q)
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


def _bw_pass(packed: PackedCorpus, layout: Group, block: np.ndarray, jumps: JumpTable):
    """Group pass of Baum-Welch (see _packed._chunk_counts): forward-backward
    over the group whose cells of theta are block, which then takes the
    state posteriors, NULL's column the companions' mass. Reports the
    group's log-likelihood, its expected jumps per bucket, its target lengths
    and its (B, N) expected departures from each position. Summed over
    source positions, the transition counts are one batched product,

        sum_j xi_j[i, i'] = q[i, i'] * sum_j inputs[j, i] * weighted[j + 1, i'],

    with only arrivals at real positions counted; real and NULL-companion
    departures pool, since both jump from the same remembered position.
    Past _group's and the forward and backward passes' arrays, the pass
    allocates only xi: the posteriors alphas * betas are formed in alphas
    itself. xi is taken before they are written to block, since without
    NULL weighted is block (see _scaled_backward).
    """
    g = _group(layout, block, jumps, packed.use_null)
    alphas, inputs, scales = _scaled_forward(g)
    bad = ~((scales > 0.0) & (scales < math.inf))  # where a pair's scaling failed
    if bad.any():
        first = bad.argmax(axis=0).tolist()
        return None, [
            (layout.pairs[b], first[b], f"forward scaling underflow at position {first[b]}")
            for b in np.flatnonzero(bad.any(axis=0))
        ]
    betas, weighted = _scaled_backward(g, scales)
    m_max, b_count, states = alphas.shape
    n_max = len(g.q)
    xi = np.matmul(inputs[:-1].transpose(1, 2, 0), weighted[1:, :, :n_max].transpose(1, 0, 2))
    xi *= g.q
    gamma = alphas.reshape(m_max, b_count, states // n_max, n_max)
    gamma *= betas[:, :, None]
    block[:, :, :n_max] = gamma[:, :, 0]
    if g.use_null:
        gamma[:, :, 1].sum(axis=2, out=block[:, :, n_max])
    buckets = np.bincount(
        _clip_index(n_max, jumps.w).ravel(), xi.sum(axis=0).ravel(), minlength=2 * jumps.w + 1
    )
    return (float(np.log(scales).sum()), buckets, layout.ns, xi.sum(axis=2)), []


def _bw_statistics(packed: PackedCorpus, theta, jumps: JumpTable):
    """The Baum-Welch E-step: (expected lexical counts, jump statistics, ll
    of the input). The jump statistics are (buckets, departures): expected
    jumps per bucket, and departures[n, i] the expected jumps out of
    position i of the n-word targets. The counts are merged by
    _merge_counts; a corpus with no chunks counts zero everywhere."""
    counts = None
    buckets = np.zeros(2 * jumps.w + 1)
    departures = np.zeros((packed.max_n + 1, packed.max_n))
    ll = 0.0
    for part_counts, reports in packed.map(_chunk_counts, theta, _bw_pass, jumps):
        counts = _merge_counts(counts, part_counts)
        for group_ll, group_buckets, ns, group_departures in reports:
            ll += group_ll
            buckets += group_buckets
            np.add.at(departures[:, : group_departures.shape[1]], ns, group_departures)
    if counts is None:
        counts = np.zeros(packed.n_slots)
    return counts, (buckets, departures), ll


def _xlogy(x: np.ndarray, y: np.ndarray) -> float:
    """sum(x * log(y)) over the cells where x is nonzero, so 0 log 0 is 0."""
    held = x != 0.0
    return float(x[held] @ np.log(y[held]))


def _jump_objective(
    q: np.ndarray, stats: tuple[np.ndarray, np.ndarray], clip: np.ndarray
) -> float:
    """EM auxiliary objective for the jump block (constants dropped),

        buckets . log q - sum_{n, i} departures[n, i] log Z_n(i),

    with Z_n(i) = sum_{k=1..n} q[clamp(k - i)] read from one cumsum; clip
    is the _clip_index of the longest target, departures.shape[1]."""
    buckets, departures = stats
    z = np.cumsum(q[clip], axis=1).T  # Z_n(i) at [n - 1, i]
    return _xlogy(buckets, q) - _xlogy(departures[1:], z)


def _reestimate_jumps(jumps: JumpTable, stats: tuple[np.ndarray, np.ndarray]) -> JumpTable:
    """Count-normalized jump update from _bw_statistics' jump statistics,
    with backtracking toward the previous distribution whenever the
    auxiliary objective would decrease; after JUMP_HALVINGS halvings it
    warns and returns the previous table itself, as it does when no pair
    made a jump."""
    buckets = stats[0]
    if not buckets.any():
        return jumps
    w = jumps.w
    cand = np.maximum(buckets, MSTEP_FLOOR)
    cand = cand / cand.sum()
    old = jumps.probs
    clip = _clip_index(stats[1].shape[1], w)  # one for up to JUMP_HALVINGS + 1 objectives
    base = _jump_objective(old, stats, clip)
    step = cand
    for _ in range(JUMP_HALVINGS):
        if _jump_objective(step, stats, clip) >= base:
            return JumpTable(w=w, probs=step, p0=jumps.p0)
        step = 0.5 * step + 0.5 * old
    warn(
        __name__,
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
    return _bw_iteration(PackedCorpus(bitext, params.table, params.use_null, jobs=jobs), params)


def _bw_iteration(packed: PackedCorpus, params: HmmParams) -> tuple[HmmParams, float]:
    """One Baum-Welch EM step on params of the packed corpus's support: the
    re-estimated params and the log-likelihood of the input."""
    counts, stats, ll = _bw_statistics(packed, params.table.theta, params.jumps)
    jumps = _reestimate_jumps(params.jumps, stats)
    return HmmParams(params.table.normalized(counts), jumps, params.use_null), ll


def train(
    bitext: Bitext,
    config: HmmConfig,
    jobs: int = 1,
    log_to: Optional[TextIO] = None,
) -> tuple[HmmParams, list[float]]:
    """Warm up the lexical table with a few silent Model 1 iterations and
    uniform jumps, then run Baum-Welch on the same packed corpus, writing
    its trace to log_to when given. With iterations=0 the warmed-up params
    are returned."""
    uniform, packed = uniform_packed(bitext, config.use_null, jobs=jobs)
    warm_up = lambda table: lexical_step(packed, table)
    step = lambda params: _bw_iteration(packed, params)
    jumps = uniform_jumps(config.w, config.p0)
    # No local holds the warm-up's table, so Baum-Welch's first step drops
    # the last reference to it.
    return run_em(
        step,
        HmmParams(run_em(warm_up, uniform, config.model1_iterations)[0], jumps, config.use_null),
        config.iterations,
        log_to,
    )


def align_corpus(bitext: Bitext, params: HmmParams) -> list[AlignmentFunction]:
    """Most probable state path of every pair, decoded on the Baum-Welch
    groups with lexical lookups floored at DECODE_FLOOR; ties break toward
    the smaller state index at every backpointer, so real positions beat
    their NULL companions."""
    packed = PackedCorpus(bitext, params.table, params.use_null)
    jumps, use_null = params.jumps, params.use_null
    log_rows: dict[int, np.ndarray] = {}  # per target length n, built once
    aligned: list = [None] * len(packed)
    for layout, block in packed.blocks(params.table.decode_theta):
        g = _group(layout, block, jumps, use_null)
        width, ns = len(g.q), layout.ns.tolist()
        # log_t[b, i', h, i]: the pair's block in each half h of its columns
        log_t = np.full((len(ns), width, 1 + use_null, width), -math.inf)
        for n in sorted(set(ns)):
            if n not in log_rows:
                with np.errstate(divide="ignore"):
                    log_rows[n] = np.log((1.0 - g.p0) * _transition_matrix(n, jumps, False)).T
            log_t[layout.ns == n, :n, :, :n] = log_rows[n][:, None]
        paths = _viterbi(g, log_t.reshape(len(ns), width, -1))
        for k, n, targets in zip(layout.pairs, ns, paths):
            aligned[k] = AlignmentFunction(targets=targets, n=n)
    return aligned


def save_model(out: BinaryIO, params: HmmParams) -> None:
    jumps = params.jumps
    trailer = [f"{HMM_TRAILER}\t{jumps.w}\t{jumps.p0!r}"]
    for d in range(-jumps.w, jumps.w + 1):
        trailer.append(f"{JUMP_TRAILER}\t{d}\t{float(jumps.probs[d + jumps.w])!r}")
    write_ttable(out, params.table, trailer)


def model_from(
    table: TranslationTable, trailer: list[str], line_numbers: Sequence[int] = ()
) -> HmmParams:
    """HMM parameters from a parsed model file's table and trailer. Errors
    name the model line of the row they reject when line_numbers holds
    each trailer row's line."""
    if not trailer or not trailer[0].startswith(HMM_TRAILER + "\t"):
        raise trailer_error("HMM model file must carry an 'hmm' trailer", line_numbers)
    head = trailer[0].split("\t")
    if len(head) != 3:
        raise trailer_error("malformed 'hmm' trailer", line_numbers)
    try:
        w, p0 = int(head[1]), float(head[2])
    except ValueError as exc:
        raise trailer_error(f"malformed 'hmm' trailer: {exc}", line_numbers) from exc
    if w < 1:
        raise trailer_error(f"bad 'hmm' trailer: jump window must be >= 1, got {w}", line_numbers)
    if len(trailer) - 1 != 2 * w + 1:
        raise trailer_error(
            f"expected {2 * w + 1} jump buckets, found {len(trailer) - 1}", line_numbers
        )
    probs = np.zeros(2 * w + 1)
    seen = set()
    for row, line in enumerate(trailer[1:], start=1):
        parts = line.split("\t")
        if len(parts) != 3 or parts[0] != JUMP_TRAILER:
            raise trailer_error(f"unexpected trailer line: {line!r}", line_numbers, row)
        try:
            d, p = int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise trailer_error(f"malformed jump line: {exc}", line_numbers, row) from exc
        if not -w <= d <= w:
            raise trailer_error(f"jump bucket {d} outside window {w}", line_numbers, row)
        if d in seen:
            raise trailer_error(f"jump bucket {d} repeated", line_numbers, row)
        if d == 0 and p == 0.0:  # staying put is the only move in a one-word sentence
            raise trailer_error(
                "bad 'hmm' trailer: jump bucket 0 has probability 0", line_numbers, row
            )
        seen.add(d)
        probs[d + w] = p
    try:
        jumps = JumpTable(w=w, probs=probs, p0=p0)
    except ConfigError as exc:
        raise trailer_error(f"bad 'hmm' trailer: {exc}", line_numbers) from None
    return HmmParams(table=table, jumps=jumps, use_null=NULL_ID in table.row_ids)
