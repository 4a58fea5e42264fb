"""Independent reference implementations used to cross-check the package.

Everything here is written as plain dictionary-and-loop Python with
`math` only, enumerating alignment spaces directly where feasible. These
routines intentionally share no code with the package so that agreement
between the two is meaningful. There are two exceptions. hmm_viterbi, a
dense per-pair decoder over every state, runs in numpy so that its sums
are the very floats the package's group decoder adds, and exact ties
break the same way. grow_diag_final_reference is the package's first
grow-diag-final, kept as it was written: it takes and returns the
package's AlignmentSet and raises its errors.

Conventions (mirroring the package's external contracts):
  * a sentence pair is (source_ids, target_ids);
  * a lexical table is a dict {(e, f): prob} with NULL as e = -1 and
    missing entries worth `floor`;
  * alignment functions map each source position to a target position or
    None.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from alignkit.alignment import AlignmentSet
from alignkit.errors import DataFormatError, DimensionMismatchError

NULL = -1


def tprob(table: dict, e: int, f: int, floor: float) -> float:
    return max(table.get((e, f), 0.0), floor)


# --------------------------------------------------------------------------
# Model 1


def model1_sentence_ll(
    source, target, table, use_null: bool, epsilon: float = 1.0, floor: float = 1e-12
) -> float:
    m, n = len(source), len(target)
    targets = ([NULL] if use_null else []) + list(target)
    total = math.log(epsilon) - m * math.log(n + 1 if use_null else n)
    for f in source:
        total += math.log(sum(tprob(table, e, f, floor) for e in targets))
    return total


def model1_enumerated_ll(
    source, target, table, use_null: bool, epsilon: float = 1.0, floor: float = 1e-12
) -> float:
    """Sum the joint probability over every alignment function explicitly."""
    m, n = len(source), len(target)
    targets = ([NULL] if use_null else []) + list(target)
    norm = (n + 1 if use_null else n) ** m
    total = 0.0
    for assignment in itertools.product(targets, repeat=m):
        p = 1.0
        for f, e in zip(source, assignment):
            p *= tprob(table, e, f, floor)
        total += p
    return math.log(epsilon * total / norm)


def model1_posteriors(source, target, table, use_null: bool, floor: float = 1e-12):
    """Per source position: posterior over target tokens (and NULL),
    computed by brute-force enumeration of whole alignment functions."""
    m = len(source)
    targets = ([NULL] if use_null else []) + list(target)
    weights = {}
    for assignment in itertools.product(range(len(targets)), repeat=m):
        p = 1.0
        for f, idx in zip(source, assignment):
            p *= tprob(table, targets[idx], f, floor)
        weights[assignment] = p
    z = sum(weights.values())
    posteriors = [[0.0] * len(targets) for _ in range(m)]
    for assignment, p in weights.items():
        for j, idx in enumerate(assignment):
            posteriors[j][idx] += p / z
    return targets, posteriors


# --------------------------------------------------------------------------
# Model 2 (diagonal prior)


def diag_prior(j: int, i: int, m: int, n: int, lam: float, p0: float) -> float:
    """1-based j and i; i = 0 is NULL."""
    if i == 0:
        return p0
    z = sum(
        math.exp(lam * -abs(j / m - k / n)) for k in range(1, n + 1)
    )
    return (1.0 - p0) * math.exp(lam * -abs(j / m - i / n)) / z


def model2_sentence_ll(
    source, target, table, lam: float, p0: float,
    epsilon: float = 1.0, floor: float = 1e-12,
) -> float:
    m, n = len(source), len(target)
    total = math.log(epsilon)
    for pos, f in enumerate(source, start=1):
        inner = 0.0
        if p0 > 0.0:
            inner += diag_prior(pos, 0, m, n, lam, p0) * tprob(table, NULL, f, floor)
        for i in range(1, n + 1):
            inner += diag_prior(pos, i, m, n, lam, p0) * tprob(
                table, target[i - 1], f, floor
            )
        total += math.log(inner)
    return total


def model2_enumerated_ll(
    source, target, table, lam: float, p0: float,
    epsilon: float = 1.0, floor: float = 1e-12,
) -> float:
    m, n = len(source), len(target)
    choices = ([0] if p0 > 0.0 else []) + list(range(1, n + 1))
    total = 0.0
    for assignment in itertools.product(choices, repeat=m):
        p = 1.0
        for pos, (f, i) in enumerate(zip(source, assignment), start=1):
            e = NULL if i == 0 else target[i - 1]
            p *= diag_prior(pos, i, m, n, lam, p0) * tprob(table, e, f, floor)
        total += p
    return math.log(epsilon * total)


# --------------------------------------------------------------------------
# HMM with NULL-companion states


def _hmm_pieces(target, jumps, w: int, p0: float, use_null: bool, table, floor):
    """Initial / transition / emission functions over explicit states:
    0..n-1 are target positions, n..2n-1 remember position s-n while
    emitting from NULL."""
    n = len(target)

    def clamp(d):
        return max(-w, min(w, d))

    def pi(s):
        if s < n:
            return ((1.0 - p0) if use_null else 1.0) / n
        return p0 / n

    def trans(s, t):
        mem = s if s < n else s - n
        if t < n:
            z = sum(jumps[clamp(k - mem) + w] for k in range(n))
            keep = (1.0 - p0) if use_null else 1.0
            return keep * jumps[clamp(t - mem) + w] / z
        return p0 if t - n == mem else 0.0

    def emit(s, f):
        e = target[s] if s < n else NULL
        return tprob(table, e, f, floor)

    states = range(2 * n if use_null else n)
    return states, pi, trans, emit


def _hmm_paths(source, target, table, jumps, w, p0, use_null, floor):
    """Every state sequence in lexicographic order with its joint probability."""
    states, pi, trans, emit = _hmm_pieces(
        target, jumps, w, p0, use_null, table, floor
    )
    weights = []
    for seq in itertools.product(states, repeat=len(source)):
        p = pi(seq[0]) * emit(seq[0], source[0])
        for prev, cur, f in zip(seq, seq[1:], source[1:]):
            p *= trans(prev, cur) * emit(cur, f)
        weights.append((seq, p))
    return weights


def hmm_enumerate(
    source, target, table, jumps, w: int, p0: float, use_null: bool,
    floor: float = 1e-12,
):
    """Brute-force everything: returns (log Z, state posteriors per
    position, best path as an alignment function, best path log-prob).

    Sequences are scored in lexicographic state order and the best path
    keeps the first maximum, mirroring a smallest-index tie-break.
    """
    weights = _hmm_paths(source, target, table, jumps, w, p0, use_null, floor)
    n = len(target)
    z = 0.0
    best_p = -1.0
    best_seq = None
    gammas = [dict() for _ in source]
    for seq, p in weights:
        z += p
        if p > best_p:
            best_p, best_seq = p, seq
    for seq, p in weights:
        for j, s in enumerate(seq):
            gammas[j][s] = gammas[j].get(s, 0.0) + p / z
    best_path = [s if s < n else None for s in best_seq]
    return math.log(z), gammas, best_path, math.log(best_p)


def hmm_expected_counts(
    source, target, table, jumps, w: int, p0: float, use_null: bool,
    floor: float = 1e-12,
):
    """Baum-Welch statistics of one pair by enumeration: (lexical counts
    {(e, f): expected emissions of f from e, NULL as e = -1}, jump counts
    [from][to] over 0-based positions, log Z). A jump is counted only when
    it arrives at a real position, and a NULL companion departs from the
    position it remembers."""
    weights = _hmm_paths(source, target, table, jumps, w, p0, use_null, floor)
    n = len(target)
    z = sum(p for _, p in weights)
    lexical: dict = {}
    jump_counts = [[0.0] * n for _ in range(n)]
    for seq, p in weights:
        for s, f in zip(seq, source):
            key = (target[s] if s < n else NULL, f)
            lexical[key] = lexical.get(key, 0.0) + p / z
        for prev, cur in zip(seq, seq[1:]):
            if cur < n:
                jump_counts[prev if prev < n else prev - n][cur] += p / z
    return lexical, jump_counts, math.log(z)


def _bucket(d: int, w: int) -> int:
    return max(-w, min(w, d)) + w


def hmm_jump_objective(jumps, jump_counts: dict, w: int) -> float:
    """The EM auxiliary objective of the jump distribution, constants
    dropped, over full count matrices {n: [from][to]} of 0-based positions:

        sum_n sum_{i, k} S_n[i][k] log q[clamp(k - i)] - S_n[i].sum() log Z_n(i)

    with Z_n(i) = sum_{k < n} q[clamp(k - i)]. A term with no count is 0,
    log 0 included."""
    total = 0.0
    for n, matrix in jump_counts.items():
        for i, row in enumerate(matrix):
            for k, c in enumerate(row):
                if c:
                    total += c * math.log(jumps[_bucket(k - i, w)])
            if sum(row):
                total -= sum(row) * math.log(sum(jumps[_bucket(k - i, w)] for k in range(n)))
    return total


def hmm_jump_statistics(jump_counts: dict, w: int, longest: int):
    """Full count matrices {n: [from][to]} reduced to (counts per jump bucket,
    departures[n][i], the counts out of position i of the n-word targets)."""
    buckets = [0.0] * (2 * w + 1)
    departures = [[0.0] * longest for _ in range(longest + 1)]
    for n, matrix in jump_counts.items():
        for i, row in enumerate(matrix):
            for k, c in enumerate(row):
                buckets[_bucket(k - i, w)] += c
            departures[n][i] += sum(row)
    return buckets, departures


# --------------------------------------------------------------------------
# Decoding


def _first_best(scores, null_score):
    """Index of the first maximum of scores; None when null_score (if any)
    beats that maximum strictly."""
    best_i = 0
    best_p = -1.0
    for i, p in enumerate(scores):
        if p > best_p:
            best_i, best_p = i, p
    if null_score is not None and null_score > best_p:
        return None
    return best_i


def model1_argmax(source, target, table, use_null: bool, floor: float = 1e-12):
    """Per source word, the target position with the largest t(f | e),
    smaller positions winning ties; NULL (None) only when strictly larger."""
    return [
        _first_best(
            [tprob(table, e, f, floor) for e in target],
            tprob(table, NULL, f, floor) if use_null else None,
        )
        for f in source
    ]


def model2_argmax(source, target, table, prior, use_null: bool, floor: float = 1e-12):
    """model1_argmax with each score weighted by prior(j, i), the
    probability of target position i (0 for NULL) at source position j,
    both 1-based."""
    return [
        _first_best(
            [prior(j, i) * tprob(table, e, f, floor) for i, e in enumerate(target, 1)],
            prior(j, 0) * tprob(table, NULL, f, floor) if use_null else None,
        )
        for j, f in enumerate(source, start=1)
    ]


def hmm_emissions(source, target, table, use_null: bool, floor: float = 1e-12):
    """emit[s][j] = t(f_j | e) of each state s, in _hmm_pieces' state order."""
    n = len(target)
    rows = list(target) + ([NULL] * n if use_null else [])
    return [[tprob(table, e, f, floor) for f in source] for e in rows]


def hmm_viterbi(emit, trans, pi, n: int):
    """Best state path of one pair as an alignment function, by dense
    Viterbi over all states: emit[s][j], trans[s][t] and pi[s] in
    _hmm_pieces' state order. Every backpointer keeps the first maximum,
    so the smaller state index wins ties."""
    with np.errstate(divide="ignore"):
        log_e = np.log(np.asarray(emit))
        log_t = np.log(np.asarray(trans))
        log_pi = np.log(np.asarray(pi))
    states, m = log_e.shape
    delta = log_pi + log_e[:, 0]
    pointers = np.empty((m, states), dtype=np.int64)
    for j in range(1, m):
        scores = delta[:, None] + log_t
        best = np.argmax(scores, axis=0)
        delta = scores[best, np.arange(states)] + log_e[:, j]
        pointers[j] = best
    state = int(np.argmax(delta))
    path = [0] * m
    for j in range(m - 1, -1, -1):
        path[j] = state
        if j > 0:
            state = int(pointers[j, state])
    return [s if s < n else None for s in path]


# --------------------------------------------------------------------------
# Phrase extraction


def phrase_pairs_brute(links, m: int, n: int, max_len: int):
    """Test every rectangle against the three extraction rules."""
    links = set(links)
    out = []
    for j1 in range(m):
        for j2 in range(j1, m):
            if j2 - j1 + 1 > max_len:
                continue
            for i1 in range(n):
                for i2 in range(i1, n):
                    if i2 - i1 + 1 > max_len:
                        continue
                    inside = False
                    violated = False
                    for j, i in links:
                        row_in = j1 <= j <= j2
                        col_in = i1 <= i <= i2
                        if row_in and col_in:
                            inside = True
                        elif row_in != col_in:
                            violated = True
                    if inside and not violated:
                        out.append((j1, j2, i1, i2))
    return sorted(out)


def phrase_table_brute(records, max_len: int):
    """(counts, source marginals, target marginals, written text) of the
    phrase table over (source tokens, target tokens, links) records,
    counting one extracted pair at a time."""
    counts, src_totals, tgt_totals = Counter(), Counter(), Counter()
    for src, tgt, links in records:
        for j1, j2, i1, i2 in phrase_pairs_brute(links, len(src), len(tgt), max_len):
            s, t = tuple(src[j1 : j2 + 1]), tuple(tgt[i1 : i2 + 1])
            counts[(s, t)] += 1
            src_totals[s] += 1
            tgt_totals[t] += 1
    lines = []
    for s, t in sorted(counts):
        count = counts[(s, t)]
        fwd, inv = count / src_totals[s], count / tgt_totals[t]
        lines.append(f"{' '.join(s)} ||| {' '.join(t)} ||| {fwd!r} {inv!r} {count}\n")
    return counts, src_totals, tgt_totals, "".join(lines)


# --------------------------------------------------------------------------
# Symmetrization

NEIGHBORS = (
    (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1),
)

GDF_VARIANTS = ("final", "final-and")


def _check_dims(fwd: AlignmentSet, rev: AlignmentSet) -> None:
    if (fwd.m, fwd.n) != (rev.m, rev.n):
        raise DimensionMismatchError(
            f"cannot combine {fwd.m}x{fwd.n} and {rev.m}x{rev.n} alignments"
        )


def grow_diag_final_reference(
    fwd: AlignmentSet, rev: AlignmentSet, variant: str = "final"
) -> AlignmentSet:
    """Grow the intersection toward the union, then add leftover links.

    Both inputs must already be in forward orientation (transpose the
    reverse aligner's output first). Growing visits current links in
    (j, i) order and their 8 neighbors in clockwise order from the
    top-left, adding a neighbor that is in the union and whose source row
    or target column is still unaligned; passes repeat until a fixpoint.

    The final step scans forward links then reverse links in (j, i)
    order and adds those whose row or column (variant "final") or row
    and column (variant "final-and") were unaligned when growing
    finished. Availability is judged against the post-growing state for
    every candidate, which keeps the "final-and" result a subset of the
    "final" result.
    """
    if variant not in GDF_VARIANTS:
        raise DataFormatError(f"unknown grow-diag-final variant: {variant!r}")
    _check_dims(fwd, rev)
    both = fwd.links | rev.links
    aligned = set(fwd.links & rev.links)
    rows = {j for j, _ in aligned}
    cols = {i for _, i in aligned}

    changed = True
    while changed:
        changed = False
        for j, i in sorted(aligned):
            for dj, di in NEIGHBORS:
                cand = (j + dj, i + di)
                if cand in aligned or cand not in both:
                    continue
                if cand[0] not in rows or cand[1] not in cols:
                    aligned.add(cand)
                    rows.add(cand[0])
                    cols.add(cand[1])
                    changed = True

    grown_rows = frozenset(rows)
    grown_cols = frozenset(cols)
    for j, i in sorted(fwd.links) + sorted(rev.links):
        if (j, i) in aligned:
            continue
        row_free = j not in grown_rows
        col_free = i not in grown_cols
        ok = (row_free and col_free) if variant == "final-and" else (row_free or col_free)
        if ok:
            aligned.add((j, i))
    return AlignmentSet(links=frozenset(aligned), m=fwd.m, n=fwd.n)
