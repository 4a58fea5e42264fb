import io
import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from alignkit import _packed, hmm, model1, model2
from alignkit._packed import PackedCorpus
from alignkit.corpus import SentencePair, load_bitext
from alignkit.errors import ConfigError, DataFormatError, NumericError
from alignkit.hmm import (
    HmmConfig,
    HmmParams,
    JumpTable,
    _bw_statistics,
    _jump_objective,
    _reestimate_jumps,
    _transition_matrix,
    align_corpus,
    baum_welch_step,
    log_forward,
    model_from,
    save_model,
    train,
    uniform_jumps,
    viterbi_decode,
)
from alignkit.ttable import DECODE_FLOOR, NULL_ID, TranslationTable, read_ttable
from conftest import leave_nan_in_freed_memory, make_bitext, random_id_bitext, random_table
from test_decoding import tie_heavy_table


def random_jumps(rng, w=2, p0=0.0):
    probs = rng.dirichlet(np.ones(2 * w + 1))
    return JumpTable(w=w, probs=probs, p0=p0)


def bw_statistics(bitext, table, jumps, use_null):
    """_bw_statistics in process, from table's theta: (counts, (buckets,
    departures), ll)."""
    return _bw_statistics(PackedCorpus(bitext, table, use_null), table.theta, jumps)


def jump_statistics(jump_counts, w, longest):
    """oracles.hmm_jump_statistics as the arrays _bw_statistics returns."""
    return tuple(np.array(x) for x in oracles.hmm_jump_statistics(jump_counts, w, longest))


def random_instance(rng, max_len=3, use_null=False, w=2, p0=0.3):
    """Random pair, lexical table, and jump distribution for exactness tests.

    Target ids are drawn distinct so that no two state paths tie exactly;
    the decoder's behavior under deliberate ties has its own tests, where
    every tied path multiplies identical factors and so ties bitwise.
    """
    m = int(rng.integers(1, max_len + 1))
    n = int(rng.integers(1, max_len + 1))
    source = tuple(int(x) for x in rng.integers(1, 7, size=m))
    target = tuple(
        int(x) for x in rng.choice(np.arange(1, max_len + 4), size=n, replace=False)
    )
    pair = SentencePair(source_ids=source, target_ids=target)
    table, flat = random_table(
        rng, sorted(set(target)), sorted(set(source)), include_null=use_null
    )
    jumps = random_jumps(rng, w=w, p0=p0 if use_null else 0.0)
    params = HmmParams(table=table, jumps=jumps, use_null=use_null)
    return pair, params, flat


def reference_log_forward(pair, params, flat, floor=1e-12):
    """Dense log-domain recursion over explicit states, independent of the
    package's scaled vectorized pass."""
    states, pi, trans, emit = oracles._hmm_pieces(
        pair.target_ids,
        list(params.jumps.probs),
        params.jumps.w,
        params.jumps.p0,
        params.use_null,
        flat,
        floor,
    )
    log_a = {
        s: _safe_log(pi(s) * emit(s, pair.source_ids[0])) for s in states
    }
    for f in pair.source_ids[1:]:
        log_a = {
            t: _log_sum(
                log_a[s] + _safe_log(trans(s, t)) for s in states
            )
            + _safe_log(emit(t, f))
            for t in states
        }
    return _log_sum(iter(log_a.values()))


def _safe_log(x):
    return math.log(x) if x > 0.0 else -math.inf


def _log_sum(values):
    items = [v for v in values if v > -math.inf]
    if not items:
        return -math.inf
    peak = max(items)
    return peak + math.log(sum(math.exp(v - peak) for v in items))


class TestJumpTable:
    def test_validation(self):
        with pytest.raises(ConfigError):
            JumpTable(w=0, probs=np.array([1.0]))
        with pytest.raises(ConfigError):
            JumpTable(w=1, probs=np.array([0.5, 0.5]))  # needs 2w + 1 buckets
        with pytest.raises(ConfigError):
            JumpTable(w=1, probs=np.array([0.5, 0.5, 0.5]))  # sums to 1.5
        with pytest.raises(ConfigError):
            JumpTable(w=1, probs=np.array([-0.5, 1.0, 0.5]))
        with pytest.raises(ConfigError):
            uniform_jumps(w=2, p0=1.0)

    def test_uniform_jumps_are_a_distribution(self):
        jumps = uniform_jumps(w=5, p0=0.2)
        assert jumps.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert (jumps.probs == jumps.probs[0]).all()


class TestConfig:
    def test_validation(self):
        assert HmmConfig(iterations=0).iterations == 0  # allowed: init only
        with pytest.raises(ConfigError):
            HmmConfig(iterations=-1)
        with pytest.raises(ConfigError):
            HmmConfig(model1_iterations=0)
        with pytest.raises(ConfigError):
            HmmConfig(w=0)
        with pytest.raises(ConfigError):
            HmmConfig(p0=1.0)


class TestTransitions:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(61)
        for use_null in (False, True):
            for _ in range(20):
                n = int(rng.integers(1, 9))
                jumps = random_jumps(rng, w=int(rng.integers(1, 4)),
                                     p0=0.25 if use_null else 0.0)
                trans = _transition_matrix(n, jumps, use_null)
                np.testing.assert_allclose(trans.sum(axis=1), 1.0, atol=1e-12)

    def test_unreachable_positions_raise(self):
        # All jump mass on displacement +1; from the last position of a
        # 1-word sentence no positive-probability successor exists.
        jumps = JumpTable(w=1, probs=np.array([0.0, 0.0, 1.0]), p0=0.0)
        with pytest.raises(NumericError):
            _transition_matrix(1, jumps, False)

    def test_initial_distribution(self):
        # Baum-Welch and Viterbi both start from a group's pi; without NULL
        # the jump table's p0 is not read.
        for use_null, n in [(True, 4), (False, 3)]:
            bitext = make_bitext([((1, 2), tuple(range(1, n + 1)))])
            table = model1.init_uniform(bitext, use_null)
            packed = PackedCorpus(bitext, table, use_null)
            ((g, block),) = packed.chunks[0].blocks(packed.cells(0, table.theta))
            pi = hmm._group(g, block, uniform_jumps(p0=0.2), use_null).pi[0]
            if use_null:
                np.testing.assert_allclose(pi[:n], 0.8 / n, atol=1e-15)
                np.testing.assert_allclose(pi[n:], 0.2 / n, atol=1e-15)
            else:
                np.testing.assert_allclose(pi, 1 / n, atol=1e-15)


class TestLogForward:
    def test_single_target_word_reduces_to_lexical_product(self):
        # With one target position the state never moves, so the total
        # probability is exactly the product of the lexical entries.
        table = TranslationTable({5: {1: 0.3, 2: 0.6, 3: 0.1}})
        params = HmmParams(table=table, jumps=uniform_jumps(), use_null=False)
        pair = SentencePair(source_ids=(1, 2, 2, 3), target_ids=(5,))
        expected = math.log(0.3) + 2 * math.log(0.6) + math.log(0.1)
        assert log_forward(pair, params) == pytest.approx(expected, abs=1e-12)

    def test_deterministic_diagonal_path(self):
        n = 4
        w = 5
        source = tuple(range(1, n + 1))
        target = tuple(range(11, 11 + n))
        table = TranslationTable({e: {f: 1.0} for f, e in zip(source, target)})
        probs = np.full(2 * w + 1, 0.3 / (2 * w))
        probs[w + 1] = 0.7
        jumps = JumpTable(w=w, probs=probs, p0=0.0)
        params = HmmParams(table=table, jumps=jumps, use_null=False)
        pair = SentencePair(source_ids=source, target_ids=target)
        expected = math.log(1.0 / n)
        for i in range(n - 1):  # 0-based departure positions
            z = sum(probs[max(-w, min(w, k - i)) + w] for k in range(n))
            expected += math.log(probs[w + 1] / z)
        assert log_forward(pair, params) == pytest.approx(expected, abs=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(62)
        for use_null in (False, True):
            for _ in range(40):
                pair, params, flat = random_instance(rng, use_null=use_null)
                log_z, _, _, _ = oracles.hmm_enumerate(
                    pair.source_ids, pair.target_ids, flat,
                    list(params.jumps.probs), params.jumps.w,
                    params.jumps.p0, use_null,
                )
                assert log_forward(pair, params) == pytest.approx(
                    log_z, rel=1e-8
                )

    def test_matches_log_domain_recursion(self):
        rng = np.random.default_rng(63)
        for use_null in (False, True):
            for _ in range(15):
                pair, params, flat = random_instance(
                    rng, max_len=7, use_null=use_null
                )
                assert log_forward(pair, params) == pytest.approx(
                    reference_log_forward(pair, params, flat), rel=1e-10
                )


class TestForwardBackward:
    """State posteriors, read from _bw_statistics' lexical counts: with
    distinct source ids, each (e, f) count is one source position's
    posterior."""

    @staticmethod
    def lexical_counts(pair, params):
        bitext = make_bitext([(pair.source_ids, pair.target_ids)])
        return bw_statistics(bitext, params.table, params.jumps, params.use_null)[0]

    def test_posteriors_sum_to_one(self):
        # Each source position spreads a mass of 1 over the target rows.
        rng = np.random.default_rng(64)
        for use_null in (False, True):
            pair, params, _ = random_instance(rng, max_len=6, use_null=use_null)
            assert self.lexical_counts(pair, params).sum() == pytest.approx(pair.m, abs=1e-9)

    def test_single_position_posterior_is_certain(self):
        table = TranslationTable({5: {1: 0.3, 2: 0.6, 3: 0.1}})
        params = HmmParams(table=table, jumps=uniform_jumps(), use_null=False)
        pair = SentencePair(source_ids=(1, 2, 3), target_ids=(5,))
        np.testing.assert_allclose(self.lexical_counts(pair, params), 1.0, atol=1e-12)

    def test_indistinguishable_states_share_mass_equally(self):
        n = 4
        source = (1, 2, 3)
        target = tuple(range(11, 11 + n))
        table = TranslationTable({e: {f: 1 / 3 for f in source} for e in target})
        params = HmmParams(table=table, jumps=uniform_jumps(w=n), use_null=False)
        pair = SentencePair(source_ids=source, target_ids=target)
        counts = self.lexical_counts(pair, params)
        assert len(counts) == n * len(source)
        np.testing.assert_allclose(counts, 1.0 / n, atol=1e-12)


class TestViterbi:
    def test_matches_enumerated_best_path(self):
        rng = np.random.default_rng(67)
        for use_null in (False, True):
            for _ in range(40):
                pair, params, flat = random_instance(rng, use_null=use_null)
                _, _, ref_path, _ = oracles.hmm_enumerate(
                    pair.source_ids, pair.target_ids, flat,
                    list(params.jumps.probs), params.jumps.w,
                    params.jumps.p0, use_null,
                )
                assert list(viterbi_decode(pair, params).targets) == ref_path

    def test_deterministic_diagonal_decodes_identity(self):
        n = 4
        source = tuple(range(1, n + 1))
        target = tuple(range(11, 11 + n))
        table = TranslationTable({e: {f: 1.0} for f, e in zip(source, target)})
        params = HmmParams(table=table, jumps=uniform_jumps(), use_null=False)
        pair = SentencePair(source_ids=source, target_ids=target)
        assert viterbi_decode(pair, params).targets == tuple(range(n))

    def test_single_target_position_takes_every_source_word(self):
        table = TranslationTable({5: {1: 0.5, 2: 0.5}})
        params = HmmParams(table=table, jumps=uniform_jumps(), use_null=False)
        pair = SentencePair(source_ids=(1, 2, 2), target_ids=(5,))
        assert viterbi_decode(pair, params).targets == (0, 0, 0)

    def test_full_ties_break_to_the_first_position(self):
        n = 3
        source = (1, 2)
        target = (11, 12, 13)
        table = TranslationTable({e: {f: 0.5 for f in source} for e in target})
        params = HmmParams(table=table, jumps=uniform_jumps(w=n), use_null=False)
        pair = SentencePair(source_ids=source, target_ids=target)
        assert viterbi_decode(pair, params).targets == (0, 0)


class TestBaumWelch:
    def test_single_pair_certainty_is_a_fixed_point(self):
        bt = make_bitext([((1,), (2,))])
        table = model1.init_uniform(bt, use_null=False)
        params = HmmParams(table=table, jumps=uniform_jumps(p0=0.0), use_null=False)
        config = HmmConfig(iterations=1, use_null=False, p0=0.0)
        updated, ll = baum_welch_step(bt, params, config)
        assert updated.table.rows == {2: {1: 1.0}}
        np.testing.assert_array_equal(updated.jumps.probs, params.jumps.probs)
        assert ll == pytest.approx(0.0, abs=1e-12)

    def test_likelihood_never_decreases(self):
        for seed in (71, 72, 73):
            rng = np.random.default_rng(seed)
            bt = random_id_bitext(rng, n_pairs=30, vocab=12, max_len=6)
            for use_null in (False, True):
                config = HmmConfig(
                    iterations=1, use_null=use_null, p0=0.2 if use_null else 0.0
                )
                params = HmmParams(
                    table=model1.init_uniform(bt, use_null=use_null),
                    jumps=uniform_jumps(config.w, config.p0),
                    use_null=use_null,
                )
                previous = -math.inf
                for _ in range(5):
                    params, ll = baum_welch_step(bt, params, config)
                    assert ll >= previous - 1e-9
                    previous = ll

    def test_updates_stay_normalized(self):
        rng = np.random.default_rng(74)
        bt = random_id_bitext(rng, n_pairs=30, vocab=12, max_len=6)
        config = HmmConfig(iterations=1)
        params = HmmParams(
            table=model1.init_uniform(bt, use_null=True),
            jumps=uniform_jumps(config.w, config.p0),
            use_null=True,
        )
        for _ in range(3):
            params, _ = baum_welch_step(bt, params, config)
            assert params.jumps.probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert (params.jumps.probs >= 0.0).all()
            for row in params.table.rows.values():
                assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)


    def test_jumps_move_when_a_bucket_has_probability_zero(self, caplog):
        # Saved models may carry zero buckets (all but d = 0). Their terms
        # count 0 log 0 as 0, so the objective stays finite and the update runs.
        bt = make_bitext([((1, 2, 3), (4, 5, 6)), ((1, 3), (5, 4, 6, 7)), ((2, 1, 3, 2), (6, 4))])
        jumps = JumpTable(w=2, probs=np.array([0.0, 0.25, 0.5, 0.25, 0.0]), p0=0.2)
        params = HmmParams(model1.init_uniform(bt, use_null=True), jumps, use_null=True)
        trace = []
        with warnings.catch_warnings(), caplog.at_level(logging.WARNING, logger="alignkit.hmm"):
            warnings.simplefilter("error")
            for _ in range(3):
                updated, ll = baum_welch_step(bt, params, HmmConfig(iterations=1))
                assert not np.array_equal(updated.jumps.probs, params.jumps.probs)
                params = updated
                trace.append(ll)
        assert not caplog.records
        for earlier, later in zip(trace, trace[1:]):
            assert later >= earlier - 1e-9

    def test_jump_objective_matches_the_per_length_oracle(self):
        # Count matrices for targets shorter than, as long as and longer
        # than the window, under tables with zero buckets and without.
        rng = np.random.default_rng(77)
        for w in (1, 2, 3):
            lengths = sorted({1, w, w + 1, 2 * w + 3})
            for _ in range(5):
                probs = rng.dirichlet(np.ones(2 * w + 1))
                probs[rng.random(2 * w + 1) < 0.4] = 0.0
                probs[w] += 0.1  # staying put keeps its mass
                probs /= probs.sum()
                jump_counts = {}
                for n in lengths:
                    counts = rng.random((n, n)) * (probs[hmm._clip_index(n, w)] > 0.0)
                    counts[rng.random(n) < 0.3] = 0.0
                    jump_counts[n] = counts.tolist()
                stats = jump_statistics(jump_counts, w, lengths[-1])
                for q in (probs, np.full(2 * w + 1, 1 / (2 * w + 1))):
                    clip = hmm._clip_index(lengths[-1], w)
                    assert _jump_objective(q, stats, clip) == pytest.approx(
                        oracles.hmm_jump_objective(list(q), jump_counts, w), rel=1e-12
                    )

    def test_unreachable_positions_raise_in_training_and_decoding(self):
        # All jump mass on displacement +1: a one-word target has no successor.
        bt = make_bitext([((1, 2), (3,))])
        jumps = JumpTable(w=1, probs=np.array([0.0, 0.0, 1.0]), p0=0.0)
        for use_null in (False, True):
            params = HmmParams(model1.init_uniform(bt, use_null), jumps, use_null)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for run in (
                    lambda: baum_welch_step(bt, params, HmmConfig(iterations=1)),
                    lambda: align_corpus(bt, params),
                ):
                    with pytest.raises(NumericError, match="no mass to reachable positions"):
                        run()

    def test_jump_fallback_keeps_the_table_and_warns(self, monkeypatch, caplog):
        jumps = uniform_jumps(w=2, p0=0.0)
        stats = jump_statistics({3: np.arange(9.0).reshape(3, 3).tolist()}, 2, 3)
        with caplog.at_level(logging.WARNING, logger="alignkit.hmm"):
            assert _reestimate_jumps(jumps, stats) is not jumps
            assert not caplog.records
            # Every candidate now scores below the previous table.
            monkeypatch.setattr(
                hmm, "_jump_objective", lambda q, *_: 0.0 if q is jumps.probs else -1.0
            )
            assert _reestimate_jumps(jumps, stats) is jumps
        (record,) = caplog.records
        assert "kept the previous jump table" in record.getMessage()


class TestBaumWelchStatistics:
    """_bw_statistics' expected counts against enumeration over state paths."""

    @staticmethod
    def random_chunk(rng, use_null, p0):
        shapes = [(1, int(rng.integers(1, 4))), (int(rng.integers(1, 4)), 1)]
        shapes += [tuple(int(x) for x in rng.integers(1, 4, size=2)) for _ in range(3)]
        id_pairs = [
            ([int(x) for x in rng.integers(1, 5, size=m)],
             [int(x) for x in rng.integers(1, 5, size=n)])
            for m, n in shapes
        ]
        bitext = make_bitext(id_pairs)
        table, flat = random_table(rng, range(1, 5), range(1, 5), include_null=use_null)
        jumps = random_jumps(rng, w=int(rng.integers(1, 3)), p0=p0)
        return bitext, table, flat, jumps

    @pytest.mark.parametrize("use_null, p0", [(False, 0.0), (True, 0.3), (True, 0.0)])
    def test_counts_jumps_and_likelihood_match_enumeration(self, use_null, p0):
        rng = np.random.default_rng(69)
        for _ in range(15):
            bitext, table, flat, jumps = self.random_chunk(rng, use_null, p0)
            counts, (buckets, departures), ll = bw_statistics(bitext, table, jumps, use_null)

            ref_counts: dict = {}
            ref_jumps: dict = {}
            ref_ll = 0.0
            for pair in bitext.pairs:
                lexical, jump_counts, log_z = oracles.hmm_expected_counts(
                    pair.source_ids, pair.target_ids, flat, list(jumps.probs),
                    jumps.w, jumps.p0, use_null, floor=0.0,
                )
                for key, c in lexical.items():
                    ref_counts[key] = ref_counts.get(key, 0.0) + c
                acc = ref_jumps.setdefault(pair.n, np.zeros((pair.n, pair.n)))
                acc += np.array(jump_counts)
                ref_ll += log_z

            assert ll == pytest.approx(ref_ll, rel=1e-10)
            expected = [ref_counts.get(key, 0.0) for key in zip(table.es, table.fs)]
            np.testing.assert_allclose(counts, expected, rtol=1e-10, atol=1e-12)
            ref_buckets, ref_departures = jump_statistics(
                ref_jumps, jumps.w, max(pair.n for pair in bitext.pairs)
            )
            np.testing.assert_allclose(buckets, ref_buckets, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(departures, ref_departures, rtol=1e-10, atol=1e-12)


class TestGroupedPasses:
    """Baum-Welch runs each chunk's pairs in groups of similar m, padded to
    the group's longest m and n; these cut one chunk into several groups."""

    # Small enough to enumerate, m = 1 and n = 1 included.
    SHAPES = [(1, 1), (3, 1), (1, 4), (4, 4), (2, 3), (4, 2), (1, 2), (3, 3), (2, 1), (4, 3)]

    @classmethod
    def random_chunk(cls, rng, use_null, p0):
        # Longer pairs too, so that padded groups span more than one buffer size.
        shapes = cls.SHAPES + [tuple(rng.integers(5, 13, size=2)) for _ in range(12)]
        id_pairs = [
            ([int(x) for x in rng.integers(1, 5, size=m)],
             [int(x) for x in rng.integers(1, 5, size=n)])
            for m, n in shapes
        ]
        table, flat = random_table(rng, range(1, 5), range(1, 5), include_null=use_null)
        jumps = random_jumps(rng, w=int(rng.integers(1, 3)), p0=p0)
        return make_bitext(id_pairs), table, flat, jumps

    @pytest.mark.parametrize("use_null, p0", [(False, 0.0), (True, 0.3), (True, 0.0)])
    def test_groups_match_single_pairs_and_enumeration(self, monkeypatch, use_null, p0):
        monkeypatch.setattr(_packed, "GROUP_CELLS", 300)
        rng = np.random.default_rng(81)
        for _ in range(5):
            bitext, table, flat, jumps = self.random_chunk(rng, use_null, p0)
            packed = PackedCorpus(bitext, table, use_null)
            groups = packed.chunks[0].groups
            assert 4 <= len(groups) < len(packed)
            assert any(len(set(g.ms.tolist())) > 1 for g in groups)
            leave_nan_in_freed_memory()
            counts, (buckets, departures), ll = bw_statistics(bitext, table, jumps, use_null)
            assert not np.isnan(counts).any()
            assert not np.isnan(buckets).any() and not np.isnan(departures).any()

            ref_counts = np.zeros_like(counts)
            ref_buckets = np.zeros_like(buckets)
            ref_departures = np.zeros_like(departures)
            ref_ll = 0.0
            for k, pair in enumerate(bitext.pairs):
                one = make_bitext([(pair.source_ids, pair.target_ids)])
                one_counts, (one_buckets, one_departures), one_ll = bw_statistics(
                    one, table, jumps, use_null
                )
                ref_counts += one_counts
                ref_buckets += one_buckets
                ref_departures[pair.n, : pair.n] += one_departures[pair.n]
                ref_ll += one_ll
                if k >= len(self.SHAPES):
                    continue
                _, enum_jumps, enum_ll = oracles.hmm_expected_counts(
                    pair.source_ids, pair.target_ids, flat, list(jumps.probs),
                    jumps.w, jumps.p0, use_null, floor=0.0,
                )
                assert one_ll == pytest.approx(enum_ll, rel=1e-10)
                enum_buckets, enum_departures = jump_statistics(
                    {pair.n: enum_jumps}, jumps.w, pair.n
                )
                np.testing.assert_allclose(one_buckets, enum_buckets, rtol=1e-10, atol=1e-12)
                np.testing.assert_allclose(
                    one_departures, enum_departures, rtol=1e-10, atol=1e-12
                )
            assert ll == pytest.approx(ref_ll, rel=1e-12)
            np.testing.assert_allclose(counts, ref_counts, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(buckets, ref_buckets, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(departures, ref_departures, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("use_null, p0", [(False, 0.0), (True, 0.3), (True, 0.0)])
    def test_matches_the_out_of_place_pass_bitwise(self, monkeypatch, use_null, p0):
        # The pass overwrites emit and alphas in place; every value it
        # reports or writes must be the very float the out-of-place one gave.
        monkeypatch.setattr(_packed, "GROUP_CELLS", 300)
        rng = np.random.default_rng(87)
        for _ in range(5):
            bitext, table, _, jumps = self.random_chunk(rng, use_null, p0)
            packed = PackedCorpus(bitext, table, use_null)
            counts, reports = _packed._chunk_counts(packed, 0, table.theta, hmm._bw_pass, jumps)
            want_counts, want_reports = _packed._chunk_counts(
                packed, 0, table.theta, oracles.bw_pass_out_of_place, jumps
            )
            assert np.array_equal(counts, want_counts)
            assert len(reports) == len(want_reports) == len(packed.chunks[0].groups)
            for report, want in zip(reports, want_reports):
                assert len(report) == len(want)
                for got_field, want_field in zip(report, want):
                    assert np.array_equal(got_field, want_field)

    def test_a_group_pass_holds_each_array_once(self):
        # Traced peak of one chunk's E-step: its cells, plus the largest
        # group's emissions, forward and backward variables and xi, plus
        # 64 KiB. Without NULL the emissions are the chunk's cells, so
        # their term leaves room for the per-pair rows and numpy's buffer
        # for a broadcast product (64 KiB, xi *= q), but not for new copies
        # of the arrival factors and the posteriors.
        rng = np.random.default_rng(88)
        id_pairs = [
            (rng.integers(1, 11, size=m).tolist(), rng.integers(1, 11, size=n).tolist())
            for m, n in rng.integers(20, 41, size=(40, 2))
        ]
        table, _ = random_table(rng, range(1, 11), range(1, 11))
        packed = PackedCorpus(make_bitext(id_pairs), table, use_null=False)
        (chunk,) = packed.chunks

        def group_bytes(g):
            m, b, n = g.slots.shape
            return 8 * (4 * m * b * n + b * n * n)  # emit, alphas, inputs, betas; xi

        bound = 8 * chunk.slots.size + max(map(group_bytes, chunk.groups)) + (64 << 10)
        tracemalloc.start()
        try:
            _packed._chunk_counts(packed, 0, table.theta, hmm._bw_pass, uniform_jumps(5, 0.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("use_null", [False, True])
    @pytest.mark.parametrize("group_cells", [1, 1 << 16])
    def test_underflow_names_the_first_failing_pair_in_corpus_order(
        self, monkeypatch, use_null, group_cells
    ):
        # Source word 3 has no mass under any row. Pair 1 fails at position 1;
        # pair 2 is longer, so it sorts, and with one-pair groups runs, first,
        # and fails at position 0.
        rows = {5: {1: 0.5, 2: 0.5}, 6: {1: 0.5, 2: 0.5}}
        if use_null:
            rows[NULL_ID] = {1: 1.0}
        table = TranslationTable(rows)
        bitext = make_bitext([((1, 3), (5,)), ((3, 1, 1, 1), (5, 6)), ((1, 2), (6, 5))])
        params = HmmParams(table, uniform_jumps(2, 0.2 if use_null else 0.0), use_null)
        config = HmmConfig(iterations=1, use_null=use_null)
        monkeypatch.setattr(_packed, "GROUP_CELLS", group_cells)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as caught:
                baum_welch_step(bitext, params, config)
        assert str(caught.value) == "pair 1: forward scaling underflow at position 1"

    def test_groups_cover_each_pair_once_within_the_cell_bound(self, monkeypatch):
        # Short sources with long targets too: there a group's (B, N, N)
        # blocks, xi and Viterbi's log transitions, outgrow its emissions.
        monkeypatch.setattr(_packed, "GROUP_CELLS", 300)
        rng = np.random.default_rng(85)
        bitext = make_bitext([([1] * m, [1] * n) for m, n in rng.integers(1, 13, size=(60, 2))])
        pairs = bitext.pairs
        table = TranslationTable({NULL_ID: {1: 1.0}, 1: {1: 1.0}})
        for use_null in (False, True):
            packed = PackedCorpus(bitext, table, use_null)
            (chunk,) = packed.chunks
            order = [k for g in chunk.groups for k in g.pairs]
            assert order == sorted(order, key=lambda k: (-pairs[k].m, -pairs[k].n, k))
            assert sorted(order) == list(range(len(packed)))
            for g in chunk.groups:
                m_max, b_count, columns = g.slots.shape
                n_max = columns - use_null
                assert g.ms.tolist() == [pairs[k].m for k in g.pairs]
                assert g.ns.tolist() == [pairs[k].n for k in g.pairs]
                assert (m_max, n_max) == (g.ms.max(), g.ns.max())
                assert b_count == 1 or b_count * max(m_max, n_max) * n_max <= 300
            assert PackedCorpus(make_bitext([]), table, use_null).chunks == []

    def test_results_do_not_depend_on_jobs(self, monkeypatch, pools):
        # Chunks of at most 150 cells, so that two threads share several
        # chunks; at the default cap the corpus is one chunk and starts no pool.
        monkeypatch.setattr(_packed, "CHUNK_CELLS", 150)
        rng = np.random.default_rng(82)
        bt = random_id_bitext(rng, n_pairs=40, vocab=12, max_len=8)
        config = HmmConfig(iterations=3, model1_iterations=2)
        one, trace_one = train(bt, config, jobs=1)
        assert pools == []
        two, trace_two = train(bt, config, jobs=2)
        assert pools == [2] * (config.model1_iterations + config.iterations)
        assert trace_one == trace_two
        np.testing.assert_array_equal(one.table.theta, two.table.theta)
        np.testing.assert_array_equal(one.jumps.probs, two.jumps.probs)


class TestGroupedViterbi:
    """align_corpus decodes on the Baum-Welch groups. Pair by pair, its
    paths must be exactly those of oracles.hmm_viterbi, ties included,
    when the groups mix both m and n."""

    @staticmethod
    def tie_heavy_instance(rng, use_null, p0):
        """test_decoding's tie-heavy lexical table, jump weights from {1, 2},
        and pairs whose ids the table partly lacks, as a bitext, table, flat
        dict and jump table."""
        table, flat = tie_heavy_table(rng, include_null=use_null)
        w = int(rng.integers(1, 3))
        weights = rng.choice([1.0, 2.0], size=2 * w + 1)
        jumps = JumpTable(w=w, probs=weights / weights.sum(), p0=p0)
        shapes = TestGroupedPasses.SHAPES + [tuple(rng.integers(5, 13, size=2)) for _ in range(12)]
        id_pairs = [
            ([int(x) for x in rng.integers(0, 8, size=m)],
             [int(x) for x in rng.integers(0, 6, size=n)])
            for m, n in shapes
        ]
        return make_bitext(id_pairs), table, flat, jumps

    @pytest.mark.parametrize("use_null, p0", [(False, 0.0), (True, 0.3), (True, 0.0)])
    def test_paths_match_the_dense_per_pair_viterbi(self, monkeypatch, use_null, p0):
        monkeypatch.setattr(_packed, "GROUP_CELLS", 300)
        rng = np.random.default_rng(84)
        for _ in range(10):
            bitext, table, flat, jumps = self.tie_heavy_instance(rng, use_null, p0)
            params = HmmParams(table, jumps, use_null)
            groups = PackedCorpus(bitext, table, use_null).chunks[0].groups
            assert any(len(set(g.ms.tolist())) > 1 for g in groups)
            assert any(len(set(g.ns.tolist())) > 1 for g in groups)
            leave_nan_in_freed_memory()
            got = align_corpus(bitext, params)
            assert len(got) == len(bitext.pairs)
            for pair, alignment in zip(bitext.pairs, got):
                src, tgt = pair.source_ids, pair.target_ids
                states, pi, _, _ = oracles._hmm_pieces(
                    tgt, list(jumps.probs), jumps.w, jumps.p0, use_null, flat, DECODE_FLOOR
                )
                want = oracles.hmm_viterbi(
                    oracles.hmm_emissions(src, tgt, flat, use_null, DECODE_FLOOR),
                    _transition_matrix(pair.n, jumps, use_null),
                    [pi(s) for s in states],
                    pair.n,
                )
                assert list(alignment.targets) == want
                assert alignment.n == pair.n


class TestViterbiStep:
    """_viterbi_sweep takes one argmax per step over every predecessor.
    Its final scores and _viterbi's paths must be bitwise those of the
    two-argmax step it replaced (oracles.group_viterbi_two_argmax), on
    groups whose every log score is a small integer or -inf, so that exact
    ties are everywhere, and whose pairs leave the group at ragged
    positions."""

    @staticmethod
    def tie_heavy_group(rng, use_null, p0):
        """A _Group and its (B, N, N) log transitions. np.log returns -k
        exactly for exp(-k) at these k."""
        b_count = int(rng.integers(1, 8))
        ms = np.sort(rng.integers(1, 9, size=b_count))[::-1]
        ns = rng.integers(1, 7, size=b_count)
        m_max, n = int(ms[0]), int(ns.max())
        real = np.arange(n) < ns[:, None]
        columns = np.hstack([real, real]) if use_null else real
        live = (np.arange(m_max)[:, None] < ms)[:, :, None] & columns
        emit = np.exp(-rng.integers(0, 3, size=live.shape).astype(float))
        emit[~live | (rng.random(live.shape) < 0.05)] = 0.0
        pi = np.exp(-rng.integers(0, 3, size=columns.shape).astype(float)) * columns
        log_t = -rng.integers(0, 3, size=(b_count, n, n)).astype(float)
        log_t[~(real[:, :, None] & real[:, None, :]) | (rng.random(log_t.shape) < 0.1)] = -math.inf
        active = [int((ms > j).sum()) for j in range(m_max)]
        layout = _packed.Group(list(range(b_count)), ms, ns, active, None)
        g = hmm._Group(layout, emit, pi, np.zeros((b_count, n)), np.zeros((n, n)), p0, use_null)
        return g, log_t

    @pytest.mark.parametrize(
        "use_null, p0",
        [(False, 0.0), (True, math.exp(-1.0)), (True, 0.0)],
        ids=["no-null", "null", "null-p0-0"],
    )
    def test_matches_the_two_argmax_step(self, use_null, p0):
        rng = np.random.default_rng(85)
        for _ in range(300):
            g, log_t = self.tie_heavy_group(rng, use_null, p0)
            n = log_t.shape[1]
            want_paths, want_delta = oracles.group_viterbi_two_argmax(
                g.emit, g.pi, p0, g.layout.active, g.layout.ms.tolist(), log_t, use_null
            )
            stacked = np.concatenate([log_t, log_t], axis=2) if use_null else log_t
            delta, _ = hmm._viterbi_sweep(g, stacked)
            np.testing.assert_array_equal(delta, want_delta)
            assert hmm._viterbi(g, stacked) == [
                tuple(s if s < n else None for s in path) for path in want_paths
            ]


class TestTrain:
    def test_an_empty_bitext_trains_to_a_zero_trace(self):
        empty = make_bitext([])
        for trainer, config in [
            (model1.train, model1.Model1Config(iterations=5)),
            (model2.train, model2.Model2Config(iterations=5)),
            (train, HmmConfig(iterations=5)),
        ]:
            assert trainer(empty, config)[1] == [0.0] * 5

    def test_zero_iterations_returns_the_initializer(self):
        rng = np.random.default_rng(75)
        bt = random_id_bitext(rng, n_pairs=20, vocab=10, max_len=5)
        config = HmmConfig(iterations=0, model1_iterations=4)
        params, trace = train(bt, config)
        expected_table, _ = model1.train(
            bt, model1.Model1Config(iterations=4, use_null=True)
        )
        assert trace == []
        assert params.table.rows == expected_table.rows
        np.testing.assert_array_equal(
            params.jumps.probs, uniform_jumps(config.w, config.p0).probs
        )

    @pytest.mark.parametrize("use_null, p0", [(False, 0.0), (True, 0.2)])
    def test_train_is_chained_steps(self, monkeypatch, use_null, p0):
        # Bitwise: the same trace, table and jumps, on several chunks.
        monkeypatch.setattr(_packed, "CHUNK_CELLS", 150)
        bt = random_id_bitext(np.random.default_rng(76), n_pairs=40, vocab=12, max_len=8)
        config = HmmConfig(iterations=3, model1_iterations=2, p0=p0, use_null=use_null)
        params, trace = train(bt, config)
        table, _ = model1.train(bt, model1.Model1Config(config.model1_iterations, use_null))
        assert len(PackedCorpus(bt, table, use_null).chunks) > 1
        chained = HmmParams(table, uniform_jumps(config.w, config.p0), use_null)
        steps = []
        for _ in range(config.iterations):
            chained, ll = baum_welch_step(bt, chained, config)
            steps.append(ll)
        assert steps == trace
        for got, want in [
            (chained.table.es, params.table.es),
            (chained.table.theta, params.table.theta),
            (chained.jumps.probs, params.jumps.probs),
        ]:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert chained.jumps.p0 == params.jumps.p0 and chained.use_null == params.use_null

    def test_toy_corpus_learns_the_dominant_pair(self):
        bt = load_bitext(["das haus ||| the house", "das buch ||| the book"])
        config = HmmConfig(iterations=20, model1_iterations=5, use_null=False, p0=0.0)
        params, trace = train(bt, config)
        das = bt.source_vocab.id("das")
        the = bt.target_vocab.id("the")
        assert params.table.prob(the, das) >= 0.9
        assert len(trace) == 20
        for earlier, later in zip(trace, trace[1:]):
            assert later >= earlier - 1e-9

    def test_alignment_of_trained_toy(self):
        bt = load_bitext(["das haus ||| the house", "das buch ||| the book"])
        config = HmmConfig(iterations=10, model1_iterations=5, use_null=False, p0=0.0)
        params, _ = train(bt, config)
        assert [a.targets for a in align_corpus(bt, params)] == [(0, 1), (0, 1)]


class TestModelFile:
    def test_round_trip_preserves_bytes_and_parameters(self):
        rng = np.random.default_rng(76)
        bt = random_id_bitext(rng, n_pairs=20, vocab=10, max_len=5)
        params, _ = train(bt, HmmConfig(iterations=3, w=3, p0=0.25))
        out = io.BytesIO()
        save_model(out, params)
        loaded = model_from(*read_ttable(out.getvalue()))
        assert loaded.use_null is True
        assert loaded.jumps.w == 3
        assert loaded.jumps.p0 == 0.25
        np.testing.assert_array_equal(loaded.jumps.probs, params.jumps.probs)
        assert loaded.table.rows == params.table.rows
        again = io.BytesIO()
        save_model(again, loaded)
        assert again.getvalue() == out.getvalue()

    def test_a_jump_table_that_never_stays_put_is_rejected(self):
        # A one-word sentence can only stay put, so bucket 0 needs mass.
        bt = make_bitext([((1,), (2,))])
        params, _ = train(bt, HmmConfig(iterations=1, w=1))
        params.jumps = JumpTable(w=1, probs=np.array([0.5, 0.0, 0.5]))
        out = io.BytesIO()
        save_model(out, params)
        with pytest.raises(DataFormatError, match="jump bucket 0 has probability 0"):
            model_from(*read_ttable(out.getvalue()))

    def test_null_usage_follows_the_table(self):
        bt = make_bitext([((1, 2), (3, 4))])
        config = HmmConfig(iterations=1, use_null=False, p0=0.0)
        params, _ = train(bt, config)
        out = io.BytesIO()
        save_model(out, params)
        assert model_from(*read_ttable(out.getvalue())).use_null is False

    def test_malformed_files_are_rejected(self):
        bt = make_bitext([((1,), (2,))])
        params, _ = train(bt, HmmConfig(iterations=1, w=1))
        out = io.BytesIO()
        save_model(out, params)
        good = out.getvalue()

        table_only = model1.init_uniform(bt, use_null=False)
        plain = io.BytesIO()
        model1.save_model(plain, table_only)
        with pytest.raises(DataFormatError):
            model_from(*read_ttable(plain.getvalue()))

        missing_bucket = b"".join(
            line for line in good.splitlines(keepends=True)
            if not line.startswith(b"jump\t0\t")
        )
        with pytest.raises(DataFormatError):
            model_from(*read_ttable(missing_bucket))

        out_of_window = good.replace(b"jump\t1\t", b"jump\t9\t")
        with pytest.raises(DataFormatError):
            model_from(*read_ttable(out_of_window))

        bad_float = good.replace(b"jump\t0\t", b"jump\tzero\t", 1)
        with pytest.raises(DataFormatError):
            model_from(*read_ttable(bad_float))

        repeated = good.replace(b"jump\t1\t", b"jump\t0\t")
        with pytest.raises(DataFormatError, match="repeated"):
            model_from(*read_ttable(repeated))

        # Parameters the trailer carries are outside input, like the table:
        # out of range they are a data error, not a configuration error.
        head = good[good.index(b"hmm\t"):]
        for bad_head in [
            head.replace(b"hmm\t1\t0.2", b"hmm\t1\t1.5"),
            head.replace(b"jump\t1\t0.3333333333333333", b"jump\t1\t0.5"),
            head.replace(b"jump\t1\t0.3333333333333333", b"jump\t1\tnan"),
            b"hmm\t0\t0.2\njump\t0\t1.0\n",
            b"hmm\t-1\t0.2\n",
        ]:
            assert bad_head != head
            with pytest.raises(DataFormatError, match="'hmm' trailer"):
                model_from(*read_ttable(good.replace(head, bad_head)))
