import io
import logging
import math

import numpy as np
import pytest

import oracles
from alignkit import hmm, model1
from alignkit._packed import PackedCorpus
from alignkit.corpus import SentencePair, load_bitext
from alignkit.errors import ConfigError, DataFormatError, NumericError
from alignkit.hmm import (
    HmmConfig,
    HmmParams,
    JumpTable,
    _bw_chunk,
    _initial_probs,
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
from alignkit.ttable import NULL_ID, TranslationTable, read_ttable
from conftest import make_bitext, random_id_bitext, random_table


def random_jumps(rng, w=2, p0=0.0):
    probs = rng.dirichlet(np.ones(2 * w + 1))
    return JumpTable(w=w, probs=probs, p0=p0)


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
        pi = _initial_probs(4, 0.2, True)
        np.testing.assert_allclose(pi[:4], 0.8 / 4, atol=1e-15)
        np.testing.assert_allclose(pi[4:], 0.2 / 4, atol=1e-15)
        np.testing.assert_allclose(_initial_probs(3, 0.2, False), 1 / 3, atol=1e-15)


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
    """State posteriors, read from _bw_chunk's lexical counts: with distinct
    source ids, each (e, f) count is one source position's posterior."""

    @staticmethod
    def lexical_counts(pair, params):
        bitext = make_bitext([(pair.source_ids, pair.target_ids)])
        packed = PackedCorpus(bitext, params.table, params.use_null)
        return _bw_chunk(packed, 0, 1, params.table.theta, params.jumps)[0]

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


    def test_jump_fallback_keeps_the_table_and_warns(self, monkeypatch, caplog):
        jumps = uniform_jumps(w=2, p0=0.0)
        stats = {3: np.arange(9.0).reshape(3, 3)}
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
    """_bw_chunk's expected counts against enumeration over state paths."""

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
            packed = PackedCorpus(bitext, table, use_null)
            counts, jump_stats, ll = _bw_chunk(packed, 0, len(packed), table.theta, jumps)

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
            assert set(jump_stats) <= set(ref_jumps)
            for n, ref in ref_jumps.items():
                got = jump_stats.get(n, np.zeros((n, n)))
                np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)


class TestTrain:
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
        out = io.StringIO()
        save_model(out, params)
        loaded = model_from(*read_ttable(io.StringIO(out.getvalue())))
        assert loaded.use_null is True
        assert loaded.jumps.w == 3
        assert loaded.jumps.p0 == 0.25
        np.testing.assert_array_equal(loaded.jumps.probs, params.jumps.probs)
        assert loaded.table.rows == params.table.rows
        again = io.StringIO()
        save_model(again, loaded)
        assert again.getvalue() == out.getvalue()

    def test_a_jump_table_that_never_stays_put_is_rejected(self):
        # A one-word sentence can only stay put, so bucket 0 needs mass.
        bt = make_bitext([((1,), (2,))])
        params, _ = train(bt, HmmConfig(iterations=1, w=1))
        params.jumps = JumpTable(w=1, probs=np.array([0.5, 0.0, 0.5]))
        out = io.StringIO()
        save_model(out, params)
        with pytest.raises(DataFormatError, match="jump bucket 0 has probability 0"):
            model_from(*read_ttable(io.StringIO(out.getvalue())))

    def test_null_usage_follows_the_table(self):
        bt = make_bitext([((1, 2), (3, 4))])
        config = HmmConfig(iterations=1, use_null=False, p0=0.0)
        params, _ = train(bt, config)
        out = io.StringIO()
        save_model(out, params)
        assert model_from(*read_ttable(io.StringIO(out.getvalue()))).use_null is False

    def test_malformed_files_are_rejected(self):
        bt = make_bitext([((1,), (2,))])
        params, _ = train(bt, HmmConfig(iterations=1, w=1))
        out = io.StringIO()
        save_model(out, params)
        good = out.getvalue()

        table_only = model1.init_uniform(bt, use_null=False)
        plain = io.StringIO()
        model1.save_model(plain, table_only)
        with pytest.raises(DataFormatError):
            model_from(*read_ttable(io.StringIO(plain.getvalue())))

        missing_bucket = "".join(
            line for line in good.splitlines(keepends=True)
            if not line.startswith("jump\t0\t")
        )
        with pytest.raises(DataFormatError):
            model_from(*read_ttable(io.StringIO(missing_bucket)))

        out_of_window = good.replace("jump\t1\t", "jump\t9\t")
        with pytest.raises(DataFormatError):
            model_from(*read_ttable(io.StringIO(out_of_window)))

        bad_float = good.replace("jump\t0\t", "jump\tzero\t", 1)
        with pytest.raises(DataFormatError):
            model_from(*read_ttable(io.StringIO(bad_float)))

        repeated = good.replace("jump\t1\t", "jump\t0\t")
        with pytest.raises(DataFormatError, match="repeated"):
            model_from(*read_ttable(io.StringIO(repeated)))

        # Parameters the trailer carries are outside input, like the table:
        # out of range they are a data error, not a configuration error.
        head = good[good.index("hmm\t"):]
        for bad_head in [
            head.replace("hmm\t1\t0.2", "hmm\t1\t1.5"),
            head.replace("jump\t1\t0.3333333333333333", "jump\t1\t0.5"),
            head.replace("jump\t1\t0.3333333333333333", "jump\t1\tnan"),
            "hmm\t0\t0.2\njump\t0\t1.0\n",
            "hmm\t-1\t0.2\n",
        ]:
            assert bad_head != head
            with pytest.raises(DataFormatError, match="'hmm' trailer"):
                model_from(*read_ttable(io.StringIO(good.replace(head, bad_head))))
