import io
import math

import numpy as np
import pytest

import oracles
from alignkit import model1
from alignkit.corpus import SentencePair, load_bitext
from alignkit.errors import ConfigError, DataFormatError
from alignkit.model2 import (
    DiagonalPrior,
    Model2Config,
    Model2Params,
    align,
    align_corpus,
    em_step,
    model_from,
    save_model,
    train,
)
from alignkit.ttable import NULL_ID, TranslationTable, read_ttable
from conftest import make_bitext, random_id_bitext, random_table

FLAT = DiagonalPrior(lam=0.0, p0=0.0)


def flat_config(iterations=1, **kw):
    return Model2Config(iterations=iterations, lam=0.0, p0=0.0, **kw)


def assert_tables_close(actual, expected, tol=1e-12):
    assert set(actual.rows) == set(expected.rows)
    for e, row in expected.rows.items():
        assert set(actual.rows[e]) == set(row)
        for f, p in row.items():
            assert actual.rows[e][f] == pytest.approx(p, abs=tol)


class TestDiagonalPrior:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DiagonalPrior(lam=-0.5)
        with pytest.raises(ConfigError):
            DiagonalPrior(p0=1.0)
        with pytest.raises(ConfigError):
            DiagonalPrior(p0=-0.1)
        for lam in (700.5, 1e25, math.inf, math.nan):
            with pytest.raises(ConfigError, match="tension"):
                DiagonalPrior(lam=lam)
        assert DiagonalPrior(lam=0.0, p0=0.0).use_null is False
        assert DiagonalPrior(p0=0.08).use_null is True

    def test_largest_tension_keeps_the_prior_finite(self):
        # At tension 700 every weight exp(-lam * |h|), |h| < 1, is a normal
        # float, so no column sums to 0 or loses mass to subnormals.
        prior = DiagonalPrior(lam=700.0, p0=0.08)
        for m, n in [(1, 1), (2, 3), (7, 2), (119, 120), (120, 119), (120, 120)]:
            matrix = prior.matrix(m, n, True)
            assert np.isfinite(matrix).all() and (matrix > 0.0).all()
            np.testing.assert_allclose(matrix.sum(axis=0), 1.0, rtol=0, atol=1e-15)

    def test_zero_tension_is_uniform(self):
        for n in (1, 2, 5):
            np.testing.assert_allclose(FLAT.matrix(3, n, False), 1.0 / n, rtol=0, atol=1e-15)

    def test_mass_peaks_on_the_diagonal(self):
        prior = DiagonalPrior(lam=4.0, p0=0.0)
        # j/m = 2/4 lines up exactly with i/n = 4/8.
        probs = prior.matrix(4, 8, False)[:, 1]
        assert max(probs) == probs[3]

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            prior = DiagonalPrior(
                lam=float(rng.uniform(0.0, 8.0)), p0=float(rng.uniform(0.0, 0.5))
            )
            totals = prior.matrix(m, n, True).sum(axis=0)
            np.testing.assert_allclose(totals, 1.0, rtol=0, atol=1e-12)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            lam = float(rng.uniform(0.0, 8.0))
            p0 = float(rng.uniform(0.0, 0.5))
            matrix = DiagonalPrior(lam=lam, p0=p0).matrix(m, n, True)
            for j in range(1, m + 1):
                for i in range(0, n + 1):
                    assert matrix[i - 1 if i else n, j - 1] == pytest.approx(
                        oracles.diag_prior(j, i, m, n, lam, p0), abs=1e-15
                    )

    def test_monotone_in_distance_from_diagonal(self):
        prior = DiagonalPrior(lam=3.0, p0=0.1)
        m, n = 5, 9
        matrix = prior.matrix(m, n, False)
        for j in range(1, m + 1):
            by_distance = sorted(range(1, n + 1), key=lambda i: abs(j / m - i / n))
            probs = [matrix[i - 1, j - 1] for i in by_distance]
            for earlier, later in zip(probs, probs[1:]):
                assert earlier >= later - 1e-15

    def test_matrix_puts_null_last(self):
        prior = DiagonalPrior(lam=2.5, p0=0.2)
        m, n = 4, 6
        with_null = prior.matrix(m, n, True)
        assert with_null.shape == (n + 1, m)
        assert (with_null[n] == prior.p0).all()
        without = prior.matrix(m, n, False)
        assert without.shape == (n, m)
        np.testing.assert_allclose(without, with_null[:n], rtol=0, atol=0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Model2Config(iterations=0)
        with pytest.raises(ConfigError):
            Model2Config(lam=-1.0)
        with pytest.raises(ConfigError):
            Model2Config(p0=1.0)


class TestEmStep:
    def test_flat_prior_reduces_to_simpler_model(self):
        rng = np.random.default_rng(21)
        m1_config = model1.Model1Config(iterations=1, use_null=False)
        for _ in range(5):
            bt = random_id_bitext(rng, n_pairs=30, vocab=12, max_len=6)
            start = model1.init_uniform(bt, use_null=False)
            expected_table, expected_ll = model1.em_step(bt, start, m1_config)
            params, ll = em_step(
                bt, Model2Params(table=start, prior=FLAT), flat_config()
            )
            assert ll == pytest.approx(expected_ll, abs=1e-12)
            assert_tables_close(params.table, expected_table)

    def test_single_word_pair_posterior_is_certain(self):
        bt = make_bitext([((1,), (2,))])
        start = model1.init_uniform(bt, use_null=False)
        params, ll = em_step(bt, Model2Params(table=start, prior=FLAT), flat_config())
        assert params.table.prob(2, 1) == 1.0
        assert ll == pytest.approx(0.0, abs=1e-15)  # log(1 * 1)

    def test_likelihood_matches_independent_summation(self):
        rng = np.random.default_rng(22)
        for p0 in (0.0, 0.2):
            prior = DiagonalPrior(lam=3.0, p0=p0)
            config = Model2Config(iterations=1, lam=3.0, p0=p0)
            for _ in range(5):
                bt = random_id_bitext(rng, n_pairs=12, vocab=10, max_len=5)
                table, flat = random_table(
                    rng,
                    sorted({e for p in bt.pairs for e in p.target_ids}),
                    sorted({f for p in bt.pairs for f in p.source_ids}),
                    include_null=prior.use_null,
                )
                _, ll = em_step(bt, Model2Params(table=table, prior=prior), config)
                expected = sum(
                    oracles.model2_sentence_ll(
                        p.source_ids, p.target_ids, flat, 3.0, p0
                    )
                    for p in bt.pairs
                )
                assert ll == pytest.approx(expected, rel=1e-10)

    def test_likelihood_matches_enumeration_over_alignments(self):
        rng = np.random.default_rng(23)
        for p0 in (0.0, 0.25):
            prior = DiagonalPrior(lam=2.0, p0=p0)
            config = Model2Config(iterations=1, lam=2.0, p0=p0)
            for _ in range(8):
                m = int(rng.integers(1, 5))
                n = int(rng.integers(1, 5))
                source = tuple(int(x) for x in rng.integers(1, 7, size=m))
                target = tuple(int(x) for x in rng.integers(1, 7, size=n))
                bt = make_bitext([(source, target)])
                table, flat = random_table(
                    rng, sorted(set(target)), sorted(set(source)),
                    include_null=prior.use_null,
                )
                _, ll = em_step(bt, Model2Params(table=table, prior=prior), config)
                expected = oracles.model2_enumerated_ll(source, target, flat, 2.0, p0)
                assert ll == pytest.approx(expected, rel=1e-10)

    def test_rows_normalized_after_update(self):
        rng = np.random.default_rng(24)
        bt = random_id_bitext(rng, n_pairs=40, vocab=15, max_len=7)
        config = Model2Config(iterations=1)
        params = Model2Params(
            table=model1.init_uniform(bt, use_null=True), prior=config.prior()
        )
        for _ in range(3):
            params, _ = em_step(bt, params, config)
            for e, row in params.table.rows.items():
                assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)

    def test_likelihood_never_decreases(self):
        rng = np.random.default_rng(25)
        config = Model2Config(iterations=1, lam=4.0, p0=0.08)
        for _ in range(5):
            bt = random_id_bitext(rng, n_pairs=50, vocab=20, max_len=8)
            params = Model2Params(
                table=model1.init_uniform(bt, use_null=True), prior=config.prior()
            )
            previous = -math.inf
            for _ in range(6):
                params, ll = em_step(bt, params, config)
                assert ll >= previous - 1e-9
                previous = ll


class TestTrain:
    def test_flat_prior_matches_simpler_model_training(self):
        rng = np.random.default_rng(31)
        bt = random_id_bitext(rng, n_pairs=40, vocab=15, max_len=6)
        expected_table, expected_trace = model1.train(
            bt, model1.Model1Config(iterations=6, use_null=False)
        )
        params, trace = train(bt, flat_config(iterations=6))
        assert len(trace) == len(expected_trace) == 6
        for got, want in zip(trace, expected_trace):
            assert got == pytest.approx(want, abs=1e-12)
        assert_tables_close(params.table, expected_table)

    def test_diagonal_prior_speeds_up_toy_convergence(self):
        bt = load_bitext(["das haus ||| the house", "das buch ||| the book"])
        das = bt.source_vocab.id("das")
        the = bt.target_vocab.id("the")

        def iterations_to_dominance(lam):
            params = Model2Params(
                table=model1.init_uniform(bt, use_null=False),
                prior=DiagonalPrior(lam=lam, p0=0.0),
            )
            config = Model2Config(iterations=1, lam=lam, p0=0.0)
            for it in range(1, 26):
                params, _ = em_step(bt, params, config)
                if params.table.prob(the, das) >= 0.9:
                    return it
            return math.inf

        sharp = iterations_to_dominance(4.0)
        flat = iterations_to_dominance(0.0)
        assert sharp <= 20
        assert sharp <= flat

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(32)
        bt = random_id_bitext(rng, n_pairs=30, vocab=12, max_len=6)
        config = Model2Config(iterations=4)
        first, trace_a = train(bt, config)
        second, trace_b = train(bt, config)
        assert trace_a == trace_b
        assert first.table.rows == second.table.rows


class TestAlign:
    def test_flat_prior_matches_lexical_argmax(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            source = tuple(int(x) for x in rng.integers(1, 9, size=m))
            target = tuple(int(x) for x in rng.integers(1, 9, size=n))
            pair = SentencePair(source_ids=source, target_ids=target)
            table, _ = random_table(
                rng, sorted(set(target)), sorted(set(source)), include_null=False
            )
            got = align(pair, Model2Params(table=table, prior=FLAT))
            want = model1.posterior_align(pair, table, use_null=False)
            assert got == want

    def test_uniform_table_hands_the_decision_to_the_prior(self):
        n = 5
        source = tuple(range(1, n + 1))
        target = tuple(range(11, 11 + n))
        table = TranslationTable(
            {e: {f: 1.0 / n for f in source} for e in target}
        )
        pair = SentencePair(source_ids=source, target_ids=target)
        params = Model2Params(table=table, prior=DiagonalPrior(lam=4.0, p0=0.0))
        assert align(pair, params).targets == tuple(range(n))

    def test_overwhelming_null_mass_aligns_everything_to_null(self):
        source = (1, 2)
        target = (11, 12)
        rows = {e: {f: 0.5 for f in source} for e in target}
        rows[NULL_ID] = {f: 0.5 for f in source}
        params = Model2Params(
            table=TranslationTable(rows), prior=DiagonalPrior(lam=1.0, p0=0.99)
        )
        pair = SentencePair(source_ids=source, target_ids=target)
        assert align(pair, params).targets == (None, None)

    def test_ties_resolve_to_the_smaller_position(self):
        source = (1, 1)
        target = (11, 12)
        table = TranslationTable({e: {1: 0.5} for e in target})
        pair = SentencePair(source_ids=source, target_ids=target)
        got = align(pair, Model2Params(table=table, prior=FLAT))
        assert got.targets == (0, 0)

    def test_align_corpus_maps_each_pair(self):
        rng = np.random.default_rng(42)
        bt = random_id_bitext(rng, n_pairs=8, vocab=10, max_len=5)
        params, _ = train(bt, Model2Config(iterations=2))
        assert align_corpus(bt, params) == [
            align(pair, params) for pair in bt.pairs
        ]


class TestModelFile:
    def test_round_trip_preserves_bytes_and_prior(self):
        rng = np.random.default_rng(51)
        bt = random_id_bitext(rng, n_pairs=20, vocab=10, max_len=5)
        params, _ = train(bt, Model2Config(iterations=3, lam=3.7, p0=0.11))
        out = io.BytesIO()
        save_model(out, params)
        loaded = model_from(*read_ttable(out.getvalue()))
        assert loaded.prior.lam == 3.7
        assert loaded.prior.p0 == 0.11
        assert loaded.table.rows == params.table.rows
        again = io.BytesIO()
        save_model(again, loaded)
        assert again.getvalue() == out.getvalue()

    def test_plain_lexical_file_is_rejected(self):
        bt = make_bitext([((1,), (2,))])
        table = model1.init_uniform(bt, use_null=False)
        out = io.BytesIO()
        model1.save_model(out, table)
        with pytest.raises(DataFormatError):
            model_from(*read_ttable(out.getvalue()))

    def test_malformed_trailer_is_rejected(self):
        bt = make_bitext([((1,), (2,))])
        params, _ = train(bt, Model2Config(iterations=1))
        out = io.BytesIO()
        save_model(out, params)
        good = out.getvalue()
        bad_arity = good.replace(b"diag\t", b"diag\t1.0\t")
        with pytest.raises(DataFormatError):
            model_from(*read_ttable(bad_arity))
        bad_float = good.rsplit(b"\t", 1)[0] + b"\tnot-a-number\n"
        with pytest.raises(DataFormatError):
            model_from(*read_ttable(bad_float))
        for bad_prior in [
            "diag\t4.0\t1.5", "diag\t-1.0\t0.08", "diag\tnan\t0.08", "diag\t1e25\t0.08"
        ]:
            bad = good.replace(b"diag\t4.0\t0.08", bad_prior.encode())
            with pytest.raises(DataFormatError, match="'diag' trailer"):
                model_from(*read_ttable(bad))
