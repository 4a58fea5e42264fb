import io
import logging
import multiprocessing

import numpy as np
import pytest

import oracles
from alignkit._packed import CHUNK_PAIRS, run_em
from alignkit.alignment import to_set
from alignkit.corpus import Bitext, SentencePair, load_bitext
from alignkit.errors import ConfigError, NumericError
from alignkit.model1 import (
    Model1Config,
    align_corpus,
    em_step,
    init_uniform,
    posterior_align,
    save_model,
    train,
)
from alignkit.ttable import NULL_ID, TranslationTable, read_ttable
from conftest import make_bitext, random_id_bitext, random_table

NO_NULL = Model1Config(iterations=1, use_null=False)


def toy():
    return load_bitext(["das haus ||| the house", "das buch ||| the book"])


def toy_ids(bt):
    sv, tv = bt.source_vocab, bt.target_vocab
    return {tok: sv.id(tok) for tok in ("das", "haus", "buch")} | {
        tok: tv.id(tok) for tok in ("the", "house", "book")
    }


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Model1Config(iterations=0)


class TestInitUniform:
    def test_uniform_over_cooccurring_sources(self):
        bt = toy()
        ids = toy_ids(bt)
        table = init_uniform(bt, use_null=False)
        for f in ("das", "haus", "buch"):
            assert table.prob(ids["the"], ids[f]) == pytest.approx(1 / 3, abs=1e-15)
        for f in ("das", "haus"):
            assert table.prob(ids["house"], ids[f]) == pytest.approx(1 / 2, abs=1e-15)
        assert table.prob(ids["house"], ids["buch"]) == 0.0

    def test_single_pair(self):
        bt = make_bitext([((5,), (9,))])
        table = init_uniform(bt, use_null=False)
        assert table.prob(9, 5) == 1.0

    def test_null_row_covers_every_source_token(self):
        bt = toy()
        table = init_uniform(bt, use_null=True)
        row = table.rows[NULL_ID]
        assert len(row) == 3
        assert all(p == pytest.approx(1 / 3, abs=1e-15) for p in row.values())


class TestEmStep:
    def test_hand_computed_first_iteration(self, toy_bitext):
        ids = toy_ids(toy_bitext)
        table, _ = em_step(toy_bitext, init_uniform(toy_bitext, False), NO_NULL)
        assert table.prob(ids["the"], ids["das"]) == pytest.approx(0.5, abs=1e-12)
        assert table.prob(ids["the"], ids["haus"]) == pytest.approx(0.25, abs=1e-12)
        assert table.prob(ids["the"], ids["buch"]) == pytest.approx(0.25, abs=1e-12)
        assert table.prob(ids["house"], ids["das"]) == pytest.approx(0.5, abs=1e-12)
        assert table.prob(ids["house"], ids["haus"]) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_corpus_is_a_fixed_point(self):
        bt = make_bitext([((5,), (9,))])
        table, ll = em_step(bt, init_uniform(bt, False), NO_NULL)
        assert table.prob(9, 5) == 1.0
        assert ll == pytest.approx(0.0, abs=1e-15)

    def test_reported_likelihood_is_for_the_input_table(self):
        bt = toy()
        t0 = init_uniform(bt, False)
        flat = {(e, f): p for e, row in t0.rows.items() for f, p in row.items()}
        _, ll = em_step(bt, t0, NO_NULL)
        expected = sum(
            oracles.model1_sentence_ll(p.source_ids, p.target_ids, flat, False)
            for p in bt.pairs
        )
        assert ll == pytest.approx(expected, rel=1e-12)

    def test_zero_probability_source_token_raises(self):
        bt = make_bitext([((1, 2), (3,))])
        table = TranslationTable({3: {1: 1.0, 2: 0.0}})
        with pytest.raises(NumericError, match="pair 1"):
            em_step(bt, table, NO_NULL)

    def test_monotone_on_random_corpora(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            bt = random_id_bitext(rng, n_pairs=30, vocab=12, max_len=5)
            config = Model1Config(iterations=1, use_null=True)
            table = init_uniform(bt, True)
            previous = None
            for _ in range(6):
                table, ll = em_step(bt, table, config)
                if previous is not None:
                    assert ll >= previous - 1e-9
                previous = ll

    def test_rows_normalize_after_m_step(self):
        rng = np.random.default_rng(3)
        bt = random_id_bitext(rng, n_pairs=20, vocab=10, max_len=6)
        table, _ = em_step(bt, init_uniform(bt, True), Model1Config(iterations=1))
        assert abs(table.worst_row()[1] - 1.0) < 1e-9


class TestLikelihoodAgainstEnumeration:
    def test_sentence_log_prob_matches_alignment_enumeration(self):
        # em_step reports the log-likelihood of its input table, which for
        # a one-pair corpus is that pair's log-probability (at eps = 1).
        rng = np.random.default_rng(11)
        for use_null in (False, True):
            config = Model1Config(iterations=1, use_null=use_null)
            for _ in range(25):
                m = int(rng.integers(1, 5))
                n = int(rng.integers(1, 5))
                pair = SentencePair(
                    source_ids=tuple(int(x) for x in rng.integers(1, 6, m)),
                    target_ids=tuple(int(x) for x in rng.integers(1, 6, n)),
                )
                table, flat = random_table(
                    rng, sorted(set(pair.target_ids)), sorted(set(pair.source_ids)),
                    include_null=use_null,
                )
                _, got = em_step(Bitext([pair]), table, config)
                want = oracles.model1_enumerated_ll(
                    pair.source_ids, pair.target_ids, flat, use_null, epsilon=1.0
                )
                assert got == pytest.approx(want, rel=1e-10)

    def test_posterior_factorizes_per_position(self):
        # The per-position argmax decoder is only sound because whole-
        # alignment posteriors factorize; check against enumeration.
        rng = np.random.default_rng(23)
        pair = SentencePair(source_ids=(1, 2, 1), target_ids=(3, 4))
        table, flat = random_table(rng, [3, 4], [1, 2], include_null=True)
        targets, post = oracles.model1_posteriors(
            pair.source_ids, pair.target_ids, flat, use_null=True
        )
        # independent per-position posterior: gamma_j(i) proportional to t
        for j, f in enumerate(pair.source_ids):
            weights = [oracles.tprob(flat, e, f, 1e-12) for e in targets]
            z = sum(weights)
            for idx, w in enumerate(weights):
                assert post[j][idx] == pytest.approx(w / z, rel=1e-9)


class TestTrain:
    def test_toy_convergence(self, toy_bitext):
        ids = toy_ids(toy_bitext)
        table, trace = train(toy_bitext, Model1Config(iterations=20, use_null=False))
        assert table.prob(ids["the"], ids["das"]) >= 0.9
        assert len(trace) == 20
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_corpus_order_does_not_matter(self):
        rng = np.random.default_rng(5)
        bt = random_id_bitext(rng, n_pairs=40, vocab=15, max_len=6)
        shuffled = make_bitext(
            [(p.source_ids, p.target_ids) for p in reversed(bt.pairs)]
        )
        config = Model1Config(iterations=4)
        t1, _ = train(bt, config)
        t2, _ = train(shuffled, config)
        for e, row in t1.rows.items():
            for f, p in row.items():
                assert t2.prob(e, f) == pytest.approx(p, abs=1e-12)


class TestRunEm:
    def test_a_falling_likelihood_is_reported(self, caplog):
        trace = [-5.0, -4.0, -4.0 - 1e-10, -4.5, -3.0]
        step = lambda k: (k + 1, trace[k])
        with caplog.at_level(logging.WARNING):
            state, got = run_em(step, 0, len(trace))
        assert (state, got) == (len(trace), trace)
        assert [r.getMessage() for r in caplog.records] == [
            "iteration 4: log-likelihood -4.500000 is below iteration 3's -4.000000"
        ]


class TestPosteriorAlign:
    def test_trained_toy_alignment(self, toy_bitext):
        table, _ = train(toy_bitext, Model1Config(iterations=20, use_null=False))
        links = [
            to_set(a).sorted_links()
            for a in align_corpus(toy_bitext, table)
        ]
        assert links == [[(0, 0), (1, 1)], [(0, 0), (1, 1)]]

    def test_all_equal_table_ties_to_first_position(self):
        pair = SentencePair(source_ids=(1, 1), target_ids=(2, 3))
        table = TranslationTable({2: {1: 0.5}, 3: {1: 0.5}})
        assert posterior_align(pair, table, use_null=False).targets == (0, 0)

    def test_dominant_null_wins(self):
        pair = SentencePair(source_ids=(1,), target_ids=(2,))
        table = TranslationTable({NULL_ID: {1: 0.9}, 2: {1: 0.1}})
        assert posterior_align(pair, table).targets == (None,)

    def test_null_loses_exact_ties(self):
        pair = SentencePair(source_ids=(1,), target_ids=(2,))
        table = TranslationTable({NULL_ID: {1: 0.5}, 2: {1: 0.5}})
        assert posterior_align(pair, table).targets == (0,)


class TestModelFile:
    def test_save_load_round_trip(self, toy_bitext):
        table, _ = train(toy_bitext, Model1Config(iterations=3))
        buf = io.StringIO()
        save_model(buf, table)
        loaded, trailer = read_ttable(buf.getvalue().splitlines())
        assert trailer == []
        buf2 = io.StringIO()
        save_model(buf2, loaded)
        assert buf2.getvalue() == buf.getvalue()


class TestWorkers:
    def test_chunks_run_in_process_where_fork_is_unavailable(self, monkeypatch):
        rng = np.random.default_rng(11)
        bt = random_id_bitext(rng, n_pairs=CHUNK_PAIRS + 100, vocab=30, max_len=5)
        config = Model1Config(iterations=2)
        table1, trace1 = train(bt, config, jobs=1)

        # As on Windows: fork is neither listed nor obtainable.
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.delitem(multiprocessing.context._concrete_contexts, "fork")
        table2, trace2 = train(bt, config, jobs=2)
        assert table2.rows == table1.rows
        assert trace2 == trace1
