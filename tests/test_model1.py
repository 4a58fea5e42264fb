import io
import logging

import numpy as np
import pytest

import oracles
from alignkit import _packed, model2, ttable
from alignkit._packed import run_em
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
from alignkit.model2 import DiagonalPrior
from alignkit.ttable import NULL_ID, TranslationTable, read_ttable
from conftest import leave_nan_in_freed_memory, make_bitext, random_id_bitext, random_table

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


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestUniformStart:
    """uniform_packed packs its corpus from the sort that builds the
    start table. The table must equal one built row by row, and the layout
    one whose every cell PackedCorpus looks up in that table, bitwise."""

    CORPORA = {
        "random": [
            (p.source_ids, p.target_ids)
            for p in random_id_bitext(np.random.default_rng(5), 60, vocab=15, max_len=6).pairs
        ],
        "repeated pairs": [((1, 2, 3), (4, 5))] * 6 + [((3,), (4,))] * 3 + [((2, 1), (5, 4))],
        "one-word sides": [((7,), (1, 2, 3)), ((1, 2), (2**62,)), ((7,), (2**62,)), ((7,), (1,))],
        "empty": [],
    }

    @pytest.mark.parametrize("use_null", [False, True])
    @pytest.mark.parametrize("chunk_cells", [1 << 20, 40])
    @pytest.mark.parametrize("name", CORPORA)
    def test_table_and_layout_equal_lookups(self, monkeypatch, name, chunk_cells, use_null):
        monkeypatch.setattr(_packed, "CHUNK_CELLS", chunk_cells)
        bitext = make_bitext(self.CORPORA[name])
        cooccurring: dict = {}
        for pair in bitext.pairs:
            for e in pair.target_ids + ((NULL_ID,) if use_null else ()):
                cooccurring.setdefault(e, set()).update(pair.source_ids)
        expected = TranslationTable(
            {e: {f: 1.0 / len(fs) for f in fs} for e, fs in cooccurring.items()}
        )
        start, packed = _packed.uniform_packed(bitext, use_null)
        looked_up = _packed.PackedCorpus(bitext, expected, use_null)
        for table in (start, init_uniform(bitext, use_null)):
            for attr in ("es", "fs", "theta"):
                assert_same_array(getattr(table, attr), getattr(expected, attr))
        if chunk_cells == 40 and name in ("random", "repeated pairs"):
            assert len(packed.chunks) > 1  # the corpus splits
        assert len(packed.chunks) == len(looked_up.chunks)
        for chunk, want in zip(packed.chunks, looked_up.chunks):
            assert_same_array(chunk.slots, want.slots)
            assert len(chunk.groups) == len(want.groups)
            for g, h in zip(chunk.groups, want.groups):
                assert (g.pairs, g.active) == (h.pairs, h.active)
                for got, ref in zip((g.ms, g.ns, g.slots), (h.ms, h.ns, h.slots)):
                    assert_same_array(got, ref)


    @pytest.mark.parametrize("dense_span", [0, ttable.DENSE_SPAN])
    @pytest.mark.parametrize("use_null", [False, True])
    def test_ranks_match_binary_search(self, monkeypatch, dense_span, use_null):
        # uniform_start ranks the cells' ids by ttable._rank: through lookup
        # arrays for ids close together, by binary search for ids near
        # +-2**62, and always by binary search at DENSE_SPAN 0. Its table
        # and slots must be those of ranks found by binary search.
        monkeypatch.setattr(ttable, "DENSE_SPAN", dense_span)
        rng = np.random.default_rng(8)
        for far in (0, 2**62):
            bitext = make_bitext(
                (spread(p.source_ids, far), spread(p.target_ids, far))
                for p in random_id_bitext(rng, 40, vocab=12, max_len=6).pairs
            )
            table, slots = _packed.uniform_start(bitext, use_null)
            want_table, want_slots = uniform_start_by_search(bitext, use_null)
            for attr in ("es", "fs", "theta"):
                assert_same_array(getattr(table, attr), getattr(want_table, attr))
            assert_same_array(slots, want_slots)


def spread(ids, far: int) -> tuple[int, ...]:
    """ids with the even ones moved up by far and the odd ones down."""
    return tuple(i + far * (-1) ** i for i in ids)


def uniform_start_by_search(bitext, use_null):
    """uniform_start with each cell's ids ranked by np.searchsorted."""
    es, fs = _packed.corpus_cells(bitext.pairs, use_null)
    e_ids, f_ids = np.unique(es), np.unique(fs)
    keys = np.searchsorted(e_ids, es) * len(f_ids) + np.searchsorted(f_ids, fs)
    entries, slots = np.unique(keys, return_inverse=True)
    row, col = np.divmod(entries, len(f_ids))
    sizes = np.bincount(row)
    table = TranslationTable.from_arrays(e_ids[row], f_ids[col], np.repeat(1.0 / sizes, sizes))
    return table, slots


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


class TestTrainIsChainedSteps:
    """train with k iterations is k chained em_step calls, bitwise: the
    same trace and the same table, on a corpus of several chunks."""

    @pytest.mark.parametrize("p0", [0.0, 0.08])
    def test_model1_and_model2(self, monkeypatch, p0):
        monkeypatch.setattr(_packed, "CHUNK_CELLS", 150)
        bt = random_id_bitext(np.random.default_rng(61), n_pairs=40, vocab=12, max_len=8)
        use_null = p0 > 0.0
        k = 4
        assert len(_packed.PackedCorpus(bt, init_uniform(bt, use_null), use_null).chunks) > 1
        table, trace = train(bt, Model1Config(k, use_null))
        config = model2.Model2Config(k, lam=3.0, p0=p0)
        params, trace2 = model2.train(bt, config)

        chained, steps = init_uniform(bt, use_null), []
        chained2 = model2.Model2Params(chained, config.prior())
        steps2 = []
        for _ in range(k):
            chained, ll = em_step(bt, chained, Model1Config(1, use_null))
            steps.append(ll)
            chained2, ll = model2.em_step(bt, chained2, config)
            steps2.append(ll)
        assert steps == trace and steps2 == trace2
        for got, want in [(chained, table), (chained2.table, params.table)]:
            for name in ("es", "fs", "theta"):
                assert_same_array(getattr(got, name), getattr(want, name))


def lexical_counts(packed, theta):
    """Expected counts and log-likelihood under the lexical pass, summed
    over every chunk."""
    counts, ll = np.zeros(packed.n_slots), 0.0
    for c in range(len(packed.chunks)):
        chunk_counts, reports = _packed._chunk_counts(packed, c, theta, _packed._lexical_pass)
        counts += chunk_counts
        ll += sum(reports)
    return counts, ll


class TestGroupedEStep:
    """The lexical E-step runs on the packed groups, one gather, sum and
    division per group. At GROUP_CELLS = 300 the groups mix m and n; the
    counts and log-likelihood must be those of one-pair groups, summed, and
    of the enumeration oracles. At CHUNK_CELLS = 600 the corpus splits, so
    each chunk reads its own part of the prior laid out at packing."""

    # Small enough to enumerate, m = 1 and n = 1 included.
    SHAPES = [(1, 1), (3, 1), (1, 4), (4, 4), (2, 3), (4, 2), (1, 2), (3, 3), (2, 1), (4, 3)]

    @pytest.mark.parametrize("chunk_cells", [1 << 20, 600])
    @pytest.mark.parametrize(
        "use_null, p0", [(False, None), (True, None), (False, 0.0), (True, 0.3)]
    )
    def test_counts_and_likelihood_match_one_pair_groups_and_the_oracles(
        self, monkeypatch, use_null, p0, chunk_cells
    ):
        monkeypatch.setattr(_packed, "GROUP_CELLS", 300)
        monkeypatch.setattr(_packed, "CHUNK_CELLS", chunk_cells)
        rng = np.random.default_rng(91)
        for _ in range(5):
            shapes = self.SHAPES + [tuple(rng.integers(5, 13, size=2)) for _ in range(12)]
            bitext = make_bitext([
                ([int(x) for x in rng.integers(1, 6, size=m)],
                 [int(x) for x in rng.integers(1, 6, size=n)])
                for m, n in shapes
            ])
            table, flat = random_table(rng, range(1, 6), range(1, 6), include_null=use_null)
            theta = table.theta
            prior = None if p0 is None else DiagonalPrior(float(rng.choice([0.0, 3.0])), p0)
            packed = _packed.PackedCorpus(bitext, table, use_null, prior)
            assert (len(packed.chunks) > 1) == (chunk_cells == 600)
            groups = [g for chunk in packed.chunks for g in chunk.groups]
            assert len(groups) >= 4
            assert any(len(set(g.ms.tolist())) > 1 for g in groups)
            assert any(len(set(g.ns.tolist())) > 1 for g in groups)
            leave_nan_in_freed_memory()
            counts, ll = lexical_counts(packed, theta)
            assert not np.isnan(counts).any()

            ref_counts = np.zeros_like(counts)
            ref_ll = 0.0
            oracle_counts: dict = {}
            oracle_ll = 0.0
            for k, pair in enumerate(bitext.pairs):
                src, tgt = pair.source_ids, pair.target_ids
                one = _packed.PackedCorpus(make_bitext([(src, tgt)]), table, use_null, prior)
                one_counts, one_ll = lexical_counts(one, theta)
                ref_counts += one_counts
                ref_ll += one_ll
                if prior is not None:
                    oracle_ll += oracles.model2_sentence_ll(
                        src, tgt, flat, prior.lam, prior.p0, floor=0.0
                    )
                    continue
                oracle_ll += oracles.model1_sentence_ll(src, tgt, flat, use_null, floor=0.0)
                if k < len(self.SHAPES):
                    targets, posteriors = oracles.model1_posteriors(
                        src, tgt, flat, use_null, floor=0.0
                    )
                    for f, row in zip(src, posteriors):
                        for e, p in zip(targets, row):
                            oracle_counts[(e, f)] = oracle_counts.get((e, f), 0.0) + p
            assert ll == pytest.approx(ref_ll, rel=1e-12)
            np.testing.assert_allclose(counts, ref_counts, rtol=1e-12, atol=1e-15)
            assert ll == pytest.approx(oracle_ll, rel=1e-10)
            if prior is None:
                # The oracle covers the enumerable pairs only.
                small = _packed.PackedCorpus(
                    make_bitext([(p.source_ids, p.target_ids) for p in bitext.pairs[:10]]),
                    table, use_null,
                )
                small_counts, _ = lexical_counts(small, theta)
                expected = [oracle_counts.get(key, 0.0) for key in zip(table.es, table.fs)]
                np.testing.assert_allclose(small_counts, expected, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("group_cells", [1, 1 << 16])
    def test_zero_total_names_the_first_failing_pair_in_corpus_order(
        self, monkeypatch, group_cells
    ):
        # Source word 3 has no mass under any row. Pair 1 fails at position 1;
        # pair 2 is longer, so it sorts, and with one-pair groups runs, first,
        # and fails at position 0.
        table = TranslationTable({5: {1: 0.5, 2: 0.5}, 6: {1: 0.5, 2: 0.5}})
        bitext = make_bitext([((1, 3), (5,)), ((3, 1, 1, 1), (5, 6)), ((1, 2), (6, 5))])
        monkeypatch.setattr(_packed, "GROUP_CELLS", group_cells)
        packed = _packed.PackedCorpus(bitext, table, False)
        assert packed.chunks[0].groups[0].pairs[0] == 1
        with pytest.raises(NumericError) as caught:
            em_step(bitext, table, NO_NULL)
        assert str(caught.value) == (
            "pair 1: source token id 3 at position 1 has zero total probability under the table"
        )


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
        buf = io.BytesIO()
        save_model(buf, table)
        loaded, trailer, _ = read_ttable(buf.getvalue())
        assert trailer == []
        buf2 = io.BytesIO()
        save_model(buf2, loaded)
        assert buf2.getvalue() == buf.getvalue()


class TestWorkers:
    def test_pool_has_no_more_workers_than_chunks(self, monkeypatch):
        monkeypatch.setattr(_packed, "CHUNK_CELLS", 4)
        bt = make_bitext([([1], [1])] * 5)  # two cells a pair with NULL: three chunks
        table = init_uniform(bt, use_null=True)
        for jobs, workers in ((64, 3), (2, 2), (1, 1), (0, 1)):
            packed = _packed.PackedCorpus(bt, table, True, jobs=jobs)
            assert packed.jobs == workers

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_are_taken_one_chunk_at_a_time(self, monkeypatch, jobs):
        # A caller that merges each result as it comes holds at most jobs
        # of them: no chunk starts more than jobs - 1 ahead of the one
        # being taken, so at jobs=1 chunk c + 1 runs only after the caller
        # has taken chunk c's result.
        monkeypatch.setattr(_packed, "CHUNK_CELLS", 4)
        bt = make_bitext([([1], [1])] * 9)  # two cells a pair with NULL: five chunks
        packed = _packed.PackedCorpus(bt, init_uniform(bt, use_null=True), True, jobs=jobs)
        assert len(packed.chunks) == 5 and packed.jobs == jobs
        started, taken = [], []

        def fn(packed, c):
            started.append(c)
            return c

        for c in packed.map(fn):
            taken.append((c, max(started)))
        assert sorted(started) == list(range(5))
        assert [c for c, _ in taken] == list(range(5))
        assert all(ahead <= c + jobs - 1 for c, ahead in taken)
        if jobs == 1:
            assert started == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_the_first_failing_chunk_wins_across_threads(self, monkeypatch, pools, jobs):
        # One pair a chunk. Source word 3 has no mass under any row: pair 2
        # fails, and so does pair 4, whose chunk a second thread may finish
        # first; the error names pair 2 either way.
        monkeypatch.setattr(_packed, "CHUNK_CELLS", 2)
        table = TranslationTable({5: {1: 0.5, 2: 0.5}, 6: {1: 0.5, 2: 0.5}})
        bitext = make_bitext([((1, 2), (5,)), ((1, 3), (5,)), ((2, 1), (6,)), ((3, 3, 3), (5, 6))])
        with pytest.raises(NumericError) as caught:
            em_step(bitext, table, NO_NULL, jobs=jobs)
        assert str(caught.value).startswith("pair 2: ")
        assert pools == ([2] if jobs == 2 else [])
