"""The vectorized decoders and emissions against the dict-and-loop
references in oracles.py, on tables full of ties and missing cells."""

import numpy as np
import pytest

import oracles
from alignkit import _packed, hmm, model1, model2
from alignkit.corpus import SentencePair
from alignkit.errors import NumericError
from alignkit.ttable import DECODE_FLOOR, NULL_ID, TranslationTable
from conftest import leave_nan_in_freed_memory, make_bitext

# The decoders score every cell at least DECODE_FLOOR; the oracles take
# that floor as an argument, which the tests name once.
FLOORS = [DECODE_FLOOR]

# The table knows target ids 1..4 and source ids 1..6. Pairs also draw
# target ids 0, 5 and 9, and source ids -2, 0, 7 and 40: below, between
# and past the known ones, where a combined cell key could alias.
TABLE_TARGETS = (1, 2, 3, 4)
TABLE_SOURCES = (1, 2, 3, 4, 5, 6)
PAIR_TARGETS = TABLE_TARGETS + (0, 5, 9)
PAIR_SOURCES = TABLE_SOURCES + (-2, 0, 7, 40)


def tie_heavy_table(rng, include_null):
    """Probabilities from {0.25, 0.5} with about a third of the cells left
    out, as a TranslationTable and as the oracles' flat dict."""
    flat = {}
    for e in ((NULL_ID,) if include_null else ()) + TABLE_TARGETS:
        for f in TABLE_SOURCES:
            if rng.random() < 2 / 3:
                flat[(e, f)] = float(rng.choice([0.25, 0.5]))
    rows = {}
    for (e, f), p in flat.items():
        rows.setdefault(e, {})[f] = p
    return TranslationTable(rows), flat


def random_pair(rng):
    m = int(rng.integers(1, 8))
    n = int(rng.integers(1, 6))
    source = tuple(int(x) for x in rng.choice(PAIR_SOURCES, size=m))
    target = tuple(int(x) for x in rng.choice(PAIR_TARGETS, size=n))
    return SentencePair(source_ids=source, target_ids=target)


@pytest.mark.parametrize("floor", FLOORS)
@pytest.mark.parametrize("use_null", [True, False])
def test_decoders_and_emissions_match_the_references(use_null, floor):
    rng = np.random.default_rng(61 + 2 * use_null + (floor > 0))
    for _ in range(60):
        table, flat = tie_heavy_table(rng, include_null=bool(rng.integers(2)))
        for _ in range(5):
            pair = random_pair(rng)
            src, tgt = pair.source_ids, pair.target_ids

            got = model1.posterior_align(pair, table, use_null=use_null)
            assert list(got.targets) == oracles.model1_argmax(src, tgt, flat, use_null, floor)

            prior = model2.DiagonalPrior(lam=float(rng.choice([0.0, 2.0])),
                                         p0=0.25 if use_null else 0.0)
            got = model2.align(pair, model2.Model2Params(table, prior))
            pmat = prior.matrix(pair.m, pair.n, use_null)
            weight = lambda j, i: pmat[i - 1 if i else pair.n, j - 1]
            assert list(got.targets) == oracles.model2_argmax(
                src, tgt, flat, weight, use_null, floor
            )

            params = hmm.HmmParams(table, hmm.uniform_jumps(2, 0.2), use_null)
            packed = hmm.PackedCorpus(make_bitext([(src, tgt)]), table, use_null)
            theta = _packed.with_pad(np.maximum(params.table.theta, DECODE_FLOOR))
            (group,) = hmm._groups(packed, 0, theta, params.jumps)
            emit = group.emit[:, 0].T
            assert emit.tolist() == oracles.hmm_emissions(src, tgt, flat, use_null, floor)


class TestIdsTheTableLacks:
    """Source ids past, before and between the table's, and an unknown
    target id, must read as missing cells: with a combined (row, source)
    key they would otherwise alias into a neighbouring entry."""

    # Aliased, (1, 7) and (2, -3) would read (2, 0), and (0, 0) would read (1, 0).
    TABLE = TranslationTable({1: {0: 0.9, 5: 0.1}, 2: {0: 0.5, 5: 0.5}})

    @pytest.mark.parametrize("source, target", [((7,), (1,)), ((-3,), (2,)), ((0,), (0,))])
    def test_em_step_finds_no_probability(self, source, target):
        bitext = make_bitext([(source, target)])
        with pytest.raises(NumericError, match="zero total probability"):
            model1.em_step(bitext, self.TABLE, model1.Model1Config(1, use_null=False))

    def test_decoders_score_them_at_the_floor(self):
        # Aliased, (1, 7) and (2, 7) would read (2, 0) and (3, 0), so target
        # position 1 would take source word 7. Every cell here is missing,
        # so all score the floor and the ties go to position 0.
        pair = SentencePair(source_ids=(7, -3), target_ids=(1, 2))
        table = TranslationTable({1: {0: 0.9, 5: 0.1}, 2: {0: 0.5, 5: 0.5}, 3: {0: 1.0}})
        expected = (0, 0)
        assert model1.posterior_align(pair, table, use_null=False).targets == expected
        flat = model2.Model2Params(table, model2.DiagonalPrior(lam=0.0, p0=0.0))
        assert model2.align(pair, flat).targets == expected
        params = hmm.HmmParams(table, hmm.uniform_jumps(2, 0.0), use_null=False)
        assert hmm.viterbi_decode(pair, params).targets == expected


    def test_padding_scores_zero_and_misses_the_floor(self, monkeypatch):
        # Decoders gather scores from decode_theta. A cell the table lacks
        # scores the floor; a cell past a pair's m or n only pads its group
        # and must score 0, as the group passes assume.
        monkeypatch.setattr(_packed, "GROUP_CELLS", 40)
        bitext = make_bitext([((7, 0), (1, 2, 2)), ((0, 5, 5), (1,)), ((5,), (2, 9))])
        for use_null in (False, True):
            packed = _packed.PackedCorpus(bitext, self.TABLE, use_null)
            (chunk,) = packed.chunks
            assert any(len(set(g.ns.tolist())) > 1 for g in chunk.groups)
            scores = _packed.decode_theta(self.TABLE)[chunk.slots]
            pad = chunk.slots == packed.n_slots + 1
            miss = chunk.slots == packed.n_slots
            assert pad.any() and miss.any()
            assert (scores[pad] == 0.0).all()
            assert (scores[miss] == DECODE_FLOOR).all()
            assert (scores[~pad] >= DECODE_FLOOR).all()


def sparse_random_table(rng, include_null):
    """Random distributions over about two thirds of the table's source ids,
    as a TranslationTable and as the oracles' flat dict."""
    flat = {}
    for e in ((NULL_ID,) if include_null else ()) + TABLE_TARGETS:
        keep = [f for f in TABLE_SOURCES if rng.random() < 2 / 3] or [TABLE_SOURCES[0]]
        probs = rng.dirichlet(np.ones(len(keep)))
        flat.update(((e, f), float(p)) for f, p in zip(keep, probs))
    rows = {}
    for (e, f), p in flat.items():
        rows.setdefault(e, {})[f] = p
    return TranslationTable(rows), flat


def short_pair(rng):
    """A pair small enough to enumerate. Source ids come from the table,
    except that one pair in four has one id the table lacks, which every
    path then scores at the floor."""
    source = [int(x) for x in rng.choice(TABLE_SOURCES, size=int(rng.integers(1, 5)))]
    if rng.random() < 0.25:
        outside = PAIR_SOURCES[len(TABLE_SOURCES):]
        source[int(rng.integers(len(source)))] = int(rng.choice(outside))
    target = tuple(int(x) for x in rng.choice(PAIR_TARGETS, size=int(rng.integers(1, 4))))
    return SentencePair(source_ids=tuple(source), target_ids=target)


def enumerated_paths(pair, params, flat, floor):
    """The alignments of every state path reaching the best probability,
    by enumeration."""
    jumps = params.jumps
    paths = oracles._hmm_paths(
        pair.source_ids, pair.target_ids, flat, list(jumps.probs), jumps.w,
        jumps.p0, params.use_null, floor,
    )
    best = max(p for _, p in paths)
    return [
        [s if s < pair.n else None for s in seq]
        for seq, p in paths if p >= best * (1 - 1e-9)
    ]


class TestCorpusDecoders:
    """Each model's align_corpus decodes a whole corpus from one packing;
    pair by pair its alignments must match the references. Target lengths
    repeat within a corpus, so the HMM reuses transitions built for an
    earlier pair of the same length."""

    @pytest.mark.parametrize("floor", FLOORS)
    @pytest.mark.parametrize("use_null", [True, False])
    def test_lexical_decoders_match_the_references(self, use_null, floor):
        rng = np.random.default_rng(71 + 2 * use_null + (floor > 0))
        for _ in range(20):
            table, flat = tie_heavy_table(rng, include_null=bool(rng.integers(2)))
            pairs = [random_pair(rng) for _ in range(8)]
            bitext = make_bitext([(p.source_ids, p.target_ids) for p in pairs])
            prior = model2.DiagonalPrior(lam=float(rng.choice([0.0, 2.0])),
                                         p0=0.25 if use_null else 0.0)
            got1 = model1.align_corpus(bitext, table, use_null=use_null)
            got2 = model2.align_corpus(bitext, model2.Model2Params(table, prior))
            assert len(got1) == len(got2) == len(pairs)
            for pair, a1, a2 in zip(pairs, got1, got2):
                src, tgt = pair.source_ids, pair.target_ids
                want = oracles.model1_argmax(src, tgt, flat, use_null, floor)
                assert list(a1.targets) == want
                pmat = prior.matrix(pair.m, pair.n, use_null)
                weight = lambda j, i: pmat[i - 1 if i else pair.n, j - 1]
                assert list(a2.targets) == oracles.model2_argmax(
                    src, tgt, flat, weight, use_null, floor
                )

    @pytest.mark.parametrize("use_null", [True, False])
    def test_lexical_decoders_match_the_references_on_mixed_groups(
        self, monkeypatch, use_null
    ):
        # Pairs up to 12 x 12 at GROUP_CELLS = 300: several groups per
        # corpus, each padding pairs of different m and n.
        monkeypatch.setattr(_packed, "GROUP_CELLS", 300)
        rng = np.random.default_rng(75 + use_null)
        for _ in range(10):
            table, flat = tie_heavy_table(rng, include_null=bool(rng.integers(2)))
            shapes = rng.integers(1, 13, size=(24, 2))
            bitext = make_bitext([
                (rng.choice(PAIR_SOURCES, size=m).tolist(),
                 rng.choice(PAIR_TARGETS, size=n).tolist())
                for m, n in shapes
            ])
            (chunk,) = _packed.PackedCorpus(bitext, table, use_null).chunks
            assert any(len(set(g.ms.tolist())) > 1 for g in chunk.groups)
            assert any(len(set(g.ns.tolist())) > 1 for g in chunk.groups)
            prior = model2.DiagonalPrior(lam=float(rng.choice([0.0, 2.0])),
                                         p0=0.25 if use_null else 0.0)
            leave_nan_in_freed_memory()
            got1 = model1.align_corpus(bitext, table, use_null=use_null)
            got2 = model2.align_corpus(bitext, model2.Model2Params(table, prior))
            for pair, a1, a2 in zip(bitext.pairs, got1, got2):
                src, tgt = pair.source_ids, pair.target_ids
                assert (a1.n, a2.n) == (pair.n, pair.n)
                assert list(a1.targets) == oracles.model1_argmax(
                    src, tgt, flat, use_null, DECODE_FLOOR
                )
                pmat = prior.matrix(pair.m, pair.n, use_null)
                weight = lambda j, i: pmat[i - 1 if i else pair.n, j - 1]
                assert list(a2.targets) == oracles.model2_argmax(
                    src, tgt, flat, weight, use_null, DECODE_FLOOR
                )

    @pytest.mark.parametrize("floor", FLOORS)
    @pytest.mark.parametrize("use_null", [True, False])
    def test_hmm_decoder_matches_enumeration(self, use_null, floor):
        rng = np.random.default_rng(81 + 2 * use_null + (floor > 0))
        for _ in range(8):
            table, flat = sparse_random_table(rng, include_null=bool(rng.integers(2)))
            jumps = hmm.JumpTable(w=2, probs=rng.dirichlet(np.ones(5)),
                                  p0=0.2 if use_null else 0.0)
            params = hmm.HmmParams(table, jumps, use_null)
            pairs = [short_pair(rng) for _ in range(8)]
            bitext = make_bitext([(p.source_ids, p.target_ids) for p in pairs])
            got = hmm.align_corpus(bitext, params)
            assert len(got) == len(pairs)
            for pair, alignment in zip(pairs, got):
                assert list(alignment.targets) in enumerated_paths(pair, params, flat, floor)
