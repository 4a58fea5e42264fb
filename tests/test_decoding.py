"""The vectorized decoders and emissions against the dict-and-loop
references in oracles.py, on tables full of ties and missing cells."""

import numpy as np
import pytest

import oracles
from alignkit import hmm, model1, model2
from alignkit.corpus import SentencePair
from alignkit.errors import NumericError
from alignkit.ttable import NULL_ID, TranslationTable
from conftest import make_bitext

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


@pytest.mark.parametrize("floor", [0.0, 1e-12])
@pytest.mark.parametrize("use_null", [True, False])
def test_decoders_and_emissions_match_the_references(use_null, floor):
    rng = np.random.default_rng(61 + 2 * use_null + (floor > 0))
    for _ in range(60):
        table, flat = tie_heavy_table(rng, include_null=bool(rng.integers(2)))
        for _ in range(5):
            pair = random_pair(rng)
            src, tgt = pair.source_ids, pair.target_ids

            got = model1.posterior_align(pair, table, floor, use_null=use_null)
            assert list(got.targets) == oracles.model1_argmax(src, tgt, flat, use_null, floor)

            prior = model2.DiagonalPrior(lam=float(rng.choice([0.0, 2.0])),
                                         p0=0.25 if use_null else 0.0)
            got = model2.align(pair, model2.Model2Params(table, prior), floor)
            pmat = prior.matrix(pair.m, pair.n, use_null)
            weight = lambda j, i: pmat[i - 1 if i else pair.n, j - 1]
            assert list(got.targets) == oracles.model2_argmax(
                src, tgt, flat, weight, use_null, floor
            )

            params = hmm.HmmParams(table, hmm.uniform_jumps(2, 0.2), use_null)
            emit, _, _ = hmm._pair_model(pair, params, floor)
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
