import hashlib
import itertools
import random

import numpy as np
import pytest

import oracles
from alignkit.errors import ConfigError
from alignkit.synth import MAX_LEN, SynthConfig, _Generator, generate, gold_wpt_lines

# Upper bounds of the draws: every branch of numpy's bounded integers (no
# draw, 32-bit Lemire, a bare 32-bit word, 64-bit Lemire), and 3 * 2**30
# and 3 * 2**61, whose Lemire rejection thresholds (2**30 and 2**62) turn
# a quarter of their first draws away.
BOUNDS = [1, 2, 13, 1000, 3 * 2**30, 2**32 - 1, 2**32, 2**32 + 1, 3 * 2**61, 2**63]
SEEDS = [0, 2**32, 2**64 + 3, 2**130 + 11]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(pairs=0)
        with pytest.raises(ConfigError):
            SynthConfig(pairs=1, vocab_size=0)
        with pytest.raises(ConfigError):
            SynthConfig(pairs=1, min_len=0)
        with pytest.raises(ConfigError):
            SynthConfig(pairs=1, min_len=5, max_len=4)
        with pytest.raises(ConfigError):
            SynthConfig(pairs=1, swap_rate=1.5)
        with pytest.raises(ConfigError):
            SynthConfig(pairs=1, insert_rate=-0.1)
        with pytest.raises(ConfigError, match="seed"):
            SynthConfig(pairs=1, seed=-1)
        with pytest.raises(ConfigError, match="vocab_size"):
            SynthConfig(pairs=1, vocab_size=2**63 + 1)

    def test_max_len_is_bounded(self):
        # Construction only: generating at such a length would fill memory.
        SynthConfig(pairs=1, min_len=MAX_LEN, max_len=MAX_LEN)
        with pytest.raises(ConfigError, match=r"max_len must be <= 2\*\*20"):
            SynthConfig(pairs=1, max_len=MAX_LEN + 1)
        with pytest.raises(ConfigError, match=r"2\*\*20, got 10000000000000"):
            SynthConfig(pairs=1, min_len=10**13, max_len=10**13)


class TestGenerate:
    def test_noise_free_gold_is_the_identity(self):
        records = generate(SynthConfig(pairs=20, vocab_size=30, seed=3))
        for record in records:
            m = len(record.source_tokens)
            assert len(record.target_tokens) == m
            assert record.gold.links == {(j, j) for j in range(m)}
            # the one-to-one lexicon pairs s<k> with t<k>
            for src, tgt in zip(record.source_tokens, record.target_tokens):
                assert src[0] == "s" and tgt[0] == "t"
                assert src[1:] == tgt[1:]

    def test_fixed_seed_reproduces_the_corpus(self):
        config = SynthConfig(
            pairs=15, vocab_size=20, swap_rate=0.3, insert_rate=0.2, seed=9
        )
        assert generate(config) == generate(config)

    def test_different_seeds_differ(self):
        base = SynthConfig(pairs=15, vocab_size=20, seed=1)
        other = SynthConfig(pairs=15, vocab_size=20, seed=2)
        assert generate(base) != generate(other)

    def test_full_swap_rate_reverses_length_two_sentences(self):
        config = SynthConfig(
            pairs=10, vocab_size=50, min_len=2, max_len=2, swap_rate=1.0, seed=4
        )
        for record in generate(config):
            assert record.gold.links == {(0, 1), (1, 0)}
            assert record.source_tokens[0][1:] == record.target_tokens[1][1:]
            assert record.source_tokens[1][1:] == record.target_tokens[0][1:]

    def test_swaps_never_overlap(self):
        # A swapped token moves exactly one position, so every gold link
        # satisfies |j - i| <= 1 when no insertions are in play.
        config = SynthConfig(pairs=30, vocab_size=40, swap_rate=0.7, seed=5)
        for record in generate(config):
            assert all(abs(j - i) <= 1 for j, i in record.gold.links)

    def test_insertions_leave_targets_fully_aligned(self):
        config = SynthConfig(pairs=30, vocab_size=40, insert_rate=0.4, seed=6)
        for record in generate(config):
            n = len(record.target_tokens)
            m = len(record.source_tokens)
            assert m >= n
            assert len(record.gold.links) == n
            assert {i for _, i in record.gold.links} == set(range(n))
            # spurious source tokens carry no link
            aligned_sources = {j for j, _ in record.gold.links}
            assert len(aligned_sources) == n

    def test_lengths_respect_the_configured_range(self):
        config = SynthConfig(pairs=50, vocab_size=10, min_len=4, max_len=6, seed=7)
        for record in generate(config):
            assert 4 <= len(record.target_tokens) <= 6


class TestNumpyStream:
    """`generate` draws numpy 2.x's `default_rng(seed)` stream without numpy."""

    @pytest.mark.parametrize("vocab_size", BOUNDS)
    def test_generate_matches_the_numpy_generator(self, vocab_size):
        for seed, (swap_rate, insert_rate), (min_len, max_len) in itertools.product(
            SEEDS,
            [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.3, 0.2)],
            [(1, 1), (4, 4), (1, 12)],
        ):
            config = SynthConfig(
                pairs=8, vocab_size=vocab_size, min_len=min_len, max_len=max_len,
                swap_rate=swap_rate, insert_rate=insert_rate, seed=seed,
            )
            assert generate(config) == oracles.synth_generate_numpy(config), config

    @pytest.mark.parametrize("seed", SEEDS + [1, 2001])
    def test_draws_match_default_rng(self, seed):
        ours, numpy = _Generator(seed), np.random.default_rng(seed)
        calls = random.Random(seed)
        for _ in range(3000):
            kind = calls.randrange(3)
            high = calls.choice(BOUNDS)
            low = calls.randrange(min(high, 3))
            if kind == 0:
                assert ours.random() == numpy.random()
            elif kind == 1:
                assert ours.integers(low, high) == int(numpy.integers(low, high)), high
            else:
                size = calls.randrange(6)
                got = ours.integers(low, high, size=size)
                assert got == numpy.integers(low, high, size=size).tolist(), high

    def test_first_draws_are_pinned(self):
        # The package's stream alone: if this passes while the comparisons
        # with numpy fail, numpy's Generator changed, not the package.
        rng = _Generator(2**64 + 3)
        draws = []
        for k in range(100):
            draws.append(rng.random())
            draws += [rng.integers(0, high) for high in BOUNDS]
            draws.append(rng.integers(0, BOUNDS[k % len(BOUNDS)], size=3))
        assert hashlib.sha256(repr(draws).encode()).hexdigest() == (
            "446ba1fef0e2e95b739d2b9ece6b79b144c00e40853496bc06dbbc17be965741"
        )


class TestGoldOutput:
    def test_wpt_lines_are_one_based_and_sure(self):
        records = generate(
            SynthConfig(pairs=2, vocab_size=5, min_len=2, max_len=2, seed=8)
        )
        text = "".join(gold_wpt_lines(sid, r.gold) for sid, r in enumerate(records, start=1))
        lines = text.splitlines()
        assert lines == ["1 1 1 S", "1 2 2 S", "2 1 1 S", "2 2 2 S"]
