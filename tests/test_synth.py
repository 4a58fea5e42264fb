import io

import pytest

from alignkit.errors import ConfigError
from alignkit.synth import SynthConfig, generate, write_gold_wpt


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


class TestGoldOutput:
    def test_wpt_lines_are_one_based_and_sure(self):
        records = generate(
            SynthConfig(pairs=2, vocab_size=5, min_len=2, max_len=2, seed=8)
        )
        out = io.StringIO()
        write_gold_wpt(records, out)
        lines = out.getvalue().splitlines()
        assert lines == ["1 1 1 S", "1 2 2 S", "2 1 1 S", "2 2 2 S"]
