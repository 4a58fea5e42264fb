import io
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from alignkit.alignment import AlignmentSet
from alignkit.phrases import (
    PhrasePair,
    _spans,
    build_phrase_table,
    extract_consistent_phrases,
    write_phrase_table,
)


def aset(links, m, n):
    return AlignmentSet(links=frozenset(links), m=m, n=n)


def spans(pairs):
    return [(pp.src_start, pp.src_end, pp.tgt_start, pp.tgt_end) for pp in pairs]


class TestExtraction:
    def test_diagonal_two_by_two(self):
        got = spans(extract_consistent_phrases(aset({(0, 0), (1, 1)}, 2, 2)))
        assert got == [(0, 0, 0, 0), (0, 1, 0, 1), (1, 1, 1, 1)]

    def test_empty_alignment_yields_nothing(self):
        assert extract_consistent_phrases(aset(set(), 3, 3)) == []

    def test_crossing_links(self):
        # With links (0,1) and (1,0), the singleton source span [0,0] hulls
        # to target [1,1]; the only link in column 1 is (0,1), whose source
        # is inside the span, so no link crosses the rectangle boundary and
        # the pair is consistent (likewise its mirror). The full block is
        # consistent too, giving three pairs in all.
        got = spans(extract_consistent_phrases(aset({(0, 1), (1, 0)}, 2, 2)))
        assert got == [(0, 0, 1, 1), (0, 1, 0, 1), (1, 1, 0, 0)]

    def test_unaligned_edges_extend_target_spans(self):
        # Target position 1 is unaligned, so spans hulling to [0, 0] or
        # [2, 2] may absorb it from either side.
        links = {(0, 0), (1, 2)}
        got = spans(extract_consistent_phrases(aset(links, 2, 3)))
        assert (0, 0, 0, 0) in got
        assert (0, 0, 0, 1) in got
        assert (1, 1, 1, 2) in got
        assert (1, 1, 2, 2) in got
        assert (0, 1, 0, 2) in got

    def test_one_to_many_block(self):
        links = {(0, 0), (0, 1)}
        got = spans(extract_consistent_phrases(aset(links, 1, 2)))
        assert got == [(0, 0, 0, 1)]

    def test_max_len_caps_both_sides(self):
        links = {(j, j) for j in range(4)}
        got = spans(extract_consistent_phrases(aset(links, 4, 4), max_len=2))
        assert (0, 1, 0, 1) in got
        assert all(j2 - j1 < 2 and i2 - i1 < 2 for j1, j2, i1, i2 in got)

    def test_max_len_must_be_positive(self):
        with pytest.raises(ValueError):
            extract_consistent_phrases(aset({(0, 0)}, 1, 1), max_len=0)

    def test_output_is_sorted_and_unique(self):
        links = {(0, 0), (1, 2), (2, 1)}
        pairs = extract_consistent_phrases(aset(links, 3, 3))
        assert pairs == sorted(pairs)
        assert len(pairs) == len(set(pairs))

    def test_every_pair_contains_a_link(self):
        links = {(0, 0), (2, 2)}
        for pp in extract_consistent_phrases(aset(links, 3, 3)):
            assert any(
                pp.src_start <= j <= pp.src_end and pp.tgt_start <= i <= pp.tgt_end
                for j, i in links
            )

    @given(
        links=st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10),
        m=st.integers(6, 8),
        n=st.integers(6, 8),
        max_len=st.integers(1, 7),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_rectangle_enumeration(self, links, m, n, max_len):
        got = spans(extract_consistent_phrases(aset(links, m, n), max_len=max_len))
        assert got == oracles.phrase_pairs_brute(links, m, n, max_len)

    @given(
        data=st.data(),
        m=st.integers(1, 9),
        n=st.integers(1, 9),
        max_len=st.integers(1, 10),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_rectangle_enumeration_over_the_whole_grid(self, data, m, n, max_len):
        cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
        links = data.draw(st.one_of(
            st.sets(cells, max_size=m * n),
            st.builds(lambda j: {(j, i) for i in range(n)}, st.integers(0, m - 1)),
            st.builds(lambda i: {(j, i) for j in range(m)}, st.integers(0, n - 1)),
        ))
        got = spans(extract_consistent_phrases(aset(links, m, n), max_len=max_len))
        assert got == oracles.phrase_pairs_brute(links, m, n, max_len)


    @given(
        data=st.data(),
        m=st.integers(1, 9),
        n=st.integers(1, 9),
        max_len=st.integers(1, 7),
    )
    @settings(max_examples=300, deadline=None)
    def test_spans_yields_each_span_once(self, data, m, n, max_len):
        # Mostly one link per source row, as aligners produce, with rows
        # and columns left unaligned, so that hulls widen a column at a time.
        column = st.integers(0, n - 1)
        targets = data.draw(st.lists(st.one_of(st.none(), column), min_size=m, max_size=m))
        extra = data.draw(st.sets(st.tuples(st.integers(0, m - 1), column), max_size=3))
        links = {(j, i) for j, i in enumerate(targets) if i is not None} | extra
        got = Counter(_spans(aset(links, m, n), max_len))
        assert got == Counter(oracles.phrase_pairs_brute(links, m, n, max_len))


class TestPhraseTable:
    def test_relative_frequencies(self):
        # Three identical sentences and one variant: the source phrase
        # ("a",) pairs with ("x",) three times and ("y",) once.
        a = aset({(0, 0)}, 1, 1)
        records = [(["a"], ["x"], a)] * 3 + [(["a"], ["y"], a)]
        table = build_phrase_table(records)
        assert table.forward(("a",), ("x",)) == 0.75
        assert table.forward(("a",), ("y",)) == 0.25
        assert table.inverse(("a",), ("x",)) == 1.0
        assert table.counts[("a", "x")] == 3

    def test_forward_distribution_sums_to_one_per_source(self):
        a = aset({(0, 0), (1, 1)}, 2, 2)
        records = [
            (["a", "b"], ["x", "y"], a),
            (["a", "b"], ["x", "z"], a),
        ]
        table = build_phrase_table(records)
        assert set(table.src_marginals) == {"a", "b", "a b"}
        for src in table.src_marginals:
            total = sum(
                table.forward(s.split(), t.split()) for (s, t) in table.counts if s == src
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_single_record_probabilities_are_one(self):
        table = build_phrase_table([(["a"], ["x"], aset({(0, 0)}, 1, 1))])
        assert table.forward(("a",), ("x",)) == 1.0
        assert table.inverse(("a",), ("x",)) == 1.0

    def test_unseen_pairs_score_zero(self):
        table = build_phrase_table([(["a"], ["x"], aset({(0, 0)}, 1, 1))])
        assert table.forward(("q",), ("x",)) == 0.0
        assert table.inverse(("a",), ("q",)) == 0.0

    def test_dimension_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            build_phrase_table([(["a", "b"], ["x"], aset({(0, 0)}, 1, 1))])

    def test_written_format(self):
        a = aset({(0, 0), (1, 1)}, 2, 2)
        table = build_phrase_table([(["a", "b"], ["x", "y"], a)])
        out = io.StringIO()
        write_phrase_table(table, out)
        # Entries come out sorted by their (source, target) token tuples.
        assert out.getvalue() == (
            "a ||| x ||| 1.0 1.0 1\n"
            "a b ||| x y ||| 1.0 1.0 1\n"
            "b ||| y ||| 1.0 1.0 1\n"
        )

    def test_matches_per_pair_reference(self):
        # Few distinct tokens, so phrases recur across records and the
        # relative frequencies include inexact ratios such as 1/3 and 2/7.
        rng = random.Random(61)
        records, reference_records = [], []
        for _ in range(50):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            src = [rng.choice("abc") for _ in range(m)]
            tgt = [rng.choice("xyz") for _ in range(n)]
            cells = [(j, i) for j in range(m) for i in range(n)]
            links = set(rng.sample(cells, rng.randint(0, min(len(cells), 6))))
            records.append((src, tgt, aset(links, m, n)))
            reference_records.append((src, tgt, links))
        counts, src_totals, tgt_totals, text = oracles.phrase_table_brute(
            reference_records, max_len=4
        )
        table = build_phrase_table(records, max_len=4)
        out = io.StringIO()
        write_phrase_table(table, out)
        assert out.getvalue() == text
        joined = lambda tokens: " ".join(tokens)
        assert table.counts == {(joined(s), joined(t)): c for (s, t), c in counts.items()}
        assert table.src_marginals == {joined(s): c for s, c in src_totals.items()}
        assert table.tgt_marginals == {joined(t): c for t, c in tgt_totals.items()}
        assert repr(1 / 3) in text and repr(2 / 7) in text

    @pytest.mark.parametrize("tokens", [
        ["a", "b", "ab", "a-", "bé", "é"],
        ["a", "b", "ab", "a\x01", "x\x01", "x", "\x00", "a\x00", "a\x1b", "a\t", "\x1f"],
    ], ids=["shared-prefixes", "control-characters"])
    def test_bytes_match_the_token_tuple_reference(self, tokens):
        # Phrases such as `a b`, `ab` and `a\x01` sort apart by tokens, so
        # the written order is that of the token tuples whatever the tokens.
        rng = random.Random(7)
        records, reference_records = [], []
        for _ in range(80):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            src = [rng.choice(tokens) for _ in range(m)]
            tgt = [rng.choice(tokens) for _ in range(n)]
            links = {(j, i) for j in range(m) for i in range(n) if rng.random() < 0.3}
            records.append((src, tgt, aset(links, m, n)))
            reference_records.append((src, tgt, links))
        *_, text = oracles.phrase_table_brute(reference_records, max_len=3)
        out = io.StringIO()
        write_phrase_table(build_phrase_table(records, max_len=3), out)
        assert out.getvalue() == text
        assert text.count("\n") > 100

    def test_a_token_holding_a_space_is_rejected(self):
        # Its text would merge with the phrase of the two tokens around it.
        with pytest.raises(ValueError, match="space"):
            build_phrase_table([(["a b"], ["x"], aset({(0, 0)}, 1, 1))])
