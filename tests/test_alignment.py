import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from alignkit.alignment import (
    AlignmentFunction,
    AlignmentSet,
    format_function_line,
    format_pharaoh_line,
    grow_diag_final,
    harmonize_dims,
    intersect,
    parse_pharaoh_line,
    read_pharaoh,
    symmetrize,
    to_set,
    transpose,
    union,
)
from alignkit.errors import DataFormatError, DimensionMismatchError


def aset(links, m, n) -> AlignmentSet:
    return AlignmentSet(links=frozenset(links), m=m, n=n)


@st.composite
def alignment_pairs(draw, max_dim=10):
    """Two random alignments over the same sentence pair."""
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    cells = [(j, i) for j in range(m) for i in range(n)]
    fwd = draw(st.sets(st.sampled_from(cells)))
    rev = draw(st.sets(st.sampled_from(cells)))
    return aset(fwd, m, n), aset(rev, m, n)


@st.composite
def gdf_inputs(draw, max_dim=8):
    """Forward and reverse link sets over one pair: the reverse side is
    random, equal to the forward side, disjoint from it or empty, and
    either side may come first."""
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
    fwd = draw(st.sets(cells, max_size=m * n))
    kind = draw(st.sampled_from(["random", "equal", "disjoint", "empty"]))
    if kind == "random":
        rev = draw(st.sets(cells, max_size=m * n))
    elif kind == "equal":
        rev = set(fwd)
    elif kind == "disjoint":
        rev = draw(st.sets(cells, max_size=m * n)) - fwd
    else:
        rev = set()
    if draw(st.booleans()):
        fwd, rev = rev, fwd
    return aset(fwd, m, n), aset(rev, m, n)


class TestAlignmentSet:
    def test_out_of_bounds_links_rejected(self):
        with pytest.raises(DataFormatError):
            aset({(2, 0)}, m=2, n=1)
        with pytest.raises(DataFormatError):
            aset({(0, -1)}, m=1, n=1)

    def test_membership_and_len(self):
        a = aset({(0, 1), (1, 0)}, 2, 2)
        assert (0, 1) in a
        assert (0, 0) not in a
        assert len(a) == 2


class TestFunctionSetViews:
    def test_identity_function_to_set(self):
        func = AlignmentFunction(targets=(0, 1), n=2)
        assert to_set(func).links == {(0, 0), (1, 1)}

    def test_null_entries_drop_links(self):
        func = AlignmentFunction(targets=(None,), n=1)
        assert to_set(func).links == set()

    def test_one_to_many_needs_the_set_view(self):
        # A function can hold at most one target per source position, so
        # the set {(0,0),(1,1),(1,2)} has no function preimage; converting
        # the injective part recovers everything except the extra link.
        func = AlignmentFunction(targets=(0, 1, 3, 4, 5, 5, 6), n=7)
        converted = to_set(func)
        assert converted.links == {(0, 0), (1, 1), (2, 3), (3, 4), (4, 5), (5, 5), (6, 6)}
        assert len(converted) == sum(t is not None for t in func.targets)

    def test_set_size_counts_non_null_entries(self):
        func = AlignmentFunction(targets=(2, None, 0, None), n=3)
        assert len(to_set(func)) == 2

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.lists(
        st.one_of(st.none(), st.integers(0, n - 1)), max_size=12
    ).map(lambda targets: AlignmentFunction(targets=tuple(targets), n=n))))
    def test_function_line_matches_the_set_line(self, func):
        assert format_function_line(func) == format_pharaoh_line(to_set(func))


class TestTranspose:
    def test_swaps_coordinates_and_dims(self):
        a = transpose(aset({(0, 1)}, m=1, n=2))
        assert a.links == {(1, 0)}
        assert (a.m, a.n) == (2, 1)

    def test_involution(self):
        a = aset({(0, 2), (1, 0)}, 2, 3)
        assert transpose(transpose(a)) == a

    def test_empty(self):
        assert transpose(aset(set(), 2, 2)).links == set()


class TestIntersectUnion:
    def test_intersect(self):
        a = aset({(0, 0), (1, 1)}, 2, 2)
        b = aset({(0, 0)}, 2, 2)
        assert intersect(a, b).links == {(0, 0)}

    def test_disjoint_intersection_is_empty(self):
        a = aset({(0, 0)}, 2, 2)
        b = aset({(1, 1)}, 2, 2)
        assert intersect(a, b).links == set()

    def test_idempotence(self):
        a = aset({(0, 1), (1, 0)}, 2, 2)
        assert intersect(a, a) == a
        assert union(a, a) == a

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            intersect(aset(set(), 2, 2), aset(set(), 2, 3))


class TestGrowDiagFinal:
    def test_equal_inputs_pass_through(self):
        a = aset({(0, 0), (1, 1), (1, 0)}, 2, 2)
        for variant in ("final", "final-and"):
            assert grow_diag_final(a, a, variant) == a

    def test_growing_adds_diagonal_union_neighbor(self):
        fwd = aset({(0, 0), (1, 1)}, 2, 2)
        rev = aset({(0, 0)}, 2, 2)
        assert grow_diag_final(fwd, rev).links == {(0, 0), (1, 1)}

    def test_final_adds_leftovers_when_intersection_is_empty(self):
        fwd = aset({(0, 0)}, 2, 2)
        rev = aset({(1, 1)}, 2, 2)
        assert grow_diag_final(fwd, rev, "final").links == {(0, 0), (1, 1)}
        assert grow_diag_final(fwd, rev, "final-and").links == {(0, 0), (1, 1)}

    def test_final_availability_is_frozen_after_growing(self):
        # With availability updated live during the final sweep, the
        # "final-and" result can contain links absent from "final",
        # breaking the subset invariant; frozen availability keeps it.
        fwd = aset({(0, 0), (0, 2), (2, 0), (2, 2)}, 3, 3)
        rev = aset({(0, 0)}, 3, 3)
        a_or = grow_diag_final(fwd, rev, "final")
        a_and = grow_diag_final(fwd, rev, "final-and")
        assert a_and.links <= a_or.links

    def test_unknown_variant_rejected(self):
        with pytest.raises(DataFormatError):
            grow_diag_final(aset(set(), 1, 1), aset(set(), 1, 1), "bogus")

    @settings(max_examples=300, deadline=None)
    @given(alignment_pairs())
    def test_sandwich_property(self, pair):
        fwd, rev = pair
        inter = intersect(fwd, rev).links
        uni = union(fwd, rev).links
        a_or = grow_diag_final(fwd, rev, "final").links
        a_and = grow_diag_final(fwd, rev, "final-and").links
        assert inter <= a_and <= uni
        assert inter <= a_or <= uni
        assert a_and <= a_or

    @settings(max_examples=500, deadline=None)
    @given(gdf_inputs(), st.sampled_from(["final", "final-and"]))
    def test_matches_the_reference(self, pair, variant):
        fwd, rev = pair
        got = grow_diag_final(fwd, rev, variant)
        assert got == oracles.grow_diag_final_reference(fwd, rev, variant)

    @settings(max_examples=50, deadline=None)
    @given(alignment_pairs())
    def test_deterministic(self, pair):
        fwd, rev = pair
        assert grow_diag_final(fwd, rev) == grow_diag_final(fwd, rev)


class TestSymmetrizeDispatch:
    def test_named_heuristics(self):
        fwd = aset({(0, 0)}, 2, 2)
        rev = aset({(1, 1)}, 2, 2)
        assert symmetrize(fwd, rev, "intersect").links == set()
        assert symmetrize(fwd, rev, "union").links == {(0, 0), (1, 1)}
        assert symmetrize(fwd, rev, "grow-diag-final").links == {(0, 0), (1, 1)}

    def test_unknown_heuristic(self):
        a = aset(set(), 1, 1)
        with pytest.raises(DataFormatError):
            symmetrize(a, a, "nope")


class TestPharaohFormat:
    def test_parse_and_format_round_trip(self):
        a = parse_pharaoh_line("0-0 1-2 3-1", 1)
        assert a.links == {(0, 0), (1, 2), (3, 1)}
        assert (a.m, a.n) == (4, 3)
        assert format_pharaoh_line(a) == "0-0 1-2 3-1"

    def test_empty_line_is_empty_alignment(self):
        a = parse_pharaoh_line("", 1)
        assert a.links == set()
        assert (a.m, a.n) == (0, 0)

    def test_bad_fields_name_the_line(self):
        for bad in ("0:0", "1-", "a-b", "1-2-3", "-1-0", "0--1"):
            with pytest.raises(DataFormatError, match="line 4: bad field"):
                parse_pharaoh_line(bad, 4)

    def test_explicit_dims_validate_links(self):
        with pytest.raises(DataFormatError):
            parse_pharaoh_line("3-0", 1, m=2, n=1)

    def test_read_write_round_trip(self):
        lines = ["0-0 1-1", "", "2-0"]
        alignments = read_pharaoh(lines)
        assert [format_pharaoh_line(a) for a in alignments] == lines

    def test_harmonize_dims_pads_to_common_shape(self):
        a = parse_pharaoh_line("0-0", 1)
        b = parse_pharaoh_line("2-3", 1)
        a2, b2 = harmonize_dims(a, b)
        assert (a2.m, a2.n) == (b2.m, b2.n) == (3, 4)
        assert a2.links == a.links and b2.links == b.links
