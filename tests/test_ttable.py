import io

import numpy as np
import pytest

from alignkit.errors import DataFormatError
from alignkit.ttable import (
    _WRITE_BATCH,
    HEADER,
    MSTEP_FLOOR,
    NULL_ID,
    TranslationTable,
    read_ttable,
    write_ttable,
)


def entries(table: TranslationTable) -> list[tuple[int, int, float]]:
    """(e, f, prob) of every entry, in the order of the table's rows."""
    return [(e, f, p) for e, row in table.rows.items() for f, p in row.items()]


def roundtrip(table: TranslationTable, trailer=()):
    buf = io.StringIO()
    write_ttable(buf, table, trailer)
    return buf.getvalue(), read_ttable(buf.getvalue().splitlines())


class TestTranslationTable:
    def test_prob_lookup_and_floor(self):
        table = TranslationTable({3: {7: 0.25}})
        assert table.prob(3, 7) == 0.25
        assert table.prob(3, 99) == 0.0
        assert table.prob(5, 7) == 0.0

    def test_entries_sorted_by_target_then_source(self):
        table = TranslationTable({2: {5: 0.5, 1: 0.5}, NULL_ID: {9: 1.0}})
        assert entries(table) == [(NULL_ID, 9, 1.0), (2, 1, 0.5), (2, 5, 0.5)]

    def test_row_sum_error(self):
        assert TranslationTable({1: {2: 0.5, 3: 0.5}}).worst_row() == (1, 1.0)
        e, total = TranslationTable({1: {2: 0.5, 3: 0.5}, 4: {2: 0.7}}).worst_row()
        assert e == 4 and total == pytest.approx(0.7)
        assert TranslationTable({}).worst_row() == (None, 1.0)


class TestModelFileFormat:
    def test_round_trip_is_bitwise(self):
        table = TranslationTable(
            {NULL_ID: {1: 1 / 3, 2: 2 / 3}, 4: {1: 0.1234567890123456789, 2: 1e-300}}
        )
        text, (loaded, trailer) = roundtrip(table)
        assert trailer == []
        text2, _ = roundtrip(loaded)
        assert text2 == text

    def test_bytes_match_a_per_entry_reference(self):
        # Two one-entry rows, then three-entry rows, so that the row at the
        # batch boundary straddles it; source ids repeat in every batch.
        patterns = [{1: 5e-324, 4: 1e-12, 9: 1 - 1e-12}, {2: 1 / 3, 3: 1 / 3, 7: 1 / 3}]
        rows = {NULL_ID: {5: 1.0}, 0: {8: 1.0}}
        rows.update((e, patterns[e % 2]) for e in range(1, _WRITE_BATCH // 3 + 10))
        table = TranslationTable(rows)
        assert len(table) > _WRITE_BATCH
        assert table.es[_WRITE_BATCH - 1] == table.es[_WRITE_BATCH]
        buf = io.StringIO()
        write_ttable(buf, table, ["diag\t4.0\t0.08"])
        reference = "".join(f"{e}\t{f}\t{p!r}\n" for e, f, p in entries(table))
        assert buf.getvalue() == f"{HEADER}\n{reference}diag\t4.0\t0.08\n"
        empty = io.StringIO()
        write_ttable(empty, TranslationTable({}))
        assert empty.getvalue() == f"{HEADER}\n"

    def test_header_is_required(self):
        with pytest.raises(DataFormatError, match="alignkit-ttable"):
            read_ttable(["1\t2\t0.5"])

    def test_trailer_lines_are_separated(self):
        table = TranslationTable({1: {2: 1.0}})
        _, (loaded, trailer) = roundtrip(table, ["diag\t4.0\t0.08"])
        assert trailer == ["diag\t4.0\t0.08"]
        assert loaded.prob(1, 2) == 1.0

    def test_table_rows_after_trailer_are_rejected(self):
        lines = ["alignkit-ttable v1", "1\t2\t1.0", "diag\t0.0\t0.0", "3\t4\t1.0"]
        with pytest.raises(DataFormatError):
            read_ttable(lines)

    def test_probability_out_of_range_is_rejected(self):
        with pytest.raises(DataFormatError):
            read_ttable(["alignkit-ttable v1", "1\t2\t1.5"])
        with pytest.raises(DataFormatError):
            read_ttable(["alignkit-ttable v1", "1\t2\tnan"])

    def test_malformed_row_is_rejected(self):
        with pytest.raises(DataFormatError):
            read_ttable(["alignkit-ttable v1", "1\t2"])

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["1\t2\t0.5", "1\t2\t0.5"], "model line 3: \\(1, 2\\) is not after \\(1, 2\\)"),
            (["1\t3\t0.5", "1\t2\t0.5"], "model line 3: \\(1, 2\\) is not after \\(1, 3\\)"),
            (["2\t1\t0.5", "", "1\t2\t0.5"], "model line 4: \\(1, 2\\) is not after \\(2, 1\\)"),
        ],
    )
    def test_rows_must_be_sorted_without_repeats(self, rows, message):
        with pytest.raises(DataFormatError, match=message):
            read_ttable(["alignkit-ttable v1"] + rows)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1\t2", "model line 4: expected e<TAB>f<TAB>prob"),
            ("1\tx\t0.5", "model line 4: expected e<TAB>f<TAB>prob"),
            ("1\t3\t0.5x", "model line 4: expected e<TAB>f<TAB>prob"),
            ("1\t3_0\t0.5", "model line 4: expected e<TAB>f<TAB>prob"),
            ("1\t99999999999999999999\t0.5", "model line 4: expected e<TAB>f<TAB>prob"),
            ("1\t3\t0.5", "model line 5: table row after trailer"),
            ("1\t3\t2.5", "model line 4: probability 2.5 out of range"),
        ],
    )
    def test_bad_row_names_its_line(self, bad, message):
        lines = ["alignkit-ttable v1", "1\t1\t0.5", "", bad, "1\t4\t0.5", "diag\t4.0\t0.08"]
        if "trailer" in message:
            lines[3:4] = ["diag\t4.0\t0.08", bad]
        with pytest.raises(DataFormatError, match=message):
            read_ttable(lines)

    @pytest.mark.parametrize(
        "lines",
        [
            ["alignkit-ttable v1", "", "1\t1\t0.5", "", "1\t4\t0.5", "", "diag\t4.0\t0.08", ""],
            ["alignkit-ttable v1", "", ""],
            [],
            ["1\t2\t0.5"],
            ["alignkit-ttable v1", "1\t1\t0.5", "", "1\t2", "diag\t4.0\t0.08"],
            ["alignkit-ttable v1", "1\t1\t0.5", "", "diag\t4.0\t0.08", "1\t3\t0.5", "hmm"],
            ["alignkit-ttable v1", "2\t1\t0.5", "", "1\t2\t0.5"],
            ["alignkit-ttable v1", "1\t1\t0.5", "", "1\t3\t2.5"],
        ],
    )
    def test_lines_with_and_without_newlines_read_alike(self, lines):
        # A model file's lines come split (from the CLI) or as a file
        # yields them; the table, the trailer and every error message,
        # model line numbers included, must not depend on which.
        def outcome(given):
            try:
                table, trailer = read_ttable(given)
            except DataFormatError as exc:
                return str(exc)
            return entries(table), trailer

        text = "".join(line + "\n" for line in lines)
        expected = outcome(lines)
        assert outcome([line + "\n" for line in lines]) == expected
        assert outcome(io.StringIO(text)) == expected
        assert outcome(text.splitlines()) == expected


class TestSlots:
    def test_ids_outside_the_table_miss_instead_of_aliasing(self):
        table = TranslationTable({1: {0: 0.6, 5: 0.4}, 2: {0: 0.3, 5: 0.7}})
        # Unguarded, each of these would alias into an entry: a source id
        # past the last into the next row, the others into a neighbour.
        cells = [(1, 7), (1, -3), (1, 3), (0, 0), (-1, 5), (3, 0)]
        es, fs = zip(*cells)
        assert table.slots(es, fs).tolist() == [len(table)] * len(cells)
        assert [table.prob(e, f) for e, f in cells] == [0.0] * len(cells)
        assert table.slots([1, 2, 2], [5, 0, 5]).tolist() == [1, 2, 3]

    def test_empty_table_misses_everything(self):
        table, trailer = read_ttable(["alignkit-ttable v1"])
        assert len(table) == 0 and trailer == []
        assert table.slots([[1], [NULL_ID]], [3, 4]).tolist() == [[0, 0]] * 2
        assert table.theta.tolist() == [0.0, 0.0]


def reference_normalized(table: TranslationTable, counts) -> dict:
    """The M-step row by row: each count floored at MSTEP_FLOOR, over its
    row's floored sum, as {e: {f: prob}}."""
    counts = iter(counts.tolist())
    rows = {}
    for e, row in table.rows.items():
        floored = {f: max(next(counts), MSTEP_FLOOR) for f in row}
        total = sum(floored.values())
        rows[e] = {f: c / total for f, c in floored.items()}
    return rows


class TestNormalized:
    def test_matches_the_per_row_reference(self):
        rng = np.random.default_rng(17)
        rows = {
            NULL_ID: {f: 0.1 for f in range(10)},
            1: {3: 1.0},  # one entry
            2: {0: 0.5, 7: 0.5},  # every count below the floor
            5: {f: 0.2 for f in (1, 4, 6, 8, 9)},
            8: {2: 1.0},  # one entry, count 0
        }
        table = TranslationTable(rows)
        counts = rng.uniform(0.0, 3.0, size=len(table))
        es = table.es.tolist()
        counts[es.index(2) : es.index(2) + 2] = [0.0, MSTEP_FLOOR / 4]
        counts[es.index(8)] = 0.0
        before = counts.copy()
        got = table.normalized(counts)
        assert got.theta.shape == (len(table) + 2,)
        assert got.theta[-2:].tolist() == [0.0, 0.0]  # the miss and pad slots
        assert counts.tobytes() == before.tobytes()
        assert got.es is table.es and got.fs is table.fs
        want = reference_normalized(table, counts)
        assert list(got.rows) == list(want)
        for e, row in want.items():
            assert list(got.rows[e]) == list(row)
            # numpy sums a row in another order than Python: a few ulps.
            np.testing.assert_allclose(list(got.rows[e].values()), list(row.values()),
                                       rtol=8 * np.finfo(float).eps, atol=0.0)
        assert got.rows[1][3] == got.rows[8][2] == 1.0
        assert list(got.rows[2].values()) == [0.5, 0.5]

    def test_the_empty_table(self):
        table = TranslationTable({})
        got = table.normalized(np.zeros(0))
        assert len(got) == 0
        assert got.theta.tolist() == [0.0, 0.0]

    def test_with_probs_does_not_reuse_cached_views(self):
        table = TranslationTable({1: {2: 0.25, 3: 0.75}, 4: {2: 1.0}})
        assert table.rows[1][3] == 0.75
        assert table.slots([1, 4], [3, 2]).tolist() == [1, 2]  # builds _cell_keys
        new = table.with_probs(np.array([0.5, 0.5, 1.0]))
        rows = {e: dict(row) for e, row in new.rows.items()}
        assert rows == {1: {2: 0.5, 3: 0.5}, 4: {2: 1.0}}
        assert new.prob(1, 3) == 0.5 and new.prob(4, 3) == 0.0
        assert new.theta.tolist() == [0.5, 0.5, 1.0, 0.0, 0.0]
        assert table.rows[1][3] == table.prob(1, 3) == 0.75
