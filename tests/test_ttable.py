import io

import pytest

from alignkit.errors import DataFormatError
from alignkit.ttable import NULL_ID, TranslationTable, read_ttable, write_ttable


def roundtrip(table: TranslationTable, trailer=()):
    buf = io.StringIO()
    write_ttable(buf, table, trailer)
    return buf.getvalue(), read_ttable(buf.getvalue().splitlines())


class TestTranslationTable:
    def test_prob_lookup_and_floor(self):
        table = TranslationTable({3: {7: 0.25}})
        assert table.prob(3, 7) == 0.25
        assert table.prob(3, 99) == 0.0
        assert table.prob(3, 99, floor=1e-12) == 1e-12
        assert table.prob(5, 7, floor=1e-12) == 1e-12

    def test_entries_sorted_by_target_then_source(self):
        table = TranslationTable({2: {5: 0.5, 1: 0.5}, NULL_ID: {9: 1.0}})
        assert list(table.entries()) == [(NULL_ID, 9, 1.0), (2, 1, 0.5), (2, 5, 0.5)]

    def test_row_sum_error(self):
        assert TranslationTable({1: {2: 0.5, 3: 0.5}}).row_sum_error() == 0.0
        assert TranslationTable({1: {2: 0.7}}).row_sum_error() == pytest.approx(0.3)


class TestModelFileFormat:
    def test_round_trip_is_bitwise(self):
        table = TranslationTable(
            {NULL_ID: {1: 1 / 3, 2: 2 / 3}, 4: {1: 0.1234567890123456789, 2: 1e-300}}
        )
        text, (loaded, trailer) = roundtrip(table)
        assert trailer == []
        text2, _ = roundtrip(loaded)
        assert text2 == text

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
