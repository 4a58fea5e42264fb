import base64
import io
import os
import string
import struct
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from alignkit import cli, ttable
from alignkit.errors import DataFormatError
from alignkit.ttable import (
    HEADER,
    HEADER_V2,
    MSTEP_FLOOR,
    NULL_ID,
    TranslationTable,
    read_ttable,
    write_ttable,
)


def entries(table: TranslationTable) -> list[tuple[int, int, float]]:
    """(e, f, prob) of every entry, in the order of the table's rows."""
    return [(e, f, p) for e, row in table.rows.items() for f, p in row.items()]


ID_VALUES = st.one_of(
    st.sampled_from([NULL_ID, 0, 1, 2**62, -(2**62), 2**62 - 1]),
    st.integers(-(2**62), 2**62),
)
PROB_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072009e-308, 1e-12, 0.5]),
    st.floats(0.0, 1.0),
)
TRAILERS = [
    [],
    ["diag\t4.0\t0.08"],
    ["hmm\t1\t0.2", "jump\t-1\t0.25", "jump\t0\t0.5", "jump\t1\t0.25"],
]


# A small table of NULL_ID and ids far apart, and its v2 model file's lines.
SMALL = TranslationTable({NULL_ID: {3: 0.5, 2**62: 0.5}, 7: {3: 1.0}})
SMALL_LINES = oracles.model_text_v2(oracles.model_entries(SMALL), ["diag\t4.0\t0.08"]).splitlines()


def edited(line: int, text: str) -> list[str]:
    """SMALL_LINES with model line `line` replaced by text."""
    lines = list(SMALL_LINES)
    lines[line - 1] = text
    return lines


def text_file(lines: list[str]) -> bytes:
    """The bytes of the UTF-8 text file of lines."""
    return "".join(line + "\n" for line in lines).encode("utf-8")


def roundtrip(table: TranslationTable, trailer=()):
    buf = io.BytesIO()
    write_ttable(buf, table, trailer)
    return buf.getvalue(), read_ttable(buf.getvalue())


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
        data, (loaded, trailer, line_numbers) = roundtrip(table)
        assert trailer == line_numbers == []
        data2, _ = roundtrip(loaded)
        assert data2 == data

    def test_bytes_match_a_per_entry_reference(self):
        # Ids far apart; probabilities of every kind.
        size = 20_005
        rng = np.random.default_rng(3)
        es = np.repeat(np.arange(size // 5 + 1) * 2**40 - 1, 5)[:size]
        fs = np.tile([-(2**62), NULL_ID, 0, 9, 2**62], size // 5 + 1)[:size]
        probs = rng.random(size)
        probs[::7], probs[1::7], probs[2::7] = 0.0, 1.0, 5e-324
        table = TranslationTable.from_arrays(es, fs, probs)
        data, _ = roundtrip(table, ["diag\t4.0\t0.08"])
        assert data == oracles.model_bytes_v3(oracles.model_entries(table), ["diag\t4.0\t0.08"])
        table = TranslationTable({NULL_ID: {-(2**62): 5e-324}, 2**62: {0: 1.0}})
        data, _ = roundtrip(table, ["hmm\t1\t0.2"])
        assert data == oracles.model_bytes_v3(oracles.model_entries(table), ["hmm\t1\t0.2"])
        assert roundtrip(TranslationTable({}))[0] == f"{HEADER}\t0\n\n".encode()

    def test_header_is_required(self):
        with pytest.raises(DataFormatError, match="alignkit-ttable"):
            read_ttable(b"1\t2\t0.5\n")

    def test_trailer_lines_are_separated(self):
        table = TranslationTable({1: {2: 1.0}})
        _, (loaded, trailer, line_numbers) = roundtrip(table, ["diag\t4.0\t0.08"])
        assert trailer == ["diag\t4.0\t0.08"]
        assert line_numbers == [3]
        assert loaded.prob(1, 2) == 1.0

    def test_table_rows_after_trailer_are_rejected(self):
        lines = ["alignkit-ttable v1", "1\t2\t1.0", "diag\t0.0\t0.0", "3\t4\t1.0"]
        with pytest.raises(DataFormatError):
            read_ttable(text_file(lines))

    def test_probability_out_of_range_is_rejected(self):
        with pytest.raises(DataFormatError):
            read_ttable(text_file(["alignkit-ttable v1", "1\t2\t1.5"]))
        with pytest.raises(DataFormatError):
            read_ttable(text_file(["alignkit-ttable v1", "1\t2\tnan"]))

    def test_malformed_row_is_rejected(self):
        with pytest.raises(DataFormatError):
            read_ttable(text_file(["alignkit-ttable v1", "1\t2"]))

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
            read_ttable(text_file(["alignkit-ttable v1"] + rows))

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
            read_ttable(text_file(lines))

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
            SMALL_LINES,
            SMALL_LINES[:1] + ["", "", ""],
            SMALL_LINES + ["", "hmm\t1\t0.2", ""],
            edited(1, f"{HEADER_V2}\t2"),
            SMALL_LINES[:3],
        ],
    )
    def test_crlf_and_lf_text_files_read_alike(self, lines):
        # A v2 or v1 file is text: the table, the trailer, its line numbers
        # and every error message must not depend on its line endings.
        def outcome(data):
            try:
                table, *trailer = read_ttable(data)
            except DataFormatError as exc:
                return str(exc)
            return entries(table), trailer

        data = text_file(lines)
        assert outcome(data.replace(b"\n", b"\r\n")) == outcome(data)


def with_a_spare_bit(lines: list[str], line: int) -> list[str]:
    """lines with a spare bit set in the last base64 group of model line
    `line`, which must end in padding: the bytes it decodes to are the
    same, but the text is not the canonical one."""
    alphabet = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"
    text = lines[line - 1]
    k = len(text.rstrip("=")) - 1
    lines = list(lines)
    lines[line - 1] = text[:k] + alphabet[alphabet.index(text[k]) | 1] + text[k + 1 :]
    return lines


def encode(*values, code="<q") -> str:
    return base64.b64encode(struct.pack(f"<{len(values)}{code[1]}", *values)).decode()


# Each case: the v2 file's lines, and the line and words its error names.
MALFORMED = {
    "no-count": ([HEADER_V2] + SMALL_LINES[1:], 1, "entries, got ''"),
    "bad-count": (edited(1, f"{HEADER_V2}\tthree"), 1, "entries, got 'three'"),
    "negative-count": (edited(1, f"{HEADER_V2}\t-3"), 1, "entries, got '-3'"),
    "non-ascii-count": (edited(1, f"{HEADER_V2}\t\u0663"), 1, "entries, got"),
    "count-below-the-body": (edited(1, f"{HEADER_V2}\t2"), 2, "24 bytes of target ids, not the 16"),
    "count-above-the-body": (edited(1, f"{HEADER_V2}\t4"), 2, "24 bytes of target ids, not the 32"),
    "missing-line": (SMALL_LINES[:3], 4, "missing; expected the probabilities"),
    "no-body": (SMALL_LINES[:1], 2, "missing; expected the target ids"),
    "truncated-line": (edited(3, SMALL_LINES[2][:-4]), 3, "21 bytes of source ids, not the 24"),
    "cut-mid-group": (edited(3, SMALL_LINES[2][:-1]), 3, "source ids are not canonical base64"),
    "blank-body-line": (edited(2, ""), 2, "0 bytes of target ids, not the 24"),
    "space-in-the-body": (edited(4, " " + SMALL_LINES[3]), 4, "are not canonical base64"),
    "url-safe-alphabet": (
        edited(2, encode(NULL_ID, NULL_ID, 2**62 - 1).replace("/", "_")), 2, "not canonical base64"
    ),
    "surplus-padding": (edited(4, SMALL_LINES[3] + "===="), 4, "not canonical base64"),
    "spare-bits-set": (
        with_a_spare_bit(oracles.model_text_v2([(1, 2, 0.5), (1, 3, 0.5)]).splitlines(), 3),
        3, "source ids are not canonical base64",
    ),
    "unsorted-targets": (edited(2, encode(NULL_ID, 7, NULL_ID)), 2,
                         f"entry 3: \\(-1, 3\\) is not after \\(7, {2**62}\\)"),
    "unsorted-sources": (edited(3, encode(2**62, 3, 3)), 3,
                         f"entry 2: \\(-1, 3\\) is not after \\(-1, {2**62}\\)"),
    "repeated-entry": (edited(3, encode(3, 3, 3)), 3,
                       "entry 2: \\(-1, 3\\) is not after \\(-1, 3\\)"),
    "nan": (edited(4, encode(0.5, float("nan"), 1.0, code="<d")), 4,
            "entry 2: probability nan out of range"),
    "above-one": (edited(4, encode(0.5, 0.5, 1.0000000000000002, code="<d")), 4,
                  "entry 3: probability 1.0000000000000002 out of range"),
    "negative": (edited(4, encode(-1e-300, 0.5, 1.0, code="<d")), 4,
                 "entry 1: probability -1e-300 out of range"),
}


def check_is_an_error_naming_its_line(data: bytes, line: int, message: str, tmp_path, capsys):
    """read_ttable and `align` both reject the model file data, naming
    model line `line` and message; align names the path as well."""
    with pytest.raises(DataFormatError, match=f"^model line {line}: .*{message}"):
        read_ttable(data)
    model = tmp_path / "model"
    model.write_bytes(data)
    (tmp_path / "vocab").write_text("1\ta\t1\n", encoding="utf-8")
    (tmp_path / "bitext").write_text("a ||| a\n", encoding="utf-8")
    assert cli.main([
        "align", "--model-file", str(model), "--bitext", str(tmp_path / "bitext"),
        "--source-vocab", str(tmp_path / "vocab"), "--target-vocab", str(tmp_path / "vocab"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"alignkit: error: {model}: model line {line}: "), err
    assert err.count("\n") == 1


class TestModelFileV2:
    @given(
        cells=st.lists(
            st.tuples(ID_VALUES, ID_VALUES), unique=True, max_size=40
        ).map(sorted),
        data=st.data(),
        trailer=st.sampled_from(TRAILERS),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_reads_bitwise(self, cells, data, trailer):
        probs = data.draw(st.lists(PROB_VALUES, min_size=len(cells), max_size=len(cells)))
        es, fs = zip(*cells) if cells else ((), ())
        table = TranslationTable.from_arrays(es, fs, probs)
        text = oracles.model_text_v2(oracles.model_entries(table), trailer)
        loaded, loaded_trailer, line_numbers = read_ttable(text.encode())
        assert loaded.es.tobytes() == table.es.tobytes()
        assert loaded.fs.tobytes() == table.fs.tobytes()
        assert loaded.theta.tobytes() == table.theta.tobytes()
        assert loaded_trailer == list(trailer)
        assert line_numbers == list(range(5, 5 + len(trailer)))

    @pytest.mark.parametrize("case", MALFORMED)
    def test_a_malformed_file_is_an_error_naming_its_line(self, case, tmp_path, capsys):
        lines, line, message = MALFORMED[case]
        check_is_an_error_naming_its_line(text_file(lines), line, message, tmp_path, capsys)


def v3_edited(entries=oracles.model_entries(SMALL), trailer=("diag\t4.0\t0.08",), count=None,
              body=lambda body: body, tail=None) -> bytes:
    """The v3 file of entries and trailer, with its count, its body (by a
    function of the body's bytes) or the bytes after its body edited."""
    data = oracles.model_bytes_v3(entries, trailer)
    start = data.index(b"\n") + 1
    end = start + 24 * len(entries)
    head = data[:start] if count is None else f"{HEADER}\t{count}\n".encode()
    return head + body(data[start:end]) + (data[end:] if tail is None else tail)


def v3_entries(es, fs, probs) -> list[tuple]:
    return list(zip(es, fs, probs))


SMALL_ES, SMALL_FS, SMALL_PS = zip(*oracles.model_entries(SMALL))

# Each case: the v3 file's bytes, and the line and words its error names.
MALFORMED_V3 = {
    "no-count": (HEADER.encode() + v3_edited()[len(HEADER) + 2 :], 1, "entries, got ''"),
    "bad-count": (v3_edited(count="three"), 1, "entries, got 'three'"),
    "negative-count": (v3_edited(count="-3"), 1, "entries, got '-3'"),
    "non-utf8-count": (v3_edited().replace(b"\t3\n", b"\t\xff\n", 1), 1, "entries, got"),
    "no-newline-after-the-header": (f"{HEADER}\t0".encode(), 1, "no newline after the header"),
    "count-below-the-body": (v3_edited(count=2), 2, "more than the 48 bytes of 2 entries"),
    "count-above-the-body": (v3_edited(count=4), 2, "87 bytes of entries, not the 96 of 4"),
    "count-past-memory": (v3_edited(count=10**12), 2,
                          f"87 bytes of entries, not the {24 * 10**12} of {10**12}"),
    "body-cut-short": (v3_edited()[: len(HEADER) + 3 + 50], 2, "50 bytes of entries, not the 72"),
    "extra-bytes": (v3_edited(body=lambda body: body + b"\0"), 2,
                    "more than the 72 bytes of 3 entries"),
    "no-newline-after-the-body": (v3_edited(tail=b""), 2,
                                  "no newline after the 72 bytes of 3 entries"),
    "unsorted-targets": (v3_edited(v3_entries((NULL_ID, 7, NULL_ID), SMALL_FS, SMALL_PS)), 2,
                         f"entry 3: \\(-1, 3\\) is not after \\(7, {2**62}\\)"),
    "unsorted-sources": (v3_edited(v3_entries(SMALL_ES, (2**62, 3, 3), SMALL_PS)), 2,
                         f"entry 2: \\(-1, 3\\) is not after \\(-1, {2**62}\\)"),
    "repeated-entry": (v3_edited(v3_entries(SMALL_ES, (3, 3, 3), SMALL_PS)), 2,
                       "entry 2: \\(-1, 3\\) is not after \\(-1, 3\\)"),
    "nan": (v3_edited(v3_entries(SMALL_ES, SMALL_FS, (0.5, float("nan"), 1.0))), 2,
            "entry 2: probability nan out of range"),
    "above-one": (v3_edited(v3_entries(SMALL_ES, SMALL_FS, (0.5, 0.5, 1.0000000000000002))), 2,
                  "entry 3: probability 1.0000000000000002 out of range"),
    "negative": (v3_edited(v3_entries(SMALL_ES, SMALL_FS, (-1e-300, 0.5, 1.0))), 2,
                 "entry 1: probability -1e-300 out of range"),
    "non-utf8-trailer": (v3_edited(tail=b"\n\xffdiag\t4.0\t0.08\n"), 3, "not UTF-8"),
    "non-utf8-second-trailer-line": (v3_edited(tail=b"\ndiag\t4.0\t0.08\n\n\xe9\n"), 5,
                                     "not UTF-8"),
}


class TestModelFileV3:
    @given(
        cells=st.lists(
            st.tuples(ID_VALUES, ID_VALUES), unique=True, max_size=40
        ).map(sorted),
        data=st.data(),
        trailer=st.sampled_from(TRAILERS),
    )
    @example(cells=[], data=None, trailer=[])
    @example(cells=[(NULL_ID, 0), (NULL_ID, 2**62)], data=None, trailer=TRAILERS[2])
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_round_trip_is_bitwise(self, cells, data, trailer):
        if data is None:
            probs = [1.0 / max(len(cells), 1)] * len(cells)
        else:
            probs = data.draw(st.lists(PROB_VALUES, min_size=len(cells), max_size=len(cells)))
        es, fs = zip(*cells) if cells else ((), ())
        table = TranslationTable.from_arrays(es, fs, probs)
        written, (loaded, loaded_trailer, line_numbers) = roundtrip(table, trailer)
        assert written == oracles.model_bytes_v3(oracles.model_entries(table), trailer)
        assert loaded.es.tobytes() == table.es.tobytes()
        assert loaded.fs.tobytes() == table.fs.tobytes()
        assert loaded.theta.tobytes() == table.theta.tobytes()
        assert loaded_trailer == list(trailer)
        assert line_numbers == list(range(3, 3 + len(trailer)))

    def test_the_table_keeps_nothing_of_the_file_alive(self):
        _, (loaded, _, _) = roundtrip(SMALL)
        for array in (loaded.es, loaded.fs, loaded.theta):
            assert array.base is None and array.flags.aligned

    def test_blank_trailer_lines_are_skipped_but_counted(self):
        data = v3_edited(tail=b"\n\ndiag\t4.0\t0.08\n\n")
        assert read_ttable(data)[1:] == (["diag\t4.0\t0.08"], [4])

    @pytest.mark.parametrize("case", MALFORMED_V3)
    def test_a_malformed_file_is_an_error_naming_its_line(self, case, tmp_path, capsys):
        data, line, message = MALFORMED_V3[case]
        check_is_an_error_naming_its_line(data, line, message, tmp_path, capsys)


def pieced_table() -> TranslationTable:
    """A table of 700 entries with NULL_ID and ids far apart."""
    rng = np.random.default_rng(9)
    es = np.repeat(np.arange(-1, 99), 7)
    fs = np.tile(np.arange(7), 100) * 2**40
    return TranslationTable.from_arrays(es, fs, rng.random(len(es)))


class TestWriters:
    # write_ttable writes in this process; these pin that it needs no
    # os.fork and starts no process, with or without threads.
    def test_without_fork_one_process_writes_everything(self, tmp_path, monkeypatch):
        table, trailer = pieced_table(), ["diag\t4.0\t0.08"]
        want = oracles.model_bytes_v3(oracles.model_entries(table), trailer)
        monkeypatch.delattr(os, "fork")
        buf = io.BytesIO()
        write_ttable(buf, table, trailer)
        assert buf.getvalue() == want
        path = tmp_path / "model"
        with open(path, "wb") as fh:
            write_ttable(fh, table, trailer)
        assert path.read_bytes() == want

    def test_nothing_forks_while_other_threads_run(self, monkeypatch):
        forks = []

        def no_fork():
            forks.append(os.getpid())
            raise AssertionError("write_ttable forked")

        monkeypatch.setattr(os, "fork", no_fork)
        table, release = pieced_table(), threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            assert threading.active_count() >= 2
            buf = io.BytesIO()
            write_ttable(buf, table)
        finally:
            release.set()
            other.join()
        assert buf.getvalue() == oracles.model_bytes_v3(oracles.model_entries(table))
        assert forks == []


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
        table, trailer, _ = read_ttable(b"alignkit-ttable v1\n")
        assert len(table) == 0 and trailer == []
        assert table.slots([[1], [NULL_ID]], [3, 4]).tolist() == [[0, 0]] * 2
        assert table.theta.tolist() == [0.0, 0.0]


class TestRank:
    """_rank reads ids through lookup arrays where the span of values
    shared with the sorted ids is small, and by binary search otherwise;
    both must give oracles.rank_by_search's positions and flags, and slots
    must map every unknown id to the miss slot."""

    ODD_IDS = [NULL_ID, -2, -7, 2**62, -(2**62), 2**63 - 1, -(2**63)]

    def queries(self, rng, sorted_ids):
        """Ids around and between sorted_ids, with ODD_IDS mixed in."""
        lo, hi = int(sorted_ids[0]), int(sorted_ids[-1])
        ids = rng.integers(lo - 3, hi + 4, size=int(rng.integers(1, 60)))
        odd = rng.choice(self.ODD_IDS, size=int(rng.integers(0, 3)))
        return rng.permutation(np.concatenate([ids, odd]).astype(np.int64))

    @pytest.mark.parametrize("dense_span", [0, ttable.DENSE_SPAN, 50])
    def test_matches_binary_search(self, dense_span, monkeypatch):
        monkeypatch.setattr(ttable, "DENSE_SPAN", dense_span)
        rng = np.random.default_rng(12)
        for _ in range(200):
            sorted_ids = np.unique(rng.integers(-2, 30, size=int(rng.integers(1, 12))))
            if rng.random() < 0.2:
                sorted_ids = np.append(sorted_ids, rng.choice([2**62, 10**14]))
            for ids in (self.queries(rng, sorted_ids), np.empty(0, dtype=np.int64)):
                pos, known = ttable._rank(sorted_ids, ids)
                want_pos, want_known = oracles.rank_by_search(sorted_ids, ids)
                np.testing.assert_array_equal(pos, want_pos)
                np.testing.assert_array_equal(known, want_known)

    def test_huge_ids_size_no_lookup_array(self):
        # A lookup array over any of these spans would not fit in memory.
        for sorted_ids, ids in [
            ([0, 2**62], [2**62, 0, 2**62]),
            ([-(2**63), 5], [-(2**63), 5]),
            ([7, 2**63 - 1], [2**63 - 1, 7, 2**63 - 1]),
        ]:
            sorted_ids, ids = np.array(sorted_ids), np.array(ids)
            pos, known = ttable._rank(sorted_ids, ids)
            np.testing.assert_array_equal(pos, oracles.rank_by_search(sorted_ids, ids)[0])
            assert known.all()

    @pytest.mark.parametrize("dense_span", [0, ttable.DENSE_SPAN])
    def test_slots_match_binary_search(self, dense_span, monkeypatch):
        monkeypatch.setattr(ttable, "DENSE_SPAN", dense_span)
        rng = np.random.default_rng(13)
        for _ in range(100):
            rows = {
                int(e): {int(f): 1.0 for f in rng.integers(0, 20, size=int(rng.integers(1, 5)))}
                for e in rng.integers(-1, 15, size=int(rng.integers(1, 6)))
            }
            if rng.random() < 0.2:
                rows[2**62] = {2**62: 1.0}
            table = TranslationTable(rows)
            entries = list(zip(table.es.tolist(), table.fs.tolist()))
            es = self.queries(rng, table.row_ids)
            fs = self.queries(rng, np.unique(table.fs))[: len(es)]
            es = es[: len(fs)]
            for query in [(es, fs), (es[:, None], fs), (es[:0], fs[:0])]:
                np.testing.assert_array_equal(
                    table.slots(*query), oracles.slots_by_search(entries, *query)
                )
            assert table.slots(es[0], fs[0]) == oracles.slots_by_search(entries, es[0], fs[0])


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
