"""End-to-end command-line tests, run in-process via cli.main()."""

import io
import logging
import os
import stat
import sys

import numpy as np
import pytest

from alignkit import _packed, cli, hmm, model2
from alignkit.alignment import (
    harmonize_dims,
    parse_pharaoh_line,
    symmetrize,
    transpose,
)
import oracles
from alignkit.ttable import HEADER, NULL_ID, TranslationTable, read_ttable, write_ttable

TOY = "das haus ||| the house\ndas buch ||| the book\n"


def read(path):
    return path.read_text(encoding="utf-8")


class TestSynth:
    def test_writes_reproducible_files(self, tmp_path):
        args = [
            "synth", "--pairs", "12", "--vocab-size", "30", "--seed", "5",
            "--swap-rate", "0.2",
        ]
        first = tmp_path / "a"
        second = tmp_path / "b"
        for stem in (first, second):
            code = cli.main(args + [
                "--output-bitext", str(stem) + ".txt",
                "--output-gold", str(stem) + ".gold",
            ])
            assert code == 0
        assert read(first.with_suffix(".txt")) == read(second.with_suffix(".txt"))
        assert read(first.with_suffix(".gold")) == read(second.with_suffix(".gold"))
        assert len(read(first.with_suffix(".txt")).splitlines()) == 12

    def test_pharaoh_gold_format(self, tmp_path):
        code = cli.main([
            "synth", "--pairs", "3", "--vocab-size", "10",
            "--min-len", "2", "--max-len", "2", "--seed", "1",
            "--output-bitext", str(tmp_path / "bitext.txt"),
            "--output-gold", str(tmp_path / "gold.txt"),
            "--gold-format", "pharaoh",
        ])
        assert code == 0
        assert read(tmp_path / "gold.txt") == "0-0 1-1\n" * 3

    def test_one_output_may_be_stdout(self, tmp_path, capsys):
        # Both files are written in one pass, so they cannot share stdout.
        args = ["synth", "--pairs", "4", "--vocab-size", "10", "--seed", "1"]
        files = ["--output-bitext", str(tmp_path / "b.txt"), "--output-gold", str(tmp_path / "g")]
        assert cli.main(args + files) == 0
        assert cli.main(args + files[:2] + ["--output-gold", "-"]) == 0
        assert capsys.readouterr().out == read(tmp_path / "g")
        assert cli.main(args + ["--output-bitext", "-"] + files[2:]) == 0
        assert capsys.readouterr().out == read(tmp_path / "b.txt")
        assert cli.main(args + ["--output-bitext", "-", "--output-gold", "-"]) == 1
        assert capsys.readouterr() == (
            "", "alignkit: error: only one of --output-bitext/--output-gold may be stdout\n"
        )

    @pytest.mark.parametrize("gold", ["./s.txt", "link"])
    def test_outputs_naming_one_file_are_a_usage_error(self, tmp_path, monkeypatch, capsys, gold):
        # Opening the second output would unlink the first, and the bitext
        # would be lost with exit code 0.
        monkeypatch.chdir(tmp_path)
        os.symlink("s.txt", "link")
        args = ["synth", "--pairs", "3", "--output-bitext", "s.txt", "--output-gold", gold]
        assert cli.main(args) == 1
        assert capsys.readouterr() == (
            "", f"alignkit: error: --output-bitext and --output-gold name one file: {gold}\n"
        )
        assert sorted(os.listdir()) == ["link"] and not os.path.exists("link")

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        code = cli.main([
            "synth", "--pairs", "3", "--seed", "-1",
            "--output-bitext", str(tmp_path / "bitext.txt"),
            "--output-gold", str(tmp_path / "gold.txt"),
        ])
        assert code == 1
        assert "alignkit: error: seed must be >= 0, got -1" in capsys.readouterr().err


class TestTrain:
    def train_toy(self, tmp_path, *extra):
        bitext = tmp_path / "toy.txt"
        bitext.write_text(TOY, encoding="utf-8")
        model = tmp_path / "toy.model"
        code = cli.main(
            ["train", "--bitext", str(bitext), "--output", str(model)] + list(extra)
        )
        return code, model

    def test_writes_model_and_vocabularies(self, tmp_path):
        code, model = self.train_toy(tmp_path)
        assert code == 0
        assert read(model).startswith(f"{HEADER}\t")
        assert (tmp_path / "toy.model.source-vocab").exists()
        assert (tmp_path / "toy.model.target-vocab").exists()

    def test_reports_per_iteration_likelihood(self, tmp_path, capsys):
        code, _ = self.train_toy(tmp_path, "--iters", "3")
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("log-likelihood") == 3
        assert "iteration 3" in err

    def test_quiet_silences_the_trace(self, tmp_path, capsys):
        code, _ = self.train_toy(tmp_path, "--quiet")
        assert code == 0
        assert "log-likelihood" not in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["model1", "model2", "hmm"])
    def test_training_reports_no_likelihood_drop(self, tmp_path, caplog, kind):
        with caplog.at_level(logging.WARNING):
            code, _ = self.train_toy(tmp_path, "--model", kind, "--iters", "5")
        assert code == 0
        assert not [r for r in caplog.records if "is below iteration" in r.getMessage()]

    def test_output_to_a_device_writes_no_sidecars(self, tmp_path):
        (tmp_path / "null.model").symlink_to(os.devnull)
        bitext = tmp_path / "toy.txt"
        bitext.write_text(TOY, encoding="utf-8")
        code = cli.main(
            ["train", "--bitext", str(bitext), "--output", str(tmp_path / "null.model")]
        )
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["null.model", "toy.txt"]

    def test_flat_model2_matches_model1(self, tmp_path):
        bitext = tmp_path / "toy.txt"
        bitext.write_text(TOY, encoding="utf-8")
        m1 = tmp_path / "m1.model"
        m2 = tmp_path / "m2.model"
        assert cli.main([
            "train", "--bitext", str(bitext), "--output", str(m1),
            "--model", "model1", "--no-null", "--iters", "4",
        ]) == 0
        assert cli.main([
            "train", "--bitext", str(bitext), "--output", str(m2),
            "--model", "model2", "--lambda", "0", "--p0", "0", "--iters", "4",
        ]) == 0
        table1, _ = read_ttable(read(m1).splitlines())
        table2 = model2.model_from(*read_ttable(read(m2).splitlines())).table
        assert set(table1.rows) == set(table2.rows)
        for e, row in table1.rows.items():
            for f, p in row.items():
                assert table2.rows[e][f] == pytest.approx(p, abs=1e-12)

    def test_zero_iterations_is_a_usage_error(self, tmp_path, capsys):
        code, _ = self.train_toy(tmp_path, "--iters", "0")
        assert code == 1
        assert "iterations must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, config", [("model2", model2.Model2Config), ("hmm", hmm.HmmConfig)]
    )
    def test_p0_defaults_to_the_config_default(self, tmp_path, kind, config):
        for extra, want in [((), config().p0), (("--p0", "0.3"), 0.3)]:
            code, model = self.train_toy(tmp_path, "--model", kind, "--iters", "1", *extra)
            assert code == 0
            trailer = read_ttable(read(model).splitlines())[1]
            assert float(trailer[0].split("\t")[2]) == want

    def test_model2_rejects_null_flags(self, tmp_path, capsys):
        code, _ = self.train_toy(tmp_path, "--model", "model2", "--no-null")
        assert code == 1
        assert "--p0" in capsys.readouterr().err

    def test_hmm_model_round_trips_through_align(self, tmp_path):
        code, model = self.train_toy(
            tmp_path, "--model", "hmm", "--iters", "3", "--no-null"
        )
        assert code == 0
        out = tmp_path / "aligned.txt"
        assert cli.main([
            "align", "--model-file", str(model),
            "--bitext", str(tmp_path / "toy.txt"), "--output", str(out),
        ]) == 0
        assert len(read(out).splitlines()) == 2

    def test_empty_bitext_is_a_data_error(self, tmp_path, capsys):
        bitext = tmp_path / "empty.txt"
        bitext.write_text("", encoding="utf-8")
        code = cli.main([
            "train", "--bitext", str(bitext), "--output", str(tmp_path / "m"),
        ])
        assert code == 2
        assert "no usable sentence pairs" in capsys.readouterr().err


class TestAlign:
    @pytest.fixture
    def toy_model(self, tmp_path):
        bitext = tmp_path / "toy.txt"
        bitext.write_text(TOY, encoding="utf-8")
        model = tmp_path / "toy.model"
        assert cli.main([
            "train", "--bitext", str(bitext), "--output", str(model),
            "--iters", "20", "--no-null",
        ]) == 0
        return bitext, model

    def test_decodes_the_training_corpus(self, toy_model, tmp_path):
        bitext, model = toy_model
        out = tmp_path / "aligned.txt"
        assert cli.main([
            "align", "--model-file", str(model), "--bitext", str(bitext),
            "--output", str(out),
        ]) == 0
        assert read(out) == "0-0 1-1\n0-0 1-1\n"

    def test_streams_stdin_to_stdout(self, toy_model, capsys, monkeypatch):
        _, model = toy_model
        monkeypatch.setattr(sys, "stdin", io.StringIO("das haus ||| the house\n"))
        assert cli.main(["align", "--model-file", str(model), "--bitext", "-"]) == 0
        assert capsys.readouterr().out == "0-0 1-1\n"

    def test_empty_side_produces_a_blank_line(self, toy_model, tmp_path, caplog):
        bitext, model = toy_model
        weird = tmp_path / "weird.txt"
        weird.write_text(" ||| the house\ndas haus ||| the house\n", encoding="utf-8")
        out = tmp_path / "aligned.txt"
        with caplog.at_level(logging.WARNING):
            assert cli.main([
                "align", "--model-file", str(model), "--bitext", str(weird),
                "--output", str(out),
            ]) == 0
        assert read(out) == "\n0-0 1-1\n"
        assert any("empty side" in r.message for r in caplog.records)

    @pytest.mark.parametrize(
        "text, expected",
        [("", ""), (" ||| the house\ndas ||| \n", "\n\n")],
        ids=["no-lines", "empty-sides"],
    )
    def test_hmm_model_aligns_a_bitext_with_no_usable_pair(self, tmp_path, text, expected):
        bitext, model = tmp_path / "toy.txt", tmp_path / "toy.model"
        bitext.write_text(TOY, encoding="utf-8")
        assert cli.main([
            "train", "--model", "hmm", "--bitext", str(bitext), "--output", str(model),
        ]) == 0
        weird, out = tmp_path / "weird.txt", tmp_path / "aligned.txt"
        weird.write_text(text, encoding="utf-8")
        assert cli.main([
            "align", "--model-file", str(model), "--bitext", str(weird),
            "--output", str(out),
        ]) == 0
        assert read(out) == expected

    def test_unknown_tokens_are_mapped_and_reported(self, toy_model, tmp_path, caplog):
        bitext, model = toy_model
        unk = tmp_path / "unk.txt"
        unk.write_text("das zug ||| the house\n", encoding="utf-8")
        out = tmp_path / "aligned.txt"
        with caplog.at_level(logging.WARNING):
            assert cli.main([
                "align", "--model-file", str(model), "--bitext", str(unk),
                "--output", str(out),
            ]) == 0
        assert len(read(out).splitlines()) == 1
        assert any("out of vocabulary" in r.message for r in caplog.records)

    @pytest.mark.parametrize("model_name", ["model1", "hmm"])
    def test_a_huge_target_id_in_the_model_changes_nothing(self, tmp_path, model_name):
        # No corpus id reaches the extra row, and a lookup array sized by
        # its id would not fit in memory.
        bitext, model = tmp_path / "toy.txt", tmp_path / "toy.model"
        bitext.write_text(TOY, encoding="utf-8")
        assert cli.main([
            "train", "--model", model_name, "--bitext", str(bitext), "--output", str(model),
        ]) == 0
        table, trailer = read_ttable(read(model).splitlines())
        table = TranslationTable.from_arrays(
            np.append(table.es, 10**14), np.append(table.fs, 0), np.append(table.theta[:-2], 1.0)
        )
        huge = tmp_path / "huge.model"
        with open(huge, "w", encoding="utf-8") as out:
            write_ttable(out, table, trailer)
        aligned = []
        for path in (model, huge):
            out = tmp_path / f"{path.name}.al"
            assert cli.main([
                "align", "--model-file", str(path), "--bitext", str(bitext),
                "--output", str(out), "--source-vocab", f"{model}.source-vocab",
                "--target-vocab", f"{model}.target-vocab",
            ]) == 0
            aligned.append(out.read_bytes())
        assert aligned[0] == aligned[1] == b"0-0 1-1\n0-0 1-1\n"

    def test_row_not_summing_to_one_is_a_data_error(self, toy_model, capsys):
        bitext, model = toy_model
        table, trailer = read_ttable(read(model).splitlines())
        e = int(table.es[0])
        probs = np.where(table.es == e, table.theta[:-2] / 2, table.theta[:-2])
        with open(model, "w", encoding="utf-8") as out:
            write_ttable(out, table.with_probs(probs), trailer)
        code = cli.main(["align", "--model-file", str(model), "--bitext", str(bitext)])
        assert code == 2
        assert f"target id {e} sum to" in capsys.readouterr().err

    def test_repeated_token_in_a_vocabulary_sidecar_is_a_data_error(
        self, toy_model, tmp_path, capsys
    ):
        bitext, model = toy_model
        sidecar = tmp_path / "toy.model.source-vocab"
        lines = read(sidecar).splitlines()
        token = lines[0].split("\t")[1]
        idx, _, count = lines[1].split("\t")
        lines[1] = f"{idx}\t{token}\t{count}"
        sidecar.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = cli.main(["align", "--model-file", str(model), "--bitext", str(bitext)])
        assert code == 2
        assert f"vocabulary line 2: repeated token {token!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_vocabulary_error_names_the_sidecar(self, toy_model, tmp_path, capsys, side):
        bitext, model = toy_model
        sidecar = tmp_path / f"toy.model.{side}-vocab"
        sidecar.write_text("1\tonly-two-fields\n", encoding="utf-8")
        code = cli.main(["align", "--model-file", str(model), "--bitext", str(bitext)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{sidecar}: vocabulary line 1: expected 3 tab-separated fields" in err
        other = "target" if side == "source" else "source"
        assert f"{other}-vocab" not in err

    def test_missing_vocabulary_sidecar_is_explained(self, toy_model, tmp_path, capsys):
        bitext, model = toy_model
        (tmp_path / "toy.model.source-vocab").unlink()
        code = cli.main([
            "align", "--model-file", str(model), "--bitext", str(bitext),
        ])
        assert code == 2
        assert "--source-vocab" in capsys.readouterr().err


class TestSymmetrize:
    def test_matches_the_library(self, tmp_path, capsys):
        fwd_lines = ["0-0 1-2", "0-1"]
        rev_lines = ["0-0 2-1", "1-0"]  # reverse orientation: target-source
        (tmp_path / "fwd.txt").write_text("\n".join(fwd_lines) + "\n", encoding="utf-8")
        (tmp_path / "rev.txt").write_text("\n".join(rev_lines) + "\n", encoding="utf-8")
        assert cli.main([
            "symmetrize", "--forward", str(tmp_path / "fwd.txt"),
            "--backward", str(tmp_path / "rev.txt"),
        ]) == 0
        got = capsys.readouterr().out.splitlines()
        for line, fraw, rraw in zip(got, fwd_lines, rev_lines):
            fwd = parse_pharaoh_line(fraw, 1)
            rev = transpose(parse_pharaoh_line(rraw, 1))
            fwd, rev = harmonize_dims(fwd, rev)
            expected = symmetrize(fwd, rev, "grow-diag-final")
            assert line == " ".join(f"{j}-{i}" for j, i in expected.sorted_links())

    def test_two_stdins_are_rejected(self, capsys):
        assert cli.main(["symmetrize", "--forward", "-", "--backward", "-"]) == 1
        assert "stdin" in capsys.readouterr().err

    def test_bad_backward_line_names_the_file_and_writes_nothing(self, tmp_path, capsys):
        (tmp_path / "fwd.txt").write_text("0-0 1-1\n0-0\n", encoding="utf-8")
        (tmp_path / "rev.txt").write_text("0-0 1-1\n0-x\n", encoding="utf-8")
        code = cli.main([
            "symmetrize", "--forward", str(tmp_path / "fwd.txt"),
            "--backward", str(tmp_path / "rev.txt"),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{tmp_path / 'rev.txt'}: alignment line 2: bad field '0-x'" in captured.err

    def test_line_count_mismatch_is_a_data_error(self, tmp_path, capsys):
        (tmp_path / "fwd.txt").write_text("0-0\n0-0\n", encoding="utf-8")
        (tmp_path / "rev.txt").write_text("0-0\n", encoding="utf-8")
        code = cli.main([
            "symmetrize", "--forward", str(tmp_path / "fwd.txt"),
            "--backward", str(tmp_path / "rev.txt"),
        ])
        assert code == 2
        assert "lines" in capsys.readouterr().err


class TestOutputFiles:
    """A command writing over an output that already exists."""

    LINE = b"0-0 1-1\n"

    def symmetrize(self, tmp_path, output):
        (tmp_path / "fwd.txt").write_text("0-0 1-1\n", encoding="utf-8")
        (tmp_path / "rev.txt").write_text("0-0\n", encoding="utf-8")
        return cli.main([
            "symmetrize", "--forward", str(tmp_path / "fwd.txt"),
            "--backward", str(tmp_path / "rev.txt"), "--output", str(output),
        ])

    def test_rerun_writes_a_fresh_file_with_the_same_bytes(self, tmp_path):
        out = tmp_path / "sym.al"
        old = b"an older, longer output\n" * 10
        out.write_bytes(old)
        with open(out, "rb") as reader:
            assert self.symmetrize(tmp_path, out) == 0
            assert reader.read() == old  # unlinked, not truncated
        assert out.read_bytes() == self.LINE
        assert self.symmetrize(tmp_path, out) == 0
        assert out.read_bytes() == self.LINE

    def test_symlinked_output_is_written_through(self, tmp_path):
        target = tmp_path / "target.al"
        target.write_bytes(b"old\n")
        link = tmp_path / "link.al"
        link.symlink_to(target)
        assert self.symmetrize(tmp_path, link) == 0
        assert link.is_symlink()
        assert target.read_bytes() == self.LINE

    def test_hard_linked_output_is_written_in_place(self, tmp_path):
        out = tmp_path / "sym.al"
        out.write_bytes(b"old\n")
        os.link(out, tmp_path / "other.al")
        assert self.symmetrize(tmp_path, out) == 0
        assert out.read_bytes() == (tmp_path / "other.al").read_bytes() == self.LINE
        assert out.stat().st_nlink == 2

    @pytest.mark.parametrize("mode, umask", [(0o600, 0o022), (0o664, 0o077)])
    def test_permission_bits_carry_over(self, tmp_path, mode, umask):
        out = tmp_path / "sym.al"
        out.write_bytes(b"old\n")
        out.chmod(mode)
        old_umask = os.umask(umask)
        try:
            assert self.symmetrize(tmp_path, out) == 0
        finally:
            os.umask(old_umask)
        assert stat.S_IMODE(out.stat().st_mode) == mode
        assert out.read_bytes() == self.LINE

    def test_device_output(self, tmp_path):
        assert self.symmetrize(tmp_path, os.devnull) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


class TestEval:
    def write_case(self, tmp_path):
        (tmp_path / "hyp.txt").write_text("1-1\n", encoding="utf-8")
        (tmp_path / "gold.txt").write_text("1 2 2 S\n1 3 3 S\n", encoding="utf-8")

    def test_human_report(self, tmp_path, capsys):
        self.write_case(tmp_path)
        assert cli.main([
            "eval", "--hypothesis", str(tmp_path / "hyp.txt"),
            "--gold", str(tmp_path / "gold.txt"),
        ]) == 0
        out = capsys.readouterr().out
        assert "AER:       0.3333" in out
        assert "recall:    0.5000" in out

    def test_tsv_report(self, tmp_path, capsys):
        self.write_case(tmp_path)
        assert cli.main([
            "eval", "--hypothesis", str(tmp_path / "hyp.txt"),
            "--gold", str(tmp_path / "gold.txt"), "--tsv",
        ]) == 0
        rows = dict(
            line.split("\t")
            for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(rows["aer"]) == pytest.approx(1 / 3)
        assert rows["evaluated"] == "1"

    @pytest.mark.parametrize("hypotheses, missing", [("", 3), ("1-1\n", 2), ("1-1\n\n\n", 0)])
    def test_gold_sentences_without_a_hypothesis_are_reported(
        self, tmp_path, capsys, caplog, hypotheses, missing
    ):
        # A truncated hypothesis file scores only the sentences it has, so
        # an empty one reads as perfect: the warning is the only notice.
        (tmp_path / "hyp.txt").write_text(hypotheses, encoding="utf-8")
        (tmp_path / "gold.txt").write_text("1 2 2 S\n2 1 1 S\n3 1 1 P\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            assert cli.main([
                "eval", "--hypothesis", str(tmp_path / "hyp.txt"),
                "--gold", str(tmp_path / "gold.txt"), "--tsv",
            ]) == 0
        rows = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        assert rows["missing_hypotheses"] == str(missing)
        assert rows["evaluated"] == str(3 - missing)
        warnings = [r.getMessage() for r in caplog.records if "no hypothesis" in r.getMessage()]
        expected = f"{missing} gold sentences had no hypothesis line and were not scored"
        assert warnings == ([expected] if missing else [])


class TestExtractPhrases:
    def test_writes_a_phrase_table(self, tmp_path, capsys):
        (tmp_path / "bitext.txt").write_text("a b ||| x y\n", encoding="utf-8")
        (tmp_path / "align.txt").write_text("0-0 1-1\n", encoding="utf-8")
        assert cli.main([
            "extract-phrases", "--bitext", str(tmp_path / "bitext.txt"),
            "--alignments", str(tmp_path / "align.txt"),
        ]) == 0
        out = capsys.readouterr().out
        assert "a ||| x ||| 1.0 1.0 1\n" in out
        assert "a b ||| x y ||| 1.0 1.0 1\n" in out

    def test_alignment_count_mismatch_names_the_record(self, tmp_path, capsys):
        (tmp_path / "bitext.txt").write_text(
            "a ||| x\n" * 10, encoding="utf-8"
        )
        (tmp_path / "align.txt").write_text("0-0\n" * 9, encoding="utf-8")
        code = cli.main([
            "extract-phrases", "--bitext", str(tmp_path / "bitext.txt"),
            "--alignments", str(tmp_path / "align.txt"),
        ])
        assert code == 2
        assert "record 10" in capsys.readouterr().err


class TestProject:
    def test_token_layer(self, tmp_path, capsys):
        (tmp_path / "bitext.txt").write_text("a b ||| x y\n", encoding="utf-8")
        (tmp_path / "align.txt").write_text("0-1 1-0\n", encoding="utf-8")
        (tmp_path / "ann.txt").write_text("a/X b/O\n", encoding="utf-8")
        assert cli.main([
            "project", "--bitext", str(tmp_path / "bitext.txt"),
            "--alignments", str(tmp_path / "align.txt"),
            "--annotations", str(tmp_path / "ann.txt"),
        ]) == 0
        assert capsys.readouterr().out == "x/O y/X\n"

    def test_span_layer(self, tmp_path, capsys):
        (tmp_path / "bitext.txt").write_text("a ||| x y\n", encoding="utf-8")
        (tmp_path / "align.txt").write_text("0-1\n", encoding="utf-8")
        (tmp_path / "spans.tsv").write_text("1\t0\t0\tPER\n", encoding="utf-8")
        assert cli.main([
            "project", "--bitext", str(tmp_path / "bitext.txt"),
            "--alignments", str(tmp_path / "align.txt"),
            "--annotations", str(tmp_path / "spans.tsv"), "--layer", "spans",
        ]) == 0
        assert capsys.readouterr().out == "1\t1\t1\tPER\n"

    def test_span_id_beyond_corpus_is_a_data_error(self, tmp_path, capsys):
        (tmp_path / "bitext.txt").write_text("a ||| x\n", encoding="utf-8")
        (tmp_path / "align.txt").write_text("0-0\n", encoding="utf-8")
        (tmp_path / "spans.tsv").write_text("2\t0\t0\tPER\n", encoding="utf-8")
        code = cli.main([
            "project", "--bitext", str(tmp_path / "bitext.txt"),
            "--alignments", str(tmp_path / "align.txt"),
            "--annotations", str(tmp_path / "spans.tsv"), "--layer", "spans",
        ])
        assert code == 2
        assert "sentence id 2" in capsys.readouterr().err


class TestEmptySideRecords:
    """A bitext line with an empty side stays a record of extract-phrases
    and project, matched by the blank line align writes for it."""

    BITEXT = "das haus ||| the house\n ||| the book\ndas buch ||| \ndas buch ||| the book\n"

    @pytest.fixture
    def inputs(self, tmp_path):
        (tmp_path / "toy.txt").write_text(TOY, encoding="utf-8")
        (tmp_path / "bitext.txt").write_text(self.BITEXT, encoding="utf-8")
        model = str(tmp_path / "toy.model")
        assert cli.main([
            "train", "--bitext", str(tmp_path / "toy.txt"), "--output", model,
            "--iters", "20", "--no-null", "--quiet",
        ]) == 0
        assert cli.main([
            "align", "--model-file", model, "--bitext", str(tmp_path / "bitext.txt"),
            "--output", str(tmp_path / "align.txt"),
        ]) == 0
        assert read(tmp_path / "align.txt") == "0-0 1-1\n\n\n0-0 1-1\n"
        return ["--bitext", str(tmp_path / "bitext.txt"), "--alignments", str(tmp_path / "align.txt")]

    def test_extract_phrases(self, inputs, capsys):
        assert cli.main(["extract-phrases", *inputs]) == 0
        assert capsys.readouterr().out == (
            "buch ||| book ||| 1.0 1.0 1\n"
            "das ||| the ||| 1.0 1.0 2\n"
            "das buch ||| the book ||| 1.0 1.0 1\n"
            "das haus ||| the house ||| 1.0 1.0 1\n"
            "haus ||| house ||| 1.0 1.0 1\n"
        )

    def test_project_tokens(self, inputs, tmp_path, capsys):
        (tmp_path / "ann.txt").write_text(
            "das/DET haus/N\n\ndas/DET buch/N\ndas/DET buch/N\n", encoding="utf-8"
        )
        assert cli.main(["project", *inputs, "--annotations", str(tmp_path / "ann.txt")]) == 0
        assert capsys.readouterr().out == "the/DET house/N\nthe/O book/O\n\nthe/DET book/N\n"

    def test_project_spans(self, inputs, tmp_path, capsys):
        (tmp_path / "spans.tsv").write_text("1\t1\t1\tLOC\n3\t0\t1\tX\n4\t0\t1\tY\n")
        assert cli.main([
            "project", *inputs, "--annotations", str(tmp_path / "spans.tsv"), "--layer", "spans",
        ]) == 0
        assert capsys.readouterr().out == "1\t1\t1\tLOC\n4\t0\t1\tY\n"


class TestStdin:
    """At most one input file of a command, the config file included, may
    be stdin; the check runs before the command does."""

    @pytest.mark.parametrize("argv, stdin, flags", [
        (["symmetrize", "--forward", "-", "--backward", "-"], "0-0\n", "--forward/--backward"),
        (["eval", "--hypothesis", "-", "--gold", "-"], "0-0\n0-0\n", "--hypothesis/--gold"),
        (["align", "--model-file", "-", "--bitext", "-", "--source-vocab", "v",
          "--target-vocab", "v"], "", "--model-file/--bitext"),
        (["align", "--model-file", "m", "--bitext", "-", "--config", "vocab.cfg"], "",
         "--bitext/--source-vocab"),
        (["extract-phrases", "--bitext", "-", "--alignments", "-"], "a ||| x\n",
         "--bitext/--alignments"),
        (["project", "--bitext", "b", "--alignments", "-", "--annotations", "-"], "0-0\n",
         "--alignments/--annotations"),
        (["train", "--config", "-", "--bitext", "-", "--output", "m"], "iters=1\n",
         "--config/--bitext"),
    ], ids=["symmetrize", "eval", "align", "align-config", "extract-phrases", "project",
            "train"])
    def test_a_second_stdin_input_is_a_usage_error(
        self, tmp_path, monkeypatch, capsys, argv, stdin, flags
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "vocab.cfg").write_text("source_vocab=-\n", encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"alignkit: error: only one of {flags} may be stdin\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vocab.cfg"]


class TestExitCodes:
    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert cli.main(["eval", "--hypothesis", "h", "--gold", "g", "--bogus"]) == 1

    def test_malformed_bitext(self, tmp_path, capsys):
        (tmp_path / "bad.txt").write_text("no separator here\n", encoding="utf-8")
        code = cli.main([
            "train", "--bitext", str(tmp_path / "bad.txt"),
            "--output", str(tmp_path / "m"),
        ])
        assert code == 2
        assert "|||" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path):
        assert cli.main([
            "train", "--bitext", str(tmp_path / "absent.txt"),
            "--output", str(tmp_path / "m"),
        ]) == 2

    def test_corrupt_model_file(self, tmp_path):
        (tmp_path / "junk.model").write_text("garbage\n", encoding="utf-8")
        assert cli.main([
            "align", "--model-file", str(tmp_path / "junk.model"), "--bitext", "-",
        ]) == 2

    @pytest.mark.parametrize("command", ["train", "align"])
    def test_input_that_is_not_utf8_is_a_data_error(self, tmp_path, capsys, command):
        bad = tmp_path / "bad"
        bad.write_bytes(b"alignkit-ttable v1\n1\t1\t1.0\xff ||| x\n")
        flag = "--bitext" if command == "train" else "--model-file"
        argv = [command, flag, str(bad), "--output", str(tmp_path / "out")]
        if command == "align":
            argv += ["--bitext", "-"]
        assert cli.main(argv) == 2
        assert "alignkit: error: input is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("reader", ["bitext", "source-vocab", "config"])
    def test_input_that_is_not_utf8_is_named(self, tmp_path, capsys, reader):
        corpus = tmp_path / "toy.txt"
        corpus.write_text(TOY, encoding="utf-8")
        model = tmp_path / "toy.model"
        assert cli.main([
            "train", "--bitext", str(corpus), "--output", str(model), "--iters", "1",
        ]) == 0
        bad = tmp_path / "bad"
        bad.write_bytes(b"das haus ||| the \xffhouse\n")
        align = ["align", "--model-file", str(model), "--bitext"]
        argv = {
            "bitext": align + [str(bad)],
            "source-vocab": align + [str(corpus), "--source-vocab", str(bad)],
            "config": ["train", "--config", str(bad), "--bitext", str(corpus),
                       "--output", str(tmp_path / "m")],
        }[reader]
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert f"alignkit: error: input is not UTF-8: {bad}: " in capsys.readouterr().err

    @pytest.mark.parametrize("model_kind, old, new, message", [
        ("hmm", "\nhmm\t5\t", "\nhmm\tfive\t",
         "malformed 'hmm' trailer: invalid literal for int()"),
        ("hmm", "\njump\t5\t", "\n\njump\t9\t", "jump bucket 9 outside window 5"),
        ("model2", "\ndiag\t4.0\t0.08\n", "\n\ndiag\t4.0\t0.08\t1\n",
         "malformed 'diag' trailer"),
        ("model2", "\ndiag\t4.0\t0.08\n", "\ndiag\t4.0\t0.08\nextra\n",
         "unexpected line after the 'diag' trailer"),
        ("model1", "alignkit-ttable v1\n", "alignkit-ttable v1\n1\tx\t0.5\n",
         "expected e<TAB>f<TAB>prob"),
    ], ids=["hmm-head", "hmm-jump-after-a-blank-line", "diag-arity", "diag-extra-row",
            "table-row"])
    def test_model_file_errors_name_the_file_and_the_line(
        self, tmp_path, capsys, model_kind, old, new, message
    ):
        bitext = tmp_path / "toy.txt"
        bitext.write_text(TOY, encoding="utf-8")
        model = tmp_path / "toy.model"
        assert cli.main([
            "train", "--model", model_kind, "--bitext", str(bitext), "--output", str(model),
            "--iters", "1", "--quiet",
        ]) == 0
        # The trained v2 file and the v1 file of its table, where `old` is.
        table, trailer = read_ttable(read(model).splitlines())
        texts = [read(model), oracles.model_text_v1(oracles.model_entries(table), trailer)]
        edited = [text.replace(old, new, 1) for text in texts if old in text]
        assert edited
        for text in edited:
            model.write_text(text, encoding="utf-8")
            # The rejected row is the last line that `new` puts into the file.
            line = text[: text.index(new) + len(new) - 1].count("\n") + 1
            assert cli.main(["align", "--model-file", str(model), "--bitext", str(bitext)]) == 2
            assert (
                f"alignkit: error: {model}: model line {line}: {message}"
                in capsys.readouterr().err
            )

    def test_every_trailer_kind_maps_to_the_module_that_reads_it(self):
        assert cli.TRAILER_MODULES == {model2.DIAG_TRAILER: "model2", hmm.HMM_TRAILER: "hmm"}

    @pytest.mark.parametrize("argv, message", [
        (["train", "--max-vocab", "0", "--output", "m"], "vocabulary size must be >= 1"),
        (["extract-phrases", "--max-len", "0", "--alignments", "toy.al"],
         "--max-len must be >= 1"),
        (["train", "--epsilon", "0.5", "--output", "m"],
         "unrecognized arguments: --epsilon 0.5"),
        (["train", "--floor", "1e-9", "--output", "m"],
         "unrecognized arguments: --floor 1e-9"),
        (["train", "--model", "model2", "--lambda", "1e25", "--output", "m"],
         "tension must be in [0, 700], got 1e+25"),
        (["train", "--jobs", "0", "--output", "m"], "--jobs must be >= 1, got 0"),
        (["train", "--jobs", "-3", "--output", "m"], "--jobs must be >= 1, got -3"),
        (["train", "--model", "hmm", "--w", "99999999999999999999", "--output", "m"],
         "jump window must be in [1, 1000], got 99999999999999999999"),
    ], ids=["train-max-vocab", "extract-phrases-max-len", "train-epsilon", "train-floor",
            "train-lambda", "train-jobs-0", "train-jobs-negative", "train-w"])
    def test_out_of_range_size_flag_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "toy.txt").write_text(TOY, encoding="utf-8")
        (tmp_path / "toy.al").write_text("0-0 1-1\n0-0 1-1\n", encoding="utf-8")
        assert cli.main([*argv, "--bitext", "toy.txt"]) == 1
        assert f"alignkit: error: {message}" in capsys.readouterr().err

    def test_out_of_range_model_parameter_is_a_data_error(self, tmp_path, capsys):
        bitext = tmp_path / "toy.txt"
        bitext.write_text(TOY, encoding="utf-8")
        model = tmp_path / "toy.hmm"
        assert cli.main([
            "train", "--model", "hmm", "--bitext", str(bitext), "--output", str(model),
            "--iters", "1", "--quiet",
        ]) == 0
        text = read(model)
        model.write_text(text.replace("\nhmm\t5\t0.2\n", "\nhmm\t5\t1.5\n"), encoding="utf-8")
        assert read(model) != text
        code = cli.main(["align", "--model-file", str(model), "--bitext", str(bitext)])
        assert code == 2
        assert "'hmm' trailer" in capsys.readouterr().err


class TestConfigFile:
    def setup_corpus(self, tmp_path):
        bitext = tmp_path / "toy.txt"
        bitext.write_text(TOY, encoding="utf-8")
        return bitext

    def test_values_are_applied(self, tmp_path, capsys):
        bitext = self.setup_corpus(tmp_path)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("iters = 7  # comment\n\n", encoding="utf-8")
        assert cli.main([
            "train", "--config", str(cfg), "--bitext", str(bitext),
            "--output", str(tmp_path / "m"),
        ]) == 0
        assert capsys.readouterr().err.count("log-likelihood") == 7

    def test_explicit_flags_win(self, tmp_path, capsys):
        bitext = self.setup_corpus(tmp_path)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("iters=7\n", encoding="utf-8")
        assert cli.main([
            "train", "--config", str(cfg), "--bitext", str(bitext),
            "--output", str(tmp_path / "m"), "--iters", "2",
        ]) == 0
        assert capsys.readouterr().err.count("log-likelihood") == 2

    def test_unknown_keys_are_rejected(self, tmp_path, capsys):
        bitext = self.setup_corpus(tmp_path)
        cfg = tmp_path / "train.cfg"
        # epsilon and floor were options once; they are constants now.
        for key in ("iterations", "epsilon", "floor"):
            cfg.write_text(f"{key}=7\n", encoding="utf-8")
            code = cli.main([
                "train", "--config", str(cfg), "--bitext", str(bitext),
                "--output", str(tmp_path / "m"),
            ])
            assert code == 1
            assert f"unknown option {key!r}" in capsys.readouterr().err

    def test_out_of_range_jobs_is_rejected(self, tmp_path, capsys):
        bitext = self.setup_corpus(tmp_path)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("jobs=0\n", encoding="utf-8")
        code = cli.main([
            "train", "--config", str(cfg), "--bitext", str(bitext),
            "--output", str(tmp_path / "m"),
        ])
        assert code == 1
        assert "--jobs must be >= 1, got 0" in capsys.readouterr().err

    def test_boolean_values_and_flag_spellings(self, tmp_path):
        bitext = self.setup_corpus(tmp_path)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("use-null=false\nquiet=true\n", encoding="utf-8")
        model = tmp_path / "m"
        assert cli.main([
            "train", "--config", str(cfg), "--bitext", str(bitext),
            "--output", str(model),
        ]) == 0
        table, _ = read_ttable(read(model).splitlines())
        assert NULL_ID not in table.rows

    def test_alternate_spelling_reaches_renamed_destinations(self, tmp_path):
        bitext = self.setup_corpus(tmp_path)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("lambda=0\np0=0\nquiet=true\n", encoding="utf-8")
        model = tmp_path / "m2"
        assert cli.main([
            "train", "--config", str(cfg), "--bitext", str(bitext),
            "--output", str(model), "--model", "model2", "--iters", "3",
        ]) == 0
        params = model2.model_from(*read_ttable(read(model).splitlines()))
        assert params.prior.lam == 0.0
        assert params.prior.p0 == 0.0

    def test_missing_config_file(self, tmp_path, capsys):
        bitext = self.setup_corpus(tmp_path)
        code = cli.main([
            "train", "--config", str(tmp_path / "none.cfg"),
            "--bitext", str(bitext), "--output", str(tmp_path / "m"),
        ])
        assert code == 1
        assert "config file not found" in capsys.readouterr().err


class TestDeterminism:
    def test_repeated_runs_are_bitwise_identical(self, tmp_path):
        bitext = tmp_path / "corpus.txt"
        assert cli.main([
            "synth", "--pairs", "60", "--vocab-size", "40", "--seed", "2",
            "--swap-rate", "0.1",
            "--output-bitext", str(bitext),
            "--output-gold", str(tmp_path / "gold.txt"),
        ]) == 0
        outputs = []
        for name in ("m1", "m2"):
            model = tmp_path / name
            assert cli.main([
                "train", "--bitext", str(bitext), "--output", str(model),
                "--iters", "3", "--quiet",
            ]) == 0
            outputs.append(read(model))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("kind", ["model1", "model2", "hmm"])
    def test_worker_count_does_not_change_the_model(self, tmp_path, kind, monkeypatch, pools):
        # At the default cap these 1,100 short pairs are one chunk and start
        # no pool; at 4,096 cells a chunk they are several, and --jobs 2 runs
        # each EM step's chunks on 2 threads.
        monkeypatch.setattr(_packed, "CHUNK_CELLS", 4096)
        bitext = tmp_path / "corpus.txt"
        assert cli.main([
            "synth", "--pairs", "1100", "--vocab-size", "40", "--seed", "3",
            "--min-len", "2", "--max-len", "5",
            "--output-bitext", str(bitext),
            "--output-gold", str(tmp_path / "gold.txt"),
        ]) == 0
        outputs = []
        for jobs, name in (("1", "j1"), ("2", "j2")):
            model = tmp_path / name
            assert cli.main([
                "train", "--model", kind, "--bitext", str(bitext),
                "--output", str(model), "--iters", "2", "--quiet", "--jobs", jobs,
            ]) == 0
            outputs.append(read(model))
        assert outputs[0] == outputs[1]
        steps = 2 + (5 if kind == "hmm" else 0)  # the hmm warms up for --init-iters 5
        assert pools == [2] * steps
