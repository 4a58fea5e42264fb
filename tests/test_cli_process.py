"""The CLI as a process: `python -m alignkit.cli` enters through cli.run(),
which runs the command with the cyclic GC off, flushes, and ends the
process without interpreter teardown. These tests check that its
outputs, exit codes and stderr are those of an in-process cli.main()
run, and that main() itself leaves the collector alone.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import alignkit
from alignkit import cli
from alignkit.ttable import read_ttable

SRC = str(Path(alignkit.__file__).resolve().parent.parent)


def env() -> dict:
    """This environment with the package on the path and stdout buffered,
    as it is by default, so that run's final flush has work to do."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def alignkit_process(args, cwd, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "alignkit.cli", *args],
        cwd=cwd, env=env(), capture_output=True, timeout=120, **kwargs,
    )


def synth(tmp_path: Path, pairs: int) -> None:
    assert cli.main([
        "synth", "--pairs", str(pairs), "--vocab-size", "40", "--swap-rate", "0.1",
        "--seed", "3", "--output-bitext", str(tmp_path / "corpus.txt"),
        "--output-gold", str(tmp_path / "gold.wpt"),
    ]) == 0


# The README pipeline, at small iteration counts; every stage writes a file.
PIPELINE = [
    ["train", "--model", "hmm", "--bitext", "corpus.txt", "--output", "fwd.hmm",
     "--iters", "2", "--init-iters", "2", "--jobs", "2"],
    ["train", "--model", "hmm", "--bitext", "corpus.txt", "--output", "rev.hmm",
     "--iters", "2", "--init-iters", "2", "--jobs", "2", "--reverse"],
    ["align", "--model-file", "fwd.hmm", "--bitext", "corpus.txt", "--output", "fwd.al"],
    ["align", "--model-file", "rev.hmm", "--bitext", "corpus.txt", "--reverse",
     "--output", "rev.al"],
    ["symmetrize", "--forward", "fwd.al", "--backward", "rev.al",
     "--heuristic", "grow-diag-final-and", "--output", "sym.al"],
    ["eval", "--hypothesis", "sym.al", "--gold", "gold.wpt", "--tsv", "--output", "eval.tsv"],
    ["extract-phrases", "--bitext", "corpus.txt", "--alignments", "sym.al",
     "--output", "phrases.txt"],
]


def test_the_pipeline_as_processes_matches_main_in_process(tmp_path, monkeypatch):
    runs = {}
    for how in ("process", "main"):
        workdir = tmp_path / how
        workdir.mkdir()
        synth(workdir, 40)
        monkeypatch.chdir(workdir)
        for argv in PIPELINE:
            if how == "process":
                result = alignkit_process(argv, workdir)
                assert (result.returncode, result.stdout) == (0, b""), result.stderr
            else:
                assert cli.main(argv) == 0, argv
        runs[how] = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    assert sorted(runs["process"]) == sorted(runs["main"])
    assert "phrases.txt" in runs["process"] and "rev.hmm.target-vocab" in runs["process"]
    assert runs["process"] == runs["main"]


@pytest.mark.parametrize("model", ["model1", "model2", "hmm"])
def test_a_model_on_stdout_is_the_file_one_writer_makes(tmp_path, monkeypatch, model):
    # stdout is a pipe, so block buffered, and a file is written through
    # its own buffer: the bytes must not depend on which one train writes.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--pairs", "400", "--vocab-size", "2000", "--seed", "5",
                     "--output-bitext", "corpus.txt", "--output-gold", "gold.wpt"]) == 0
    train = ["train", "--model", model, "--bitext", "corpus.txt", "--iters", "1",
             "--init-iters", "1", "--quiet"]
    result = alignkit_process([*train, "--output", "-", "--jobs", "2"], tmp_path)
    assert (result.returncode, result.stderr) == (0, b"")
    assert cli.main([*train, "--output", "one.model", "--jobs", "1"]) == 0
    table, _, _ = read_ttable(result.stdout)
    assert len(table) > 10_000
    assert result.stdout == (tmp_path / "one.model").read_bytes()


def test_stdout_matches_main_in_process(tmp_path, monkeypatch, capsys):
    (tmp_path / "fwd.al").write_text("0-0 1-2\n1-1\n", encoding="utf-8")
    (tmp_path / "rev.al").write_text("0-0 2-1\n\n", encoding="utf-8")
    args = ["symmetrize", "--forward", "fwd.al", "--backward", "rev.al"]
    result = alignkit_process(args, tmp_path)
    monkeypatch.chdir(tmp_path)
    assert cli.main(args) == 0
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout.decode() == capsys.readouterr().out
    assert result.stdout.count(b"\n") == 2


@pytest.mark.parametrize("extra, bitext, code, message", [
    (["--jobs", "0"], "a ||| x\n", 1, "alignkit: error: --jobs must be >= 1, got 0\n"),
    ([], "a ||| x\nb c\n", 2, "alignkit: error: bitext line 2: missing ' ||| ' separator\n"),
])
def test_errors_exit_with_their_code_and_one_stderr_line(tmp_path, extra, bitext, code, message):
    (tmp_path / "bitext.txt").write_text(bitext, encoding="utf-8")
    args = ["train", "--bitext", "bitext.txt", "--output", "m", "--quiet", *extra]
    result = alignkit_process(args, tmp_path)
    assert (result.returncode, result.stdout) == (code, b"")
    assert result.stderr.decode() == message


def test_the_oov_warning_reaches_stderr(tmp_path):
    (tmp_path / "toy.txt").write_text("das haus ||| the house\n", encoding="utf-8")
    (tmp_path / "new.txt").write_text("das auto ||| the car\n", encoding="utf-8")
    assert cli.main(["train", "--bitext", str(tmp_path / "toy.txt"),
                     "--output", str(tmp_path / "toy.model"), "--quiet"]) == 0
    result = alignkit_process(
        ["align", "--model-file", "toy.model", "--bitext", "new.txt"], tmp_path
    )
    assert (result.returncode, result.stdout.count(b"\n")) == (0, 1)
    assert result.stderr.decode() == (
        "WARNING: 2 tokens were out of vocabulary and treated as <unk>\n"
    )


def test_an_eval_warning_reaches_stderr(tmp_path):
    (tmp_path / "hyp.al").write_text("0-0\n", encoding="utf-8")
    (tmp_path / "gold.wpt").write_text("1 1 1 S\n2 1 1 S\n", encoding="utf-8")
    result = alignkit_process(
        ["eval", "--hypothesis", "hyp.al", "--gold", "gold.wpt", "--tsv"], tmp_path
    )
    assert (result.returncode, result.stdout.count(b"\n")) == (0, 11)
    assert result.stderr.decode() == (
        "WARNING: 1 gold sentences had no hypothesis line and were not scored\n"
    )


def test_a_train_warning_reaches_stderr(tmp_path):
    (tmp_path / "bitext.txt").write_text("a b ||| x y\n ||| z\nc ||| z\n", encoding="utf-8")
    result = alignkit_process(
        ["train", "--bitext", "bitext.txt", "--output", "m", "--quiet"], tmp_path
    )
    assert (result.returncode, result.stdout) == (0, b"")
    assert result.stderr.decode() == "WARNING: bitext line 2: empty side, pair skipped\n"


def test_a_pipe_closed_early_ends_the_run_quietly(tmp_path):
    # The output is larger than a pipe's buffer, so align is still writing
    # when the reader goes away.
    synth(tmp_path, 6000)
    assert cli.main(["train", "--bitext", str(tmp_path / "corpus.txt"), "--iters", "1",
                     "--output", str(tmp_path / "m"), "--quiet"]) == 0
    assert cli.main(["align", "--model-file", str(tmp_path / "m"), "--bitext",
                     str(tmp_path / "corpus.txt"), "--output", str(tmp_path / "all.al")]) == 0
    assert (tmp_path / "all.al").stat().st_size > 1 << 17
    with subprocess.Popen(
        [sys.executable, "-m", "alignkit.cli", "align", "--model-file", "m",
         "--bitext", "corpus.txt", "--output", "-"],
        cwd=tmp_path, env=env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, err) == (0, b"")
    assert head == (tmp_path / "all.al").read_bytes()[:10]


def test_help_into_a_closed_pipe_exits_quietly(tmp_path):
    # argparse leaves the help in stdout's buffer, so the write that meets
    # the closed pipe is run's final flush.
    with subprocess.Popen(
        [sys.executable, "-m", "alignkit.cli", "train", "--help"],
        cwd=tmp_path, env=env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_final_flush_is_reported(tmp_path):
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, "-m", "alignkit.cli", "train", "--help"],
            cwd=tmp_path, env=env(), stdout=full, stderr=subprocess.PIPE, timeout=60,
        )
    assert result.returncode == 2
    assert result.stderr.decode().startswith("alignkit: error: [Errno 28] ")


def test_run_turns_gc_off_and_skips_teardown(tmp_path):
    # The command's print sits in stdout's buffer (a pipe is block
    # buffered) until run flushes it; os._exit then skips the atexit hook.
    code = (
        "import atexit, gc, sys\n"
        "from alignkit import cli\n"
        "atexit.register(print, 'teardown')\n"
        "cli.cmd_synth = lambda args: print('gc enabled:', gc.isenabled()) or 3\n"
        "sys.argv[1:] = ['synth', '--pairs', '1', '--output-bitext', 'b', '--output-gold', 'g']\n"
        "cli.run()\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env(), capture_output=True, timeout=60
    )
    assert (result.returncode, result.stdout, result.stderr) == (3, b"gc enabled: False\n", b"")


def test_main_in_process_leaves_gc_enabled(tmp_path):
    assert gc.isenabled()
    synth(tmp_path, 5)
    assert cli.main(["train", "--bitext", str(tmp_path / "corpus.txt"),
                     "--output", str(tmp_path / "m"), "--quiet"]) == 0
    assert cli.main(["train", "--jobs", "0", "--bitext", "x", "--output", "y"]) == 1
    assert gc.isenabled()
