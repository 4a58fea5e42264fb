"""The package loads no submodule, and each command loads only the
modules it runs: the post stages and synth without numpy, dataclasses or
logging, a lexical model without the HMM, and no command logging until
it warns.

Each check runs in a fresh interpreter, because the test process has
long since imported numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import alignkit
from alignkit import hmm, model1, model2, synth, ttable
from alignkit.ttable import HEADER

SRC = str(Path(alignkit.__file__).resolve().parent.parent)


def run_python(code: str, cwd=None) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


LOADED = "print(sorted(m[len('alignkit.'):] for m in sys.modules if m.startswith('alignkit.')))\n"


@pytest.mark.parametrize("module", ["alignkit", "alignkit.cli"])
def test_import_does_not_load_numpy(module):
    out = run_python(f"import sys, {module}; print('numpy' in sys.modules)")
    assert out == "False\n"


def test_the_package_loads_no_submodule():
    assert run_python("import sys, alignkit\n" + LOADED) == "[]\n"


def test_model_modules_do_not_load_a_worker_pool():
    # A run of one chunk starts no pool, so train and align should not pay
    # for importing one.
    out = run_python(
        "import sys, alignkit.cli, alignkit.model1, alignkit.model2, alignkit.hmm\n"
        "print('concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)\n"
    )
    assert out == "False False\n"


def test_the_table_module_loads_no_model_module():
    # The table owns the M-step and is the layer every model builds on,
    # so it must not depend on any of them.
    out = run_python(
        "import sys, alignkit.ttable\n"
        "print([m for m in ('_packed', 'hmm', 'model1', 'model2')"
        " if 'alignkit.' + m in sys.modules])\n"
    )
    assert out == "[]\n"


@pytest.fixture
def toy_files(tmp_path):
    files = {
        "bitext.txt": "a b ||| x y\nc ||| z\n",
        "fwd.al": "0-0 1-1\n0-0\n",
        "rev.al": "0-0 1-1\n0-0\n",
        "gold.wpt": "1 1 1 S\n1 2 2 S\n2 1 1 P\n",
        "tags.txt": "a/X b/O\nc/O\n",
        "spans.tsv": "1\t0\t1\tPER\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


POST_STAGES = {
    "symmetrize": ["symmetrize", "--forward", "fwd.al", "--backward", "rev.al",
                   "--heuristic", "grow-diag-final-and"],
    "eval": ["eval", "--hypothesis", "fwd.al", "--gold", "gold.wpt", "--tsv"],
    "extract-phrases": ["extract-phrases", "--bitext", "bitext.txt",
                        "--alignments", "fwd.al"],
    "project-tokens": ["project", "--bitext", "bitext.txt", "--alignments", "fwd.al",
                       "--annotations", "tags.txt", "--layer", "tokens"],
    "project-spans": ["project", "--bitext", "bitext.txt", "--alignments", "fwd.al",
                      "--annotations", "spans.tsv", "--layer", "spans"],
}


@pytest.mark.parametrize("argv", POST_STAGES.values(), ids=POST_STAGES.keys())
def test_post_stage_does_not_load_numpy(toy_files, argv):
    out = run_python(
        "import sys\n"
        "from alignkit import cli\n"
        f"code = cli.main({argv + ['--output', 'out.txt']!r})\n"
        "print(code, 'numpy' in sys.modules)\n",
        cwd=toy_files,
    )
    assert out == "0 False\n"
    assert (toy_files / "out.txt").read_text(encoding="utf-8")


POST_STAGE_MODULES = {
    "symmetrize": ["alignment", "cli", "errors"],
    "eval": ["alignment", "cli", "errors", "evaluation"],
    "extract-phrases": ["alignment", "cli", "corpus", "errors", "phrases"],
}


@pytest.mark.parametrize("stage", POST_STAGE_MODULES)
def test_post_stage_loads_only_its_own_modules(toy_files, stage):
    out = run_python(
        "import sys\n"
        "from alignkit import cli\n"
        f"assert cli.main({POST_STAGES[stage] + ['--output', 'out.txt']!r}) == 0\n" + LOADED,
        cwd=toy_files,
    )
    assert out == f"{POST_STAGE_MODULES[stage]}\n"


SYNTH = ["synth", "--pairs", "20", "--vocab-size", str(2**40), "--swap-rate", "0.5",
         "--insert-rate", "0.5", "--seed", "3", "--output-bitext", "corpus.txt",
         "--output-gold", "gold.wpt"]


def test_synth_loads_no_numpy_and_only_its_own_modules(tmp_path):
    out = run_python(
        "import sys\n"
        "from alignkit import cli\n"
        f"assert cli.main({SYNTH!r}) == 0\n"
        "print('numpy' in sys.modules)\n" + LOADED,
        cwd=tmp_path,
    )
    assert out == "False\n['alignment', 'cli', 'corpus', 'errors', 'synth']\n"
    assert (tmp_path / "gold.wpt").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv",
    [argv + ["--output", "out.txt"] for argv in POST_STAGES.values()] + [SYNTH],
    ids=[*POST_STAGES, "synth"],
)
def test_numpy_free_commands_load_neither_dataclasses_nor_logging(toy_files, argv):
    # dataclasses imports inspect, which numpy would otherwise have loaded.
    out = run_python(
        "import sys\n"
        "from alignkit import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print([m for m in ('dataclasses', 'inspect', 'logging') if m in sys.modules])\n",
        cwd=toy_files,
    )
    assert out == "[]\n"


@pytest.mark.parametrize("model", ["model1", "model2", "hmm"])
def test_train_and_align_load_logging_only_to_warn(toy_files, model):
    unknown = toy_files / "unknown.txt"
    unknown.write_text("a q ||| x y\n", encoding="utf-8")
    for argv, warns in (
        (["train", "--model", model, "--bitext", "bitext.txt", "--output", "toy.model",
          "--iters", "1", "--quiet"], False),
        (["align", "--model-file", "toy.model", "--bitext", "bitext.txt",
          "--output", "out.al"], False),
        (["align", "--model-file", "toy.model", "--bitext", "unknown.txt",
          "--output", "out.al"], True),
    ):
        out = run_python(
            "import sys\n"
            "from alignkit import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print('logging' in sys.modules)\n",
            cwd=toy_files,
        )
        assert out == f"{warns}\n", argv


def test_a_library_warning_leaves_logging_to_the_caller():
    # Outside a command run, a warning goes through logging's last-resort
    # handler, unformatted, and sets up no handler of its own.
    out = run_python(
        "import io, logging, sys\n"
        "from alignkit.corpus import load_bitext\n"
        "sys.stderr = io.StringIO()\n"
        "bitext = load_bitext(['a ||| x', 'b ||| '])\n"
        "print(len(bitext), logging.getLogger().handlers, repr(sys.stderr.getvalue()))\n"
    )
    assert out == "1 [] 'bitext line 2: empty side, pair skipped\\n'\n"


@pytest.mark.parametrize("model, loaded", [
    ("model1", ["model1"]), ("model2", ["model1", "model2"]), ("hmm", ["hmm"]),
])
def test_train_and_align_load_only_the_model_they_run(toy_files, model, loaded):
    for argv in (
        ["train", "--model", model, "--bitext", "bitext.txt", "--output", "toy.model",
         "--iters", "1", "--quiet"],
        ["align", "--model-file", "toy.model", "--bitext", "bitext.txt", "--output", "out.al"],
    ):
        out = run_python(
            "import sys\n"
            "from alignkit import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print([m for m in ('model1', 'model2', 'hmm') if 'alignkit.' + m in sys.modules])\n",
            cwd=toy_files,
        )
        assert out == f"{loaded}\n", argv


def test_train_writes_its_model_without_a_process_module(tmp_path):
    # The model file is written by the train process itself: it forks
    # nothing and needs neither multiprocessing nor subprocess.
    from alignkit import cli

    assert cli.main(["synth", "--pairs", "400", "--vocab-size", "2000", "--seed", "5",
                     "--output-bitext", str(tmp_path / "corpus.txt"),
                     "--output-gold", str(tmp_path / "gold.wpt")]) == 0
    argv = ["train", "--bitext", "corpus.txt", "--output", "m", "--iters", "1", "--quiet",
            "--jobs", "2"]
    out = run_python(
        "import os, sys\n"
        "from alignkit import cli\n"
        "def fork():\n"
        "    raise AssertionError('train forked')\n"
        "os.fork = fork\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print('multiprocessing' in sys.modules, 'subprocess' in sys.modules)\n",
        cwd=tmp_path,
    )
    assert out == "False False\n"
    assert (tmp_path / "m").read_text(encoding="utf-8").startswith(HEADER + "\t")


def test_every_public_name_resolves_to_its_submodule_object():
    for name in alignkit.__all__:
        assert getattr(alignkit, name) is not None, name
    assert alignkit.HmmConfig is hmm.HmmConfig
    assert alignkit.HmmParams is hmm.HmmParams
    assert alignkit.Model1Config is model1.Model1Config
    assert alignkit.DiagonalPrior is model2.DiagonalPrior
    assert alignkit.Model2Config is model2.Model2Config
    assert alignkit.Model2Params is model2.Model2Params
    assert alignkit.SynthConfig is synth.SynthConfig
    assert alignkit.generate is synth.generate
    assert alignkit.TranslationTable is ttable.TranslationTable


def test_dir_lists_every_public_name_before_any_is_loaded():
    out = run_python(
        "import sys, alignkit\n"
        "print(sorted(set(alignkit.__all__) - set(dir(alignkit))), 'numpy' in sys.modules)\n"
    )
    assert out == "[] False\n"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        alignkit.no_such_name
