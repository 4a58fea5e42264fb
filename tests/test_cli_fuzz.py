"""Arbitrary text through every CLI reader but the model file's.

Each case writes fuzzed text to one input file (a bitext, Pharaoh lines, a
WPT gold file, a span TSV, token/TAG annotations, a vocabulary sidecar, or
a --config file) and runs the command with valid files everywhere else.
Whatever the text, no exception may escape cli.main, and the command must
exit 0, 1 or 2; `train` and `align` may also exit 3, a numeric failure.
The model-file reader has its own fuzz test in test_model_files.py.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alignkit import cli

FILES = {
    "toy.txt": "das haus ||| the house\ndas buch ||| the book\n",
    "fwd.al": "0-0 1-1\n0-0 1-1\n",
    "gold.wpt": "1 1 1 S\n1 2 2 S\n2 1 1 S\n2 2 2 P\n",
    "tags.txt": "das/DET haus/NOUN\ndas/DET buch/NOUN\n",
    "spans.tsv": "1\t0\t1\tNP\n",
}
FUZZ = "fuzz.txt"
MODEL = "toy.model"
PATHS = {
    *FILES, FUZZ, MODEL, f"{MODEL}.source-vocab", f"{MODEL}.target-vocab",
    "out", "out.txt", "out.gold", "out.model",
}

# Every path is given as a flag, so a config file cannot redirect a read
# or a write; it can only change the options that are not paths.
SYNTH = [
    "synth", "--pairs", "2", "--min-len", "1", "--max-len", "3",
    "--output-bitext", "out.txt", "--output-gold", "out.gold",
]
COMMANDS = {
    "symmetrize": ["symmetrize", "--forward", "fwd.al", "--backward", "fwd.al"],
    "eval": ["eval", "--hypothesis", "fwd.al", "--gold", "gold.wpt"],
    "extract-phrases": ["extract-phrases", "--bitext", "toy.txt", "--alignments", "fwd.al"],
    "project": [
        "project", "--bitext", "toy.txt", "--alignments", "fwd.al",
        "--annotations", "tags.txt",
    ],
}
READERS = {
    "symmetrize-forward": ["symmetrize", "--forward", FUZZ, "--backward", "fwd.al"],
    "symmetrize-backward": ["symmetrize", "--forward", "fwd.al", "--backward", FUZZ],
    "eval-hypothesis": ["eval", "--hypothesis", FUZZ, "--gold", "gold.wpt"],
    "eval-gold": ["eval", "--hypothesis", "fwd.al", "--gold", FUZZ],
    "extract-phrases-alignments": [
        "extract-phrases", "--bitext", "toy.txt", "--alignments", FUZZ,
    ],
    "project-alignments": [
        "project", "--bitext", "toy.txt", "--alignments", FUZZ, "--annotations", "tags.txt",
    ],
    "project-tokens": [
        "project", "--bitext", "toy.txt", "--alignments", "fwd.al", "--annotations", FUZZ,
    ],
    "project-spans": [
        "project", "--layer", "spans", "--bitext", "toy.txt", "--alignments", "fwd.al",
        "--annotations", FUZZ,
    ],
}
READERS.update(
    (f"{name}-config", [*argv, "--output", "out", "--config", FUZZ])
    for name, argv in COMMANDS.items()
)
READERS["synth-config"] = [*SYNTH, "--config", FUZZ]

FRAGMENTS = [
    "0", "1", "2", "7", "-1", "-", " ", "\t", "\n", "\r\n", "/", "=", "#", "S", "P",
    "NP", "das", "x", "\u0662", "1_0", "1e3", "nan", "inf", "|||", "99999999999999999999",
    "\x00", "\ufeff", "\u2028", "\x85", "true", "off",
]
KEYS = [
    "heuristic", "tsv", "max_len", "max-len", "layer", "vocab_size", "vocab-size",
    "swap_rate", "insert_rate", "seed", "gold_format", "pairs", "bogus", "",
]


def train(bitext="toy.txt"):
    # A fuzzed corpus is far below one chunk, so train runs in process.
    return ["train", "--bitext", bitext, "--output", "out.model", "--jobs", "1", "--quiet"]


def align(bitext="toy.txt", source=f"{MODEL}.source-vocab", target=f"{MODEL}.target-vocab"):
    return [
        "align", "--model-file", MODEL, "--bitext", bitext, "--output", "out",
        "--source-vocab", source, "--target-vocab", target,
    ]


MODEL_READERS = {
    "train-bitext": train(bitext=FUZZ),
    "train-config": [*train(), "--config", FUZZ],
    "align-bitext": align(bitext=FUZZ),
    "align-source-vocab": align(source=FUZZ),
    "align-target-vocab": align(target=FUZZ),
    "align-config": [*align(), "--config", FUZZ],
}
MODEL_FRAGMENTS = [*FRAGMENTS, "hmm", "model2", ".", "das ||| the"]
# iters, init_iters and jobs are left out: a huge value there is a long run
# or many threads, not an error.
MODEL_KEYS = [
    "model", "w", "p0", "lambda", "lam", "use_null", "no_null", "max_vocab",
    "lowercase", "reverse", "quiet", "source_vocab", "bogus", "",
]


def texts_from(fragment_list, keys):
    fragments = st.lists(st.sampled_from(fragment_list), max_size=16).map("".join)
    any_text = st.one_of(
        fragments, st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
    )
    values = st.lists(st.sampled_from(fragment_list), max_size=3).map("".join)
    config_line = st.builds("{}={}".format, st.sampled_from(keys), values)
    config_text = st.lists(config_line, max_size=4).map("\n".join)
    return st.one_of(config_text, any_text)


texts = texts_from(FRAGMENTS, KEYS)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-fuzz")
    for name, text in FILES.items():
        (root / name).write_text(text, encoding="utf-8")
    assert cli.main([
        "train", "--bitext", str(root / "toy.txt"), "--output", str(root / MODEL),
        "--iters", "2", "--quiet",
    ]) == 0
    return root


def run(root, argv, text):
    (root / FUZZ).write_text(text, encoding="utf-8")
    argv = [str(root / arg) if arg in PATHS else arg for arg in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("reader", sorted(READERS))
@given(text=texts)
@example(text="seed=-1\n")  # numpy's generator raised on both
@example(text="vocab_size=99999999999999999999\n")
@settings(max_examples=25, deadline=None, derandomize=True)
def test_any_input_exits_0_1_or_2(inputs, reader, text):
    code, err = run(inputs, READERS[reader], text)
    assert code in (0, 1, 2), err



@pytest.mark.parametrize("reader", sorted(MODEL_READERS))
@given(text=texts_from(MODEL_FRAGMENTS, MODEL_KEYS))
@example(text="model=hmm\nw=99999999999999999999\n")  # a 2w + 1 jump table
@settings(max_examples=25, deadline=None, derandomize=True)
def test_train_and_align_inputs_exit_0_to_3(inputs, reader, text):
    code, err = run(inputs, MODEL_READERS[reader], text)
    assert code in (0, 1, 2, 3), err
