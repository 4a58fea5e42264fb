"""Arbitrary text through every CLI reader that `align` does not use.

Each case writes fuzzed text to one input file (Pharaoh lines, a WPT gold
file, a span TSV, token/TAG annotations, or a --config file) and runs the
command with valid files everywhere else. Whatever the text, the command
must exit 0, 1 or 2 with no exception escaping cli.main. The model-file
reader has its own fuzz test in test_model_files.py.
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
PATHS = {*FILES, FUZZ, "out", "out.txt", "out.gold"}

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

fragments = st.lists(st.sampled_from(FRAGMENTS), max_size=16).map("".join)
any_text = st.one_of(
    fragments, st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
)
values = st.lists(st.sampled_from(FRAGMENTS), max_size=3).map("".join)
config_line = st.builds("{}={}".format, st.sampled_from(KEYS), values)
config_text = st.lists(config_line, max_size=4).map("\n".join)
texts = st.one_of(config_text, any_text)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-fuzz")
    for name, text in FILES.items():
        (root / name).write_text(text, encoding="utf-8")
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

