"""Golden digests of `align` output.

Each model is trained through cli.main, in both directions, on a small
synthetic corpus whose pairs mix source and target lengths, and the
corpus is aligned with it. The sha256 of every alignment file must be
the one recorded in DIGESTS. A failure names each file whose digest
moved, so an output change is plain to see and can be recorded. The
digests were taken with the numpy version in RECORDED_WITH; a different
numpy or BLAS may round differently, and the failure shows the version
in use.
"""

import hashlib

import numpy as np
import pytest

from alignkit import cli

RECORDED_WITH = {"numpy": "2.4.6"}

MODELS = {
    "model1": ["--model", "model1"],
    "model2": ["--model", "model2"],
    "hmm": ["--model", "hmm"],
    "hmm-no-null": ["--model", "hmm", "--no-null"],
}

DIGESTS = {
    "model1.fwd.al": "681d17cdcdc675982d756fe40446a01c31ac010ec3ecb99eb8cfbb9175a42160",
    "model1.rev.al": "28f27dc6cbb9ee1c2b5b4752b354a6c55a925c6a30213cfbaf7533444d794856",
    "model2.fwd.al": "35e938bd8582e14e53f6942dac7715c146827ecc49973f9509c347a97493937e",
    "model2.rev.al": "3a8406cbad6152582dab0d1c596c86c9ef2ebdc4c1a65eed362edc15050eceab",
    "hmm.fwd.al": "770f3a33494bb676a8b019c4facaa29881c7616eadd43cee5455d83f1cd29e04",
    "hmm.rev.al": "df1cee031aba48067a99966fe61f9d6f44910bccbd1f9d728d07bb5cc4db1cd7",
    "hmm-no-null.fwd.al": "5dd67abc432b4e1839e3461166d815c14567cd523eb1b2a860c66deb9ce18ae3",
    "hmm-no-null.rev.al": "dee2afde6e85e8637adcacf98ebfc318a86b91f184d2819c838f2afb02891e5e",
}


@pytest.fixture(scope="module")
def aligned(tmp_path_factory):
    """{file name: sha256} of every alignment file."""
    root = tmp_path_factory.mktemp("golden")
    corpus = root / "corpus.txt"
    assert cli.main([
        "synth", "--pairs", "150", "--vocab-size", "60", "--min-len", "3", "--max-len", "40",
        "--swap-rate", "0.2", "--seed", "11",
        "--output-bitext", str(corpus), "--output-gold", str(root / "gold.wpt"),
    ]) == 0
    digests = {}
    for name, flags in MODELS.items():
        for direction in ("fwd", "rev"):
            reverse = ["--reverse"] if direction == "rev" else []
            model, out = root / f"{name}.{direction}.model", root / f"{name}.{direction}.al"
            assert cli.main([
                "train", *flags, "--bitext", str(corpus), "--output", str(model),
                "--jobs", "1", "--quiet", *reverse,
            ]) == 0
            assert cli.main([
                "align", "--model-file", str(model), "--bitext", str(corpus),
                "--output", str(out), *reverse,
            ]) == 0
            digests[out.name] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


def test_align_output_matches_its_digests(aligned):
    moved = [
        f"{name}: {aligned.get(name)} (recorded {digest})"
        for name, digest in DIGESTS.items()
        if aligned.get(name) != digest
    ]
    assert not moved, (
        f"align output changed (numpy {np.__version__}, digests recorded with "
        f"numpy {RECORDED_WITH['numpy']}):\n" + "\n".join(moved)
    )
    assert sorted(aligned) == sorted(DIGESTS)
