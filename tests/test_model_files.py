"""Model files as `train` writes them and `align` reads them.

`train` leaves out the table entries at or below the decode floor, which
decode exactly like missing ones, so `align` on a saved file must give
the alignments of the in-memory parameters of the same training run.
The v1 file of a trained table, the text format `train` wrote before v2,
must align exactly as the v2 file does. The last test sends arbitrary
model files of both versions through `align`, which may only succeed or
fail with the data-error exit code.
"""

import contextlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from alignkit import cli, hmm, model1, model2
from alignkit.alignment import format_pharaoh_line, to_set
from alignkit.ttable import (
    DECODE_FLOOR,
    HEADER,
    HEADER_V1,
    ROW_SUM_TOL,
    TranslationTable,
    read_ttable,
    write_ttable,
)


def read(path):
    return path.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "corpus.txt"
    assert cli.main([
        "synth", "--pairs", "120", "--vocab-size", "50", "--min-len", "3",
        "--max-len", "10", "--swap-rate", "0.1", "--insert-rate", "0.05",
        "--seed", "5", "--output-bitext", str(path),
        "--output-gold", str(path.with_suffix(".gold")),
    ]) == 0
    return path


def train_and_capture(monkeypatch, tmp_path, corpus, module, flags):
    """Run CLI train with a spy on module.train; returns the model path,
    the training bitext and the in-memory parameters of that run."""
    runs = []
    real_train = module.train

    def spy(bitext, *args, **kwargs):
        result = real_train(bitext, *args, **kwargs)
        runs.append((bitext, result[0]))
        return result

    monkeypatch.setattr(module, "train", spy)
    model = tmp_path / "model"
    assert cli.main([
        "train", "--bitext", str(corpus), "--output", str(model),
        "--iters", "10", "--quiet", *flags,
    ]) == 0
    (bitext, params), = runs
    return model, bitext, params


MODELS = {
    "model1-null": (model1, ["--model", "model1"]),
    "model1-no-null": (model1, ["--model", "model1", "--no-null"]),
    "model2-null": (model2, ["--model", "model2"]),
    "model2-no-null": (model2, ["--model", "model2", "--p0", "0"]),
    "hmm-null": (hmm, ["--model", "hmm"]),
    "hmm-no-null": (hmm, ["--model", "hmm", "--no-null"]),
}


@pytest.mark.parametrize("direction", [[], ["--reverse"]], ids=["forward", "reverse"])
@pytest.mark.parametrize("kind", list(MODELS))
class TestTrainedFiles:
    def test_the_file_aligns_like_the_trained_parameters(
        self, monkeypatch, tmp_path, corpus, kind, direction
    ):
        module, flags = MODELS[kind]
        model, bitext, params = train_and_capture(
            monkeypatch, tmp_path, corpus, module, flags + direction
        )
        table = params if module is model1 else params.table
        saved, _ = read_ttable(read(model).splitlines())
        assert len(saved) < len(table)  # the run left entries out
        # Every entry above the floor is saved; none at or below it, unless
        # its row's low mass is past the budget and the row is kept whole.
        assert saved.rows.keys() == table.rows.keys()
        for e, row in table.rows.items():
            low_mass = sum(p for p in row.values() if p <= DECODE_FLOOR)
            if low_mass <= ROW_SUM_TOL / 2:
                assert saved.rows[e] == {f: p for f, p in row.items() if p > DECODE_FLOOR}
            else:
                assert saved.rows[e] == row

        out = tmp_path / "out.al"
        assert cli.main([
            "align", "--model-file", str(model), "--bitext", str(corpus),
            "--output", str(out), *direction,
        ]) == 0
        expected = [""] * len(read(corpus).splitlines())
        for lineno, alignment in zip(bitext.line_numbers, module.align_corpus(bitext, params)):
            expected[lineno - 1] = format_pharaoh_line(to_set(alignment))
        assert read(out).splitlines() == expected


@pytest.mark.parametrize("kind", ["model1-null", "model2-null", "hmm-null", "hmm-no-null"])
def test_the_v1_file_of_a_table_aligns_as_its_v2_file(tmp_path, corpus, kind):
    model = tmp_path / "v2.model"
    assert cli.main([
        "train", "--bitext", str(corpus), "--output", str(model), "--iters", "3",
        "--init-iters", "2", "--quiet", *MODELS[kind][1],
    ]) == 0
    table, trailer = read_ttable(read(model).splitlines())
    v1 = tmp_path / "v1.model"
    v1.write_text(oracles.model_text_v1(oracles.model_entries(table), trailer), encoding="utf-8")
    aligned = []
    for path in (model, v1):
        out = tmp_path / f"{path.name}.al"
        assert cli.main([
            "align", "--model-file", str(path), "--bitext", str(corpus), "--output", str(out),
            "--source-vocab", f"{model}.source-vocab", "--target-vocab", f"{model}.target-vocab",
        ]) == 0
        aligned.append(out.read_bytes())
    assert aligned[0] == aligned[1]
    assert aligned[0].count(b"-") > 100


class TestPruning:
    def test_drops_entries_at_or_below_the_floor(self):
        table = TranslationTable({
            1: {1: 0.5, 2: DECODE_FLOOR, 3: 0.5 - 2 * DECODE_FLOOR, 4: DECODE_FLOOR / 2},
            2: {1: 1.0 - 2e-12, 2: 2e-12},
        })
        assert table.pruned().rows == {
            1: {1: 0.5, 3: 0.5 - 2 * DECODE_FLOOR}, 2: {1: 1.0 - 2e-12, 2: 2e-12},
        }

    def test_a_table_without_such_entries_is_kept(self):
        table = TranslationTable({1: {1: 0.25, 2: 0.75}})
        assert table.pruned() is table
        empty = TranslationTable({})
        assert len(empty.pruned()) == 0

    def test_a_row_whose_low_mass_is_past_the_budget_is_kept_whole(self, tmp_path):
        # 3,000 entries at the floor carry 3e-9 of mass, beyond ROW_SUM_TOL / 2:
        # without them the row would fail align's row-sum check.
        heavy = {f: DECODE_FLOOR for f in range(10, 3010)}
        heavy[1] = 1.0 - 3000 * DECODE_FLOOR
        light = {1: 0.5, 2: 0.5 - 1e-13, 3: 1e-13}
        table = TranslationTable({1: heavy, 2: light})
        pruned = table.pruned()
        assert pruned.rows[1] == heavy
        assert pruned.rows[2] == {1: 0.5, 2: 0.5 - 1e-13}

        (tmp_path / "m.source-vocab").write_text("1\ta\t1\n2\tb\t1\n", encoding="utf-8")
        (tmp_path / "m.target-vocab").write_text("1\tx\t1\n2\ty\t1\n", encoding="utf-8")
        bitext = tmp_path / "bitext.txt"
        bitext.write_text("a b ||| x y\n", encoding="utf-8")
        argv = ["align", "--model-file", str(tmp_path / "m"), "--bitext", str(bitext)]
        for rows, code in ((pruned.rows, 0), ({1: {1: heavy[1]}, 2: light}, 2)):
            with open(tmp_path / "m", "w", encoding="utf-8") as out:
                write_ttable(out, TranslationTable(rows))
            assert cli.main(argv) == code


# ---------------------------------------------------------------------------
# fuzzing the model-file reader through `align`

SOURCE_VOCAB = "1\ta\t3\n2\tb\t2\n3\tc\t1\n"
TARGET_VOCAB = "1\tx\t3\n2\ty\t2\n"
BITEXT = "a b c ||| x y\nb ||| y y x\nd a ||| z\n"

ODD_NUMBERS = [
    "nan", "NaN", "inf", "-inf", "-0", "-0.0", "+1", "1e-300", "5e-324", "1e309",
    "1_0", "0.5_0", "١", "٠.٥", "0x1p-1", "", " 1", "1 ", "x",
    "9223372036854775807", "-9223372036854775809", "9" * 25,
]
ids = st.one_of(st.integers(-2, 4).map(str), st.sampled_from(ODD_NUMBERS))
probs = st.one_of(
    st.sampled_from(["1.0", "0.5", "0.25", "0", "1e-12"]),
    st.floats(0.0, 1.0).map(repr),
    st.sampled_from(ODD_NUMBERS),
)


def distribution(draw, size: int) -> list[str]:
    """size probabilities that sum to 1, some of them possibly 0."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    total = sum(weights)
    if not total > 0.0:
        weights, total = [1.0] * size, float(size)
    return [repr(w / total) for w in weights]


@st.composite
def normalized_rows(draw):
    """Rows over known ids that sum to 1, so that files reach the decoders."""
    lines = []
    for e in draw(st.lists(st.integers(-1, 3), min_size=1, max_size=4, unique=True).map(sorted)):
        fs = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4, unique=True).map(sorted))
        lines += [f"{e}\t{f}\t{p}" for f, p in zip(fs, distribution(draw, len(fs)))]
    return lines


raw_rows = st.lists(
    st.one_of(
        st.builds(lambda e, f, p: f"{e}\t{f}\t{p}", ids, ids, probs),
        st.builds("\t".join, st.lists(st.one_of(ids, probs), max_size=4)),
    ),
    max_size=6,
)


@st.composite
def trailers(draw):
    kind = draw(st.sampled_from(["none", "hmm", "diag", "jump", "unknown"]))
    if kind == "none":
        return []
    if kind == "diag":
        return [f"diag\t{draw(probs)}\t{draw(probs)}"] + draw(st.lists(probs, max_size=1))
    if kind == "unknown":
        return [draw(st.sampled_from(["model3\t1", "hmmm\t1\t0.2", "#", "\t", "x\ty\tz"]))]
    w = draw(st.one_of(st.integers(-1, 3), st.sampled_from(["1_0", "٢", "x", "99"])))
    head = [f"hmm\t{w}\t{draw(probs)}"] if kind == "hmm" else []
    width = w if isinstance(w, int) and w > 0 else 1
    ds = draw(st.lists(st.integers(-width - 1, width + 1), max_size=2 * width + 3))
    return head + [f"jump\t{d}\t{draw(probs)}" for d in ds]


@st.composite
def valid_trailers(draw):
    """Trailers model_from accepts: none, a diagonal prior, or a whole HMM
    jump table, whose buckets may be 0."""
    kind = draw(st.sampled_from(["none", "hmm", "diag"]))
    p0 = draw(st.sampled_from([0.0, 0.2, 0.999, 5e-324]))
    if kind == "none":
        return []
    if kind == "diag":
        return [f"diag\t{draw(st.floats(0.0, 50.0))!r}\t{p0!r}"]
    w = draw(st.integers(1, 3))
    jumps = zip(range(-w, w + 1), distribution(draw, 2 * w + 1))
    return [f"hmm\t{w}\t{p0!r}"] + [f"jump\t{d}\t{p}" for d, p in jumps]


def join_lines(header, rows, trailer):
    return "\n".join([header, *rows, *trailer]) + "\n"


int64s = st.one_of(st.integers(-2, 4), st.sampled_from([2**63 - 1, -(2**63), 10**14]))
any_floats = st.one_of(st.floats(), st.sampled_from([0.0, 1.0, 5e-324, -0.0, math.nan]))


@st.composite
def v2_files(draw):
    """v2 files: rows over known ids that sum to 1, or arbitrary entries,
    possibly with the count, a body line or a character of it edited."""
    if draw(st.booleans()):
        entries = [
            (int(e), int(f), float(p))
            for e, f, p in (row.split("\t") for row in draw(normalized_rows()))
        ]
    else:
        entries = draw(st.lists(st.tuples(int64s, int64s, any_floats), max_size=6))
    trailer = draw(st.one_of(valid_trailers(), trailers()))
    lines = oracles.model_text_v2(entries, trailer).split("\n")
    edit = draw(st.sampled_from(["none"] * 4 + ["count", "cut", "char", "drop"]))
    line = draw(st.integers(1, 4))
    if edit == "count":
        count = draw(st.one_of(st.integers(-1, 8).map(str), st.sampled_from(ODD_NUMBERS)))
        lines[0] = f"{HEADER}\t{count}"
    elif edit == "cut":
        lines[line] = lines[line][: draw(st.integers(0, len(lines[line])))]
    elif edit == "char" and lines[line]:
        k = draw(st.integers(0, len(lines[line]) - 1))
        char = draw(st.sampled_from(list("A/+=_- \t\u00e9") + [lines[line][k].swapcase()]))
        lines[line] = lines[line][:k] + char + lines[line][k + 1 :]
    elif edit == "drop":
        del lines[line]
    return "\n".join(lines)


# Half the files are well formed, so that they reach the decoders.
model_files = st.one_of(
    st.builds(join_lines, st.just(HEADER_V1), normalized_rows(), valid_trailers()),
    st.builds(
        join_lines,
        st.sampled_from([HEADER_V1] * 4 + ["", HEADER, HEADER_V1 + " "]),
        st.one_of(normalized_rows(), raw_rows),
        trailers(),
    ),
    v2_files(),
)


@pytest.fixture(scope="module")
def align_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "src.vocab").write_text(SOURCE_VOCAB, encoding="utf-8")
    (root / "tgt.vocab").write_text(TARGET_VOCAB, encoding="utf-8")
    (root / "bitext.txt").write_text(BITEXT, encoding="utf-8")
    return root


@given(text=model_files)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_any_model_file_aligns_or_is_a_data_error(align_inputs, text):
    model = align_inputs / "model"
    model.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([
            "align", "--model-file", str(model), "--bitext", str(align_inputs / "bitext.txt"),
            "--source-vocab", str(align_inputs / "src.vocab"),
            "--target-vocab", str(align_inputs / "tgt.vocab"),
        ])
    assert code in (0, 2), err.getvalue()
