"""Golden outputs of the README pipeline.

Each model is trained through cli.main, in both directions, on a small
synthetic corpus whose pairs mix source and target lengths; the corpus
is aligned with it, and the two alignments are symmetrized, scored and
turned into a phrase table. The whole pipeline runs twice: at --jobs 1,
and at --jobs 2 with CHUNK_CELLS lowered so that every EM step runs its
chunks on two threads. Both runs must give:

- the sha256 recorded in DIGESTS (SPLIT_DIGESTS for the second run) for
  every alignment, symmetrized alignment, eval report and phrase table;
- the training traces in TRACES, verbatim;
- the entry counts and sampled entries of every model file in TABLES,
  and its trailer's numbers, within a relative 1e-9. Model files are
  compared by value because float reassociation may move theta by an ulp
  or two without changing any output.

A failure names each output that moved, so an output change is plain to
see and can be recorded. The digests were taken with the numpy version in
RECORDED_WITH; a different numpy or BLAS may round differently, and the
failure shows the version in use.
"""

import concurrent.futures
import contextlib
import hashlib
import io

import numpy as np
import pytest

from alignkit import _packed, cli
from alignkit.ttable import read_ttable

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
    "model1.sym.al": "e8ca7d9908469c855a8c6cb9a10dc6b00521c5d705d6dee5cfb2f52458c4c015",
    "model1.eval.tsv": "c3c532c09db09ea8288bf030ea1a180f0e8c471eeeaef6c67e96f9086e5e4797",
    "model1.phrases.txt": "decbabc38164a4afd01ab404787050f9d213060cf449fc7b939526a650a20ba6",
    "model2.fwd.al": "35e938bd8582e14e53f6942dac7715c146827ecc49973f9509c347a97493937e",
    "model2.rev.al": "3a8406cbad6152582dab0d1c596c86c9ef2ebdc4c1a65eed362edc15050eceab",
    "model2.sym.al": "002b6c082888fe44122af3054cbcf1226c18f7f2de9337faf473200b5d743174",
    "model2.eval.tsv": "05647ec55dca27cda66a8a91f5517c5bde67846e88f641c5d66c6962a0741e5f",
    "model2.phrases.txt": "480b7c389eca6432886d2b9b47f0c18daebf012bec1df694645ef1b206772c2c",
    "hmm.fwd.al": "770f3a33494bb676a8b019c4facaa29881c7616eadd43cee5455d83f1cd29e04",
    "hmm.rev.al": "df1cee031aba48067a99966fe61f9d6f44910bccbd1f9d728d07bb5cc4db1cd7",
    "hmm.sym.al": "bfe59fa3d70a44a61d31757bf4ce600f59ee576c240c3288afc7fd898012be93",
    "hmm.eval.tsv": "ace3d98512db285611e6eb657486924a918330e54e4169064d3d5e1a52d7084f",
    "hmm.phrases.txt": "f410ee35f693f771a085a1bd6b689af29e9755f355eacc2702ec70f3d37ea5f1",
    "hmm-no-null.fwd.al": "5dd67abc432b4e1839e3461166d815c14567cd523eb1b2a860c66deb9ce18ae3",
    "hmm-no-null.rev.al": "dee2afde6e85e8637adcacf98ebfc318a86b91f184d2819c838f2afb02891e5e",
    "hmm-no-null.sym.al": "7315b269006c55fcd5e20f4e016c2f07efacfef6ef47fc8804b0de72859149d6",
    "hmm-no-null.eval.tsv": "d66ca8192def0160eea9c151bd8956f4a36f36cf69a81895b994582515ef3bd1",
    "hmm-no-null.phrases.txt": "117a569c19bb88502f739f71ef44cb448784adbbf8a127553799da3b257120a8",
}

# At --jobs 2 on chunks of SMALL_CHUNK_CELLS, EM adds its partial counts
# in another order. That moves theta by a few ulps, which flips near ties
# of the hmm with NULL.
SPLIT_DIGESTS = {
    **DIGESTS,
    "hmm.fwd.al": "c0599b057f37af8f8e1356c1400e9ca312026369de7159043c1c121e546ea97f",
    "hmm.rev.al": "7f7a506012716386af49f3061f49fc1816e34e1fea05fff5e588ddf71956f7a5",
    "hmm.sym.al": "1b9b88dd7364fcb020f9c813d78fc9b126ad2c659c384945ab038c3afb24748a",
    "hmm.eval.tsv": "1c5ef139a4659d7510314ffc6e7cede11f25768c6e28b297df2e0ad2be09e9c0",
    "hmm.phrases.txt": "ac06cbce278d78c121920eb37b6f0dddccc3a0c5589f7c6d6759b211c2233fff",
}

TRACES = {
    "model1.fwd.trace": (
        "iteration 1: log-likelihood -13761.092074\n"
        "iteration 2: log-likelihood -13291.070071\n"
        "iteration 3: log-likelihood -12562.811132\n"
        "iteration 4: log-likelihood -11646.156207\n"
        "iteration 5: log-likelihood -10883.568615\n"
    ),
    "model1.rev.trace": (
        "iteration 1: log-likelihood -13761.092074\n"
        "iteration 2: log-likelihood -13291.070071\n"
        "iteration 3: log-likelihood -12562.811132\n"
        "iteration 4: log-likelihood -11646.156207\n"
        "iteration 5: log-likelihood -10883.568615\n"
    ),
    "model2.fwd.trace": (
        "iteration 1: log-likelihood -13761.092074\n"
        "iteration 2: log-likelihood -12016.969944\n"
        "iteration 3: log-likelihood -9381.252255\n"
        "iteration 4: log-likelihood -8004.386438\n"
        "iteration 5: log-likelihood -7670.530921\n"
    ),
    "model2.rev.trace": (
        "iteration 1: log-likelihood -13761.092074\n"
        "iteration 2: log-likelihood -12016.844503\n"
        "iteration 3: log-likelihood -9381.661367\n"
        "iteration 4: log-likelihood -8004.805898\n"
        "iteration 5: log-likelihood -7670.821280\n"
    ),
    "hmm.fwd.trace": (
        "iteration 1: log-likelihood -10764.536172\n"
        "iteration 2: log-likelihood -9689.452544\n"
        "iteration 3: log-likelihood -8291.126187\n"
        "iteration 4: log-likelihood -6859.297495\n"
        "iteration 5: log-likelihood -5667.713068\n"
    ),
    "hmm.rev.trace": (
        "iteration 1: log-likelihood -10764.536172\n"
        "iteration 2: log-likelihood -9693.311584\n"
        "iteration 3: log-likelihood -8315.649829\n"
        "iteration 4: log-likelihood -6901.890426\n"
        "iteration 5: log-likelihood -5724.485867\n"
    ),
    "hmm-no-null.fwd.trace": (
        "iteration 1: log-likelihood -10336.004384\n"
        "iteration 2: log-likelihood -9103.388072\n"
        "iteration 3: log-likelihood -7753.152716\n"
        "iteration 4: log-likelihood -6388.059363\n"
        "iteration 5: log-likelihood -5143.647225\n"
    ),
    "hmm-no-null.rev.trace": (
        "iteration 1: log-likelihood -10336.004384\n"
        "iteration 2: log-likelihood -9109.322112\n"
        "iteration 3: log-likelihood -7788.682350\n"
        "iteration 4: log-likelihood -6450.583136\n"
        "iteration 5: log-likelihood -5213.296130\n"
    ),
}

# name -> (entries, [(e, f, prob) sampled at even steps over the entries],
# the trailer's fields that are numbers)
TABLES = {
    "model1.fwd.model": (
        3660,
        [
            (-1, 1, 0.02942165948258312), (2, 40, 0.002192291117955265),
            (5, 19, 0.003985438401420338), (7, 58, 0.0008819534459762091),
            (10, 37, 0.0006079393071661265), (13, 16, 0.0017500049756534043),
            (15, 55, 0.0024956114587447635), (18, 34, 0.007743577047846263),
            (21, 13, 0.0017424161658397153), (23, 52, 0.0038117187325942535),
            (26, 31, 0.0011502502608443815), (29, 10, 0.002992504637257535),
            (31, 50, 0.000832356371137129), (34, 29, 0.00024249385540883712),
            (37, 8, 0.010489142832862217), (39, 47, 0.0016707480239747895),
            (42, 26, 0.0029313507140764214), (45, 5, 0.004894814804618695),
            (47, 44, 0.00048717055601242446), (50, 23, 0.0006244808720153596),
            (53, 2, 0.009383359920140368), (55, 41, 0.0005651992666479365),
            (58, 20, 0.0033485709240114875), (60, 60, 0.8175565030106421),
        ],
        [],
    ),
    "model1.rev.model": (
        3660,
        [
            (-1, 1, 0.02942165948258312), (2, 40, 0.002192291117955265),
            (5, 19, 0.003985438401420336), (7, 58, 0.0008819534459762091),
            (10, 37, 0.0006079393071661264), (13, 16, 0.001750004975653404),
            (15, 55, 0.0024956114587447635), (18, 34, 0.007743577047846266),
            (21, 13, 0.0017424161658397155), (23, 52, 0.003811718732594256),
            (26, 31, 0.0011502502608443815), (29, 10, 0.0029925046372575375),
            (31, 50, 0.0008323563711371284), (34, 29, 0.00024249385540883704),
            (37, 8, 0.010489142832862217), (39, 47, 0.0016707480239747897),
            (42, 26, 0.0029313507140764222), (45, 5, 0.004894814804618696),
            (47, 44, 0.0004871705560124244), (50, 23, 0.0006244808720153597),
            (53, 2, 0.00938335992014037), (55, 41, 0.0005651992666479366),
            (58, 20, 0.003348570924011487), (60, 60, 0.8175565030106421),
        ],
        [],
    ),
    "model2.fwd.model": (
        3660,
        [
            (-1, 1, 0.040231981660627365), (2, 40, 3.640406591924383e-05),
            (5, 19, 0.0003366464921666692), (7, 58, 8.624722238432e-05),
            (10, 37, 3.5947153852392587e-06), (13, 16, 0.00011147006661007553),
            (15, 55, 4.4108541348721125e-05), (18, 34, 7.24688670345471e-05),
            (21, 13, 1.480194270121054e-05), (23, 52, 0.0001562956793376914),
            (26, 31, 9.860817245328406e-06), (29, 10, 0.0002441828034752541),
            (31, 50, 2.3939211258746183e-05), (34, 29, 4.4491956126234945e-06),
            (37, 8, 0.00013699246684631554), (39, 47, 4.87412636498765e-05),
            (42, 26, 0.0002696738690389219), (45, 5, 0.00030899475957715626),
            (47, 44, 5.37194409510144e-06), (50, 23, 5.445656891594629e-06),
            (53, 2, 0.00011748700527673544), (55, 41, 1.3080076100963566e-05),
            (58, 20, 8.618432137074595e-05), (60, 60, 0.9935753082086051),
        ],
        [4.0, 0.08],
    ),
    "model2.rev.model": (
        3660,
        [
            (-1, 1, 0.03986565109138503), (2, 40, 3.336676551421419e-05),
            (5, 19, 0.0002964061524689399), (7, 58, 0.00010348180243717796),
            (10, 37, 4.071166541517136e-06), (13, 16, 0.00010537326336045222),
            (15, 55, 4.3980571595392196e-05), (18, 34, 5.947237189825868e-05),
            (21, 13, 1.623384547361686e-05), (23, 52, 0.00016575549285583442),
            (26, 31, 9.987538261651614e-06), (29, 10, 0.00023815304099090968),
            (31, 50, 2.1654651285660534e-05), (34, 29, 3.5719661964382778e-06),
            (37, 8, 0.00013388584139508136), (39, 47, 5.2806348507073585e-05),
            (42, 26, 0.000230197902530209), (45, 5, 0.00033705555217307723),
            (47, 44, 4.743646558408908e-06), (50, 23, 5.448074265621766e-06),
            (53, 2, 0.00016943567342674143), (55, 41, 1.0876572556690988e-05),
            (58, 20, 8.500418414709728e-05), (60, 60, 0.9936022570229676),
        ],
        [4.0, 0.08],
    ),
    "hmm.fwd.model": (
        3645,
        [
            (-1, 1, 0.059493472716303564), (2, 39, 1.249951458279505e-07),
            (5, 17, 4.324881316715234e-07), (7, 57, 2.9343743575241517e-09),
            (10, 35, 8.86767663144367e-09), (13, 15, 1.550965205484543e-08),
            (15, 53, 1.7068421369470608e-06), (18, 32, 0.0004441735299157308),
            (21, 11, 6.111612680421565e-08), (23, 49, 4.0476463500968015e-09),
            (26, 29, 1.2329920109951974e-07), (29, 7, 3.169071087939827e-09),
            (31, 46, 1.2408840667773793e-09), (34, 24, 3.43054697258446e-09),
            (37, 3, 9.939338263285476e-08), (39, 41, 3.428097925734563e-09),
            (42, 19, 1.1590814207143568e-08), (45, 1, 1.2139349287552189e-07),
            (47, 39, 7.707604094591436e-07), (50, 20, 8.540469993336913e-08),
            (52, 60, 7.743140517718787e-08), (55, 39, 6.8201106989506144e-09),
            (58, 19, 1.0987030533510217e-09), (60, 60, 0.9975628143521922),
        ],
        [
            5.0, 0.2, -5.0, 0.008040448150758276, -4.0, 5.363267172758527e-08, -3.0,
            1.3336672938772664e-06, -2.0, 2.5449653431166116e-08, -1.0, 0.11402265451838013,
            0.0, 1.3054153570245736e-06, 1.0, 0.6098950084304045, 2.0, 0.2582443182152043, 3.0,
            0.004075466239155843, 4.0, 5.428764567532702e-09, 5.0, 0.005719380852356256,
        ],
    ),
    "hmm.rev.model": (
        3648,
        [
            (-1, 1, 0.045119735820911576), (2, 39, 0.00025547173841389113),
            (5, 18, 2.205742023635842e-11), (7, 57, 2.0105666753011057e-08),
            (10, 36, 4.302391505818335e-10), (13, 14, 8.436906358141691e-09),
            (15, 53, 1.756420636288001e-07), (18, 32, 4.224673934682432e-05),
            (21, 12, 2.9848683634557895e-08), (23, 51, 0.0005251703271312626),
            (26, 29, 3.367240989282502e-08), (29, 8, 1.7747215532156331e-09),
            (31, 46, 5.7332507300055624e-08), (34, 26, 5.374420822713956e-06),
            (37, 5, 5.163941670328134e-09), (39, 44, 9.691336013004323e-11),
            (42, 23, 1.3033487453469122e-08), (45, 2, 8.502323570476389e-08),
            (47, 41, 5.309601676208151e-10), (50, 21, 4.022029100229274e-08),
            (52, 60, 3.930893390337634e-08), (55, 38, 2.4960860726327764e-08),
            (58, 19, 8.472051349150034e-10), (60, 60, 0.9939571854441229),
        ],
        [
            5.0, 0.2, -5.0, 0.009088716389555133, -4.0, 3.794508989111646e-07, -3.0,
            4.734722604199861e-07, -2.0, 1.4644436633402583e-08, -1.0, 0.11267793007247039, 0.0,
            1.1467449468142288e-06, 1.0, 0.6112794061730495, 2.0, 0.2563817370528988, 3.0,
            0.004287230760597768, 4.0, 1.910978416307315e-08, 5.0, 0.006282946129101473,
        ],
    ),
    "hmm-no-null.fwd.model": (
        3581,
        [
            (1, 1, 0.9997130873423605), (3, 36, 0.001568269142868507),
            (6, 12, 1.6171794155061394e-10), (8, 48, 3.6617698095263453e-08),
            (11, 24, 4.311210984726288e-08), (14, 1, 5.67767111255118e-07),
            (16, 37, 5.876293174466668e-08), (19, 14, 1.4999035506291692e-07),
            (21, 50, 7.478498970960317e-09), (24, 26, 1.8238081884386663e-09),
            (27, 2, 3.8608273965519703e-10), (29, 38, 2.5951472718614786e-10),
            (32, 13, 2.2352524148118003e-07), (34, 49, 3.353314418480578e-11),
            (37, 25, 1.395240145244306e-07), (39, 60, 2.499513783109783e-09),
            (42, 36, 1.8613370966811706e-07), (45, 15, 1.0753929877781632e-08),
            (47, 51, 1.3890722167058975e-06), (50, 30, 2.097271378532597e-10),
            (53, 9, 7.368949786816663e-08), (55, 44, 5.292614838987043e-11),
            (58, 22, 6.157695109755203e-07), (60, 60, 0.9894693701613386),
        ],
        [
            5.0, 0.2, -5.0, 0.00838821137814534, -4.0, 6.504527572149684e-08, -3.0,
            2.9680903367416562e-06, -2.0, 2.1667171236441673e-08, -1.0, 0.15586148087470098,
            0.0, 3.0289816612359317e-06, 1.0, 0.5551171618358799, 2.0, 0.254460678620914, 3.0,
            0.019766431639680424, 4.0, 1.6866471473931478e-09, 5.0, 0.006399950179587158,
        ],
    ),
    "hmm-no-null.rev.model": (
        3585,
        [
            (1, 1, 0.9912527906195249), (3, 36, 3.656237794482946e-08),
            (6, 12, 6.883689482244974e-12), (8, 49, 6.285414244119328e-10),
            (11, 25, 6.984940637235607e-07), (14, 1, 5.359999508490393e-07),
            (16, 36, 1.7466554282759697e-07), (19, 14, 9.4751921699724e-08),
            (21, 50, 0.0008795618488747122), (24, 26, 1.6199117679494845e-09),
            (27, 2, 5.157027487001413e-09), (29, 38, 6.805973206575059e-09),
            (32, 13, 1.5432160737448322e-07), (34, 50, 3.911168038507247e-07),
            (37, 26, 8.138805699233353e-08), (40, 2, 1.0109140243292297e-08),
            (42, 38, 1.3915441921950756e-08), (45, 15, 1.255221080899815e-07),
            (47, 51, 7.889868602499276e-07), (50, 29, 4.285415205780438e-07),
            (53, 6, 3.8290140423245224e-11), (55, 43, 7.336481667858916e-09),
            (58, 22, 4.325492310835884e-06), (60, 60, 0.9813942861782471),
        ],
        [
            5.0, 0.2, -5.0, 0.009540671633342714, -4.0, 1.0796838468292218e-06, -3.0,
            1.2223630608274705e-06, -2.0, 1.4208041569295536e-08, -1.0, 0.1555611466428867, 0.0,
            1.230312303192491e-06, 1.0, 0.5539747981115575, 2.0, 0.2538634907940265, 3.0,
            0.020019642227891356, 4.0, 2.1079155762557596e-09, 5.0, 0.0070367019151273994,
        ],
    ),
}


# At this cap the corpus is several chunks.
SMALL_CHUNK_CELLS = 4096
SAMPLES = 24


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pipeline(root, corpus, gold, jobs: int) -> dict:
    """{output name: what the test compares} for one run of the pipeline
    in the new directory root: a digest, a training trace, or a model
    file's (table, trailer)."""
    root.mkdir()
    results = {}
    for name, flags in MODELS.items():
        aligned = {}
        for direction in ("fwd", "rev"):
            reverse = ["--reverse"] if direction == "rev" else []
            model, out = root / f"{name}.{direction}.model", root / f"{name}.{direction}.al"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert cli.main([
                    "train", *flags, "--bitext", str(corpus), "--output", str(model),
                    "--jobs", str(jobs), *reverse,
                ]) == 0
            results[f"{name}.{direction}.trace"] = err.getvalue()
            results[model.name] = read_ttable(model.read_bytes())[:2]
            assert cli.main([
                "align", "--model-file", str(model), "--bitext", str(corpus),
                "--output", str(out), *reverse,
            ]) == 0
            aligned[direction] = out
        post = {
            "sym.al": ["symmetrize", "--forward", str(aligned["fwd"]),
                       "--backward", str(aligned["rev"]), "--heuristic", "grow-diag-final-and"],
            "eval.tsv": ["eval", "--hypothesis", str(root / f"{name}.sym.al"),
                         "--gold", str(gold), "--tsv"],
            "phrases.txt": ["extract-phrases", "--bitext", str(corpus),
                            "--alignments", str(root / f"{name}.sym.al")],
        }
        for suffix, argv in post.items():
            out = root / f"{name}.{suffix}"
            assert cli.main([*argv, "--output", str(out)]) == 0
        for path in (*aligned.values(), *(root / f"{name}.{s}" for s in post)):
            results[path.name] = digest(path)
    return results


@pytest.fixture(scope="module")
def pipelines(tmp_path_factory) -> dict:
    """{run name: (the digests it must give, its results)}."""
    root = tmp_path_factory.mktemp("golden")
    corpus, gold = root / "corpus.txt", root / "gold.wpt"
    assert cli.main([
        "synth", "--pairs", "150", "--vocab-size", "60", "--min-len", "3", "--max-len", "40",
        "--swap-rate", "0.2", "--seed", "11",
        "--output-bitext", str(corpus), "--output-gold", str(gold),
    ]) == 0
    runs = {"--jobs 1": (DIGESTS, run_pipeline(root / "jobs1", corpus, gold, 1))}
    pools = []

    class RecordedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_packed, "CHUNK_CELLS", SMALL_CHUNK_CELLS)
        patch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordedPool)
        runs["--jobs 2, split"] = (SPLIT_DIGESTS, run_pipeline(root / "jobs2", corpus, gold, 2))
    assert pools and set(pools) == {2}
    return runs


def versions() -> str:
    return f"numpy {np.__version__}, recorded with numpy {RECORDED_WITH['numpy']}"


def test_align_output_matches_its_digests(pipelines):
    # Every output of both runs: the alignments and what is made of them.
    moved = [
        f"{run}: {name}: {results.get(name)} (recorded {want})"
        for run, (digests, results) in pipelines.items()
        for name, want in digests.items()
        if results.get(name) != want
    ]
    assert not moved, f"outputs changed ({versions()}):\n" + "\n".join(moved)


def test_training_traces_match(pipelines):
    moved = [
        f"{run}: {name}"
        for run, (_, results) in pipelines.items()
        for name, want in TRACES.items()
        if results.get(name) != want
    ]
    assert not moved, f"training traces changed ({versions()}): {moved}"


def test_model_files_match_by_value(pipelines):
    moved = []
    for run, (_, results) in pipelines.items():
        for name, (size, sampled, numbers) in TABLES.items():
            table, trailer = results[name]
            got = [table.prob(e, f) for e, f, _ in sampled]
            fields = [float(x) for line in trailer for x in line.split("\t")[1:]]
            if len(table) != size or len(fields) != len(numbers) or not (
                np.allclose(got, [p for _, _, p in sampled], rtol=1e-9, atol=0.0)
                and np.allclose(fields, numbers, rtol=1e-9, atol=0.0)
            ):
                moved.append(f"{run}: {name}")
    assert not moved, f"model files changed ({versions()}): {moved}"


def test_every_output_is_pinned(pipelines):
    for digests, results in pipelines.values():
        assert sorted(results) == sorted({*digests, *TRACES, *TABLES})
