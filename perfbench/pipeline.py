"""Corpus set-up, the seven README pipeline stages, and their output checks.

A workload's corpus is built by `alignkit synth`, one call per length
band, with the bands interleaved line by line. Every seed therefore
yields the same mix of sentence lengths, so run-to-run differences in
work come from token identities, swaps and insertions, not from a
different length profile; gold sentence ids are renumbered to match.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

STAGES = (
    "train.fwd",
    "train.rev",
    "align.fwd",
    "align.rev",
    "symmetrize",
    "eval",
    "extract-phrases",
)
TRAIN_STAGES = STAGES[:2]
ALIGN_STAGES = STAGES[2:4]
POST_STAGES = STAGES[4:]

# Output file -> the stage that wrote it; a bad file fails that stage.
DIGESTED = {
    "fwd.al": "align.fwd",
    "rev.al": "align.rev",
    "sym.al": "symmetrize",
    "phrases.txt": "extract-phrases",
}

# numpy here links a multithreaded OpenBLAS; with a --jobs pool on top,
# unpinned BLAS threads would oversubscribe the cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@functools.cache
def workloads() -> dict[str, dict]:
    """Workload definitions: corpus shape, seeds, AER ceiling, stored digests."""
    return json.loads(Path(__file__).with_name("workloads.json").read_text())


def stage_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def stage_argvs(spec: dict, workdir: Path, jobs: int) -> dict[str, list[str]]:
    """`alignkit` arguments of each stage, exactly as the README runs them."""
    w = lambda name: str(workdir / name)
    train = ["train", "--model", spec["model"], "--bitext", w("corpus.txt"), "--jobs", str(jobs)]
    return {
        "train.fwd": train + ["--output", w("fwd.model")],
        "train.rev": train + ["--output", w("rev.model"), "--reverse"],
        "align.fwd": ["align", "--model-file", w("fwd.model"), "--bitext", w("corpus.txt"),
                      "--output", w("fwd.al")],
        "align.rev": ["align", "--model-file", w("rev.model"), "--bitext", w("corpus.txt"),
                      "--reverse", "--output", w("rev.al")],
        "symmetrize": ["symmetrize", "--forward", w("fwd.al"), "--backward", w("rev.al"),
                       "--heuristic", "grow-diag-final-and", "--output", w("sym.al")],
        "eval": ["eval", "--hypothesis", w("sym.al"), "--gold", w("gold.wpt"), "--tsv",
                 "--output", w("eval.tsv")],
        "extract-phrases": ["extract-phrases", "--bitext", w("corpus.txt"),
                            "--alignments", w("sym.al"), "--output", w("phrases.txt")],
    }


def run_cli(args: list[str], workdir: Path, deadline: float) -> tuple[int, float, float]:
    """Run `python -m alignkit.cli ARGS`; see run_python."""
    return run_python(["-m", "alignkit.cli", *args], workdir, deadline)


def run_python(args: list[str], workdir: Path, deadline: float) -> tuple[int, float, float]:
    """Run `python ARGS` as its own process.

    Returns (exit code, wall seconds, peak resident set in MB). The process
    runs in its own session; at `deadline` (a time.monotonic value) the whole
    session, pool workers included, is killed. The process is always reaped.
    """
    with open(workdir / "stages.log", "a", encoding="utf-8") as log:
        log.write(f"$ python {' '.join(args)[:200]}\n")
        log.flush()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdout=log, stderr=log, stdin=subprocess.DEVNULL, env=stage_env(), cwd=workdir,
            start_new_session=True,
        )
        killer = threading.Timer(
            max(0.0, deadline - time.monotonic()), os.killpg, (proc.pid, signal.SIGKILL)
        )
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


# Host speed on a shared machine swings by up to 2x, and every stage slows
# with it. The swings are not a slow drift: each core flips between a fast
# and a slow state every few seconds, independently of the other, and some
# stretches of minutes are slow throughout. This fixed job, which shares no
# code with alignkit, does what a stage does: start an interpreter, import
# numpy, and run small dict, string and array work. One copy per core runs
# between set-ups and between groups of stages (run.SEGMENTS), and each
# set-up and stage time is scaled by REFERENCE_S / (the mean of the runs
# just before and just after it), i.e. to a host on which the job takes
# REFERENCE_S seconds.
REFERENCE_JOB = """
import numpy as np
trans = np.full((24, 24), 1.0 / 24)
state = np.ones(24)
table = {k: k * 0.5 for k in range(4096)}
acc = 0.0
for k in range(12000):
    state = (state @ trans) * 1.01
    state /= state.sum()
    acc += table[(k * 7) % 4096] + len(f"{k} {acc:.3f}".split())
"""
REFERENCE_S = 0.3
REFERENCE_COPIES = min(2, os.cpu_count() or 1)


def scale(seconds: float, before: float, after: float) -> float:
    """SECONDS on a host where the reference job takes REFERENCE_S, given
    the reference times just BEFORE and AFTER."""
    return seconds * 2 * REFERENCE_S / (before + after)


def run_reference(workdir: Path, deadline: float) -> float:
    """Mean wall seconds of REFERENCE_COPIES reference jobs run at once.

    Raises RuntimeError if one fails.
    """
    with ThreadPoolExecutor(REFERENCE_COPIES) as pool:
        runs = list(pool.map(lambda _: run_python(["-c", REFERENCE_JOB], workdir, deadline),
                             range(REFERENCE_COPIES)))
    for code, _, _ in runs:
        if code != 0:
            raise RuntimeError(f"reference job exited {code}; see {workdir / 'stages.log'}")
    return sum(seconds for _, seconds, _ in runs) / len(runs)


def setup_corpus(spec: dict, seed: int, workdir: Path, deadline: float) -> float:
    """Synthesize the workload corpus into WORKDIR; returns wall seconds.

    Raises RuntimeError when a synth call fails: without a corpus there is
    nothing to measure.
    """
    start = time.perf_counter()
    bands = []
    for b, (lo, hi) in enumerate(spec["bands"]):
        bitext, gold = workdir / f"band{b}.txt", workdir / f"band{b}.wpt"
        code, _, _ = run_cli(
            ["synth", "--pairs", str(spec["pairs_per_band"]),
             "--vocab-size", str(spec["vocab_size"]),
             "--min-len", str(lo), "--max-len", str(hi),
             "--swap-rate", str(spec["swap_rate"]), "--insert-rate", str(spec["insert_rate"]),
             "--seed", str(seed * 1000 + b),
             "--output-bitext", str(bitext), "--output-gold", str(gold)],
            workdir, deadline,
        )
        if code != 0:
            raise RuntimeError(f"synth for band {b} exited {code}; see {workdir / 'stages.log'}")
        gold_by_sid: dict[int, list[str]] = {}
        for line in gold.read_text(encoding="utf-8").splitlines():
            sid, rest = line.split(" ", 1)
            gold_by_sid.setdefault(int(sid), []).append(rest)
        bands.append((bitext.read_text(encoding="utf-8").splitlines(), gold_by_sid))
    corpus, gold_lines = [], []
    for k in range(spec["pairs_per_band"]):
        for lines, gold_by_sid in bands:
            corpus.append(lines[k])
            gold_lines += [f"{len(corpus)} {rest}" for rest in gold_by_sid.get(k + 1, [])]
    (workdir / "corpus.txt").write_text("\n".join(corpus) + "\n", encoding="utf-8")
    (workdir / "gold.wpt").write_text("\n".join(gold_lines) + "\n", encoding="utf-8")
    return time.perf_counter() - start


def corpus_sizes(workdir: Path) -> list[tuple[int, int]]:
    """(source length, target length) of every corpus line."""
    sizes = []
    for line in (workdir / "corpus.txt").read_text(encoding="utf-8").splitlines():
        src, _, tgt = line.partition(" ||| ")
        sizes.append((len(src.split()), len(tgt.split())))
    return sizes


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_pharaoh(path: Path, sizes: list[tuple[int, int]], reverse: bool) -> list[str]:
    """One line per pair, every `j-i` link inside the pair's bounds."""
    if not path.exists():
        return [f"{path.name} is missing"]
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != len(sizes):
        return [f"{path.name} has {len(lines)} lines for {len(sizes)} pairs"]
    for k, (line, (m, n)) in enumerate(zip(lines, sizes), start=1):
        if reverse:
            m, n = n, m
        for link in line.split():
            j, sep, i = link.partition("-")
            if not (sep and j.isdigit() and i.isdigit() and int(j) < m and int(i) < n):
                return [f"{path.name} line {k}: link {link!r} outside {m}x{n}"]
    return []


def _check_eval(path: Path, n_pairs: int, ceiling: float) -> tuple[list[str], dict[str, float]]:
    if not path.exists():
        return [f"{path.name} is missing"], {}
    report = dict(line.split("\t", 1) for line in path.read_text(encoding="utf-8").splitlines())
    problems = []
    if int(report.get("evaluated", -1)) != n_pairs:
        problems.append(f"eval scored {report.get('evaluated')} of {n_pairs} sentences")
    scores = {key: float(report[key]) for key in ("aer", "f1") if key in report}
    if not 0.0 <= scores.get("aer", -1.0) <= ceiling:
        problems.append(f"AER {scores.get('aer')} above the workload ceiling {ceiling}")
    return problems, scores


def _check_phrases(path: Path) -> list[str]:
    if not path.exists():
        return [f"{path.name} is missing"]
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        return [f"{path.name} is empty"]
    for k, line in enumerate(lines, start=1):
        if line.count(" ||| ") != 2 or len(line.rsplit(" ||| ", 1)[1].split()) != 3:
            return [f"{path.name} line {k} is not `src ||| tgt ||| p p count`"]
    return []


def check_outputs(
    workdir: Path, sizes: list[tuple[int, int]], spec: dict
) -> tuple[dict[str, list[str]], dict[str, str], dict[str, float]]:
    """Check every output file of one pipeline run.

    Returns (problems by stage, sha256 by output file, corpus AER and F1).
    """
    problems: dict[str, list[str]] = {stage: [] for stage in STAGES}
    problems["align.fwd"] += _check_pharaoh(workdir / "fwd.al", sizes, reverse=False)
    problems["align.rev"] += _check_pharaoh(workdir / "rev.al", sizes, reverse=True)
    problems["symmetrize"] += _check_pharaoh(workdir / "sym.al", sizes, reverse=False)
    eval_problems, scores = _check_eval(workdir / "eval.tsv", len(sizes), spec["aer_ceiling"])
    problems["eval"] += eval_problems
    problems["extract-phrases"] += _check_phrases(workdir / "phrases.txt")
    digests = {
        name: sha256(workdir / name) for name in DIGESTED if (workdir / name).exists()
    }
    return problems, digests, scores


def compare_digests(
    problems: dict[str, list[str]], digests: dict[str, str], expected: dict[str, str], what: str
) -> None:
    """Record a problem on the writing stage for each digest that differs."""
    for name, digest in expected.items():
        if digests.get(name) != digest:
            problems[DIGESTED[name]].append(f"{name} digest differs from {what}")
