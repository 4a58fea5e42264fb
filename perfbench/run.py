#!/usr/bin/env python3
"""Benchmark of the README command-line pipeline on seeded synthetic corpora.

    python3 perfbench/run.py --workload long --seed 1 --seconds 48 --trace 0
    python3 perfbench/run.py --workload all --out perfbench/BENCH_<label>.json

Set-up synthesizes the workload corpus with `alignkit synth` (see
pipeline.py). `--trace 0` then runs the seven README stages (train both
directions, align both directions, symmetrize, eval, extract-phrases),
each as a fresh `python -m alignkit.cli` process at --jobs min(2, nproc),
repeating the pipeline until --seconds have passed; in each repetition
the align and the post stages run twice (SEGMENTS). Before the train
stages, the align stages and the post stages, and after the last one, it
times a fixed reference job, one copy per core (pipeline.REFERENCE_JOB),
and scales each stage time by the runs of that job around it to a host
on which it takes pipeline.REFERENCE_S seconds, which takes out most of
the host-speed swings of a shared machine; the unscaled values are
printed above the result. The stage-time metrics are means over all runs
of each stage (measure_end_to_end says why); setup_s and the other
metrics are medians.

`--trace 1` runs the process pipeline once, then the same stages in this
process through `alignkit.cli.main` at --jobs 1 (pool workers would drop
spans), alternating an untraced and a traced pipeline, and reports the
per-layer metrics of the traced pipelines (see tracing.py). Its untraced
twin gives the tracing overhead, and the process run at the larger
--jobs must give the same digests as the in-process run at --jobs 1.

Every pipeline's outputs are checked (exit codes, Pharaoh files, AER
ceiling, phrase table, sha256 digests against the first repetition and,
at the workload's default seed, against workloads.json). A failed check
fails its stage and counts in `failed` without stopping the run. The
last line of standard output is one JSON object: correct, attempted,
failed and metrics. `--workload all` runs every workload both ways and
writes the whole record, with the environment, to --out.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pipeline
import tracing
from pipeline import ALIGN_STAGES, POST_STAGES, ROOT, SRC, STAGES, TRAIN_STAGES

os.environ.update(pipeline.BLAS_ENV)  # before numpy loads, for the in-process stages

BENCH_WORKLOADS = ("long", "lexical")
JOBS = min(2, os.cpu_count() or 1)  # --jobs of the process stages; never above the cores
SETUP_REPS = 3
MIN_REPS = 3
RUN_LIMIT_S = 170.0  # a run must end well within 180 s
# The stages of one repetition, in groups timed between two reference runs.
# The align and post stages read only files that earlier stages wrote, so
# they run twice in their group. Their times spread most from run to run,
# and more samples of them steady the run's mean more cheaply than more
# repetitions of the whole pipeline would.
SEGMENTS = (TRAIN_STAGES, ALIGN_STAGES * 2, POST_STAGES * 2)
OUTPUTS = ("fwd.model", "rev.model", "fwd.al", "rev.al", "sym.al", "eval.tsv", "phrases.txt")

END_TO_END_UNITS = {
    "pairs_per_s": "pairs/s",
    "train_s": "s",
    "align_s": "s",
    "post_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "f1": "fraction",
}


def summarize(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# Runs in a child: the stage processes report ru_maxrss, which counts the
# memory of the process that forked them, so this one must stay small.
NUMPY_PROBE = """import json, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception:  # the layout of show_config differs across numpy versions
    blas = "unknown"
print(json.dumps([numpy.__version__, blas]))
"""


def environment() -> dict:
    probe = subprocess.run([sys.executable, "-c", NUMPY_PROBE], env=pipeline.stage_env(),
                           capture_output=True, text=True, check=True)
    numpy_version, blas = json.loads(probe.stdout)
    revision, dirty = "unknown", None
    if (ROOT / ".git").exists():
        git = lambda *a: subprocess.run(
            ["git", *a], cwd=ROOT, capture_output=True, text=True, check=False
        ).stdout.strip()
        revision = git("rev-parse", "HEAD") or "unknown"
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": blas,
        "blas_threads": pipeline.BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "jobs": JOBS,
        "revision": revision,
        "dirty": dirty,
    }


def clear_outputs(workdir: Path) -> None:
    """Remove the last pipeline's outputs, so a stage that writes nothing fails its check."""
    for name in OUTPUTS:
        for suffix in ("", ".source-vocab", ".target-vocab"):
            (workdir / f"{name}{suffix}").unlink(missing_ok=True)


def finish_checks(workdir, sizes, spec, codes, baselines) -> tuple[dict, dict, dict]:
    """Check one pipeline's outputs; BASELINES are (digests, description)."""
    problems, digests, scores = pipeline.check_outputs(workdir, sizes, spec)
    for stage, code in codes.items():
        if code != 0:
            problems[stage].append(f"exited {code}")
    for expected, what in baselines:
        pipeline.compare_digests(problems, digests, expected, what)
    return problems, digests, scores


def report_problems(label: str, problems: dict[str, list[str]]) -> int:
    failed = 0
    for stage, found in problems.items():
        if found:
            failed += 1
            print(f"FAILED {label} {stage}: {'; '.join(found)}")
    return failed


def process_pipeline(spec, workdir, sizes, deadline, baselines, references=None):
    """Run the stages of SEGMENTS as processes; returns (record, problems, digests, scores).

    The record holds each stage's wall seconds, one per run, by segment,
    and its largest peak RSS. A stage fails if any of its runs exits
    non-zero; the checks read the outputs of the last runs. With a
    REFERENCES list, a reference job runs before each of SEGMENTS and its
    time is appended there.
    """
    clear_outputs(workdir)
    argvs = pipeline.stage_argvs(spec, workdir, JOBS)
    seconds = [{stage: [] for stage in segment} for segment in SEGMENTS]
    rss, codes = dict.fromkeys(STAGES, 0.0), dict.fromkeys(STAGES, 0)
    for segment, times in zip(SEGMENTS, seconds):
        if references is not None:
            references.append(pipeline.run_reference(workdir, deadline))
        for stage in segment:
            code, secs, peak = pipeline.run_cli(argvs[stage], workdir, deadline)
            codes[stage] = codes[stage] or code
            times[stage].append(secs)
            rss[stage] = max(rss[stage], peak)
    problems, digests, scores = finish_checks(workdir, sizes, spec, codes, baselines)
    return {"seconds": seconds, "rss_mb": rss}, problems, digests, scores


def alignkit_cli():
    """alignkit.cli imported from this checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
        # cli.main configures logging on its first call; bind it to the real
        # stderr now, not to the stage log the call is redirected into.
        logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")
    from alignkit import cli

    if Path(cli.__file__).resolve().parent != SRC / "alignkit":
        raise RuntimeError(f"imported alignkit from {cli.__file__}, not from {SRC}")
    return cli


def inprocess_pipeline(spec, workdir, sizes, tracer, baselines):
    """Run the seven stages through alignkit.cli.main at --jobs 1."""
    cli = alignkit_cli()
    clear_outputs(workdir)
    argvs = pipeline.stage_argvs(spec, workdir, jobs=1)
    seconds, codes = {}, {}
    with open(workdir / "stages.log", "a", encoding="utf-8") as log:
        for stage in STAGES:
            with redirect_stdout(log), redirect_stderr(log):
                start = time.perf_counter()
                try:
                    if tracer is None:
                        codes[stage] = cli.main(argvs[stage])
                    else:
                        codes[stage] = tracer.run_stage(stage, cli.main, argvs[stage])
                except Exception:  # a crash fails the stage; the run goes on
                    traceback.print_exc()
                    codes[stage] = -1
                seconds[stage] = time.perf_counter() - start
    problems, digests, _ = finish_checks(workdir, sizes, spec, codes, baselines)
    return seconds, problems, digests


def stored_digests(spec, seed) -> list[tuple[dict, str]]:
    if seed == spec["default_seed"] and spec.get("digests"):
        return [(spec["digests"], "the digests stored for the default seed")]
    return []


def measure_end_to_end(name, spec, seed, seconds, workdir, deadline) -> dict:
    # Each set-up is scaled by the reference runs around it, as the stages are.
    setup, setup_refs = [], [pipeline.run_reference(workdir, deadline)]
    for _ in range(SETUP_REPS):
        setup.append(pipeline.setup_corpus(spec, seed, workdir, deadline))
        setup_refs.append(pipeline.run_reference(workdir, deadline))
    setup_scaled = [
        pipeline.scale(t, before, after)
        for t, before, after in zip(setup, setup_refs, setup_refs[1:])
    ]
    sizes = pipeline.corpus_sizes(workdir)
    baselines = stored_digests(spec, seed)
    reps, scores, attempted, failed = [], [], 0, 0
    references = []
    start = time.monotonic()
    last = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed + last > seconds:
            break
        if reps and time.monotonic() + last > deadline:
            break
        t0 = time.monotonic()
        rep, problems, digests, rep_scores = process_pipeline(
            spec, workdir, sizes, deadline, baselines, references
        )
        last = time.monotonic() - t0
        if len(reps) == 0:
            baselines = baselines + [(digests, "the first repetition")]
        attempted += len(STAGES)
        failed += report_problems(f"{name} rep {len(reps) + 1}", problems)
        reps.append(rep)
        print(f"  rep {len(reps)}: " + " ".join(
            f"{s} {t:.3f}" for times in rep["seconds"] for s, ts in times.items() for t in ts))
        scores.append(rep_scores)
    references.append(pipeline.run_reference(workdir, deadline))
    # Each core's speed flips between two states every few seconds (see
    # pipeline.REFERENCE_JOB), so a stage time is bimodal. The median of the
    # few repetitions a run fits jumps between the two modes as the share of
    # slow time changes; the mean moves with that share smoothly. Each of
    # SEGMENTS is scaled by the mean of the reference runs just before and
    # just after it, which cancels most of the host's state at the time. So
    # time metrics are means over all runs of each stage's scaled time;
    # quartiles are of per-repetition sums of those means.
    scaled, unscaled_runs = [], []
    for i, rep in enumerate(reps):
        around = references[len(SEGMENTS) * i:len(SEGMENTS) * (i + 1) + 1]
        scaled.append({s: [] for s in STAGES})
        unscaled_runs.append({s: [] for s in STAGES})
        for k, times in enumerate(rep["seconds"]):
            for s, ts in times.items():
                scaled[-1][s] += [pipeline.scale(t, around[k], around[k + 1]) for t in ts]
                unscaled_runs[-1][s] += ts
    mean_of = lambda runs, s: statistics.fmean(t for r in runs for t in r[s])
    stage_means = {s: mean_of(scaled, s) for s in STAGES}
    metrics = {}
    for metric, stages in (("train_s", TRAIN_STAGES), ("align_s", ALIGN_STAGES),
                           ("post_s", POST_STAGES), ("pairs_per_s", STAGES)):
        per_rep = [sum(statistics.fmean(r[s]) for s in stages) for r in scaled]
        value = sum(stage_means[s] for s in stages)
        if metric == "pairs_per_s":
            per_rep, value = [len(sizes) / t for t in per_rep], len(sizes) / value
        metrics[metric] = dict(summarize(per_rep), value=value)
    metrics["peak_rss_mb"] = summarize([max(r["rss_mb"].values()) for r in reps])
    metrics["setup_s"] = summarize(setup_scaled)
    unscaled = lambda stages: sum(mean_of(unscaled_runs, s) for s in stages)
    raw = {"train_s": unscaled(TRAIN_STAGES), "align_s": unscaled(ALIGN_STAGES),
           "post_s": unscaled(POST_STAGES), "pairs_per_s": len(sizes) / unscaled(STAGES),
           "setup_s": statistics.median(setup)}
    # Synth gold links are all sure, so F1 = 1 - AER. F1 is the bounded
    # quality metric because a relative bound on a small AER is swamped by
    # seed-to-seed variation; a missing report scores 0.
    metrics["f1"] = summarize([s.get("f1", 0.0) for s in scores])
    aer = summarize([s.get("aer", 1.0) for s in scores])
    return {
        "pairs": len(sizes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: metrics[k] for k in END_TO_END_UNITS},
        "units": END_TO_END_UNITS,
        "aer": aer["value"],
        "aer_ceiling": spec["aer_ceiling"],
        "raw": raw,
        "reference_s": dict(summarize(references), value=statistics.fmean(references)),
        "stage_mean_s": stage_means,
        "digests": digests,
    }


def measure_per_layer(name, spec, seed, seconds, workdir, deadline) -> dict:
    pipeline.setup_corpus(spec, seed, workdir, deadline)
    sizes = pipeline.corpus_sizes(workdir)
    _, problems, process_digests, _ = process_pipeline(
        spec, workdir, sizes, deadline, stored_digests(spec, seed)
    )
    attempted, failed = len(STAGES), report_problems(f"{name} processes", problems)
    same_as_jobs = [(process_digests, f"the --jobs {JOBS} process run")]
    layers, stage_self = [], {}
    start = time.monotonic()
    last = 0.0
    while not layers or time.monotonic() - start + last <= seconds:
        if layers and time.monotonic() + last > deadline:
            break
        t0 = time.monotonic()
        plain, problems, _ = inprocess_pipeline(spec, workdir, sizes, None, same_as_jobs)
        failed += report_problems(f"{name} untraced --jobs 1", problems)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced, problems, _ = inprocess_pipeline(spec, workdir, sizes, tracer, same_as_jobs)
        failed += report_problems(f"{name} traced --jobs 1", problems)
        attempted += 2 * len(STAGES)
        last = time.monotonic() - t0
        values = tracer.layer_metrics(len(TRAIN_STAGES), len(ALIGN_STAGES))
        values[tracing.OVERHEAD_METRIC] = 100.0 * (
            sum(traced.values()) / sum(plain.values()) - 1.0
        )
        layers.append(values)
        stage_self = {
            stage: {"wall_s": traced[stage], "self_s": {}} for stage in STAGES
        }
        for (stage, metric), secs in tracer.self_times().items():
            stage_self[stage]["self_s"][metric] = secs
    units = tracing.per_layer_units()
    return {
        "pairs": len(sizes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: summarize([v[k] for v in layers]) for k in units},
        "units": units,
        "missing_hooks": tracer.missing,
        "stages": stage_self,
        "digests": process_digests,
    }


def print_result(name: str, seed: int, result: dict) -> None:
    print(f"workload {name} seed {seed}: {result['pairs']} pairs")
    print(f"  {'ops_failed':<24} {result['failed'] / result['attempted']:>14.6g} share    "
          f"({result['failed']} of {result['attempted']} stage runs)")
    for metric, s in result["metrics"].items():
        print(f"  {metric:<24} {s['value']:>14.6g} {result['units'][metric]:<8} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] n={s['n']}")
    if "aer" in result:
        print(f"  aer {result['aer']:.6g} (ceiling {result['aer_ceiling']})")
        ref = result["reference_s"]
        print(f"  reference job mean {ref['value']:.4f} s [q1 {ref['q1']:.4f}, q3 {ref['q3']:.4f}] "
              f"n={ref['n']}; times above are scaled to {pipeline.REFERENCE_S} s")
        print("  unscaled: " + " ".join(f"{k} {v:.6g}" for k, v in result["raw"].items()))
    for hook in result.get("missing_hooks", []):
        print(f"  missing hook {hook}: its metric reads 0")
    for stage, record in result.get("stages", {}).items():
        top = sorted(record["self_s"].items(), key=lambda kv: -kv[1])[:4]
        parts = ", ".join(f"{m} {v:.3f}" for m, v in top)
        print(f"  stage {stage:<16} wall {record['wall_s']:.3f} s: {parts}")
    for stage, secs in result.get("stage_mean_s", {}).items():
        print(f"  stage {stage:<16} mean {secs:.3f} s")


def run_one(name, seed, seconds, trace) -> dict:
    spec = pipeline.workloads()[name]
    workdir = ROOT / ".perfbench_work" / f"{name}-{seed}-{trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    measure = measure_per_layer if trace else measure_end_to_end
    try:
        result = measure(name, spec, seed, seconds, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_result(name, seed, result)
    return result


def summary_line(results: dict[str, dict]) -> str:
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {}
    for prefix, result in results.items():
        for metric, s in result["metrics"].items():
            key = f"{prefix}.{metric}" if prefix else metric
            metrics[key] = {"value": s["value"], "unit": result["units"][metric]}
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*pipeline.workloads(), "all"))
    parser.add_argument("--seed", type=int, default=None,
                        help="corpus seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=48.0,
                        help="measuring time per run (at least 3 repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="with --workload all: write the record here")
    args = parser.parse_args(argv)
    if not (SRC / "alignkit" / "cli.py").is_file():
        print(f"perfbench: no alignkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")

    env = environment()
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    try:
        if args.workload != "all":
            seed = pipeline.workloads()[args.workload]["default_seed"] if args.seed is None else args.seed
            result = run_one(args.workload, seed, args.seconds, args.trace)
            print(summary_line({"": result}))
            return 0
        record = {"environment": env, "seconds": args.seconds, "workloads": {}}
        results = {}
        # Untraced runs first: the traced runs load alignkit into this process.
        for trace in (0, 1):
            for name in BENCH_WORKLOADS:
                spec = pipeline.workloads()[name]
                seed = spec["default_seed"] if args.seed is None else args.seed
                result = run_one(name, seed, args.seconds, trace)
                entry = record["workloads"].setdefault(name, {"seed": seed})
                entry["per_layer" if trace else "end_to_end"] = result
                results[f"{name}.{'layer' if trace else 'e2e'}"] = result
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(summary_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
