"""The benchmark's own checks, on the tiny `smoke` workload (seconds to run).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import pipeline
import run
import tracing

ROOT = pipeline.ROOT
SPEC = pipeline.workloads()["smoke"]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    path = ROOT / ".perfbench_work" / f"test-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _corpus(workdir):
    pipeline.setup_corpus(SPEC, SPEC["default_seed"], workdir, time.monotonic() + 60)
    return pipeline.corpus_sizes(workdir)


# Seed 1 is smoke's default seed, so its digests are checked as well.
@pytest.mark.parametrize("trace, section, seed", [(0, "end_to_end", 1), (1, "per_layer", 3)])
def test_every_metric_is_emitted_with_its_unit(trace, section, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 7
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_corrupted_alignment_file_counts_as_failed_op(workdir):
    sizes = _corpus(workdir)
    _, problems, digests, _ = run.process_pipeline(SPEC, workdir, sizes, time.monotonic() + 120, [])
    assert run.report_problems("clean", problems) == 0

    lines = (workdir / "fwd.al").read_text().splitlines()
    m, n = sizes[0]
    lines[0] = f"{m}-{n}"  # one past the last position on both sides
    (workdir / "fwd.al").write_text("\n".join(lines) + "\n")
    baseline = [(digests, "the clean run")]
    codes = dict.fromkeys(pipeline.STAGES, 0)
    problems, _, _ = run.finish_checks(workdir, sizes, SPEC, codes, baseline)
    assert run.report_problems("corrupted", problems) == 1
    assert len(problems["align.fwd"]) == 2  # out-of-bounds link, digest mismatch

    (workdir / "rev.al").write_text("\n".join(lines[:-1]) + "\n")
    problems, _, _ = run.finish_checks(workdir, sizes, SPEC, codes, [])
    assert problems["align.rev"] and run.report_problems("truncated", problems) == 2


def test_missing_hook_target_is_reported_not_failed(monkeypatch):
    run.alignkit_cli()
    gone = "alignkit.hmm:_no_such_function"
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (("hmm.forward_s", gone, None, None),))
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == [gone]


def test_stage_self_times_add_up_to_stage_wall_time(workdir):
    sizes = _corpus(workdir)
    cli = run.alignkit_cli()
    original = cli.load_bitext
    tracer = tracing.Tracer()
    with tracer.installed():
        seconds, problems, _ = run.inprocess_pipeline(SPEC, workdir, sizes, tracer, [])
    assert cli.load_bitext is original  # hooks are undone
    assert run.report_problems("traced", problems) == 0

    by_stage = dict.fromkeys(pipeline.STAGES, 0.0)
    for (stage, _), secs in tracer.self_times().items():
        by_stage[stage] += secs
    for stage in pipeline.STAGES:
        assert by_stage[stage] == pytest.approx(seconds[stage], rel=0.02, abs=2e-3), stage
    layers = {metric for (_, metric), secs in tracer.self_times().items() if secs > 0}
    assert {"hmm.forward_s", "packed.pack_s", "ttable.read_s", "phrases.extract_s",
            tracing.ROOT_METRIC} <= layers
