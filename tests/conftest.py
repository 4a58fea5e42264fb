"""Shared fixtures, random-instance builders, and the acceptance report.

The terminal summary prints one PASS/FAIL line per acceptance criterion
(every test in test_acceptance.py) so the gate is readable at a glance,
and under a criterion that times itself, its call time against its budget.
"""

from __future__ import annotations

import concurrent.futures
import sys
import warnings
from contextlib import suppress

import numpy as np
import pytest

from alignkit.corpus import Bitext, SentencePair
from alignkit.ttable import TranslationTable

# ---------------------------------------------------------------------------
# builders


def make_bitext(id_pairs) -> Bitext:
    """Bitext straight from id sequences; training never touches the
    vocabularies, so none are attached."""
    pairs = [
        SentencePair(source_ids=tuple(src), target_ids=tuple(tgt))
        for src, tgt in id_pairs
    ]
    return Bitext(pairs=pairs, source_vocab=None, target_vocab=None)


def random_id_bitext(
    rng: np.random.Generator,
    n_pairs: int = 100,
    vocab: int = 50,
    max_len: int = 8,
) -> Bitext:
    id_pairs = []
    for _ in range(n_pairs):
        m = int(rng.integers(1, max_len + 1))
        n = int(rng.integers(1, max_len + 1))
        src = [int(x) for x in rng.integers(1, vocab + 1, size=m)]
        tgt = [int(x) for x in rng.integers(1, vocab + 1, size=n)]
        id_pairs.append((src, tgt))
    return make_bitext(id_pairs)


def random_table(
    rng: np.random.Generator,
    target_ids,
    source_ids,
    include_null: bool = False,
):
    """Random conditional distributions, returned both as the package's
    TranslationTable and as the oracles' flat {(e, f): p} dict."""
    source_ids = list(source_ids)
    rows = {}
    flat = {}
    for e in ([-1] if include_null else []) + list(target_ids):
        probs = rng.dirichlet(np.ones(len(source_ids)))
        rows[e] = {f: float(p) for f, p in zip(source_ids, probs)}
        for f, p in zip(source_ids, probs):
            flat[(e, f)] = float(p)
    return TranslationTable(rows), flat


@pytest.fixture
def toy_bitext() -> Bitext:
    """Two-pair corpus whose EM trajectory is known in closed form:
    sources {das haus, das buch}, targets {the house, the book}."""
    from alignkit.corpus import load_bitext

    return load_bitext(["das haus ||| the house", "das buch ||| the book"])


def leave_nan_in_freed_memory():
    """Free NaN-filled buffers of every small size and a large one, so that
    the next allocations may hand that memory out again uncleared."""
    for size in (*range(1, 129), 1 << 19):
        stale = [np.full(size, np.nan) for _ in range(8)]
        del stale


@pytest.fixture
def pools(monkeypatch) -> list[int]:
    """The worker count of each thread pool that training starts while
    the test runs, in start order: one pool per parallel map call."""
    started = []

    class RecordedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordedPool)
    return started


# ---------------------------------------------------------------------------
# hypothesis


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Load the module in which hypothesis's pytest plugin writes a failing
    example up, with the DeprecationWarning that importing it raises (from
    mypy_extensions, through libcst) ignored. Under filterwarnings = error,
    the plugin's own import of it would turn a failing @given test into an
    INTERNALERROR that ends the session and hides the example. Hypothesis
    imports it whatever its phases are, so leaving out Phase.explain does
    not help."""
    if call.excinfo is not None and "hypothesis.extra._patching" not in sys.modules:
        with warnings.catch_warnings(), suppress(ImportError):
            warnings.simplefilter("ignore", DeprecationWarning)
            import hypothesis.extra._patching  # noqa: F401


# ---------------------------------------------------------------------------
# acceptance summary

_acceptance: dict[str, str] = {}

# Criterion 10's corpus is one chunk at the default CHUNK_CELLS, so its
# jobs=2 runs start no pool. These tests lower the cap, assert that every
# EM step ran its chunks on 2 threads, and compare the results with an
# in-process run; their verdicts are printed under criterion 10.
POOL_GUARDS = {
    "test_determinism": (
        "tests/test_hmm.py::TestGroupedPasses::test_results_do_not_depend_on_jobs",
        "tests/test_cli.py::TestDeterminism::test_worker_count_does_not_change_the_model",
    ),
}
_guards: dict[str, str] = {}

# The criteria that time themselves, each with the name of its budget in
# test_acceptance.py; each call's time is printed against it, so that a
# criterion close to its budget shows before it fails.
BUDGETS = {
    "test_em_monotonicity": "MONOTONICITY_BUDGET_S",
    "test_synthetic_end_to_end": "E2E_BUDGET_S",
}
_call_seconds: dict[str, float] = {}


def pytest_runtest_logreport(report):
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        if "test_acceptance.py" in report.nodeid:
            _acceptance[report.nodeid] = report.outcome
            if report.when == "call":
                _call_seconds[report.nodeid] = report.duration
        elif any(report.nodeid.startswith(g) for gs in POOL_GUARDS.values() for g in gs):
            _guards[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for nodeid, outcome in _acceptance.items():
        name = nodeid.split("::")[-1]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {name}: {verdict}")
        if name in BUDGETS and nodeid in _call_seconds:
            import test_acceptance

            seconds, budget = _call_seconds[nodeid], getattr(test_acceptance, BUDGETS[name])
            terminalreporter.write_line(
                f"    call time {seconds:.1f} s of its {budget:g} s budget "
                f"({BUDGETS[name]}): {seconds / budget:.0%}"
            )
        for guard in POOL_GUARDS.get(name, ()):
            runs = [o for nodeid, o in _guards.items() if nodeid.startswith(guard)]
            verdict = "PASS" if all(o == "passed" for o in runs) else "FAIL"
            verdict = verdict if runs else "NOT RUN"
            terminalreporter.write_line(f"    on 2 threads, {guard}: {verdict}")
