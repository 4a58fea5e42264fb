"""Every perfbench per-layer hook must still find the function it times.

perfbench/tracing.py hooks alignkit functions by "module:attribute" name,
and a hook whose target is gone reports its metric as zero. The targets
listed in STALE already miss; any other target that stops resolving means
a refactor moved or renamed a timed function without retargeting its hook.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Hooks whose targets no longer exist, to be retargeted in perfbench.
STALE = {
    "alignkit._packed:EStepRunner.expected_counts",
    "alignkit._packed:PackedCorpus.normalize_counts",
    "alignkit._packed:PackedCorpus.table_from",
    "alignkit._packed:PackedCorpus.theta_from",
    "alignkit.cli:parse_pharaoh_line",
    "alignkit.hmm:_bw_chunk",
    "alignkit.hmm:_emission_matrix",
    "alignkit.hmm:read_ttable",
    "alignkit.model1:read_ttable",
    "alignkit.model2:init_uniform",
    "alignkit.model2:read_ttable",
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_outside_the_stale_ones_resolves():
    tracing = load_tracing()
    targets = {target for _, target, _, _ in tracing.HOOKS}
    missing = {target for target in targets if tracing._resolve(target) is None}
    assert missing - STALE == set()
    assert STALE <= targets  # a retargeted hook leaves this list
