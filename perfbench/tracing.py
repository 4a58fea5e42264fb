"""Spans around the calls into each alignkit layer, for the traced run.

While `Tracer.installed()` is active, each hooked function is replaced,
at the attribute where its caller looks it up, by a wrapper that records
a span: metric name, start, end, parent span and pipeline stage. Spans
stay in memory until the run ends. A layer's self time is its spans'
duration minus the part covered by child spans, so the self times of one
stage, `cli.self_s` included, add up to the stage's wall time. Nothing
under src/ is edited; the original attributes come back when the block
exits. A hook whose target no longer exists is reported missing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _packed_cells(args, kwargs, result) -> int:
    """Cells a PackedCorpus(bitext, table, use_null) indexes: m * (n + NULL)."""
    bitext = args[1] if len(args) > 1 else kwargs["bitext"]
    use_null = args[3] if len(args) > 3 else kwargs["use_null"]
    return sum(pair.m * (pair.n + bool(use_null)) for pair in bitext.pairs)


def _table_entries(args, kwargs, result) -> int:
    return len(args[1] if len(args) > 1 else kwargs["table"])


def _jump_fallback(args, kwargs, result) -> int:
    """_reestimate_jumps returns its input table after it gives up."""
    jumps = args[0] if args else kwargs["jumps"]
    stats = args[1] if len(args) > 1 else kwargs["jump_stats"]
    return int(bool(stats) and result is jumps)


# (self-time metric, "module:attribute[.attribute]", counter, count per call)
HOOKS = (
    ("corpus.load_bitext_s", "alignkit.cli:load_bitext", None, None),
    ("corpus.encode_s", "alignkit.corpus:Vocabulary.encode", None, None),
    ("corpus.vocab_io_s", "alignkit.corpus:Vocabulary.save", None, None),
    ("corpus.vocab_io_s", "alignkit.corpus:Vocabulary.load", None, None),
    ("ttable.read_s", "alignkit.cli:read_ttable", "ttable.read_calls", None),
    ("ttable.read_s", "alignkit.model1:read_ttable", "ttable.read_calls", None),
    ("ttable.read_s", "alignkit.model2:read_ttable", "ttable.read_calls", None),
    ("ttable.read_s", "alignkit.hmm:read_ttable", "ttable.read_calls", None),
    ("ttable.write_s", "alignkit.model1:write_ttable", "ttable.entries", _table_entries),
    ("ttable.write_s", "alignkit.model2:write_ttable", "ttable.entries", _table_entries),
    ("ttable.write_s", "alignkit.hmm:write_ttable", "ttable.entries", _table_entries),
    ("packed.pack_s", "alignkit._packed:PackedCorpus.__init__", "packed.builds", None),
    ("packed.pack_s", "alignkit._packed:PackedCorpus.__init__", "packed.cells", _packed_cells),
    ("packed.estep_s", "alignkit._packed:EStepRunner.expected_counts", "packed.estep_calls", None),
    ("packed.mstep_s", "alignkit._packed:PackedCorpus.normalize_counts", None, None),
    ("packed.convert_s", "alignkit._packed:PackedCorpus.theta_from", None, None),
    ("packed.convert_s", "alignkit._packed:PackedCorpus.table_from", None, None),
    ("model1.init_s", "alignkit.model1:init_uniform", None, None),
    ("model1.init_s", "alignkit.model2:init_uniform", None, None),
    ("model1.driver_s", "alignkit.model1:train", None, None),
    ("model2.driver_s", "alignkit.model2:train", None, None),
    ("model2.decode_s", "alignkit.model2:align", None, None),
    ("hmm.driver_s", "alignkit.hmm:train", None, None),
    ("hmm.emission_s", "alignkit.hmm:_emission_matrix", None, None),
    ("hmm.transition_s", "alignkit.hmm:_transition_matrix", "hmm.transition_builds", None),
    ("hmm.forward_s", "alignkit.hmm:_scaled_forward", "hmm.forward_calls", None),
    ("hmm.backward_s", "alignkit.hmm:_scaled_backward", None, None),
    ("hmm.bw_chunk_self_s", "alignkit.hmm:_bw_chunk", None, None),
    ("hmm.jumps_s", "alignkit.hmm:_reestimate_jumps", "hmm.jump_fallbacks", _jump_fallback),
    ("hmm.jumps_s", "alignkit.hmm:_jump_objective", "hmm.jump_evals", None),
    ("hmm.decode_self_s", "alignkit.hmm:viterbi_decode", None, None),
    ("hmm.viterbi_s", "alignkit.hmm:_viterbi", "hmm.viterbi_calls", None),
    ("alignment.symmetrize_s", "alignkit.cli:symmetrize", None, None),
    ("alignment.pharaoh_io_s", "alignkit.cli:parse_pharaoh_line", None, None),
    ("alignment.pharaoh_io_s", "alignkit.cli:format_pharaoh_line", None, None),
    ("alignment.pharaoh_io_s", "alignkit.cli:read_pharaoh", None, None),
    ("alignment.convert_s", "alignkit.cli:to_set", None, None),
    ("alignment.convert_s", "alignkit.cli:transpose", None, None),
    ("alignment.convert_s", "alignkit.cli:harmonize_dims", None, None),
    ("evaluation.eval_s", "alignkit.cli:evaluate_corpus", None, None),
    ("evaluation.io_s", "alignkit.cli:parse_gold", None, None),
    ("evaluation.io_s", "alignkit.cli:write_report_tsv", None, None),
    ("phrases.extract_s", "alignkit.cli:build_phrase_table", "phrases.pairs",
     lambda args, kwargs, result: len(result)),
    ("phrases.write_s", "alignkit.cli:write_phrase_table", None, None),
)

ROOT_METRIC = "cli.self_s"
# Counters reported per stage of a kind rather than per pipeline.
PER_TRAIN_STAGE = ("packed.builds",)
PER_ALIGN_STAGE = ("ttable.read_calls",)


def _unique(names) -> list[str]:
    return list(dict.fromkeys(names))


TIME_METRICS = _unique(metric for metric, _, _, _ in HOOKS) + [ROOT_METRIC]
COUNT_METRICS = _unique(counter for _, _, counter, _ in HOOKS if counter) + ["trace.spans"]
OVERHEAD_METRIC = "trace.overhead_pct"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {name: "s" for name in TIME_METRICS}
    units.update((name, "count") for name in COUNT_METRICS)
    units[OVERHEAD_METRIC] = "%"
    return units


def _resolve(target: str):
    """(owner, attribute, raw attribute) for a hook target, or None."""
    module_name, _, path = target.partition(":")
    *owner_path, attr = path.split(".")
    try:
        owner = importlib.import_module(module_name)
        for name in owner_path:
            owner = getattr(owner, name)
    except (ImportError, AttributeError):
        return None
    raw = inspect.getattr_static(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [metric, start, end, parent index, stage]
        self.counters: Counter = Counter()
        self.stage: str | None = None
        self.missing: list[str] = []
        self._stack = [-1]

    def _wrap(self, metric: str, fn, counts):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [metric, perf_counter(), 0.0, stack[-1], self.stage]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            for counter, count_fn in counts:
                counters[counter] += count_fn(args, kwargs, result) if count_fn else 1
            return result

        return traced

    @contextmanager
    def installed(self):
        """Hook every layer function for the duration of the block."""
        grouped: dict[str, tuple[str, list]] = {}
        for metric, target, counter, count_fn in HOOKS:
            _, counts = grouped.setdefault(target, (metric, []))
            if counter:
                counts.append((counter, count_fn))
        undo = []
        try:
            for target, (metric, counts) in grouped.items():
                found = _resolve(target)
                if found is None:
                    self.missing.append(target)
                    continue
                owner, attr, raw = found
                if isinstance(raw, classmethod):
                    hooked = classmethod(self._wrap(metric, raw.__func__, counts))
                else:
                    hooked = self._wrap(metric, raw, counts)
                setattr(owner, attr, hooked)
                undo.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    def run_stage(self, stage: str, main, argv: list[str]) -> int:
        """Call MAIN(ARGV) under a root span attributed to STAGE."""
        self.stage = stage
        try:
            return self._wrap(ROOT_METRIC, main, [])(argv)
        finally:
            self.stage = None

    def self_times(self) -> dict[tuple[str, str], float]:
        """Summed self time per (stage, metric)."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[tuple[str, str], float] = defaultdict(float)
        for (metric, _, _, _, stage), seconds in zip(self.spans, own):
            totals[(stage, metric)] += seconds
        return dict(totals)

    def layer_metrics(self, train_stages: int, align_stages: int) -> dict[str, float]:
        """Every per-layer metric except the overhead, summed over stages."""
        values = {name: 0.0 for name in TIME_METRICS}
        for (_, metric), seconds in self.self_times().items():
            values[metric] += seconds
        for name in COUNT_METRICS:
            count = float(self.counters.get(name, 0))
            if name in PER_TRAIN_STAGE:
                count /= max(train_stages, 1)
            elif name in PER_ALIGN_STAGE:
                count /= max(align_stages, 1)
            values[name] = count
        values["trace.spans"] = float(len(self.spans))
        return values
