"""Outside-in tracing of the fedsymptoms modules for per-layer metrics.

The package binds names with ``from .x import y``, so a function is
looked up under the name its caller imported, not only where it is
defined. ``SITES`` therefore lists every (module, attribute) a caller in
a ``run`` or ``sweep`` actually resolves, and the tracer replaces each
with a wrapper that records one span per call. No source file is edited;
``Tracer.installed`` restores every original on exit.

A span is (run id, span id, parent span id, name, start ns, end ns). A
layer's self time is its spans' durations minus the part covered by
their direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import statistics
import time
from collections import Counter, defaultdict

# (module, attribute the caller resolves, span name). The same span name
# on several sites means one function reached through several imports;
# calls are also counted per site, so that a site whose wrapper never
# fires shows even where its span name is shared.
SITES = (
    ("fedsymptoms.cli", "load_embeddings", "embeddings.load"),
    ("fedsymptoms.cli", "load_surveys", "surveys.load"),
    ("fedsymptoms.cli", "load_corpus", "surveys.load"),
    ("fedsymptoms.surveys", "encode_phrase", "embeddings.encode"),
    ("fedsymptoms.sampling", "encode_phrase", "embeddings.encode"),
    ("fedsymptoms.evaluation", "encode_phrase", "embeddings.encode"),
    ("fedsymptoms.cli", "run_simulation", "federation.run_simulation"),
    ("fedsymptoms.evaluation", "run_simulation", "federation.run_simulation"),
    ("fedsymptoms.federation", "build_population", "federation.build_population"),
    ("fedsymptoms.federation", "run_round", "federation.run_round"),
    ("fedsymptoms.federation", "fedavg_aggregate", "federation.fedavg_aggregate"),
    ("fedsymptoms.federation", "synthesize_client", "sampling.synthesize_client"),
    ("fedsymptoms.federation", "train_local", "mlp.train_local"),
    ("fedsymptoms.federation", "mean_loss", "mlp.mean_loss"),
    ("fedsymptoms.mlp", "adam_step", "mlp.adam_step"),
    ("fedsymptoms.rng", "init_stream", "rng.stream"),
    ("fedsymptoms.rng", "population_stream", "rng.stream"),
    ("fedsymptoms.rng", "selection_stream", "rng.stream"),
    ("fedsymptoms.rng", "client_data_stream", "rng.stream"),
    ("fedsymptoms.rng", "client_train_stream", "rng.stream"),
    ("fedsymptoms.cli", "record_run", "evaluation.record_run"),
    ("fedsymptoms.evaluation", "record_run", "evaluation.record_run"),
    ("fedsymptoms.evaluation", "forward", "evaluation.forward"),
    ("fedsymptoms.cli", "write_predictions_csv", "evaluation.write_csv"),
    ("fedsymptoms.cli", "write_accuracy_csv", "evaluation.write_csv"),
)

# Counts that must repeat exactly between two traced runs at one seed.
DETERMINISTIC_COUNTS = ("mlp.steps", "sampling.examples", "rng.streams",
                        "evaluation.forward_calls", "federation.updates")


def site_key(site: str) -> str:
    """The counter of calls through one site, "module.attribute"."""
    return f"calls:{site}"


def unreached_sites(counts: dict, allowed: frozenset[str] = frozenset()) -> list[str]:
    """Sites whose wrapper never fired, apart from those allowed to be unused."""
    return [f"{module}.{attr}" for module, attr, _ in SITES
            if not counts.get(site_key(f"{module}.{attr}")) and f"{module}.{attr}" not in allowed]


def _bound_arguments(fn):
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments


class Tracer:
    """Span recorder plus the counters read from wrapped calls' arguments."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._hooks = {
            "sampling.synthesize_client": self._count_synthesis,
            "mlp.train_local": self._count_training,
            "federation.fedavg_aggregate": self._count_aggregation,
            "evaluation.record_run": self._count_snapshots,
        }

    def _wrap(self, fn, name: str, site: str):
        hook = self._hooks.get(name)
        bind = _bound_arguments(fn) if hook else None
        site_calls = site_key(site)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((self.run_id, span_id, parent, name, start, end))
            self.counts[site_calls] += 1
            if hook:
                hook(bind(args, kwargs), result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore."""
        originals = []
        try:
            for module_name, attr, name in SITES:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, f"{module_name}.{attr}"))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    # Counters read from arguments and results, outside the timed span.

    def _count_synthesis(self, args, dataset) -> None:
        self.counts["sampling.calls"] += 1
        self.counts["sampling.persons"] += args["n_persons"]
        self.counts["sampling.examples"] += len(dataset)
        if len(dataset) == 0:
            self.counts["sampling.empty_clients"] += 1
        prominent = args["dist"].prominent_lower
        for ex in dataset.examples:
            if ex.label == 1:
                self.counts["sampling.positives"] += 1
                if ex.source_symptom.lower() not in prominent:
                    self.counts["sampling.noise_positives"] += 1

    def _count_training(self, args, _params) -> None:
        n = len(args["dataset"])
        config = args["config"]
        self.counts["mlp.dataset_examples"] += n
        self.counts["mlp.steps"] += config.local_epochs * math.ceil(n / config.batch_size)

    def _count_aggregation(self, args, _params) -> None:
        self.counts["federation.updates"] += len(args["updates"])

    def _count_snapshots(self, args, _result) -> None:
        self.counts["evaluation.snapshots"] += len(args["snapshots"]) - 1


class ExampleCounter:
    """Only the training-work count, for the untraced runs' throughput.

    It wraps the one name ``run_round`` calls and is installed only on a
    warm-up call that is not timed. A full ``Tracer`` there would hold
    its spans in memory and raise the peak RSS that run reports.
    """

    def __init__(self):
        self.train_examples = 0

    @contextlib.contextmanager
    def installed(self):
        federation = importlib.import_module("fedsymptoms.federation")
        original = federation.train_local

        @functools.wraps(original)
        def counted(params, dataset, config, rng):
            self.train_examples += len(dataset) * config.local_epochs
            return original(params, dataset, config, rng)

        federation.train_local = counted
        try:
            yield self
        finally:
            federation.train_local = original


def _durations(spans) -> tuple[dict, dict, dict]:
    """Total and self time (s) and call count per span name."""
    child_time: dict[int, int] = defaultdict(int)
    for _, _, parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for _, span_id, _, name, start, end in spans:
        total[name] += (end - start) / 1e9
        own[name] += (end - start - child_time[span_id]) / 1e9
        calls[name] += 1
    return total, own, calls


def _step_period_us(spans) -> float | None:
    """Mean time from one Adam step's end to the next inside a train_local.

    That interval holds one minibatch's batching, forward, backward and
    Adam update, so it is the per-step cost with per-call set-up left
    out. Calls with a single step give no interval.
    """
    train_ids = {span_id for _, span_id, _, name, _, _ in spans if name == "mlp.train_local"}
    ends: dict[int, list[int]] = defaultdict(list)
    for _, _, parent, name, _, end in spans:
        if name == "mlp.adam_step" and parent in train_ids:
            ends[parent].append(end)
    covered = intervals = 0
    for step_ends in ends.values():
        if len(step_ends) > 1:
            covered += max(step_ends) - min(step_ends)
            intervals += len(step_ends) - 1
    return covered / intervals / 1e3 if intervals else None


def layer_metrics(spans, counts: Counter, wall_s: float, n_params: int) -> dict[str, float]:
    """Per-layer metrics of one traced call of the CLI entry point."""
    total, own, calls = _durations(spans)
    roots = sum((end - start) / 1e9 for _, _, parent, _, start, end in spans if parent < 0)
    round_durations = [(end - start) / 1e9 for _, _, _, name, start, end in spans
                       if name == "federation.run_round"]

    m: dict[str, float] = {}
    persons = counts["sampling.persons"]
    examples = counts["sampling.examples"]
    m["sampling.synthesize_s"] = own["sampling.synthesize_client"]
    m["sampling.calls"] = counts["sampling.calls"]
    m["sampling.persons"] = persons
    m["sampling.us_per_person"] = (1e6 * own["sampling.synthesize_client"] / persons
                                   if persons else 0.0)
    m["sampling.examples"] = examples
    m["sampling.empty_clients"] = counts["sampling.empty_clients"]
    positives = counts["sampling.positives"]
    m["sampling.noise_positive_share"] = (counts["sampling.noise_positives"] / positives
                                          if positives else 0.0)

    m["embeddings.load_s"] = total["embeddings.load"]
    m["embeddings.encode_calls"] = calls["embeddings.encode"]
    m["embeddings.encode_s"] = total["embeddings.encode"]
    sampling_encodes = counts[site_key("fedsymptoms.sampling.encode_phrase")]
    m["embeddings.encodes_per_example"] = sampling_encodes / examples if examples else 0.0

    train_calls = calls["mlp.train_local"]
    steps = counts["mlp.steps"]
    train_s = total["mlp.train_local"]
    us_per_step = _step_period_us(spans)
    if us_per_step is None:
        us_per_step = 1e6 * train_s / steps if steps else 0.0
    m["mlp.train_calls"] = train_calls
    m["mlp.train_s"] = train_s
    m["mlp.steps"] = steps
    m["mlp.us_per_step"] = us_per_step
    m["mlp.call_overhead_us"] = ((1e6 * train_s - steps * us_per_step) / train_calls
                                 if train_calls else 0.0)
    m["mlp.examples_per_call"] = (counts["mlp.dataset_examples"] / train_calls
                                  if train_calls else 0.0)
    m["mlp.adam_s"] = total["mlp.adam_step"]
    m["mlp.grad_s"] = train_s - total["mlp.adam_step"]
    m["mlp.mean_loss_s"] = total["mlp.mean_loss"]

    updates = counts["federation.updates"]
    m["federation.round_s_p50"] = statistics.median(round_durations) if round_durations else 0.0
    m["federation.round_self_s"] = own["federation.run_round"]
    m["federation.aggregate_s"] = total["federation.fedavg_aggregate"]
    m["federation.aggregate_us_per_update"] = (1e6 * total["federation.fedavg_aggregate"] / updates
                                               if updates else 0.0)
    m["federation.updates"] = updates
    m["federation.bytes_merged"] = updates * n_params * 8
    m["federation.population_s"] = total["federation.build_population"]

    m["rng.streams"] = calls["rng.stream"]
    m["rng.stream_s"] = total["rng.stream"]

    snapshots = counts["evaluation.snapshots"]
    m["evaluation.record_run_s"] = total["evaluation.record_run"]
    m["evaluation.snapshots"] = snapshots
    m["evaluation.forward_calls"] = calls["evaluation.forward"]
    m["evaluation.us_per_snapshot"] = (1e6 * total["evaluation.record_run"] / snapshots
                                       if snapshots else 0.0)
    m["evaluation.csv_write_s"] = total["evaluation.write_csv"]

    m["surveys.load_s"] = total["surveys.load"]
    m["cli.residual_s"] = wall_s - roots
    return m


def write_spans(spans, path: str) -> None:
    """Write spans as CSV, times in ns from the first span's start."""
    origin = min((start for *_, start, _ in spans), default=0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("run_id,span_id,parent_id,name,start_ns,end_ns\n")
        for run_id, span_id, parent, name, start, end in spans:
            fh.write(f"{run_id},{span_id},{parent},{name},{start - origin},{end - origin}\n")
