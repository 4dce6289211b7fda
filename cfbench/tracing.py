"""Span tracing around cflab's public callables, and the per-layer metrics.

Spans are recorded from the benchmark's side of each layer boundary: the
public functions of each `src/cflab` module are swapped for timing wrappers
while a traced run is in progress, and restored afterwards. Nothing inside
the program changes. Spans stay in memory and are written out at the end.

A span's parent is the innermost open span on its thread. The harness scores
cases on a thread pool; a pool thread with no open span of its own takes the
main thread's innermost open span (the `run_experiment` that owns the pool)
as parent.

A span's self time is its duration minus the part of that interval its
children cover. Children on different threads can overlap, so the self
times of a traced call add up to its wall time plus the overlap.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

ALGORITHM_LAYER = {
    "popularity": "memory",
    "memory": "memory",
    "cluster": "cluster",
    "bayesnet": "bayesnet",
}
RANK_ALGORITHMS = [("memory", "pop"), ("memory", "cr"), ("memory", "crplus"),
                   ("memory", "vsim"), ("cluster", "bc"), ("bayesnet", "bn")]
PREDICT_ALGORITHMS = ["cr", "crplus", "vsim", "bc", "bn"]
UTILITY_SPANS = ("evaluation.ranked_utility", "evaluation.max_ranked_utility",
                 "evaluation.absolute_deviation")


def algorithm_key(name: str) -> str:
    """Metric-name form of an algorithm name: `CR+` becomes `crplus`."""
    return name.lower().replace("+", "plus")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    case: object = None
    start: float = 0.0
    end: float = 0.0
    # CPU time of the span's thread; unlike the wall interval it excludes
    # time spent waiting for the interpreter lock
    cpu: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.get_ident()

    @contextmanager
    def span(self, name: str, case=None):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1].id
        else:
            main = self._stacks.get(self._main) if tid != self._main else None
            parent = main[-1].id if main else None
        s = Span(next(self._ids), name, parent, tid, case)
        stack.append(s)
        cpu0 = time.thread_time()
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.cpu = time.thread_time() - cpu0
            stack.pop()
            self.spans.append(s)

    def wrap(self, name: str, fn, case_of=None, after=None):
        """`fn` timed as span `name`; `after(span, result)` adds attributes
        once the span has ended, so its work is not timed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, case_of(args) if case_of else None) as s:
                result = fn(*args, **kwargs)
            if after is not None:
                after(s, result)
            return result

        return traced


def _model_attrs(span: Span, result) -> None:
    from cflab import bayesnet, cluster

    model = result[0]
    if isinstance(model, cluster.ClusterModel):
        span.attrs["classes"] = model.num_classes
    elif isinstance(model, bayesnet.BayesNetModel):
        stats = model.structure_stats()
        span.attrs["leaves"] = int(round(stats["mean_leaves"] * stats["items"]))
        span.attrs["mean_parents"] = stats["mean_parents"]


@contextmanager
def installed(tracer: Tracer):
    """Swap cflab's public callables for traced wrappers for the duration."""
    from cflab import bayesnet, cluster, evaluation, harness, memory

    def case_user(args):
        return args[0].user

    train_model = harness.train_model

    def traced_train_model(train, spec, seed, cache_dir):
        cached = {p.name for p in cache_dir.iterdir()} if cache_dir.is_dir() else set()
        with tracer.span("harness.train_model") as s:
            result = train_model(train, spec, seed, cache_dir)
        s.attrs["hit"] = result[1].name in cached
        _model_attrs(s, result)
        return result

    build_predictor = harness.build_predictor

    def traced_build_predictor(spec, *args, **kwargs):
        with tracer.span("harness.build_predictor"):
            predictor = build_predictor(spec, *args, **kwargs)
        key = algorithm_key(spec.name)
        layer = ALGORITHM_LAYER[spec.kind]
        predictor.rank = tracer.wrap(f"{layer}.{key}.rank", predictor.rank, case_user)
        predictor.predict = tracer.wrap(f"predictors.{key}.predict", predictor.predict, case_user)
        return predictor

    scorer_class = memory.MemoryScorer

    class TracedMemoryScorer(scorer_class):
        def __init__(self, *args, **kwargs):
            with tracer.span("memory.MemoryScorer"):
                super().__init__(*args, **kwargs)

    def em_attrs(span, result):
        span.attrs["iterations"] = result[1].iterations

    patches = [
        (harness, "load_datasets", tracer.wrap("harness.load_datasets", harness.load_datasets)),
        (harness, "train_model", traced_train_model),
        (harness, "build_predictor", traced_build_predictor),
        (harness, "generate_active_cases",
         tracer.wrap("votedata.generate_active_cases", harness.generate_active_cases)),
        (harness, "save_split_manifest",
         tracer.wrap("votedata.save_split_manifest", harness.save_split_manifest)),
        (harness, "run_experiment",
         tracer.wrap("evaluation.run_experiment", harness.run_experiment)),
        (bayesnet, "learn_network", tracer.wrap("bayesnet.learn_network", bayesnet.learn_network)),
        (cluster, "select_cluster_model",
         tracer.wrap("cluster.select_cluster_model", cluster.select_cluster_model)),
        (cluster, "em_fit", tracer.wrap("cluster.em_fit", cluster.em_fit, after=em_attrs)),
        (cluster, "cheeseman_stutz_score",
         tracer.wrap("cluster.cheeseman_stutz_score", cluster.cheeseman_stutz_score)),
        (memory, "MemoryScorer", TracedMemoryScorer),
    ] + [
        (evaluation, fn, tracer.wrap(f"evaluation.{fn}", getattr(evaluation, fn)))
        for fn in ("ranked_utility", "max_ranked_utility", "absolute_deviation",
                   "bonferroni_required_difference")
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, replacement in patches:
            setattr(module, attr, replacement)
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id to duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for lo, hi in sorted((max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def _percentiles(prefix: str, seconds: list[float]) -> dict[str, tuple[float, str]]:
    ms = np.asarray(seconds) * 1e3
    p50, p99 = np.percentile(ms, [50, 99]) if len(ms) else (0.0, 0.0)
    return {
        f"{prefix}_p50": (float(p50), "ms"),
        f"{prefix}_p99": (float(p99), "ms"),
        f"{prefix}_n": (len(ms), "count"),
    }


def iteration_metrics(spans: list[Span], reports) -> dict[str, tuple[float, str]]:
    """Per-layer totals of one traced train-and-run iteration. Latency
    percentiles are left to `latency_metrics`, which pools iterations."""
    selfs = self_times(spans)
    total = defaultdict(float)
    count = defaultdict(int)
    for s in spans:
        total[s.name] += s.duration
        count[s.name] += 1

    def last_attr(name, key):
        values = [s.attrs[key] for s in spans if s.name == name and key in s.attrs]
        return values[-1] if values else 0

    train_spans = [s for s in spans if s.name == "harness.train_model"]
    scoring = [s for s in spans if s.name.endswith((".rank", ".predict"))]
    run_roots = [s for s in spans if s.name == "harness.run"]
    lookups = influenced = 0
    for r in reports:
        for extras in r.extras.values():
            lookups += extras.get("lookups", 0)
            influenced += extras.get("influenced", 0)
    experiment_s = total["evaluation.run_experiment"]
    return {
        "harness.load_datasets_s": (total["harness.load_datasets"], "s"),
        "harness.run_self_s": (sum(selfs[s.id] for s in run_roots), "s"),
        "harness.train_model_s": (total["harness.train_model"], "s"),
        "harness.cache_hits": (sum(1 for s in train_spans if s.attrs["hit"]), "count"),
        "harness.cache_misses": (sum(1 for s in train_spans if not s.attrs["hit"]), "count"),
        "votedata.cases_s": (total["votedata.generate_active_cases"], "s"),
        "votedata.manifest_s": (total["votedata.save_split_manifest"], "s"),
        "bayesnet.learn_s": (total["bayesnet.learn_network"], "s"),
        "bayesnet.leaves": (last_attr("harness.train_model", "leaves"), "count"),
        "bayesnet.mean_parents": (last_attr("harness.train_model", "mean_parents"), "count"),
        "cluster.select_s": (total["cluster.select_cluster_model"], "s"),
        "cluster.em_fit_s": (total["cluster.em_fit"], "s"),
        "cluster.em_fit_calls": (count["cluster.em_fit"], "count"),
        "cluster.em_iterations": (
            sum(s.attrs.get("iterations", 0) for s in spans if s.name == "cluster.em_fit"),
            "count"),
        "cluster.cs_s": (total["cluster.cheeseman_stutz_score"], "s"),
        "cluster.classes_chosen": (last_attr("harness.train_model", "classes"), "count"),
        "memory.scorer_init_s": (total["memory.MemoryScorer"], "s"),
        "bayesnet.bn.influenced_ratio": (influenced / lookups if lookups else 0.0, "ratio"),
        "evaluation.run_experiment_s": (experiment_s, "s"),
        "evaluation.self_s": (
            sum(selfs[s.id] for s in spans if s.name.startswith("evaluation.")), "s"),
        "evaluation.rd_s": (total["evaluation.bonferroni_required_difference"], "s"),
        "evaluation.utility_s": (sum(total[n] for n in UTILITY_SPANS), "s"),
        "evaluation.parallelism": (
            sum(s.cpu for s in scoring) / experiment_s if experiment_s else 0.0, "ratio"),
    }


def latency_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-call rank and predict latency percentiles with sample counts."""
    m = {}
    for layer, key in RANK_ALGORITHMS:
        name = f"{layer}.{key}.rank"
        m.update(_percentiles(f"{name}_ms", [s.duration for s in spans if s.name == name]))
    for key in PREDICT_ALGORITHMS:
        name = f"predictors.{key}.predict"
        m.update(_percentiles(f"{name}_ms", [s.duration for s in spans if s.name == name]))
    return m


def per_layer_metrics(iterations, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Combine traced iterations, each a (spans, reports) pair: totals are
    medians over iterations, latency percentiles pool every call."""
    per_iter = [iteration_metrics(spans, reports) for spans, reports in iterations]
    out = {
        name: (float(np.median([m[name][0] for m in per_iter])), unit)
        for name, (_, unit) in per_iter[0].items()
    }
    out.update(latency_metrics([s for spans, _ in iterations for s in spans]))
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


def spans_json(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]
