"""Experiment configuration, the end-to-end runner, and report rendering.

A run is described by one JSON config: the dataset, the protocols, the named
algorithms, and the metrics. The runner trains (and caches) any required
models, scores each protocol's cases once for every metric, and writes
deterministic report artifacts: rerunning an unchanged config reproduces the
report files byte for byte. Volatile data (wall-clock timings, with each
algorithm's scoring block count and median block time), the wall seconds
of each stage of the run, the process's peak resident set size, the case
counts of each metric and protocol, and the cases per block of the runner
and of a memory scorer go to a separate `run_meta.json` so the reports stay
comparable.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import sys
import time
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np

from . import bayesnet, cluster, memory
from .evaluation import (
    DEVIATION,
    METRICS,
    RANKED,
    ExperimentReport,
    RankedScoringConfig,
    block_cases,
    run_experiment,
)
from .predictors import BayesNetPredictor, ClusterPredictor, PopularityPredictor
from .votedata import (
    IMPLICIT_SCALE,
    Protocol,
    VoteDataError,
    VoteDatabase,
    VoteScale,
    generate_active_cases,
    load_msweb,
    load_votes_csv,
    save_split_manifest,
    split_users,
)

log = logging.getLogger(__name__)

POPULARITY = "popularity"
MEMORY = "memory"
CLUSTER = "cluster"
BAYESNET = "bayesnet"
ALGORITHM_KINDS = (POPULARITY, MEMORY, CLUSTER, BAYESNET)

# Each kind with a trained model: the class its model files load with, its
# predictor class and its name in `cflab train --only`.
TrainedKind = namedtuple("TrainedKind", "model predictor only")
TRAINED_KINDS = {
    CLUSTER: TrainedKind(cluster.ClusterModel, ClusterPredictor, "bc"),
    BAYESNET: TrainedKind(bayesnet.BayesNetModel, BayesNetPredictor, "bn"),
}


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending key."""


@dataclass(frozen=True)
class AlgorithmSpec:
    name: str
    kind: str
    params: dict = field(default_factory=dict)

    def canonical_json(self) -> str:
        return json.dumps(
            {"kind": self.kind, "params": self.params}, sort_keys=True
        )


@dataclass
class DatasetSpec:
    format: str  # "msweb" | "csv"
    train: Path
    test: Path | None
    scale: VoteScale
    test_fraction: float | None
    split_seed: int
    min_votes: int
    # optional seeded subsample of training users, for learning-curve sweeps
    train_users: int | None = None


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec
    protocols: list[Protocol]
    algorithms: list[AlgorithmSpec]
    metrics: list[str]
    ranked: RankedScoringConfig
    confidence: float
    seed: int
    output_dir: Path


# --- config rules ------------------------------------------------------------

_REQUIRED = object()  # the default of a key that a config must give


def _walk(obj: dict, table: dict, where: str) -> dict:
    """`table` maps each key to (default, rule): each key's value in `obj`,
    or its default if left out, checked by its rule. A key whose default is
    None may also be given as null, which leaves it unset. A key that nothing
    reads is an error, so that a misspelt key cannot silently leave its
    setting at the default. The top level's `where` is empty."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or 'config'}: must be a JSON object, not {obj!r}")
    for key in obj:
        if key not in table:
            raise ConfigError(f"{where or 'config'}: unknown key {key!r}")
    out = {}
    for key, (default, rule) in table.items():
        value, path = obj.get(key, default), f"{where}.{key}".lstrip(".")
        if value is _REQUIRED:
            raise ConfigError(f"{path}: missing required key")
        out[key] = None if value is None and default is None else rule(value, path)
    return out


def _rule(wanted: str, ok, convert=lambda value, where: value):
    """A rule takes a value and its key path, and returns `convert(value,
    path)` if `ok(value)`, else raises a ConfigError naming the path."""
    def rule(value, where: str):
        if not ok(value):
            raise ConfigError(f"{where}: must be {wanted}, not {value!r}")
        return convert(value, where)
    return rule


def _number(typ: type, high: float = math.inf, low: int = 0):
    """A JSON number of `typ` (never a bool) strictly between `low` and
    `high`; NaN and infinity lie in no such range."""
    if typ is int:
        wanted = "an integer" + (f" >= {low + 1}" if low > -math.inf else "")
    else:
        wanted = f"a number in ({low}, {high})" if low > -math.inf else "a finite number"
    return _rule(wanted, lambda value: not isinstance(value, bool)
                 and isinstance(value, (int, typ)) and low < value < high,
                 lambda value, where: typ(value))


def _choice(*options: str):
    """One of the strings `options`."""
    return _rule("one of " + ", ".join(map(repr, options)), lambda value: value in options)


def _list(item):
    """A non-empty JSON list, each entry checked by the rule `item`."""
    return _rule("a non-empty list", lambda value: isinstance(value, list) and value != [],
                 lambda value, where: [item(v, f"{where}[{i}]") for i, v in enumerate(value)])


def _table(table: dict):
    """A JSON object, walked by `table`."""
    return lambda value, where: _walk(value, table, where)


BOOLEAN = _rule("true or false", lambda value: isinstance(value, bool))
STRING = _rule("a string", lambda value: isinstance(value, str))
INTEGER = _number(int, low=-math.inf)
COUNT = _number(int)  # >= 1
NATURAL = _number(int, low=-1)  # >= 0
FINITE = _number(float, low=-math.inf)
POSITIVE = _number(float)
FRACTION = _number(float, 1)


def _protocol(value, where: str) -> Protocol:
    """A protocol: a name such as "given5", or {"given": n}."""
    if isinstance(value, dict):
        return Protocol.given(_walk(value, {"given": (_REQUIRED, COUNT)}, where)["given"])
    text = STRING(value, where)
    try:
        return Protocol.parse(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


# The config keys that algorithm_config reads for each kind of algorithm; a
# cluster config's `classes` fixes the class count in place of the sweep.
ALGORITHM_PARAMS = {
    POPULARITY: {},
    MEMORY: {
        "weight": (memory.CORRELATION, _choice(memory.CORRELATION, memory.VECTOR_SIMILARITY)),
        "iuf": (False, BOOLEAN),
        "default_voting": (None, _table({"d": (None, FINITE), "k": (10000, NATURAL)})),
        "case_amp": (None, _table({"p": (_REQUIRED, POSITIVE)})),
    },
    CLUSTER: {"classes": (None, COUNT), "max_classes": (25, COUNT), "restarts": (3, COUNT),
              "max_iter": (200, COUNT)},
    BAYESNET: {"structure_penalty": (0.1, FRACTION), "ess": (10.0, POSITIVE)},
}

CONFIG_KEYS = {
    "dataset": (_REQUIRED, _table({  # the fields of DatasetSpec
        "format": (_REQUIRED, _choice("msweb", "csv")),
        "train": (_REQUIRED, STRING),
        "test": (None, STRING),
        "scale": (None, _table({"min_vote": (0, INTEGER), "max_vote": (1, INTEGER),
                                "neutral": (0.0, FINITE), "implicit": (False, BOOLEAN)})),
        "test_fraction": (None, FRACTION),
        "split_seed": (0, NATURAL),
        "min_votes": (2, COUNT),
        "train_users": (None, COUNT),
    })),
    "protocols": (_REQUIRED, _list(_protocol)),
    # algorithm_config checks an algorithm's config once its kind is known
    "algorithms": (_REQUIRED, _list(_table({
        "name": (_REQUIRED, STRING), "kind": (_REQUIRED, _choice(*ALGORITHM_KINDS)),
        "config": ({}, _rule("a JSON object", lambda value: isinstance(value, dict)))}))),
    "metrics": ([RANKED], _list(_choice(*METRICS))),
    # a null neutral is the scale's neutral vote
    "ranked": ({}, _table({"half_life": (5.0, _number(float, low=1)), "neutral": (None, FINITE)})),
    "confidence": (0.90, FRACTION),
    "seed": (0, NATURAL),
    "output_dir": ("out", STRING),
}


def algorithm_config(spec: AlgorithmSpec, where: str | None = None):
    """The checked config of `spec`: a MemoryConfig for a memory algorithm,
    else its ALGORITHM_PARAMS with defaults filled in. A bad key or value is
    a ConfigError naming `where` (by default `<name>.config`) and the key."""
    where = where or f"{spec.name}.config"
    params = _walk(spec.params, ALGORITHM_PARAMS[spec.kind], where)
    if "classes" in spec.params and ("max_classes" in spec.params or "restarts" in spec.params):
        raise ConfigError(f"{where}: a fixed classes count takes no max_classes or restarts")
    if spec.kind != MEMORY:
        return params
    dv, amp = params["default_voting"], params["case_amp"]
    return memory.MemoryConfig(params["weight"], None if dv is None else memory.DefaultVoting(**dv),
                               params["iuf"], None if amp is None else amp["p"])


def parse_config(doc: dict, base_dir: Path) -> ExperimentConfig:
    top = _walk(doc, CONFIG_KEYS, "")
    ds = top["dataset"]
    if (ds["format"] == "csv") != (ds["scale"] is not None):
        raise ConfigError("dataset.scale: csv datasets need one; msweb data is implicit "
                          "and takes none")
    try:
        scale = IMPLICIT_SCALE if ds["scale"] is None else VoteScale(**ds["scale"])
    except VoteDataError as exc:
        raise ConfigError(f"dataset.scale: {exc}") from None
    if (ds["test"] is None) == (ds["test_fraction"] is None):
        raise ConfigError("dataset.test_fraction: a dataset takes a test file or a "
                          "test_fraction split, exactly one")
    for key in ("train", "test"):
        if ds[key] is not None:
            ds[key] = base_dir / ds[key]
            if not ds[key].exists():
                raise ConfigError(f"dataset.{key}: file not found: {ds[key]}")

    protocols, metrics = top["protocols"], top["metrics"]
    for i, p in enumerate(protocols):
        if p in protocols[:i]:
            raise ConfigError(f"protocols[{i}]: duplicate protocol {p.label}")
    for i, m in enumerate(metrics):
        if m in metrics[:i]:
            raise ConfigError(f"metrics: duplicate metric {m!r}")
    algorithms = [AlgorithmSpec(a["name"], a["kind"], a["config"]) for a in top["algorithms"]]
    for i, spec in enumerate(algorithms):
        if spec.name in [a.name for a in algorithms[:i]]:
            raise ConfigError(f"algorithms[{i}].name: duplicate name {spec.name!r}")
        checked = algorithm_config(spec, f"algorithms[{i}].config")
        if spec.kind == MEMORY:
            try:
                memory._resolve_default(scale, checked)
            except ValueError as exc:
                raise ConfigError(f"algorithms[{i}].config: {exc}") from None
        if spec.kind == POPULARITY and DEVIATION in metrics:
            raise ConfigError(f"metrics: {spec.name} cannot predict vote values; drop it or "
                              "drop the deviation metric")

    half_life, neutral = top["ranked"]["half_life"], top["ranked"]["neutral"]
    if neutral is not None and not scale.contains(neutral):
        raise ConfigError(f"ranked.neutral: must lie within the vote scale "
                          f"[{scale.min_vote}, {scale.max_vote}], not {neutral!r}")
    # the only environment override: relocate the artifacts
    out_override = os.environ.get("CFLAB_OUTPUT_DIR")
    return ExperimentConfig(**{
        **top, "dataset": DatasetSpec(**{**ds, "scale": scale}), "algorithms": algorithms,
        "ranked": RankedScoringConfig(half_life, scale.neutral if neutral is None else neutral),
        "output_dir": Path(out_override) if out_override else base_dir / top["output_dir"],
    })


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}") from None
    return parse_config(doc, path.parent)


def _load_train(spec: DatasetSpec) -> tuple[VoteDatabase, VoteDatabase | None]:
    """The training set, and the test set of a `test_fraction` split (None
    beside a test file, which is not read)."""
    train = load_msweb(spec.train) if spec.format == "msweb" else (
        load_votes_csv(spec.train, spec.scale))
    train, test = (train, None) if spec.test is not None else split_users(
        train, spec.test_fraction, spec.split_seed)
    if spec.train_users is not None and spec.train_users < len(train.users):
        perm = np.random.default_rng(spec.split_seed).permutation(len(train.users))
        keep = {train.users[i] for i in perm[: spec.train_users]}
        train = train.subset(users=[u for u in train.users if u in keep])
    return train, test


def load_datasets(spec: DatasetSpec) -> tuple[VoteDatabase, VoteDatabase]:
    """Load (train, test); test users are filtered to the minimum vote count."""
    train, test = _load_train(spec)
    if test is None:
        test = load_msweb(spec.test) if spec.format == "msweb" else (
            load_votes_csv(spec.test, spec.scale))
    if spec.min_votes > 1:
        keep = [u for u in test.users if len(test.votes[u]) >= spec.min_votes]
        test = test.subset(users=keep)
    return train, test


# --- model training and caching ---------------------------------------------


# Part of every model cache key. Raise it when a trainer can give another
# model for the same data, config and seed, so that models cached by older
# code are not reused.
MODEL_FORMAT_VERSION = 1


def _model_cache_key(train: VoteDatabase, spec: AlgorithmSpec, seed: int) -> str:
    h = hashlib.sha256()
    h.update(f"model format {MODEL_FORMAT_VERSION}\n".encode())
    h.update(train.content_hash.encode())
    h.update(spec.canonical_json().encode())
    h.update(str(seed).encode())
    return h.hexdigest()[:24]


def train_model(train: VoteDatabase, spec: AlgorithmSpec, seed: int, cache_dir: Path):
    """Train (or load from cache) the model of an algorithm of a TRAINED_KINDS kind."""
    if spec.kind not in TRAINED_KINDS:
        raise ValueError(f"algorithm kind {spec.kind!r} has no trained model")
    key = _model_cache_key(train, spec, seed)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{spec.kind}_{key}.json"
    if path.exists():
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            model = TRAINED_KINDS[spec.kind].model.from_json(doc)
            if model.scale != train.scale:
                raise ValueError(f"scale {model.scale} is not the training scale {train.scale}")
            if tuple(model.items) != tuple(train.items):
                raise ValueError("model items are not the training items in order")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # a truncated, corrupt or mismatched entry is a miss: retrain and
            # replace it
            log.warning("unusable cached %s model %s (%r); retraining",
                        spec.kind, path.name, exc)
        else:
            log.info("loaded cached %s model %s", spec.kind, path.name)
            return model, path
    params = algorithm_config(spec)
    if spec.kind == CLUSTER:
        fit = dict(seed=seed, max_iter=params["max_iter"])
        if params["classes"] is not None:
            model, _ = cluster.em_fit(train, params["classes"], **fit)
        else:
            model, _ = cluster.select_cluster_model(
                train, params["max_classes"], restarts=params["restarts"], **fit
            )
    else:
        cfg = bayesnet.LearnConfig(params["structure_penalty"], params["ess"])
        model = bayesnet.learn_network(train, cfg)
    # write a temp file beside the cache entry and rename it into place, so a
    # failed write never leaves a truncated model under the cache key
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(model.to_json(), sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return model, path


def build_predictor(spec: AlgorithmSpec, train: VoteDatabase, seed: int, cache_dir: Path):
    if spec.kind == POPULARITY:
        return PopularityPredictor(train, name=spec.name)
    if spec.kind == MEMORY:
        return memory.MemoryScorer(train, algorithm_config(spec), name=spec.name)
    model, _ = train_model(train, spec, seed, cache_dir)
    return TRAINED_KINDS[spec.kind].predictor(train, model, name=spec.name)


# --- the runner --------------------------------------------------------------


@dataclass
class RunResult:
    reports: dict[tuple[str, str], ExperimentReport]  # (metric, protocol label)
    summary_paths: list[Path]
    output_dir: Path


def peak_rss_mb() -> float | None:
    """The process's peak resident set size so far in MiB, or None where the
    `resource` module is missing. `ru_maxrss` counts KiB on Linux and bytes
    on macOS."""
    if resource is None:
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 2**10


@contextmanager
def _stage(stages: dict, key: str):
    """Record the wall seconds of the `with` body as `stages[key]`."""
    t0 = time.perf_counter()
    yield
    stages[key] = time.perf_counter() - t0


def run(config: ExperimentConfig) -> RunResult:
    t_start = time.perf_counter()
    out = config.output_dir
    (out / "reports").mkdir(parents=True, exist_ok=True)
    (out / "splits").mkdir(parents=True, exist_ok=True)
    cache_dir = out / "models"
    stages: dict = {"build_predictors": {}, "protocols": {}}

    with _stage(stages, "load_datasets"):
        train, test = load_datasets(config.dataset)
    predictors = []
    for spec in config.algorithms:
        with _stage(stages["build_predictors"], spec.name):
            predictors.append(build_predictor(spec, train, config.seed, cache_dir))

    reports: dict[tuple[str, str], ExperimentReport] = {}
    for protocol in config.protocols:
        times = stages["protocols"][protocol.label] = {}
        with _stage(times, "cases"):
            cases = generate_active_cases(test, protocol, config.seed)
        with _stage(times, "manifest"):
            save_split_manifest(
                out / "splits" / f"{protocol.label}.json", cases, protocol, config.seed
            )
        with _stage(times, "experiment"):
            protocol_reports = run_experiment(
                train, cases, predictors, config.metrics, ranked_cfg=config.ranked,
                confidence=config.confidence, seed=config.seed, protocol_label=protocol.label,
            )
        with _stage(times, "reports"):
            for report in protocol_reports:
                reports[(report.metric, protocol.label)] = report
                path = out / "reports" / f"{report.metric}_{protocol.label}.json"
                path.write_text(report.dumps(), encoding="utf-8")

    summary_paths = []
    with _stage(stages, "summaries"):
        for metric in config.metrics:
            summary = summarize(
                [reports[(metric, p.label)] for p in config.protocols]
            )
            jpath = out / "reports" / f"summary_{metric}.json"
            jpath.write_text(
                json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
            )
            tpath = out / "reports" / f"summary_{metric}.txt"
            tpath.write_text(render_summary(summary, "text"), encoding="utf-8")
            summary_paths.extend([jpath, tpath])

    meta = {
        "wall_seconds": time.perf_counter() - t_start,
        "stages": stages,
        "peak_rss_mb": peak_rss_mb(),
        "timing": {f"{m}/{p}": r.timing for (m, p), r in reports.items()},
        "blocks": {f"{m}/{p}": {n: {"count": len(t), "median_ms": 1e3 * float(np.median(t))}
                                for n, t in r.block_seconds.items()}
                   for (m, p), r in reports.items()},
        "cases": {f"{m}/{p}": r.case_counts() for (m, p), r in reports.items()},
        "block_cases": block_cases(train),
        "memory_block_cases": memory.block_cases(train),
        "train_users": len(train.users),
        "train_items": len(train.items),
        "test_users": len(test.users),
    }
    (out / "run_meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return RunResult(reports, summary_paths, out)


def train_models(config: ExperimentConfig, only: str | None = None) -> dict[str, Path]:
    """Train and cache the models required by the config's algorithms, or
    with `only` those of the trained kind of that `TrainedKind.only` name."""
    if only and only not in [kind.only for kind in TRAINED_KINDS.values()]:
        raise ValueError(f"no trained algorithm kind is named {only!r}")
    train, _ = _load_train(config.dataset)  # training reads no test file
    out = {}
    for spec in config.algorithms:
        kind = TRAINED_KINDS.get(spec.kind)
        if kind is None or (only and kind.only != only):
            continue
        _, path = train_model(train, spec, config.seed, config.output_dir / "models")
        out[spec.name] = path
    return out


# --- rendering ---------------------------------------------------------------


def summarize(reports: list[ExperimentReport]) -> dict:
    """Combine per-protocol reports of one metric into one renderable grid."""
    if not reports:
        raise ValueError("no reports to summarize")
    metric = reports[0].metric
    algorithms = reports[0].algorithms
    for r in reports:
        if r.metric != metric or r.algorithms != algorithms:
            raise ValueError("summaries need one metric and one algorithm set")
    return {
        "version": 1,
        "kind": "experiment_summary",
        "metric": metric,
        "algorithms": algorithms,
        "protocols": [r.protocol for r in reports],
        "aggregate": {r.protocol: r.aggregate for r in reports},
        "required_difference": {r.protocol: r.required_difference for r in reports},
        "case_counts": {r.protocol: r.case_count for r in reports},
    }


def _fmt(x) -> str:
    if x is None:
        return "n/a"
    return f"{x:.2f}"


def render_summary(summary: dict, fmt: str) -> str:
    """Render a summary (or single report) grid: algorithm rows, protocol
    columns, required difference as the final row."""
    if summary.get("kind") == "experiment_report":
        report = ExperimentReport.from_json(summary)
        summary = summarize([report])
    if summary.get("kind") != "experiment_summary":
        raise ValueError("not a report or summary document")
    algorithms = summary["algorithms"]
    protocols = summary["protocols"]
    rows = []
    order = sorted(
        algorithms,
        key=lambda a: -summary["aggregate"][protocols[0]][a],
    )
    if summary["metric"] == DEVIATION:
        order = sorted(algorithms, key=lambda a: summary["aggregate"][protocols[0]][a])
    for a in order:
        rows.append([a] + [_fmt(summary["aggregate"][p][a]) for p in protocols])
    rows.append(["RD"] + [_fmt(summary["required_difference"][p]) for p in protocols])

    header = ["Algorithm"] + list(protocols)
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(r) for r in rows]
        return "\n".join(lines) + "\n"
    if fmt == "md":
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("|" + "|".join(["---"] * len(header)) + "|")
        lines.extend("| " + " | ".join(r) + " |" for r in rows)
        return "\n".join(lines) + "\n"
    if fmt == "text":
        widths = [
            max(len(str(row[i])) for row in [header] + rows) for i in range(len(header))
        ]
        def line(row):
            return "  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
        sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
        out = [line(header), sep]
        out.extend(line(r) for r in rows[:-1])
        out.append(sep)
        out.append(line(rows[-1]))
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
