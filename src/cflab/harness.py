"""Experiment configuration, the end-to-end runner, and report rendering.

A run is described by one JSON config: the dataset, the protocols, the named
algorithms, and the metrics. The runner trains (and caches) any required
models, scores each protocol's cases once for every metric, and writes
deterministic report artifacts: rerunning an unchanged config reproduces the
report files byte for byte. Volatile data (wall-clock timings), the case
counts of each metric and protocol, and each predictor's cases per scoring
block go to a separate `run_meta.json` so the reports stay comparable.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bayesnet, cluster, memory
from .evaluation import (
    DEVIATION,
    METRICS,
    RANKED,
    ExperimentReport,
    RankedScoringConfig,
    run_experiment,
)
from .predictors import (
    BayesNetPredictor,
    ClusterPredictor,
    MemoryPredictor,
    PopularityPredictor,
)
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


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where}.{key}: missing required key")
    return obj[key]


def _check_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    """Reject a key that nothing reads: a misspelt key would silently leave
    its setting at the default."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: must be a JSON object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}")


def parse_config(doc: dict, base_dir: Path) -> ExperimentConfig:
    _check_keys(doc, ("dataset", "protocols", "algorithms", "metrics", "ranked",
                      "confidence", "seed", "output_dir"), "config")

    ds = _require(doc, "dataset", "config")
    _check_keys(ds, ("format", "train", "test", "scale", "test_fraction",
                     "split_seed", "min_votes", "train_users"), "dataset")
    fmt = _require(ds, "format", "dataset")
    if fmt not in ("msweb", "csv"):
        raise ConfigError(f"dataset.format: unknown format {fmt!r}")
    train = base_dir / _require(ds, "train", "dataset")
    if not train.exists():
        raise ConfigError(f"dataset.train: file not found: {train}")
    test = ds.get("test")
    if test is not None:
        test = base_dir / test
        if not test.exists():
            raise ConfigError(f"dataset.test: file not found: {test}")
    if fmt == "msweb":
        scale = IMPLICIT_SCALE
    else:
        raw_scale = ds.get("scale")
        if raw_scale is None:
            raise ConfigError("dataset.scale: required for csv datasets")
        _check_keys(raw_scale, ("min_vote", "max_vote", "neutral", "implicit"), "dataset.scale")
        try:
            scale = VoteScale(
                min_vote=int(raw_scale.get("min_vote", 0)),
                max_vote=int(raw_scale.get("max_vote", 1)),
                neutral=float(raw_scale.get("neutral", 0.0)),
                implicit=bool(raw_scale.get("implicit", False)),
            )
        except (VoteDataError, TypeError, ValueError) as exc:
            raise ConfigError(f"dataset.scale: {exc}") from None
    test_fraction = ds.get("test_fraction")
    if test is None and test_fraction is None:
        raise ConfigError("dataset: need either a test file or a test_fraction split")
    dataset = DatasetSpec(
        format=fmt,
        train=train,
        test=test,
        scale=scale,
        test_fraction=test_fraction,
        split_seed=int(ds.get("split_seed", 0)),
        min_votes=int(ds.get("min_votes", 2)),
        train_users=ds.get("train_users"),
    )

    raw_protocols = _require(doc, "protocols", "config")
    if not raw_protocols:
        raise ConfigError("protocols: need at least one")
    protocols = []
    for i, p in enumerate(raw_protocols):
        try:
            protocols.append(Protocol.parse(p) if isinstance(p, str) else Protocol.given(int(p["given"])))
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"protocols[{i}]: {exc}") from None

    raw_algorithms = _require(doc, "algorithms", "config")
    if not raw_algorithms:
        raise ConfigError("algorithms: need at least one")
    algorithms = []
    names = set()
    for i, a in enumerate(raw_algorithms):
        _check_keys(a, ("name", "kind", "config"), f"algorithms[{i}]")
        name = _require(a, "name", f"algorithms[{i}]")
        kind = _require(a, "kind", f"algorithms[{i}]")
        if kind not in ALGORITHM_KINDS:
            raise ConfigError(f"algorithms[{i}].kind: unknown kind {kind!r}")
        if name in names:
            raise ConfigError(f"algorithms[{i}].name: duplicate name {name!r}")
        names.add(name)
        params = a.get("config", {})
        if kind == MEMORY:
            try:
                memory.MemoryConfig.from_json(params)
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"algorithms[{i}].config: {exc}") from None
        else:
            _model_params(kind, params, f"algorithms[{i}].config")
        algorithms.append(AlgorithmSpec(name=name, kind=kind, params=params))

    metrics = doc.get("metrics", [RANKED])
    for m in metrics:
        if m not in METRICS:
            raise ConfigError(f"metrics: unknown metric {m!r}")
    for spec in algorithms:
        if DEVIATION in metrics and spec.kind == POPULARITY:
            raise ConfigError(
                f"metrics: {spec.name} cannot predict vote values; drop it or "
                "drop the deviation metric"
            )

    raw_ranked = doc.get("ranked", {})
    _check_keys(raw_ranked, ("half_life", "neutral"), "ranked")
    try:
        ranked = RankedScoringConfig(
            half_life=float(raw_ranked.get("half_life", 5.0)),
            neutral=float(raw_ranked.get("neutral", scale.neutral)),
        )
    except ValueError as exc:
        raise ConfigError(f"ranked: {exc}") from None

    # the only environment override: relocate the artifacts
    out_override = os.environ.get("CFLAB_OUTPUT_DIR")
    output_dir = Path(out_override) if out_override else base_dir / doc.get("output_dir", "out")
    return ExperimentConfig(
        dataset=dataset,
        protocols=protocols,
        algorithms=algorithms,
        metrics=list(metrics),
        ranked=ranked,
        confidence=float(doc.get("confidence", 0.90)),
        seed=int(doc.get("seed", 0)),
        output_dir=output_dir,
    )


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


def load_datasets(spec: DatasetSpec) -> tuple[VoteDatabase, VoteDatabase]:
    """Load (train, test); test users are filtered to the minimum vote count."""
    loader = load_msweb if spec.format == "msweb" else (
        lambda p: load_votes_csv(p, spec.scale)
    )
    train = loader(spec.train)
    if spec.test is not None:
        test = loader(spec.test)
    else:
        train, test = split_users(train, spec.test_fraction, spec.split_seed)
    if spec.train_users is not None and spec.train_users < len(train.users):
        perm = np.random.default_rng(spec.split_seed).permutation(len(train.users))
        keep = {train.users[i] for i in perm[: spec.train_users]}
        train = train.subset(users=[u for u in train.users if u in keep])
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


# The config keys that train_model reads for each kind of trained model, each
# with its default, its type and the bound its value must stay strictly
# under (and over 0); popularity reads none, and memory configs check their
# own keys.
ALGORITHM_PARAMS = {
    POPULARITY: {},
    CLUSTER: {
        "classes": (None, int, math.inf),  # a fixed class count, in place of the sweep
        "max_classes": (25, int, math.inf),
        "restarts": (3, int, math.inf),
        "prior_strength": (1.0, float, math.inf),
        "max_iter": (200, int, math.inf),
    },
    BAYESNET: {"structure_penalty": (0.1, float, 1), "ess": (10.0, float, math.inf)},
}


def _model_params(kind: str, params: dict, where: str) -> dict:
    """Every config value of a popularity, cluster or bayesnet algorithm,
    defaults filled in; an unknown key or a bad value is a ConfigError that
    names `where` and the key."""
    allowed = ALGORITHM_PARAMS[kind]
    _check_keys(params, tuple(allowed), where)
    if "classes" in params and ("max_classes" in params or "restarts" in params):
        raise ConfigError(f"{where}: a fixed classes count takes no max_classes or restarts")
    values = {}
    for key, (default, typ, high) in allowed.items():
        value = params.get(key, default)
        if key in params and (isinstance(value, bool) or not isinstance(value, (int, typ))
                              or not 0 < value < high):
            wanted = "an integer >= 1" if typ is int else f"a number in (0, {high})"
            raise ConfigError(f"{where}.{key}: must be {wanted}, not {value!r}")
        values[key] = None if value is None else typ(value)
    return values


def train_model(train: VoteDatabase, spec: AlgorithmSpec, seed: int, cache_dir: Path):
    """Train (or load from cache) the model behind a cluster/bayesnet algorithm."""
    key = _model_cache_key(train, spec, seed)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{spec.kind}_{key}.json"
    if path.exists():
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            model = (
                cluster.ClusterModel.from_json(doc)
                if spec.kind == CLUSTER
                else bayesnet.BayesNetModel.from_json(doc)
            )
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
    if spec.kind not in (CLUSTER, BAYESNET):
        raise ValueError(f"algorithm kind {spec.kind!r} has no trained model")
    params = _model_params(spec.kind, spec.params, f"{spec.name}.config")
    if spec.kind == CLUSTER:
        fit = dict(seed=seed, prior_strength=params["prior_strength"], max_iter=params["max_iter"])
        if params["classes"] is not None:
            model, _ = cluster.em_fit(train, params["classes"], **fit)
        else:
            model, _ = cluster.select_cluster_model(
                train, params["max_classes"], restarts=params["restarts"], **fit
            )
    else:
        cfg = bayesnet.LearnConfig(
            structure_penalty=params["structure_penalty"],
            equivalent_sample_size=params["ess"],
            seed=seed,
        )
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
        return MemoryPredictor(train, memory.MemoryConfig.from_json(spec.params), name=spec.name)
    model, _ = train_model(train, spec, seed, cache_dir)
    if spec.kind == CLUSTER:
        return ClusterPredictor(train, model, name=spec.name)
    return BayesNetPredictor(train, model, name=spec.name)


# --- the runner --------------------------------------------------------------


@dataclass
class RunResult:
    reports: dict[tuple[str, str], ExperimentReport]  # (metric, protocol label)
    report_paths: list[Path]
    summary_paths: list[Path]
    output_dir: Path


def run(config: ExperimentConfig) -> RunResult:
    t_start = time.perf_counter()
    out = config.output_dir
    (out / "reports").mkdir(parents=True, exist_ok=True)
    (out / "splits").mkdir(parents=True, exist_ok=True)
    cache_dir = out / "models"

    train, test = load_datasets(config.dataset)
    predictors = [
        build_predictor(spec, train, config.seed, cache_dir) for spec in config.algorithms
    ]

    reports: dict[tuple[str, str], ExperimentReport] = {}
    report_paths: list[Path] = []
    for protocol in config.protocols:
        cases = generate_active_cases(test, protocol, config.seed)
        save_split_manifest(
            out / "splits" / f"{protocol.label}.json", cases, protocol, config.seed
        )
        for report in run_experiment(
            train, cases, predictors, config.metrics, ranked_cfg=config.ranked,
            confidence=config.confidence, seed=config.seed, protocol_label=protocol.label,
        ):
            reports[(report.metric, protocol.label)] = report
            path = out / "reports" / f"{report.metric}_{protocol.label}.json"
            path.write_text(report.dumps(), encoding="utf-8")
            report_paths.append(path)

    summary_paths = []
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
        "timing": {f"{m}/{p}": r.timing for (m, p), r in reports.items()},
        "cases": {f"{m}/{p}": r.case_counts() for (m, p), r in reports.items()},
        "block_cases": {alg.name: alg.block_cases for alg in predictors},
        "train_users": len(train.users),
        "train_items": len(train.items),
        "test_users": len(test.users),
    }
    (out / "run_meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return RunResult(reports, report_paths, summary_paths, out)


def train_models(config: ExperimentConfig, only: str | None = None) -> dict[str, Path]:
    """Train and cache the models required by the config's algorithms."""
    kind_filter = {"bc": CLUSTER, "bn": BAYESNET}.get(only) if only else None
    train, _ = load_datasets(config.dataset)
    out = {}
    for spec in config.algorithms:
        if spec.kind not in (CLUSTER, BAYESNET):
            continue
        if kind_filter and spec.kind != kind_filter:
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
