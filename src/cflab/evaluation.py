"""Scoring metrics, the blocked experiment runner (one pass over the cases for
every metric), and significance statistics."""

from __future__ import annotations

import json
import logging
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Protocol as TypingProtocol, Sequence

import numpy as np
from scipy import stats as sstats

from .votedata import ActiveCase, ItemId, VoteDatabase

log = logging.getLogger(__name__)

RANKED = "ranked"
DEVIATION = "deviation"
METRICS = (RANKED, DEVIATION)


@dataclass(frozen=True)
class RankedScoringConfig:
    """Half-life ranked utility parameters.

    `half_life` is the list position with a 50 percent chance of being
    viewed; `neutral` is the vote value worth nothing to the user.
    """

    half_life: float = 5.0
    neutral: float = 0.0

    def __post_init__(self) -> None:
        if self.half_life <= 1:
            raise ValueError("half_life must be > 1")


def _decay(rank: int, half_life: float) -> float:
    return 2.0 ** ((rank - 1) / (half_life - 1))


def ranked_utility(
    ranked: Sequence[ItemId], actual: Mapping[ItemId, float], cfg: RankedScoringConfig
) -> float:
    """Expected utility of a ranked list under exponentially decaying view odds.

    Each voted item at 1-based rank j contributes max(vote - neutral, 0)
    divided by 2^((j - 1) / (half_life - 1)); unvoted items contribute
    nothing, exactly as if they held the neutral vote. The list holds each
    item at most once.
    """
    hits = []
    for item, v in actual.items():
        gain = max(v - cfg.neutral, 0.0)
        if gain > 0:
            try:
                hits.append((ranked.index(item), gain))
            except ValueError:
                continue  # not in the list
    total = 0.0
    for pos, gain in sorted(hits):  # in list order, as a walk down the list adds them
        total += gain / _decay(pos + 1, cfg.half_life)
    return total


def max_ranked_utility(actual: Mapping[ItemId, float], cfg: RankedScoringConfig) -> float:
    """Utility of the ideal list: the user's voted items first, best vote first."""
    gains = sorted((max(v - cfg.neutral, 0.0) for v in actual.values()), reverse=True)
    return sum(g / _decay(pos, cfg.half_life) for pos, g in enumerate(gains, start=1) if g > 0)


def normalized_ranked_score(
    utilities: Sequence[float], maxima: Sequence[float]
) -> float:
    """100 * sum(utilities) / sum(maxima), skipping cases with no achievable utility."""
    if len(utilities) != len(maxima):
        raise ValueError("utilities and maxima must align")
    pairs = [(u, m) for u, m in zip(utilities, maxima) if m > 0]
    if not pairs:
        raise ValueError("every case has zero maximum utility")
    return 100.0 * sum(u for u, _ in pairs) / sum(m for _, m in pairs)


def absolute_deviation(
    predictions: Mapping[ItemId, float], actual: Mapping[ItemId, float]
) -> float:
    """Mean absolute error of predicted votes over the target items."""
    if not actual:
        raise ValueError("no target votes to score")
    try:
        return sum(abs(predictions[it] - v) for it, v in actual.items()) / len(actual)
    except KeyError as exc:
        raise ValueError(f"missing prediction for target item {exc.args[0]!r}") from None


def bonferroni_required_difference(
    scores: np.ndarray, confidence: float = 0.90
) -> float:
    """Minimum significant gap between two algorithm means.

    `scores` is cases (blocks) by algorithms. A two-way blocked ANOVA gives
    the residual mean square; the threshold is the two-sided Student-t
    quantile at the pairwise-corrected level times sqrt(2 * MSE / blocks).
    """
    x = np.asarray(scores, dtype=float)
    if x.ndim != 2:
        raise ValueError("scores must be a 2-d cases-by-algorithms array")
    b, m = x.shape
    if m < 2 or b < 2:
        raise ValueError("need at least 2 algorithms and 2 cases")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must be in (0, 1)")
    grand = x.mean()
    resid = x - x.mean(axis=1, keepdims=True) - x.mean(axis=0, keepdims=True) + grand
    df = (m - 1) * (b - 1)
    mse = float((resid**2).sum()) / df
    if mse <= 0.0:
        return 0.0
    n_pairs = m * (m - 1) / 2
    alpha_pair = (1.0 - confidence) / n_pairs
    t = float(sstats.t.ppf(1.0 - alpha_pair / 2.0, df))
    return t * float(np.sqrt(2.0 * mse / b))


class RankingPredictor(TypingProtocol):
    name: str

    def schedule(self, cases: Sequence[ActiveCase]) -> None:
        """The cases about to be scored, in order; each is then ranked,
        predicted, or both."""

    def rank(self, case: ActiveCase) -> list[ItemId]: ...

    def predict(self, case: ActiveCase, item: ItemId) -> float: ...


@dataclass
class ExperimentReport:
    """Per-case scores for every algorithm on one protocol and metric.

    Every algorithm row covers exactly the same case set, so per-case scores
    form the blocks of the significance analysis. `scores` holds the raw
    per-case score (ranked utility or mean absolute deviation); for ranked
    scoring `rmax` holds each case's maximum achievable utility.
    """

    protocol: str
    metric: str
    algorithms: list[str]
    case_ids: list
    scores: dict[str, list[float]]
    aggregate: dict[str, float]
    required_difference: float | None
    rmax: list[float] | None
    excluded: dict[str, list]
    confidence: float
    seed: int | None
    half_life: float | None
    neutral: float | None
    timing: dict[str, float] = field(default_factory=dict)
    extras: dict[str, dict] = field(default_factory=dict)

    @property
    def case_count(self) -> int:
        return len(self.case_ids)

    def case_counts(self) -> dict[str, int]:
        """Cases kept, and cases excluded for each reason."""
        return {"kept": self.case_count, **{k: len(v) for k, v in self.excluded.items()}}

    def block_matrix(self) -> np.ndarray:
        """Cases-by-algorithms matrix used for the required-difference statistic.

        Ranked scores are put on the 0..100 scale per case (100 * utility /
        maximum) so the threshold is commensurate with the aggregate score.
        """
        cols = []
        for name in self.algorithms:
            col = np.asarray(self.scores[name], dtype=float)
            if self.metric == RANKED:
                col = 100.0 * col / np.asarray(self.rmax, dtype=float)
            cols.append(col)
        return np.column_stack(cols)

    def to_json(self) -> dict:
        # timings are deliberately left out: report bytes must be identical
        # across reruns of the same configuration
        return {
            "version": 1,
            "kind": "experiment_report",
            "protocol": self.protocol,
            "metric": self.metric,
            "algorithms": list(self.algorithms),
            "case_count": self.case_count,
            "case_ids": list(self.case_ids),
            "scores": {k: list(map(float, v)) for k, v in self.scores.items()},
            "aggregate": {k: float(v) for k, v in self.aggregate.items()},
            "required_difference": self.required_difference,
            "rmax": None if self.rmax is None else list(map(float, self.rmax)),
            "excluded": self.excluded,
            "confidence": self.confidence,
            "seed": self.seed,
            "half_life": self.half_life,
            "neutral": self.neutral,
            "extras": self.extras,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, obj: Mapping) -> "ExperimentReport":
        return cls(
            protocol=obj["protocol"],
            metric=obj["metric"],
            algorithms=list(obj["algorithms"]),
            case_ids=list(obj["case_ids"]),
            scores={k: list(v) for k, v in obj["scores"].items()},
            aggregate=dict(obj["aggregate"]),
            required_difference=obj["required_difference"],
            rmax=None if obj.get("rmax") is None else list(obj["rmax"]),
            excluded={k: list(v) for k, v in obj.get("excluded", {}).items()},
            confidence=obj.get("confidence", 0.90),
            seed=obj.get("seed"),
            half_life=obj.get("half_life"),
            neutral=obj.get("neutral"),
            extras=dict(obj.get("extras", {})),
        )


def run_experiment(
    train: VoteDatabase,
    cases: Sequence[ActiveCase],
    algorithms: Sequence[RankingPredictor],
    metrics: Sequence[str],
    ranked_cfg: RankedScoringConfig | None = None,
    confidence: float = 0.90,
    seed: int | None = None,
    protocol_label: str = "custom",
) -> list[ExperimentReport]:
    """Score every algorithm on every case under a randomized block design,
    for every metric in one pass; one report per metric, in `metrics` order.

    All algorithms see identical observed votes per case. Each algorithm is
    told once the cases that some metric scores (`schedule`), and per case
    ranks it for ranked scoring and predicts each target for deviation
    scoring. Each metric keeps its own exclusions, so its blocks stay
    complete: a case with zero maximum utility is dropped from ranked scoring
    only, and a case where a call raised is dropped, for all algorithms, from
    that call's metric only. A report's `timing` and `extras` (what its
    metric's calls added to each predictor's `stats`) count its metric's
    calls alone.
    """
    metrics = list(metrics)
    if not metrics or len(set(metrics)) != len(metrics) or not set(metrics) <= set(METRICS):
        raise ValueError(f"need distinct metrics among {METRICS}, got {metrics!r}")
    if not algorithms:
        raise ValueError("need at least one algorithm")
    if not cases:
        raise ValueError("need at least one case")
    names = [a.name for a in algorithms]
    if len(set(names)) != len(names):
        raise ValueError("algorithm names must be unique")
    if ranked_cfg is None:
        ranked_cfg = RankedScoringConfig(half_life=5.0, neutral=float(train.scale.neutral))

    timing = {m: {n: 0.0 for n in names} for m in metrics}
    excluded = {m: {"zero_max_utility": [], "failed": []} for m in metrics}
    kept = {m: [] for m in metrics}  # (user, score per algorithm, rmax) per kept case
    stats_added = {m: {n: Counter() for n in names} for m in metrics}

    scored = []
    for case in cases:
        rmax = max_ranked_utility(case.targets, ranked_cfg) if RANKED in metrics else None
        todo = [m for m in metrics if m != RANKED or rmax > 0]  # the metrics that score it
        if len(todo) < len(metrics):
            excluded[RANKED]["zero_max_utility"].append(case.user)
        if todo:
            scored.append((case, rmax, todo))
    for alg in algorithms:
        alg.schedule([case for case, _, _ in scored])

    for case, rmax, todo in scored:
        for metric in todo:
            row = {}
            for alg in algorithms:
                before = dict(getattr(alg, "stats", {}))
                t0 = time.perf_counter()
                try:
                    if metric == RANKED:
                        row[alg.name] = ranked_utility(alg.rank(case), case.targets, ranked_cfg)
                    else:
                        preds = {it: alg.predict(case, it) for it in case.targets}
                        row[alg.name] = absolute_deviation(preds, case.targets)
                except Exception:
                    log.exception("%s scoring: algorithm %s failed on case %r",
                                  metric, alg.name, case.user)
                    break
                finally:
                    timing[metric][alg.name] += time.perf_counter() - t0
                    for k, v in getattr(alg, "stats", {}).items():
                        stats_added[metric][alg.name][k] += v - before.get(k, 0)
            if len(row) < len(algorithms):
                excluded[metric]["failed"].append(case.user)
            else:
                kept[metric].append((case.user, row, rmax))

    reports = []
    for metric in metrics:
        if not kept[metric]:
            raise ValueError(f"every case was excluded from {metric} scoring; nothing to score")
        ranked = metric == RANKED
        rmaxes = [r for _, _, r in kept[metric]]
        scores = {n: [row[n] for _, row, _ in kept[metric]] for n in names}
        report = ExperimentReport(
            protocol=protocol_label, metric=metric, algorithms=names,
            case_ids=[user for user, _, _ in kept[metric]], scores=scores,
            aggregate={n: normalized_ranked_score(scores[n], rmaxes) if ranked
                       else float(np.mean(scores[n])) for n in names},
            required_difference=None, rmax=rmaxes if ranked else None,
            excluded=excluded[metric], confidence=confidence, seed=seed,
            half_life=ranked_cfg.half_life if ranked else None,
            neutral=ranked_cfg.neutral if ranked else None, timing=timing[metric],
            extras={alg.name: {k: stats_added[metric][alg.name][k] for k in alg.stats}
                    for alg in algorithms if getattr(alg, "stats", None)},
        )
        if len(names) >= 2 and report.case_count >= 2:
            report.required_difference = float(
                bonferroni_required_difference(report.block_matrix(), confidence)
            )
        reports.append(report)
    return reports
