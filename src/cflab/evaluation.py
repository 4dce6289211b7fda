"""Scoring metrics, the blocked experiment runner, and significance statistics.

The runner makes one pass over the cases for every metric, in blocks: each
predictor evaluates a block into arrays (see `predictors`), each metric reads
a block's targets from them at once (ranked scoring counts list positions, NaN
last, and builds no list), and a block whose evaluation raises is evaluated
one case at a time."""

from __future__ import annotations

import json
import logging
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.special import stdtrit

from .predictors import Block, Predictor
from .votedata import ActiveCase, ItemId, VoteDatabase

log = logging.getLogger(__name__)

RANKED = "ranked"
DEVIATION = "deviation"
METRICS = (RANKED, DEVIATION)

# Cells (cases x training items) of a block's `_Frame`: a skip mask row per
# case, and a row per target, a few per case, in the ranked reading.
BLOCK_CELLS = 2**13


def block_cases(train: VoteDatabase) -> int:
    """Cases per block of the runner: as many as BLOCK_CELLS cells hold."""
    return max(1, BLOCK_CELLS // max(1, len(train.items)))


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
    hits = [(ranked.index(item), gain) for item, v in actual.items()
            if (gain := max(v - cfg.neutral, 0.0)) > 0 and item in ranked]
    pos, gains = np.array(hits, dtype=float).reshape(-1, 2).T
    return float(_walk(np.zeros(len(hits), np.intp), pos, gains, 1, cfg)[0])


def _walk(case_of: np.ndarray, pos: np.ndarray, gains: np.ndarray, n: int,
          cfg: RankedScoringConfig) -> np.ndarray:
    """The utilities of n cases from their hits, (case, 0-based list
    position, gain) triples: each case's gains over their `_decay`s, added
    from 0.0 in list order as a walk down its list adds them."""
    order = np.lexsort((pos, case_of))
    decays = [_decay(p + 1, cfg.half_life) for p in pos[order].tolist()]
    return np.bincount(case_of[order], weights=gains[order] / decays, minlength=n)


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

    The quantile is `scipy.special.stdtrit(df, q)`. Student t's `ppf` in
    scipy's statistics package returns `stdtrit(df, q) * 1.0 + 0.0`, and
    neither step changes a positive quantile, so the two agree bit for bit.
    Importing that package for one call would cost more start-up time and
    memory than everything else cflab loads.
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
    t = float(stdtrit(df, 1.0 - alpha_pair / 2.0))
    return t * float(np.sqrt(2.0 * mse / b))


@dataclass
class ExperimentReport:
    """Per-case scores for every algorithm on one protocol and metric.

    Every algorithm row covers exactly the same case set, so per-case scores
    form the blocks of the significance analysis. `scores` holds the raw
    per-case score (ranked utility or mean absolute deviation); for ranked
    scoring `rmax` holds each case's maximum achievable utility. Both are
    float64 arrays: 8 bytes a case, where a list of floats takes 32.
    """

    protocol: str
    metric: str
    algorithms: list[str]
    case_ids: list
    scores: dict[str, np.ndarray]
    aggregate: dict[str, float]
    required_difference: float | None
    rmax: np.ndarray | None
    excluded: dict[str, list]
    confidence: float
    seed: int | None
    half_life: float | None
    neutral: float | None
    extras: dict[str, dict] = field(default_factory=dict)
    block_seconds: dict[str, list[float]] = field(default_factory=dict)

    @property
    def timing(self) -> dict[str, float]:
        """Seconds per algorithm over the blocks this report's metric read."""
        return {n: sum(t) for n, t in self.block_seconds.items()}

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
            scores={k: np.array(v, dtype=float) for k, v in obj["scores"].items()},
            aggregate=dict(obj["aggregate"]),
            required_difference=obj["required_difference"],
            rmax=None if obj.get("rmax") is None else np.array(obj["rmax"], dtype=float),
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
    algorithms: Sequence[Predictor],
    metrics: Sequence[str],
    ranked_cfg: RankedScoringConfig | None = None,
    confidence: float = 0.90,
    seed: int | None = None,
    protocol_label: str = "custom",
) -> list[ExperimentReport]:
    """Score every algorithm on every case under a randomized block design,
    for every metric in one pass; one report per metric, in `metrics` order.

    The cases that some metric scores are walked in this module's blocks,
    `block_cases(train)`; each algorithm evaluates a block once for every
    metric (see `predictors`). A block whose evaluation raises is evaluated
    one case at a time. Each metric keeps its own exclusions, so its blocks
    stay complete: a case with zero maximum utility is dropped from ranked
    scoring only, and a case where an evaluation or a metric's reading
    failed is dropped, for all algorithms, from the metrics that failed. A
    report's `extras` add the algorithms' work `counts` over the cases the
    ranked report keeps (zeros in the deviation report) when the ranked
    metric runs; its `timing` and `block_seconds` time the blocks its metric
    reads, whose time the metrics share.
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

    block_seconds = {m: {n: [] for n in names} for m in metrics}
    excluded = {m: {"zero_max_utility": [], "failed": []} for m in metrics}
    kept = {m: [] for m in metrics}  # (user, score per algorithm, rmax) per kept case
    work: dict[str, Counter] = {}  # per algorithm, its counts over the kept ranked cases

    scored = []
    for case in cases:
        rmax = max_ranked_utility(case.targets, ranked_cfg) if RANKED in metrics else None
        todo = [m for m in metrics if m != RANKED or rmax > 0]  # the metrics that score it
        if len(todo) < len(metrics):
            excluded[RANKED]["zero_max_utility"].append(case.user)
        if todo:
            scored.append((case, rmax, todo))

    size = block_cases(train)
    for lo in range(0, len(scored), size):
        chunk = scored[lo:lo + size]
        frame = _Frame(train, chunk, ranked_cfg)
        rows = [{m: {} for m in todo} for _, _, todo in chunk]  # a case's scores per metric
        counts = [{} for _ in chunk]  # a case's work counts per algorithm
        for alg in algorithms:
            t0 = time.perf_counter()
            for first, block in _evaluate(alg, frame.cases):
                for metric, read in ((RANKED, frame.utilities), (DEVIATION, frame.deviations)):
                    for k, score in read(alg.name, first, block).items():
                        rows[k][metric][alg.name] = score
                for row in range(len(block.scores) if block.counts else 0):
                    counts[first + row][alg.name] = {
                        name: int(c[row]) for name, c in block.counts.items()}
            for m in metrics:
                if any(m in todo for _, _, todo in chunk):
                    block_seconds[m][alg.name].append(time.perf_counter() - t0)
        for k, (case, rmax, todo) in enumerate(chunk):
            for m in todo:
                if len(rows[k][m]) < len(algorithms):
                    excluded[m]["failed"].append(case.user)
                    continue
                kept[m].append((case.user, rows[k][m], rmax))
                for name, c in counts[k].items() if m == RANKED else ():
                    work.setdefault(name, Counter()).update(c)

    reports = []
    for metric in metrics:
        if not kept[metric]:
            raise ValueError(f"every case was excluded from {metric} scoring; nothing to score")
        ranked = metric == RANKED
        rmaxes = [r for _, _, r in kept[metric]]
        scores = {n: [row[n] for _, row, _ in kept[metric]] for n in names}
        report = ExperimentReport(
            protocol=protocol_label, metric=metric, algorithms=names,
            case_ids=[user for user, _, _ in kept[metric]],
            scores={n: np.array(s) for n, s in scores.items()},
            aggregate={n: normalized_ranked_score(scores[n], rmaxes) if ranked
                       else float(np.mean(scores[n])) for n in names},
            required_difference=None, rmax=np.array(rmaxes) if ranked else None,
            excluded=excluded[metric], confidence=confidence, seed=seed,
            half_life=ranked_cfg.half_life if ranked else None,
            neutral=ranked_cfg.neutral if ranked else None,
            extras={name: {k: v if ranked else 0 for k, v in c.items()}
                    for name, c in work.items()},
            block_seconds=block_seconds[metric],
        )
        if len(names) >= 2 and report.case_count >= 2:
            report.required_difference = float(
                bonferroni_required_difference(report.block_matrix(), confidence)
            )
        reports.append(report)
    return reports


def _evaluate(alg: Predictor, cases: list[ActiveCase]) -> list[tuple[int, Block]]:
    """The (first case, block) parts that `alg` evaluated: the whole block,
    or, if that raises, each case alone that does not."""
    try:
        return [(0, alg.evaluate(cases))]
    except Exception:
        if len(cases) == 1:
            log.exception("algorithm %s failed on case %r", alg.name, cases[0].user)
            return []
    # a case can fail its whole block: only the failing case fails
    return [(k, block) for k, case in enumerate(cases) for _, block in _evaluate(alg, [case])]


class _Frame:
    """What a block's algorithms share, and each metric's reading of a part
    of the block (the block's cases from `first` on): the scores of the
    cases that the metric scores, less those whose reading raised.

    Ranked scoring counts each target's list position (`_Index.positions`)
    and adds the gains in list order, as `ranked_utility` does. Its targets
    are (case, training position, gain) triples in case and target order,
    with the observed training items of each target's case (`skip`); an item
    outside training adds nothing. Deviation scoring reads a part's (case,
    training position) targets with one `votes` call, or if that raises each
    case's alone, and takes the case's mean vote for an item outside training."""

    def __init__(self, train: VoteDatabase, chunk, cfg: RankedScoringConfig) -> None:
        self.index = index = train.index
        self.cfg = cfg
        self.cases = [case for case, _, _ in chunk]
        self.todo = [todo for _, _, todo in chunk]
        skip = np.zeros((len(chunk), len(index.item_ids)), dtype=bool)
        skip[index.observed_votes(self.cases)[:2]] = True
        hits, voted = [], []  # (case, training position, gain), (case, training position)
        for k, (case, _, todo) in enumerate(chunk):
            for it, v in case.targets.items():
                j, gain = index.item_pos.get(it), max(v - cfg.neutral, 0.0)
                if j is not None and DEVIATION in todo:
                    voted.append((k, j))
                if j is not None and RANKED in todo and gain > 0:
                    hits.append((k, j, gain))
        case_of, cols, self.gains = np.array(hits, dtype=float).reshape(-1, 3).T
        self.case_of, self.cols = case_of.astype(np.intp), cols.astype(np.intp)
        self.skip = skip[self.case_of]
        self.voted_case_of, self.voted_cols = np.array(voted, dtype=np.intp).reshape(-1, 2).T

    def utilities(self, name: str, first: int, block: Block) -> dict[int, float]:
        part = range(first, first + len(block.scores))
        pick = (self.case_of >= part.start) & (self.case_of < part.stop)
        case_of = self.case_of[pick] - first
        try:
            pos = self.index.positions(self.skip[pick], ~block.informed[case_of],
                                       -block.scores[case_of], self.cols[pick])
        except Exception:
            log.exception("ranked scoring: algorithm %s failed on a block", name)
            return {}
        totals = _walk(case_of, pos, self.gains[pick], len(part), self.cfg)
        return {k: float(totals[k - first]) for k in part if RANKED in self.todo[k]}

    def deviations(self, name: str, first: int, block: Block) -> dict[int, float]:
        part = [k for k in range(first, first + len(block.scores)) if DEVIATION in self.todo[k]]
        try:
            return self._deviations(first, block, part) if part else {}
        except Exception:
            pass
        # a case can fail its part: only the failing case fails
        got = {}
        for k in part:
            try:
                got.update(self._deviations(first, block, [k]))
            except Exception:
                log.exception("deviation scoring: algorithm %s failed on case %r",
                              name, self.cases[k].user)
        return got

    def _deviations(self, first: int, block: Block, part: list[int]) -> dict[int, float]:
        """The deviations of the cases `part`, their votes read in one call."""
        pick = np.isin(self.voted_case_of, part)
        votes = iter(block.votes(self.voted_case_of[pick] - first, self.voted_cols[pick]).tolist())
        return {k: absolute_deviation({
            it: next(votes) if it in self.index.item_pos else self.cases[k].observed_mean
            for it in self.cases[k].targets}, self.cases[k].targets) for k in part}
