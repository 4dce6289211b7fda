"""Named predictor adapters that the experiment runner scores.

Each predictor exposes `rank(case)` and, when it can predict vote values,
`predict(case, item)`. Model-based predictors trained on a restricted item
set fall back to smoothed training marginals for items outside the model, so
ranked lists always cover the full training item universe.
"""

from __future__ import annotations

import threading

import numpy as np

from . import bayesnet, cluster, memory
from .votedata import ActiveCase, ItemId, VoteDatabase


class PopularityPredictor:
    """Zero-order baseline: most popular training items first."""

    supports_ranked = True
    supports_deviation = False

    def __init__(self, train: VoteDatabase, name: str = "POP") -> None:
        self.name = name
        self.train = train
        self.stats: dict = {}

    def rank(self, case: ActiveCase) -> list[ItemId]:
        return memory.popularity_rank(self.train, case)

    def predict(self, case: ActiveCase, item: ItemId) -> float:
        raise NotImplementedError("popularity baseline does not predict vote values")


class _CaseCache:
    """What a predictor derives from a case (`_evaluate`), kept for the
    case's later calls in a single slot: one attribute, so concurrent case
    scoring never observes a torn (case, value) pair."""

    _cache: tuple | None = None

    def _for_case(self, case: ActiveCase):
        cached = self._cache
        if cached is not None and cached[0] is case:
            return cached[1]
        value = self._evaluate(case)
        self._cache = (case, value)
        return value


class MemoryPredictor(_CaseCache):
    supports_ranked = True
    supports_deviation = True

    def __init__(self, train: VoteDatabase, cfg: memory.MemoryConfig, name: str) -> None:
        self.name = name
        self.train = train
        self.scorer = memory.MemoryScorer(train, cfg)
        self.stats: dict = {}

    def _evaluate(self, case: ActiveCase):
        return self.scorer.predict_all(case)

    def rank(self, case: ActiveCase) -> list[ItemId]:
        values, informed = self._for_case(case)
        return memory._ranked_ids(self.train, case, values, informed)

    def predict(self, case: ActiveCase, item: ItemId) -> float:
        j = self.train.index.item_pos.get(item)
        if j is None:
            return case.observed_mean
        values, _ = self._for_case(case)
        return float(values[j])


class _ModelBackedPredictor(_CaseCache):
    """Shared ranking scaffolding for the probabilistic predictors.

    A case's score array over the training items starts from the items'
    smoothed training-marginal scores, computed once, and takes the model's
    scores (`_scores`, in model item order) where the model covers the item.
    """

    supports_ranked = True
    supports_deviation = True

    def __init__(self, train: VoteDatabase, model, name: str) -> None:
        self.name = name
        self.train = train
        self.model = model
        self.stats: dict = {}
        totals, counts = cluster.expected_counts(train, np.ones((len(train.users), 1)))
        self._marginals = cluster.map_estimates(totals, counts)[1][0]  # (items, states)
        self._fallback_scores = np.array([train.scale.rank_score(d) for d in self._marginals])
        self._model_cols = np.array([train.index.item_pos[it] for it in model.items], dtype=np.intp)

    def _fallback_vote(self, case: ActiveCase, item: ItemId) -> float:
        """Expected vote of an item outside the model from its training
        marginal; the case's mean vote for an item absent from training."""
        j = self.train.index.item_pos.get(item)
        if j is None:
            return case.observed_mean
        return self.train.scale.expected_vote(self._marginals[j])

    def rank(self, case: ActiveCase) -> list[ItemId]:
        score = self._fallback_scores.copy()
        score[self._model_cols] = self._scores(case)
        return self.train.index.ranked(case.observed, -score)


class ClusterPredictor(_ModelBackedPredictor):
    def __init__(self, train: VoteDatabase, model: cluster.ClusterModel, name: str = "BC") -> None:
        super().__init__(train, model, name)
        model.log_tables  # built here, before scoring threads share the model

    def _evaluate(self, case: ActiveCase) -> np.ndarray:
        return self.model.posterior(case.observed)

    def _scores(self, case: ActiveCase) -> np.ndarray:
        mixed = np.einsum("c,cjs->js", self._for_case(case), self.model.cond)
        scale = self.model.scale
        if scale.implicit:
            return mixed[:, 1]
        return np.array([scale.rank_score(d) for d in mixed])

    def predict(self, case: ActiveCase, item: ItemId) -> float:
        pos = self.model.item_pos.get(item)
        if pos is None:
            return self._fallback_vote(case, item)
        dist = self._for_case(case) @ self.model.cond[:, pos, :]
        return self.model.scale.expected_vote(dist)


class BayesNetPredictor(_ModelBackedPredictor):
    def __init__(self, train: VoteDatabase, model: bayesnet.BayesNetModel, name: str = "BN") -> None:
        super().__init__(train, model, name)
        self.net = model.compiled  # built here, before scoring threads share the model
        self._stats_lock = threading.Lock()

    def _evaluate(self, case: ActiveCase) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.net.route(case.observed)

    def _scores(self, case: ActiveCase) -> np.ndarray:
        leaf, influenced, seen = self._for_case(case)
        with self._stats_lock:
            self.net.count_lookups(self.stats, influenced, seen)
        return self.net.score[leaf]

    def predict(self, case: ActiveCase, item: ItemId) -> float:
        j = self.net.item_pos.get(item)
        if j is None:
            return self._fallback_vote(case, item)
        if item in case.observed:
            raise ValueError(f"item {item!r} is observed in this case")
        return float(self.net.expected[self._for_case(case)[0][j]])
