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


class MemoryPredictor:
    supports_ranked = True
    supports_deviation = True

    def __init__(self, train: VoteDatabase, cfg: memory.MemoryConfig, name: str) -> None:
        self.name = name
        self.train = train
        self.scorer = memory.MemoryScorer(train, cfg)
        self.stats: dict = {}
        self._cache: tuple | None = None

    def _predictions(self, case: ActiveCase):
        # single-slot cache held in one attribute so concurrent case scoring
        # never observes a torn (case, values) pair
        cached = self._cache
        if cached is not None and cached[0] is case:
            return cached[1]
        values = self.scorer.predict_all(case)
        self._cache = (case, values)
        return values

    def rank(self, case: ActiveCase) -> list[ItemId]:
        values, informed = self._predictions(case)
        return memory._ranked_ids(self.train, case, values, informed)

    def predict(self, case: ActiveCase, item: ItemId) -> float:
        j = self.train.index.item_pos.get(item)
        if j is None:
            return case.observed_mean
        values, _ = self._predictions(case)
        return float(values[j])


def _marginal_distributions(train: VoteDatabase, prior_strength: float = 1.0) -> dict:
    """Smoothed per-item state distributions of the training data, used as the
    fallback score for items outside a trained model."""
    totals, counts = cluster.expected_counts(train, np.ones((len(train.users), 1)))
    _, dists = cluster.map_estimates(totals, counts, prior_strength)
    return {it: dists[0, j] for j, it in enumerate(train.items)}


class _ModelBackedPredictor:
    """Shared ranking scaffolding for the probabilistic predictors."""

    supports_ranked = True
    supports_deviation = True

    def __init__(self, train: VoteDatabase, name: str) -> None:
        self.name = name
        self.train = train
        self.stats: dict = {}
        self._marginals = None

    def _fallback_dist(self, item: ItemId) -> np.ndarray:
        if self._marginals is None:
            self._marginals = _marginal_distributions(self.train)
        return self._marginals[item]

    def _fallback_vote(self, case: ActiveCase, item: ItemId) -> float:
        """Expected vote of an item outside the model from its training
        marginal; the case's mean vote for an item absent from training."""
        if item not in self.train.index.item_pos:
            return case.observed_mean
        return cluster._expected_from_distribution(self._fallback_dist(item), self.train.scale)

    def _model_items(self) -> set:
        raise NotImplementedError

    def _model_scores(self, case: ActiveCase) -> dict[ItemId, float]:
        raise NotImplementedError

    def rank(self, case: ActiveCase) -> list[ItemId]:
        scale = self.train.scale
        scores = self._model_scores(case)
        model_items = self._model_items()
        for it in self.train.items:
            if it in case.observed or it in model_items:
                continue
            scores[it] = bayesnet.rank_score(self._fallback_dist(it), scale)
        idx = self.train.index
        ordered = sorted(
            scores, key=lambda it: (-scores[it], idx.item_sort_rank[idx.item_pos[it]])
        )
        return ordered


class ClusterPredictor(_ModelBackedPredictor):
    def __init__(self, train: VoteDatabase, model: cluster.ClusterModel, name: str = "BC") -> None:
        super().__init__(train, name)
        self.model = model
        self._cache: tuple | None = None

    def _model_items(self) -> set:
        return set(self.model.items)

    def _posterior(self, case: ActiveCase) -> np.ndarray:
        cached = self._cache
        if cached is not None and cached[0] is case:
            return cached[1]
        post = self.model.posterior(case.observed)
        self._cache = (case, post)
        return post

    def _model_scores(self, case: ActiveCase) -> dict[ItemId, float]:
        post = self._posterior(case)
        mixed = np.einsum("c,cjs->js", post, self.model.cond)
        scale = self.model.scale
        out = {}
        for j, it in enumerate(self.model.items):
            if it in case.observed:
                continue
            out[it] = bayesnet.rank_score(mixed[j], scale)
        return out

    def predict(self, case: ActiveCase, item: ItemId) -> float:
        pos = self.model._item_pos().get(item)
        if pos is None:
            return self._fallback_vote(case, item)
        dist = self._posterior(case) @ self.model.cond[:, pos, :]
        return cluster._expected_from_distribution(dist, self.model.scale)


class BayesNetPredictor(_ModelBackedPredictor):
    def __init__(self, train: VoteDatabase, model: bayesnet.BayesNetModel, name: str = "BN") -> None:
        super().__init__(train, name)
        self.model = model
        self._stats_lock = threading.Lock()

    def _model_items(self) -> set:
        return set(self.model.items)

    def _model_scores(self, case: ActiveCase) -> dict[ItemId, float]:
        scale = self.model.scale
        out = {}
        lookups = influenced = 0
        for it in self.model.items:
            if it in case.observed:
                continue
            dist, hit = bayesnet._case_lookup(self.model, case, it)
            lookups += 1
            influenced += hit
            out[it] = bayesnet.rank_score(dist, scale)
        with self._stats_lock:
            self.stats["lookups"] = self.stats.get("lookups", 0) + lookups
            self.stats["influenced"] = self.stats.get("influenced", 0) + influenced
        return out

    def predict(self, case: ActiveCase, item: ItemId) -> float:
        if item in self.model.cpds:
            return bayesnet.bn_expected_vote(self.model, case, item)
        return self._fallback_vote(case, item)
