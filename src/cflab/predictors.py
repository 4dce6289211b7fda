"""Named predictor adapters that the experiment runner scores.

The one predictor contract: for a case, `scores(case)` returns a score per
training item (in `train.items` order) and an `informed` mask. POP, BN and
BC inform every item; a memory predictor informs the items a weighted
neighbour voted on (every item under default voting). From there:

- `rank(case)` lists the unobserved training items by descending score,
  informed before uninformed on equal scores, ties to the lower item id;
- `predict(case, item)` raises ValueError for an observed item, returns the
  case's mean vote for an item absent from training, and otherwise the
  predictor's expected vote for the item (`_vote`).

Model-based predictors trained on a restricted item set fall back to smoothed
training marginals for items outside the model, so ranked lists always cover
the full training item universe.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import bayesnet, cluster, memory
from .votedata import ActiveCase, ItemId, VoteDatabase

# Weight entries (cases x training users) that one block may hold. Cases in
# a block share the fixed cost of a memory predictor's per-block work, while
# each case holds about fifteen arrays of one float per training user as its
# weights are computed: sizing blocks by training users bounds that memory
# at any training size.
BLOCK_WEIGHTS = 2**13


class Predictor:
    """The shared ranking and vote-prediction rules over `scores`.

    What a predictor derives from a case (`_evaluate_block`) is computed for
    a block of up to `block_cases` cases at once: `schedule` splits the cases
    about to be scored into blocks, and the first call on a case evaluates its
    whole block. One block's results are kept, keyed by case identity; a case
    that was not scheduled is a block of one.
    """

    def __init__(self, train: VoteDatabase, name: str) -> None:
        self.name = name
        self.train = train
        self.stats: dict = {}
        self._all_informed = np.ones(len(train.items), dtype=bool)
        self._block_of: dict[int, list[ActiveCase]] = {}
        self._evaluated: dict[int, tuple[ActiveCase, object]] = {}

    @property
    def block_cases(self) -> int:
        """Cases per block: as many as BLOCK_WEIGHTS weight entries hold, at
        least one."""
        return max(1, BLOCK_WEIGHTS // max(1, len(self.train.users)))

    def schedule(self, cases: Sequence[ActiveCase]) -> None:
        """Split the cases about to be scored, in scoring order, into blocks."""
        size = self.block_cases
        blocks = [list(cases[i:i + size]) for i in range(0, len(cases), size)]
        # the blocks hold their cases, so no other live case shares an id
        self._block_of = {id(case): block for block in blocks for case in block}

    def _for_case(self, case: ActiveCase):
        hit = self._evaluated.get(id(case))
        if hit is not None and hit[0] is case:
            return hit[1]
        block = self._block_of.get(id(case), [case])
        try:
            values = self._evaluate_block(block)
        except Exception:
            if len(block) == 1:
                raise
            # a case can fail its whole block: score the block's cases one at
            # a time, so that only the failing case fails
            for other in block:
                del self._block_of[id(other)]
            block = [case]
            values = self._evaluate_block(block)
        self._evaluated = {id(c): (c, v) for c, v in zip(block, values)}
        return self._evaluated[id(case)][1]

    def _evaluate_block(self, cases: list[ActiveCase]) -> list:
        """What the predictor derives from each of the cases, in order."""
        raise NotImplementedError

    def scores(self, case: ActiveCase) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _vote(self, case: ActiveCase, item: ItemId, j: int) -> float:
        """Expected vote of the unobserved training item at position j."""
        raise NotImplementedError

    def rank(self, case: ActiveCase) -> list[ItemId]:
        scores, informed = self.scores(case)
        return self.train.index.ranked(case.observed, ~informed, -scores)

    def predict(self, case: ActiveCase, item: ItemId) -> float:
        if item in case.observed:
            raise ValueError(f"item {item!r} is observed in this case")
        j = self.train.index.item_pos.get(item)
        if j is None:
            return case.observed_mean
        return self._vote(case, item, j)


class PopularityPredictor(Predictor):
    """Zero-order baseline: most popular training items first."""

    def __init__(self, train: VoteDatabase, name: str = "POP") -> None:
        super().__init__(train, name)

    def scores(self, case: ActiveCase) -> tuple[np.ndarray, np.ndarray]:
        return self.train.index.item_counts, self._all_informed

    def predict(self, case: ActiveCase, item: ItemId) -> float:
        raise NotImplementedError("popularity baseline does not predict vote values")


class MemoryPredictor(Predictor):
    """Scores are the predicted votes of `memory.MemoryScorer`."""

    def __init__(self, train: VoteDatabase, cfg: memory.MemoryConfig, name: str) -> None:
        super().__init__(train, name)
        self.scorer = memory.MemoryScorer(train, cfg)

    def _evaluate_block(self, cases: list[ActiveCase]) -> list[tuple[np.ndarray, np.ndarray]]:
        return list(zip(*self.scorer.predict_all(cases)))

    def scores(self, case: ActiveCase) -> tuple[np.ndarray, np.ndarray]:
        return self._for_case(case)

    def _vote(self, case: ActiveCase, item: ItemId, j: int) -> float:
        return float(self._for_case(case)[0][j])


class _ModelBackedPredictor(Predictor):
    """Shared scaffolding for the probabilistic predictors.

    A case's scores start from the training items' smoothed training-marginal
    scores, computed once, and take the model's scores (`_model_scores`, in
    model item order) where the model covers the item.
    """

    def __init__(self, train: VoteDatabase, model, name: str) -> None:
        super().__init__(train, name)
        self.model = model
        totals, counts = cluster.expected_counts(train, np.ones((len(train.users), 1)))
        self._marginals = cluster.map_estimates(totals, counts)[1][0]  # (items, states)
        self._fallback_scores = train.scale.rank_score(self._marginals)
        self._model_cols = np.array([train.index.item_pos[it] for it in model.items], dtype=np.intp)

    def scores(self, case: ActiveCase) -> tuple[np.ndarray, np.ndarray]:
        score = self._fallback_scores.copy()
        score[self._model_cols] = self._model_scores(case)
        return score, self._all_informed

    def _marginal_vote(self, j: int) -> float:
        """Expected vote of an item outside the model, from its training marginal."""
        return float(self.train.scale.expected_vote(self._marginals[j]))


class ClusterPredictor(_ModelBackedPredictor):
    def __init__(self, train: VoteDatabase, model: cluster.ClusterModel, name: str = "BC") -> None:
        super().__init__(train, model, name)

    def _evaluate_block(self, cases: list[ActiveCase]) -> list[np.ndarray]:
        return [self.model.posterior(case.observed) for case in cases]

    def _model_scores(self, case: ActiveCase) -> np.ndarray:
        mixed = np.einsum("c,cjs->js", self._for_case(case), self.model.cond)
        return self.model.scale.rank_score(mixed)

    def _vote(self, case: ActiveCase, item: ItemId, j: int) -> float:
        pos = self.model.item_pos.get(item)
        if pos is None:
            return self._marginal_vote(j)
        dist = self._for_case(case) @ self.model.cond[:, pos, :]
        return float(self.model.scale.expected_vote(dist))


class BayesNetPredictor(_ModelBackedPredictor):
    def __init__(self, train: VoteDatabase, model: bayesnet.BayesNetModel, name: str = "BN") -> None:
        super().__init__(train, model, name)

    def _evaluate_block(
        self, cases: list[ActiveCase]
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        return [self.model.route(case.observed) for case in cases]

    def _model_scores(self, case: ActiveCase) -> np.ndarray:
        leaf, influenced, seen = self._for_case(case)
        self.model.count_lookups(self.stats, influenced, seen)
        return self.model.score[leaf]

    def _vote(self, case: ActiveCase, item: ItemId, j: int) -> float:
        pos = self.model.item_pos.get(item)
        if pos is None:
            return self._marginal_vote(j)
        return float(self.model.expected[self._for_case(case)[0][pos]])
