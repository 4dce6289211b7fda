"""Named predictors that the experiment runner scores.

The one predictor contract: `evaluate(cases)` evaluates a block of cases at
once and returns a `Block`, a row per case and a column per training item (in
`train.items` order) of rank `scores` and an `informed` mask; `votes(rows,
cols)`, the expected votes of the (block row, training position) pairs, each
the row's case's vote for the unobserved training item at that position
(POP's raises); and `counts`, per-case tallies of the work that the ranked
metric reports (BN's `lookups` and `influenced`). POP, BN and BC inform every
item; `memory.MemoryScorer` informs the items a weighted neighbour voted on
(every item under default voting), and scores a block in the sub-blocks that
bound its weight arrays (`memory.block_cases`).

A case's ranked list holds its unobserved training items in descending
score with NaN last, informed first on equal scores, ties to the lower item
id; -0.0 ties 0.0 and NaN ties NaN. `votedata._Index.positions` is the one
ranking rule: it counts an item's position in that order. The runner counts
each target's position; `rank(case)` lists a block of one in the order of
its items' positions.
`predict(case, item)`, also a block of one, raises ValueError for an
observed item, returns the case's mean vote for an item absent from
training, and otherwise the block's vote of that one pair.

A BC or BN model covers exactly the training items, in training order, so its
own per-item arrays are the scores; a predictor refuses a model over any
other items.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import bayesnet, cluster
from .votedata import ActiveCase, ItemId, VoteDatabase

@dataclass(frozen=True)
class Block:
    """A predictor's evaluation of a block of cases (see the module doc)."""

    scores: np.ndarray
    informed: np.ndarray
    votes: Callable[[np.ndarray, np.ndarray], np.ndarray]
    counts: Mapping[str, np.ndarray] = field(default_factory=dict)


class Predictor:
    """The one-case library calls over `evaluate`."""

    def __init__(self, train: VoteDatabase, name: str) -> None:
        self.name = name
        self.train = train

    def evaluate(self, cases: Sequence[ActiveCase]) -> Block:
        raise NotImplementedError

    def _all_informed(self, cases: Sequence[ActiveCase]) -> np.ndarray:
        return np.ones((len(cases), len(self.train.items)), dtype=bool)

    def rank(self, case: ActiveCase) -> list[ItemId]:
        index = self.train.index
        block = self.evaluate([case])
        skip = np.zeros((1, len(index.item_ids)), dtype=bool)
        skip[index.observed_votes([case])[:2]] = True
        cols = np.flatnonzero(~skip[0])
        row = np.zeros(len(cols), dtype=np.intp)
        pos = index.positions(skip[row], ~block.informed[row], -block.scores[row], cols)
        return index.item_array[cols[np.argsort(pos)]].tolist()

    def predict(self, case: ActiveCase, item: ItemId) -> float:
        if item in case.observed:
            raise ValueError(f"item {item!r} is observed in this case")
        j = self.train.index.item_pos.get(item)
        if j is None:
            return case.observed_mean
        return float(self.evaluate([case]).votes(np.array([0]), np.array([j]))[0])


class PopularityPredictor(Predictor):
    """Zero-order baseline: most popular training items first."""

    def __init__(self, train: VoteDatabase, name: str = "POP") -> None:
        super().__init__(train, name)

    def evaluate(self, cases: Sequence[ActiveCase]) -> Block:
        counts = self.train.index.item_counts
        return Block(np.broadcast_to(counts, (len(cases), len(counts))),
                     self._all_informed(cases), self._no_votes)

    @staticmethod
    def _no_votes(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        raise NotImplementedError("popularity baseline does not predict vote values")


class _ModelBackedPredictor(Predictor):
    """A predictor over a model of exactly the training items, in training
    order: the model's item positions are the training positions."""

    def __init__(self, train: VoteDatabase, model, name: str) -> None:
        if tuple(model.items) != tuple(train.items):
            raise ValueError(f"{name}: the model does not cover the training items in order")
        super().__init__(train, name)
        self.model = model


class ClusterPredictor(_ModelBackedPredictor):
    def __init__(self, train: VoteDatabase, model: cluster.ClusterModel, name: str = "BC") -> None:
        super().__init__(train, model, name)

    def evaluate(self, cases: Sequence[ActiveCase]) -> Block:
        cond, scale = self.model.cond, self.model.scale
        rows, cols, votes = self.train.index.observed_votes(cases)
        post = self.model.posteriors(len(cases), rows, cols, scale.states_of(votes))
        mixed = np.einsum("kc,cjs->kjs", post, cond)
        # a pair's vote mixes the classes in its own (1 x classes) @ (classes
        # x states) product, on a copy of cond[:, j, :]; the einsum's mixture,
        # `post @ cond` or `np.tensordot` add the classes in another order
        return Block(scale.rank_score(mixed), self._all_informed(cases),
                     lambda rows, cols: scale.expected_vote(np.matmul(
                         post[rows][:, None, :], cond[:, cols, :].transpose(1, 0, 2))[:, 0, :]))


class BayesNetPredictor(_ModelBackedPredictor):
    def __init__(self, train: VoteDatabase, model: bayesnet.BayesNetModel, name: str = "BN") -> None:
        super().__init__(train, model, name)

    def evaluate(self, cases: Sequence[ActiveCase]) -> Block:
        rows, cols, votes = self.train.index.observed_votes(cases)
        leaf, influenced, seen = self.model.route(len(cases), rows, cols,
                                                  self.model.scale.states_of(votes))
        # every unobserved item is a lookup; `influenced` those an observed
        # vote steered
        counts = {"lookups": (~seen).sum(axis=1), "influenced": (influenced & ~seen).sum(axis=1)}
        return Block(self.model.score[leaf], self._all_informed(cases),
                     lambda rows, cols: self.model.expected[leaf[rows, cols]], counts)
