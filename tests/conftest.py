import numpy as np
import pytest

from cflab.predictors import Block, Predictor
from cflab.votedata import IMPLICIT_SCALE, ActiveCase, VoteDatabase, VoteScale

SCALE_0_5 = VoteScale(0, 5, 3.0, False)


def make_db(rows, scale=SCALE_0_5, items=None):
    return VoteDatabase.from_votes(rows, scale, items=items)


def random_explicit_db(rng, n_users=10, n_items=8, density=0.5, scale=SCALE_0_5):
    """Random explicit-vote database; every user gets at least two votes."""
    rows = []
    for i in range(n_users):
        voted = rng.random(n_items) < density
        idxs = np.nonzero(voted)[0]
        if len(idxs) < 2:
            idxs = rng.choice(n_items, size=2, replace=False)
        for j in idxs:
            v = int(rng.integers(scale.min_vote, scale.max_vote + 1))
            rows.append((f"u{i}", f"i{j}", v))
    return make_db(rows, scale, items=[f"i{j}" for j in range(n_items)])


def random_implicit_db(rng, n_users=10, n_items=8, density=0.4):
    rows = []
    for i in range(n_users):
        voted = rng.random(n_items) < density
        idxs = np.nonzero(voted)[0]
        if len(idxs) < 1:
            idxs = [int(rng.integers(n_items))]
        for j in idxs:
            rows.append((f"u{i}", f"i{j}", 1.0))
    return make_db(rows, IMPLICIT_SCALE, items=[f"i{j}" for j in range(n_items)])


def items_db(model):
    """A one-user training set voting on exactly the model's items, for
    predictors built around a hand-made model."""
    return make_db([("u", it, model.scale.max_vote) for it in model.items], model.scale)


def case_for(user, observed, targets=None):
    return ActiveCase(user=user, observed=observed, targets=targets or {})


def block_votes(model, observed):
    """Observed-vote dicts, one per case, as the (cases, case rows, item
    positions, states) over a model's items that its block methods take,
    encoded as predictors encode a block (`_Index.observed_votes`)."""
    cases = [case_for("t", obs) for obs in observed]
    rows, cols, votes = items_db(model).index.observed_votes(cases)
    return len(cases), rows, cols, model.scale.states_of(votes)


@pytest.fixture
def tiny_explicit_db():
    return make_db(
        [
            ("u1", "a", 1), ("u1", "b", 5), ("u1", "c", 3),
            ("u2", "a", 2), ("u2", "b", 2), ("u2", "c", 4),
            ("u3", "a", 4), ("u3", "b", 4), ("u3", "c", 4), ("u3", "d", 1),
        ]
    )


def random_grouped_db(rng, explicit, n_users=60, n_items=6):
    """Random database whose users fall in two taste groups, so that learned
    networks split; item `i0t` copies item `i0`'s votes, so scores tie."""
    scale = SCALE_0_5 if explicit else IMPLICIT_SCALE
    p_vote = rng.uniform(0.1, 0.9, size=(2, n_items))
    mean = rng.uniform(0, 5, size=(2, n_items))
    rows = []
    for i in range(n_users):
        g = int(rng.integers(2))
        voted = np.flatnonzero(rng.random(n_items) < p_vote[g])
        if not len(voted):
            voted = [int(rng.integers(n_items))]
        for j in voted:
            v = int(np.clip(np.rint(mean[g, j] + rng.normal()), 0, 5)) if explicit else 1
            rows.append((f"u{i}", f"i{j}", v))
            if j == 0:
                rows.append((f"u{i}", "i0t", v))
    return make_db(rows, scale, items=[f"i{j}" for j in range(n_items)] + ["i0t"])


def random_case(rng, db, max_observed=3, absent=("zz",)):
    """A case observing a few random items with random on-scale votes, and
    maybe items absent from the database; at least one vote."""
    k = int(rng.integers(0, max_observed + 1))
    items = list(rng.choice(len(db.items), size=min(k, len(db.items)), replace=False))
    values = db.scale.vote_values
    observed = {db.items[j]: float(values[rng.integers(len(values))]) for j in items}
    for it in absent:
        if not observed or rng.random() < 0.3:
            observed[it] = float(values[0])
    return case_for("t", observed)


class FixedScores(Predictor):
    """A predictor that gives every case the same scores and informed mask."""

    def __init__(self, train, scores, informed):
        super().__init__(train, "fixed")
        self.scores, self.informed = scores, informed

    def evaluate(self, cases):
        shape = (len(cases), len(self.scores))
        return Block(np.broadcast_to(self.scores, shape), np.broadcast_to(self.informed, shape),
                     None)


def scores_of(pred, case):
    """A predictor's rank scores and informed mask for one case: a block of one."""
    block = pred.evaluate([case])
    return block.scores[0], block.informed[0]


def duplicated_db(rng, scale, n_users=60, n_items=6, profiles=5, density=0.4):
    """Random database whose users copy one of `profiles` random vote
    records each, so that most users share their record with others."""
    values = scale.vote_values
    drawn = []
    for _ in range(profiles):
        voted = np.flatnonzero(rng.random(n_items) < density)
        if not len(voted):
            voted = [int(rng.integers(n_items))]
        drawn.append([(f"i{j}", float(values[rng.integers(len(values))])) for j in voted])
    rows = [
        (f"u{i}", it, v)
        for i in range(n_users)
        for it, v in drawn[int(rng.integers(profiles))]
    ]
    return make_db(rows, scale, items=[f"i{j}" for j in range(n_items)])
