"""Multinomial mixture over completed vote vectors.

Each user is a full assignment of every item to a state (a vote value or the
explicit no-vote state); a hidden class variable renders items independent.
Parameters are fit with EM against a smoothed (MAP-style) objective, and the
number of classes is chosen by an approximate marginal likelihood.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln

from .votedata import ItemId, VoteDatabase, VoteScale

log = logging.getLogger(__name__)

# concentration of the Dirichlet noise that jitters EM's starting conditionals
NOISE_SCALE = 10.0


@dataclass(eq=False)
class ClusterModel:
    """Class priors plus per-class, per-item state distributions.

    `cond` has shape (classes, items, states) with state 0 the no-vote state;
    every distribution is strictly positive thanks to the smoothing prior.
    """

    scale: VoteScale
    items: tuple[ItemId, ...]
    class_prior: np.ndarray
    cond: np.ndarray

    def __post_init__(self) -> None:
        self.class_prior = np.asarray(self.class_prior, dtype=float)
        self.cond = np.asarray(self.cond, dtype=float)
        c, t, s = self.cond.shape
        if self.class_prior.shape != (c,):
            raise ValueError("class prior length must match conditional tensor")
        if t != len(self.items) or s != self.scale.num_states:
            raise ValueError("conditional tensor shape mismatch")
        if abs(self.class_prior.sum() - 1.0) > 1e-10:
            raise ValueError("class prior must sum to 1")
        sums = self.cond.sum(axis=2)
        if np.abs(sums - 1.0).max() > 1e-10:
            raise ValueError("every conditional must sum to 1")
        if (self.class_prior <= 0).any() or (self.cond <= 0).any():
            raise ValueError("all probabilities must be positive")

    @property
    def num_classes(self) -> int:
        return len(self.class_prior)

    @cached_property
    def item_pos(self) -> dict[ItemId, int]:
        return {it: j for j, it in enumerate(self.items)}

    @cached_property
    def log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """log(cond), and the log joint of each class with every item at no-vote."""
        logc = np.log(self.cond)
        return logc, np.log(self.class_prior) + logc[:, :, 0].sum(axis=1)

    def log_posterior(self, observed: Mapping[ItemId, float]) -> np.ndarray:
        """Unnormalized log class posterior for a completed vote vector."""
        pos = self.item_pos
        logc, score = self.log_tables
        score = score.copy()
        for it, v in observed.items():
            j = pos.get(it)
            if j is None:
                continue  # items outside the model carry no evidence
            s = self.scale.state_of(v)
            score = score + logc[:, j, s] - logc[:, j, 0]
        return score

    def posterior(self, observed: Mapping[ItemId, float]) -> np.ndarray:
        score = self.log_posterior(observed)
        score = score - score.max()
        p = np.exp(score)
        return p / p.sum()

    def to_json(self) -> dict:
        return {
            "version": 1,
            "kind": "cluster_model",
            "scale": self.scale.to_json(),
            "items": list(self.items),
            "class_prior": self.class_prior.tolist(),
            "cond": self.cond.tolist(),
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "ClusterModel":
        return cls(
            scale=VoteScale.from_json(obj["scale"]),
            items=tuple(obj["items"]),
            class_prior=np.asarray(obj["class_prior"]),
            cond=np.asarray(obj["cond"]),
        )


@dataclass
class FitReport:
    """Trace of one EM fit. The objective is the smoothed (MAP) one, so the
    trace is non-decreasing up to round-off."""

    objective_trace: list[float]
    iterations: int
    converged: bool


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of a finite 2-d array, with the arithmetic of
    `scipy.special.logsumexp(a, axis=1)`: every entry equal to the row maximum
    is taken out of the sum and counted instead, so the result is bitwise
    scipy's without its per-call overhead."""
    a_max = a.max(axis=1, keepdims=True)
    tied = a == a_max
    m = tied.sum(axis=1, keepdims=True, dtype=a.dtype)
    s = np.exp(np.where(tied, -np.inf, a) - a_max).sum(axis=1, keepdims=True)
    s = np.where(s == 0, s, s / m)
    return (np.log1p(s) + np.log(m) + a_max)[:, 0]


def _loglik_matrix(
    X: sp.csr_matrix, class_prior: np.ndarray, cond: np.ndarray
) -> np.ndarray:
    """Per-user, per-class joint log probability of the completed record.

    `X` is the database's `vote_states` encoding: the no-vote state has no
    column, so every item starts at no-vote and each vote adds its change.
    """
    logc = np.log(cond)
    base = logc[:, :, 0].sum(axis=1)  # all items at no-vote
    delta = (logc[:, :, 1:] - logc[:, :, :1]).reshape(len(class_prior), -1)
    return np.log(class_prior)[None, :] + base[None, :] + X @ delta.T


def _counts(XT: sp.csc_matrix, gamma: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Expected class totals and (classes, items, states) state counts.

    `XT` is the database's transposed encoding `vote_states_T`.
    """
    c = gamma.shape[1]
    totals = gamma.sum(axis=0)
    vote_counts = np.asarray(XT @ gamma).T.reshape(c, t, -1)
    counts = np.empty((c, t, vote_counts.shape[2] + 1))
    counts[:, :, 1:] = vote_counts
    counts[:, :, 0] = totals[:, None] - vote_counts.sum(axis=2)
    return totals, np.clip(counts, 0.0, None)


def expected_counts(
    db: VoteDatabase, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Class totals and per-class item-state counts for given responsibilities."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 2 or gamma.shape[0] != len(db.users):
        raise ValueError("responsibilities must be users by classes")
    return _counts(db.index.vote_states_T, gamma, len(db.items))


def map_estimates(
    class_totals: np.ndarray,
    state_counts: np.ndarray,
    prior_strength: float = 1.0,
    n_users: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed frequency estimates from (expected) complete-data counts.

    Each distribution gets a symmetric pseudo-count of `prior_strength`
    split over its states, which keeps every probability positive.
    """
    c, _, s = state_counts.shape
    n = float(class_totals.sum()) if n_users is None else float(n_users)
    prior = (class_totals + prior_strength / c) / (n + prior_strength)
    cond = (state_counts + prior_strength / s) / (
        class_totals[:, None, None] + prior_strength
    )
    return prior, cond


def _log_prior_term(
    class_prior: np.ndarray, cond: np.ndarray, prior_strength: float
) -> float:
    c, _, s = cond.shape
    a_pi = prior_strength / c
    a_s = prior_strength / s
    return float(a_pi * np.log(class_prior).sum() + a_s * np.log(cond).sum())


def _dirichlet_rows(rng: np.random.Generator, alpha: np.ndarray) -> np.ndarray:
    """One Dirichlet draw per row of `alpha` (..., states), from one gamma call.

    numpy's `Generator.dirichlet` draws a row's gamma variates in order and
    scales them by the reciprocal of their sequential sum whenever the row's
    largest alpha is at least 0.1; under that condition these draws are
    bitwise those of one `rng.dirichlet` call per row, in row order.
    """
    g = rng.standard_gamma(alpha)
    acc = g[..., 0].copy()
    for k in range(1, alpha.shape[-1]):
        acc += g[..., k]
    return g * (1.0 / acc)[..., None]


def _init_params(
    db: VoteDatabase, c: int, rng: np.random.Generator, prior_strength: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Near-uniform class priors; conditionals are data marginals jittered by
    seeded Dirichlet noise of concentration NOISE_SCALE so classes start
    distinguishable.

    The largest entry of a marginal over s states is at least 1/s, so every
    row's largest alpha is at least NOISE_SCALE / s = 0.1 on scales with at
    most 100 states: there the draws are exactly those of one `rng.dirichlet`
    call per (class, item) row.
    """
    n, t = len(db.users), len(db.items)
    totals, counts = _counts(db.index.vote_states_T, np.ones((n, 1)), t)
    _, marginal = map_estimates(totals, counts, prior_strength, n_users=n)
    alpha = np.maximum(NOISE_SCALE * marginal[0], 1e-6)  # (items, states)
    cond = np.maximum(_dirichlet_rows(rng, np.broadcast_to(alpha, (c,) + alpha.shape)), 1e-12)
    cond /= cond.sum(axis=2, keepdims=True)
    prior = np.maximum(rng.dirichlet(np.full(c, 10.0)), 1e-12)
    prior /= prior.sum()
    return prior, cond


def em_fit(
    db: VoteDatabase,
    num_classes: int,
    seed: int = 0,
    tol: float = 1e-6,
    max_iter: int = 200,
    prior_strength: float = 1.0,
) -> tuple[ClusterModel, FitReport]:
    """Fit the mixture by EM to a local maximum of the smoothed objective.

    Stops when the per-user objective improves by less than `tol` (relative),
    or after `max_iter` iterations. Deterministic for a fixed seed. One class
    needs no special case: every responsibility is exactly 1, so the first
    M-step gives the smoothed frequencies, the exact optimum, and the second
    iteration sees no improvement.
    """
    if num_classes < 1:
        raise ValueError("need at least one class")
    if not db.users:
        raise ValueError("empty database")
    if num_classes > len(db.users):
        log.warning(
            "%d classes for %d users; some classes may collapse",
            num_classes, len(db.users),
        )
    X, XT = db.index.vote_states, db.index.vote_states_T
    n, t = len(db.users), len(db.items)

    rng = np.random.default_rng(seed)
    prior, cond = _init_params(db, num_classes, rng, prior_strength)
    trace: list[float] = []
    converged = False
    L = _loglik_matrix(X, prior, cond)
    norm = _logsumexp_rows(L)
    prev = -np.inf
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        gamma = np.exp(L - norm[:, None])
        totals, counts = _counts(XT, gamma, t)
        prior, cond = map_estimates(totals, counts, prior_strength, n_users=n)
        L = _loglik_matrix(X, prior, cond)
        norm = _logsumexp_rows(L)  # this objective, and the next E-step
        obj = float(norm.sum()) + _log_prior_term(prior, cond, prior_strength)
        trace.append(obj)
        per_user = obj / n
        if (per_user - prev) < tol * max(1.0, abs(per_user)):
            converged = True
            break
        prev = per_user
    model = ClusterModel(db.scale, db.items, prior, cond)
    return model, FitReport(trace, iterations=iterations, converged=converged)


def _dirichlet_marginal(counts: np.ndarray, alpha: float) -> np.ndarray:
    """Log of the closed-form multinomial marginal with a symmetric prior.

    Works on the last axis; counts may be fractional (expected data).
    """
    s = counts.shape[-1]
    total_alpha = alpha * s
    return (
        gammaln(total_alpha)
        - gammaln(total_alpha + counts.sum(axis=-1))
        + (gammaln(alpha + counts) - gammaln(alpha)).sum(axis=-1)
    )


def cheeseman_stutz_score(
    model: ClusterModel, db: VoteDatabase, prior_strength: float = 1.0
) -> float:
    """Approximate log marginal likelihood of the data under the model structure.

    Uses the expected complete data at the fitted parameters: the exact
    complete-data marginal, corrected by the gap between observed- and
    complete-data likelihood at those parameters. Class labels are
    interchangeable, so the marginal holds one identical mode per relabeling;
    the single-mode estimate is scaled up by C! to cover them all.
    """
    if tuple(model.items) != tuple(db.items):
        raise ValueError("model and database cover different items")
    c = model.num_classes
    s = model.cond.shape[2]
    L = _loglik_matrix(db.index.vote_states, model.class_prior, model.cond)
    norm = _logsumexp_rows(L)
    observed_ll = float(norm.sum())
    gamma = np.exp(L - norm[:, None])
    totals, counts = _counts(db.index.vote_states_T, gamma, len(db.items))

    complete_marginal = float(
        _dirichlet_marginal(totals[None, :], prior_strength / c)[0]
        + _dirichlet_marginal(counts, prior_strength / s).sum()
    )
    complete_ll = float(
        totals @ np.log(model.class_prior) + (counts * np.log(model.cond)).sum()
    )
    return complete_marginal - complete_ll + observed_ll + math.lgamma(c + 1)


def select_cluster_model(
    db: VoteDatabase,
    max_classes: int,
    seed: int = 0,
    restarts: int = 3,
    tol: float = 1e-6,
    max_iter: int = 200,
    prior_strength: float = 1.0,
) -> tuple[ClusterModel, list[dict]]:
    """Fit 1..max_classes classes (several restarts each) and keep the best score.

    Returns the winning model plus the per-class-count score table. Ties go
    to the smaller model.
    """
    if max_classes < 1:
        raise ValueError("max_classes must be >= 1")
    table: list[dict] = []
    best_model = None
    best_score = -np.inf
    for c in range(1, max_classes + 1):
        best_fit = None
        for r in range(max(1, restarts)):
            sub_seed = int(np.random.SeedSequence([seed, c, r]).generate_state(1)[0])
            model, report = em_fit(
                db, c, seed=sub_seed,
                tol=tol, max_iter=max_iter, prior_strength=prior_strength,
            )
            obj = report.objective_trace[-1]
            if best_fit is None or obj > best_fit[2]:
                best_fit = (model, report, obj)
        model, report, obj = best_fit
        cs = cheeseman_stutz_score(model, db, prior_strength)
        table.append({
            "classes": c,
            "cs_score": cs,
            "objective": obj,
            "converged": report.converged,
            "iterations": report.iterations,
        })
        if cs > best_score:
            best_score = cs
            best_model = model
    return best_model, table
