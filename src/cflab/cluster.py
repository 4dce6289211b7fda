"""Multinomial mixture over completed vote vectors.

Each user is a full assignment of every item to a state (a vote value or the
explicit no-vote state); a hidden class variable renders items independent.
Parameters are fit with EM against a smoothed (MAP-style) objective, and the
number of classes is chosen by an approximate marginal likelihood.

A class count's restarts are fit as one batch: their parameters are stacked,
and each E-step evaluates every distinct vote record once for all of them
(`_Index.vote_patterns`) before gathering the results back to users. Every
sum over users then adds the same terms in user order as a fit of its own
over every user row would, so models and selection tables are bitwise those
of one fit after the other (`tests/reference.py` keeps that form as the
oracle).
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

# EM stops once the per-user objective improves by less than TOL (relative)
TOL = 1e-6

# each distribution's smoothing pseudo-count, split evenly over its states
PRIOR_STRENGTH = 1.0


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
        # asked as > 0, which a NaN fails; it passes every check above
        if not ((self.class_prior > 0).all() and (self.cond > 0).all()):
            raise ValueError("all probabilities must be positive")

    @property
    def num_classes(self) -> int:
        return len(self.class_prior)

    @cached_property
    def log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """log(cond), and the log joint of each class with every item at no-vote."""
        logc = np.log(self.cond)
        return logc, np.log(self.class_prior) + logc[:, :, 0].sum(axis=1)

    def log_posteriors(
        self, n: int, rows: np.ndarray, cols: np.ndarray, states: np.ndarray
    ) -> np.ndarray:
        """Unnormalized log class posteriors of n cases, a row each, whose
        observed votes are (case row, item position, state) triples in
        `_Index.observed_votes` order. A case adds its votes in observed order:
        one step adds every case's k-th vote."""
        logc, prior = self.log_tables
        score = np.tile(prior, (n, 1))
        kth = np.arange(len(rows)) - np.searchsorted(rows, rows)
        for k in range(kth.max(initial=-1) + 1):
            r, j, s = rows[kth == k], cols[kth == k], states[kth == k]
            score[r] = score[r] + logc[:, j, s].T - logc[:, j, 0].T
        return score

    def posteriors(
        self, n: int, rows: np.ndarray, cols: np.ndarray, states: np.ndarray
    ) -> np.ndarray:
        """Class posteriors, a row per case (see `log_posteriors`)."""
        score = self.log_posteriors(n, rows, cols, states)
        p = np.exp(score - score.max(axis=1, keepdims=True))
        return p / p.sum(axis=1, keepdims=True)

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
        return cls(VoteScale.from_json(obj["scale"]), tuple(obj["items"]),
                   np.asarray(obj["class_prior"]), np.asarray(obj["cond"]))


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
    scipy's without its per-call overhead.

    The maxima and tie counts are exact in any order, so they reduce a
    class-major copy, one pass over contiguous rows each. An entry ties
    exactly when its difference from the maximum is 0, and a tie adds exp(0)
    times 0 to the sum of exponentials, the 0 that scipy's exp(-inf) adds.
    That sum keeps numpy's row sum over a contiguous last axis.
    """
    by_class = a.T.copy()
    a_max = by_class.max(axis=0)
    m = (by_class == a_max).sum(axis=0, dtype=a.dtype)
    d = a - a_max[:, None]
    s = (np.exp(d) * (d != 0)).sum(axis=1)
    s = np.where(s == 0, s, s / m)
    return np.log1p(s) + np.log(m) + a_max


def _log_joint(
    X: sp.csr_matrix, log_prior: np.ndarray, logc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's joint log probability with each class of each fit, as a
    (rows, fits, classes) array, and its log-sum-exp over classes, (rows,
    fits). `log_prior` and `logc` stack the fits' log class priors (fits,
    classes) and log conditionals (fits, classes, items, states).

    `X` holds rows of the `vote_states` encoding: the no-vote state has no
    column, so every item starts at no-vote and each vote adds its change.
    One sparse product serves all fits, and each of its columns adds a row's
    terms in the row's order whatever the other columns hold.
    """
    r, c = log_prior.shape
    const = (log_prior + logc[..., 0].sum(axis=2)).ravel()  # all items at no-vote
    delta = (logc[..., 1:] - logc[..., :1]).reshape(r * c, -1)
    L = const + X @ delta.T
    norm = _logsumexp_rows(L.reshape(-1, c))
    return L.reshape(X.shape[0], r, c), norm.reshape(X.shape[0], r)


def _counts(XT: sp.csc_matrix, gamma: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Expected class totals (..., classes) and state counts (..., classes,
    items, states) from responsibilities (users, ..., classes) of fits
    stacked on the middle axes, and `XT`, the `vote_states` encoding
    transposed. numpy adds along a non-innermost axis term by term, so a
    fit's sums add as in a call of its own (with one class, pairwise, but
    then every responsibility is 1 and every sum an exact integer)."""
    totals = gamma.sum(axis=0)
    votes = np.asarray(XT @ gamma.reshape(len(gamma), -1)).reshape(t, -1, *totals.shape)
    counts = np.empty(totals.shape + (t, votes.shape[1] + 1))
    counts[..., 1:] = np.moveaxis(votes, (0, 1), (-2, -1))
    counts[..., 0] = totals[..., None] - np.moveaxis(votes.sum(axis=1), 0, -1)
    return totals, np.clip(counts, 0.0, None)


def map_estimates(
    class_totals: np.ndarray,
    state_counts: np.ndarray,
    n_users: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed frequency estimates from (expected) complete-data counts of
    `n_users` users.

    Each distribution gets a symmetric pseudo-count of PRIOR_STRENGTH split
    over its states, which keeps every probability positive. Leading axes
    before (classes, items, states) stack independent fits.
    """
    c, s = state_counts.shape[-3], state_counts.shape[-1]
    prior = (class_totals + PRIOR_STRENGTH / c) / (float(n_users) + PRIOR_STRENGTH)
    cond = (state_counts + PRIOR_STRENGTH / s) / (
        class_totals[..., None, None] + PRIOR_STRENGTH
    )
    return prior, cond


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
    db: VoteDatabase, c: int, rng: np.random.Generator
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
    totals, counts = _counts(db.index.vote_states.T, np.ones((n, 1)), t)
    _, marginal = map_estimates(totals, counts, n_users=n)
    alpha = np.maximum(NOISE_SCALE * marginal[0], 1e-6)  # (items, states)
    cond = np.maximum(_dirichlet_rows(rng, np.broadcast_to(alpha, (c,) + alpha.shape)), 1e-12)
    cond /= cond.sum(axis=2, keepdims=True)
    prior = np.maximum(rng.dirichlet(np.full(c, 10.0)), 1e-12)
    prior /= prior.sum()
    return prior, cond


def _fit_restarts(
    db: VoteDatabase,
    num_classes: int,
    seeds: list[int],
    max_iter: int,
) -> list[tuple[ClusterModel, FitReport]]:
    """One EM fit from each seed's starting point, all run as one batch.

    The E-step evaluates each distinct vote row once for every fit in the
    batch (`_Index.vote_patterns`) and gathers the results back to users, so
    the M-step's sums and the objective add the same terms in user order as
    a fit over every user would. A fit that converges leaves the batch.
    """
    if num_classes < 1:
        raise ValueError("need at least one class")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not db.users:
        raise ValueError("empty database")
    if num_classes > len(db.users):
        log.warning(
            "%d classes for %d users; some classes may collapse",
            num_classes, len(db.users),
        )
    X, inverse = db.index.vote_patterns
    XT = db.index.vote_states.T
    n, t, c, s = len(db.users), len(db.items), num_classes, db.scale.num_states

    starts = [_init_params(db, c, np.random.default_rng(seed)) for seed in seeds]
    prior = np.stack([p for p, _ in starts])
    cond = np.stack([q for _, q in starts])
    L, norm = _log_joint(X, np.log(prior), np.log(cond))
    live = list(range(len(seeds)))  # the batch's fits, by position in `seeds`
    traces: list[list[float]] = [[] for _ in seeds]
    prev = [-np.inf] * len(seeds)
    fits: dict[int, tuple[ClusterModel, FitReport]] = {}

    def finish(k: int, r: int, iterations: int, converged: bool) -> None:
        model = ClusterModel(db.scale, db.items, prior[k].copy(), cond[k].copy())
        fits[r] = model, FitReport(traces[r], iterations=iterations, converged=converged)

    for it in range(1, max_iter + 1):
        gamma = np.take(np.exp(L - norm[:, :, None]), inverse, axis=0)
        totals, counts = _counts(XT, gamma, t)
        prior, cond = map_estimates(totals, counts, n_users=n)
        log_prior, logc = np.log(prior), np.log(cond)
        L, norm = _log_joint(X, log_prior, logc)  # these objectives, and the next E-step
        user_norm = np.take(norm.T, inverse, axis=1)
        stay = []
        for k, r in enumerate(live):
            # plus the smoothing prior's log density, up to a constant
            obj = float(user_norm[k].sum()) + float(
                PRIOR_STRENGTH / c * log_prior[k].sum() + PRIOR_STRENGTH / s * logc[k].sum())
            traces[r].append(obj)
            per_user = obj / n
            if (per_user - prev[r]) < TOL * max(1.0, abs(per_user)):
                finish(k, r, it, converged=True)
            else:
                prev[r] = per_user
                stay.append(k)
        if len(stay) < len(live):
            live = [live[k] for k in stay]
            prior, cond, L, norm = prior[stay], cond[stay], L[:, stay], norm[:, stay]
            if not live:
                break
    for k, r in enumerate(live):
        finish(k, r, max_iter, converged=False)
    return [fits[r] for r in range(len(seeds))]


def em_fit(
    db: VoteDatabase,
    num_classes: int,
    seed: int = 0,
    max_iter: int = 200,
) -> tuple[ClusterModel, FitReport]:
    """Fit the mixture by EM to a local maximum of the smoothed objective.

    Stops when the per-user objective improves by less than TOL (relative),
    or after `max_iter` iterations. Deterministic for a fixed seed. One class
    needs no special case: every responsibility is exactly 1, so the first
    M-step gives the smoothed frequencies, the exact optimum, and the second
    iteration sees no improvement.
    """
    return _fit_restarts(db, num_classes, [seed], max_iter)[0]


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


def cheeseman_stutz_score(model: ClusterModel, db: VoteDatabase) -> float:
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
    X, inverse = db.index.vote_patterns
    log_prior, (logc, _) = np.log(model.class_prior), model.log_tables
    L, norm = _log_joint(X, log_prior[None], logc[None])
    observed_ll = float(np.take(norm[:, 0], inverse).sum())
    gamma = np.take(np.exp(L[:, 0] - norm), inverse, axis=0)
    totals, counts = _counts(db.index.vote_states.T, gamma, len(db.items))

    complete_marginal = float(
        _dirichlet_marginal(totals[None, :], PRIOR_STRENGTH / c)[0]
        + _dirichlet_marginal(counts, PRIOR_STRENGTH / s).sum()
    )
    complete_ll = float(totals @ log_prior + (counts * logc).sum())
    return complete_marginal - complete_ll + observed_ll + math.lgamma(c + 1)


def select_cluster_model(
    db: VoteDatabase,
    max_classes: int,
    seed: int = 0,
    restarts: int = 3,
    max_iter: int = 200,
) -> tuple[ClusterModel, list[dict]]:
    """Fit 1..max_classes classes (several restarts each) and keep the best score.

    Returns the winning model plus the per-class-count score table. Ties go
    to the smaller model. A row describes the count's best restart (the
    first of equal objectives) and lists every restart's iterations,
    converged flag and final objective.
    """
    if max_classes < 1:
        raise ValueError("max_classes must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    table: list[dict] = []
    best_model = None
    best_score = -np.inf
    for c in range(1, max_classes + 1):
        seeds = [
            int(np.random.SeedSequence([seed, c, r]).generate_state(1)[0])
            for r in range(restarts)
        ]
        fits = _fit_restarts(db, c, seeds, max_iter)
        model, report = max(fits, key=lambda fit: fit[1].objective_trace[-1])
        cs = cheeseman_stutz_score(model, db)
        table.append({
            "classes": c,
            "cs_score": cs,
            "objective": report.objective_trace[-1],
            "converged": report.converged,
            "iterations": report.iterations,
            "restarts": [
                {"iterations": r.iterations, "converged": r.converged,
                 "objective": r.objective_trace[-1]}
                for _, r in fits
            ],
        })
        if cs > best_score:
            best_score = cs
            best_model = model
    return best_model, table
