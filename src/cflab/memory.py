"""Memory-based vote prediction: weighted sums of neighbor vote deviations.

The predicted vote is the active user's mean plus a normalized, weighted sum
of other users' deviations from their own means. Weights come from either
the Pearson correlation of co-voted items or the cosine of the two users'
vote vectors, optionally modified by default voting, inverse user frequency,
and case amplification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .predictors import Block, Predictor
from .votedata import ActiveCase, VoteDatabase, VoteScale, _Index

CORRELATION = "correlation"
VECTOR_SIMILARITY = "vector_similarity"

# Weight given to the synthetic agreed-upon items of default voting inside the
# frequency-weighted correlation; real items use ln(n / n_j).
SYNTHETIC_ITEM_FREQUENCY = 1.0

# Weight entries (cases x training users) that one scoring block may hold: a
# case holds about fifteen arrays of one float per training user as its
# weights are computed, so blocks sized by users bound that memory at any size.
BLOCK_WEIGHTS = 2**13


def block_cases(db: VoteDatabase) -> int:
    """Cases per scoring block: as many as BLOCK_WEIGHTS weight entries hold."""
    return max(1, BLOCK_WEIGHTS // max(1, len(db.users)))


@dataclass(frozen=True)
class DefaultVoting:
    """Complete vote vectors with a default value over the union of voted items.

    `d` is the default vote (None picks 0 for implicit scales, the neutral
    vote otherwise); `k` adds that many synthetic items on which both users
    agree at the default value.
    """

    d: float | None = None
    k: int = 10000

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("k must be >= 0")


@dataclass(frozen=True)
class MemoryConfig:
    weight_kind: str = CORRELATION
    default_voting: DefaultVoting | None = None
    inverse_user_frequency: bool = False
    case_amplification: float | None = None

    def __post_init__(self) -> None:
        if self.weight_kind not in (CORRELATION, VECTOR_SIMILARITY):
            raise ValueError(f"unknown weight kind {self.weight_kind!r}")
        if self.case_amplification is not None and self.case_amplification <= 0:
            raise ValueError("case amplification power must be > 0")


def _resolve_default(scale: VoteScale, cfg: MemoryConfig) -> float | None:
    """The default vote on `scale`, None without default voting; a config
    that cannot run on the scale raises ValueError."""
    if cfg.default_voting is None:
        return None
    d = cfg.default_voting.d
    if d is None:
        d = 0.0 if scale.implicit else float(scale.neutral)
    if cfg.weight_kind == VECTOR_SIMILARITY and not (scale.implicit and d == 0.0):
        raise ValueError(
            "default voting with vector similarity only completes implicit "
            "vote vectors with zeros"
        )
    return float(d)


def _with_entries(pattern: sp.csr_matrix, data: np.ndarray) -> sp.csr_matrix:
    """A CSR matrix with `pattern`'s sparsity and the entries `data`."""
    return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)


class MemoryScorer(Predictor):
    """The memory-based predictor of one database and config: its scores and
    votes are the predicted votes.

    Scores a block of cases at once. Each per-user sum a case's weights need
    adds, over the case's observed training items in observed order, a term
    for each user who voted on the item (`_Evidence.user_sums`). A user's
    terms add in that order whatever else the block holds, so a case's sums,
    and with them its weights and predictions, do not depend on the other
    cases of its block.

    The vote matrices a config needs are built here, once, on the database's
    two vote patterns: the per-user totals are products with matrices on
    `V`'s pattern, and the neighbour products w @ X run as (X.T @ w.T).T on
    item-major (items x users) matrices on `V_csc.T`'s pattern, so that each
    item adds its voters' terms in user order, as w @ X does.
    """

    def __init__(self, db: VoteDatabase, cfg: MemoryConfig, name: str = "memory") -> None:
        super().__init__(db, name)
        self.cfg = cfg
        self.idx = idx = db.index
        self.default = _resolve_default(db.scale, cfg)
        self.f = idx.iuf if cfg.inverse_user_frequency else np.ones(len(db.items))
        V, votes_T = idx.V, idx.V_csc.T
        if cfg.weight_kind == CORRELATION and self.default is not None:
            self._sum_f = _with_entries(V, np.ones(V.nnz)) @ self.f
            self._sum_fv = V @ self.f
            self._sum_fv2 = _with_entries(V, V.data**2) @ self.f
        if cfg.weight_kind == VECTOR_SIMILARITY:
            norms = np.sqrt(_with_entries(V, V.data**2) @ (self.f**2))
            self._has_norm = norms > 0
            self._safe_norms = np.maximum(norms, 1e-300)
        if self.default is not None:
            self._shift = self.default - idx.user_means
            self._v_minus_default_T = _with_entries(votes_T, votes_T.data - self.default)
        else:
            centered = votes_T.data - idx.user_means[votes_T.indices]
            self._centered_T = _with_entries(votes_T, centered)
            self._mask_T = _with_entries(votes_T, np.ones(votes_T.nnz))

    def evaluate(self, cases: Sequence[ActiveCase]) -> Block:
        values, informed = self.predict_all(cases)
        return Block(values, informed, lambda rows, cols: values[rows, cols])

    # -- weights

    def weights(self, cases: Sequence[ActiveCase]) -> np.ndarray:
        """Final weights (case amplification applied), a row per case and a
        column per user; zero where a user is skipped."""
        idx = self.idx
        ev = _Evidence(cases, idx)
        if self.cfg.weight_kind == CORRELATION:
            w = self._pearson_weights(ev)
        else:
            w = self._cosine_weights(ev)
        for row, case in enumerate(cases):
            pos = idx.user_pos.get(case.user)
            if pos is not None:
                w[row, pos] = 0.0
        p = self.cfg.case_amplification
        if p is not None:
            w = np.sign(w) * np.abs(w) ** p
        return w

    def _pearson_weights(self, ev: "_Evidence") -> np.ndarray:
        f_j = self.f[ev.cols]
        fv = f_j * ev.votes
        fvv = fv * ev.votes
        d = self.default
        # the six weighted moment sums t* of the two users' votes: over their
        # co-voted items, or with default voting their union and k more items
        if d is None:
            count, tf, tva, taa = ev.user_sums(0, np.ones(len(f_j)), f_j, fv, fvv)
            tvb, tab = ev.user_sums(1, f_j, fv)
            (tbb,) = ev.user_sums(2, f_j)
            can = count >= 2
        else:
            # the squared sums of the co-voted items enter only through the
            # full-vector totals (_sum_fv2, a_fv2)
            count, sf, sfa = ev.user_sums(0, np.ones(len(f_j)), f_j, fv)
            sfb, sfab = ev.user_sums(1, f_j, fv)
            kf = self.cfg.default_voting.k * SYNTHETIC_ITEM_FREQUENCY
            a_f, a_fv, a_fv2 = (ev.case_sums(x)[:, None] for x in (f_j, fv, fvv))
            tf = a_f + self._sum_f - sf + kf
            tva = a_fv + d * (self._sum_f - sf) + kf * d
            tvb = self._sum_fv + d * (a_f - sf) + kf * d
            taa = a_fv2 + d * d * (self._sum_f - sf) + kf * d * d
            tbb = self._sum_fv2 + d * d * (a_f - sf) + kf * d * d
            tab = sfab + d * (a_fv - sfa) + d * (self._sum_fv - sfb) + kf * d * d
            can = count >= 1
        num = tf * tab - tva * tvb
        var_a = tf * taa - tva**2
        var_b = tf * tbb - tvb**2
        var_a = np.where(var_a <= 1e-12 * (tf * taa + tva**2), 0.0, var_a)
        var_b = np.where(var_b <= 1e-12 * (tf * tbb + tvb**2), 0.0, var_b)
        den = np.sqrt(np.clip(var_a, 0.0, None) * np.clip(var_b, 0.0, None))
        with np.errstate(invalid="ignore", divide="ignore"):
            w = np.where(can & (den > 0), num / np.where(den > 0, den, 1.0), 0.0)
        return np.clip(w, -1.0, 1.0)

    def _cosine_weights(self, ev: "_Evidence") -> np.ndarray:
        f_j = self.f[ev.cols]
        (dot,) = ev.user_sums(1, f_j * f_j * ev.votes)
        norm_a = np.sqrt(ev.case_sums((f_j * ev.votes) ** 2))[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            w = np.where(self._has_norm, dot / (norm_a * self._safe_norms), 0.0)
        w[norm_a[:, 0] == 0] = 0.0
        return np.clip(w, -1.0, 1.0)

    # -- predictions

    def predict_all(self, cases: Sequence[ActiveCase]) -> tuple[np.ndarray, np.ndarray]:
        """Predicted votes and informed flags, a row per case and a column per
        database item, scored in blocks of `block_cases` cases."""
        size = block_cases(self.train)
        if len(cases) > size:
            parts = [self.predict_all(cases[lo:lo + size]) for lo in range(0, len(cases), size)]
            return tuple(np.concatenate(arrays) for arrays in zip(*parts))
        scale = self.train.scale
        base = np.array([case.observed_mean for case in cases])[:, None]
        w = self.weights(cases)
        abs_w = np.abs(w)
        if self.default is not None:
            # every weighted user contributes; unvoted items enter at the default
            total = abs_w.sum(axis=1)
            const = np.array([row @ self._shift for row in w])
            dev = (self._v_minus_default_T @ w.T).T
            with np.errstate(invalid="ignore", divide="ignore"):
                values = base + (dev + const[:, None]) / total[:, None]
            values = np.clip(values, scale.min_vote, scale.max_vote)
            informed = np.repeat((total != 0)[:, None], values.shape[1], axis=1)
            # a case nobody weighs in on keeps its own mean, unclipped
            values = np.where(informed, values, base)
            return values, informed
        numer = (self._centered_T @ w.T).T
        denom = (self._mask_T @ abs_w.T).T
        informed = denom > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            values = np.where(informed, base + numer / np.where(informed, denom, 1.0), base)
        return np.clip(values, scale.min_vote, scale.max_vote), informed


class _Evidence:
    """A block's observed votes on training items (`_Index.observed_votes`),
    a segment per case in observed order, and the training votes on them.

    A block's co-voters are gathered once from `V_csc`: for each observed
    item of each case, in observed order, the users who voted on that item
    and their votes on it.
    """

    def __init__(self, cases: Sequence[ActiveCase], idx: _Index) -> None:
        case_of, self.cols, self.votes = idx.observed_votes(cases)
        self.indptr = np.searchsorted(case_of, np.arange(len(cases) + 1))
        self.shape = (len(cases), len(idx.user_ids))
        pattern = idx.V_csc
        starts = pattern.indptr[self.cols]
        lens = pattern.indptr[self.cols + 1] - starts
        # co-voter k of evidence entry e sits at data[starts[e] + k]
        self._lens = lens
        pos = np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
        self._covotes = pattern.data[pos]
        self._key = np.repeat(case_of * self.shape[1], lens) + pattern.indices[pos]

    def user_sums(self, power: int, *xs: np.ndarray) -> list[np.ndarray]:
        """For each entry vector x, the (cases x users) sums over a case's items
        j of x_j * V[user, j]**power, each added in the case's observed order.

        Power 0 counts a 0 vote as a co-vote. `np.bincount` adds each user's
        terms in input order, starting from 0.0, as a row of the sparse
        product of the evidence with those vote terms would."""
        terms = self._covotes**power
        size = self.shape[0] * self.shape[1]
        return [
            np.bincount(self._key, weights=np.repeat(x, self._lens) * terms, minlength=size)
            .reshape(self.shape)
            for x in xs
        ]

    def case_sums(self, x: np.ndarray) -> np.ndarray:
        """Each case's sum over its own segment of x, as `.sum()` adds up that
        case's array alone."""
        return np.array([x[lo:hi].sum() for lo, hi in zip(self.indptr[:-1], self.indptr[1:])])
