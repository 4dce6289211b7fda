"""Memory-based vote prediction: weighted sums of neighbor vote deviations.

The predicted vote is the active user's mean plus a normalized, weighted sum
of other users' deviations from their own means. Weights come from either
the Pearson correlation of co-voted items or the cosine of the two users'
vote vectors, optionally modified by default voting, inverse user frequency,
and case amplification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .votedata import ActiveCase, VoteDatabase

CORRELATION = "correlation"
VECTOR_SIMILARITY = "vector_similarity"

# Weight given to the synthetic agreed-upon items of default voting inside the
# frequency-weighted correlation; real items use ln(n / n_j).
SYNTHETIC_ITEM_FREQUENCY = 1.0


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

    def to_json(self) -> dict:
        out: dict = {"weight": self.weight_kind, "iuf": self.inverse_user_frequency}
        if self.default_voting is not None:
            out["default_voting"] = {"d": self.default_voting.d, "k": self.default_voting.k}
        if self.case_amplification is not None:
            out["case_amp"] = {"p": self.case_amplification}
        return out

    @classmethod
    def from_json(cls, obj: Mapping) -> "MemoryConfig":
        dv = obj.get("default_voting")
        amp = obj.get("case_amp")
        return cls(
            weight_kind=obj.get("weight", CORRELATION),
            default_voting=None if dv is None else DefaultVoting(
                d=None if dv.get("d") is None else float(dv["d"]),
                k=int(dv.get("k", 10000)),
            ),
            inverse_user_frequency=bool(obj.get("iuf", False)),
            case_amplification=None if amp is None else float(amp["p"]),
        )


def _resolve_default(db: VoteDatabase, cfg: MemoryConfig) -> float | None:
    if cfg.default_voting is None:
        return None
    dv = cfg.default_voting
    d = dv.d
    if d is None:
        d = 0.0 if db.scale.implicit else float(db.scale.neutral)
    if cfg.weight_kind == VECTOR_SIMILARITY and not (db.scale.implicit and d == 0.0):
        raise ValueError(
            "default voting with vector similarity only completes implicit "
            "vote vectors with zeros"
        )
    return float(d)


class MemoryScorer:
    """Weight and prediction pipeline for one database and config.

    Stateless with respect to cases; safe to reuse across many active cases.
    """

    def __init__(self, db: VoteDatabase, cfg: MemoryConfig) -> None:
        self.db = db
        self.cfg = cfg
        self.idx = db.index
        self.default = _resolve_default(db, cfg)
        self.f = self.idx.iuf if cfg.inverse_user_frequency else np.ones(len(db.items))
        idx = self.idx
        if cfg.weight_kind == CORRELATION and self.default is not None:
            self._sum_f = idx.M @ self.f
            self._sum_fv = idx.V @ self.f
            self._sum_fv2 = np.asarray(idx.V2_csc.tocsr() @ self.f).ravel()
        if cfg.weight_kind == VECTOR_SIMILARITY:
            self._norms = np.sqrt(np.asarray(idx.V2_csc.tocsr() @ (self.f**2)).ravel())
        if self.default is not None:
            shifted = idx.V.copy()
            shifted.data = shifted.data - self.default
            self._v_minus_default = shifted

    # -- weights

    def weights(self, active: ActiveCase) -> np.ndarray:
        """Final per-user weights (case amplification applied), zero when skipped."""
        idx = self.idx
        cols = [idx.item_pos[it] for it in active.observed if it in idx.item_pos]
        n = len(idx.user_ids)
        if not cols:
            return np.zeros(n)
        v_a = np.array(
            [active.observed[idx.item_ids[j]] for j in cols], dtype=float
        )
        if self.cfg.weight_kind == CORRELATION:
            w = self._pearson_weights(cols, v_a)
        else:
            w = self._cosine_weights(cols, v_a)
        pos = idx.user_pos.get(active.user)
        if pos is not None:
            w[pos] = 0.0
        p = self.cfg.case_amplification
        if p is not None:
            w = np.sign(w) * np.abs(w) ** p
        return w

    def _column_sums(self, cols: list[int], v_a: np.ndarray):
        idx = self.idx
        f_j = self.f[cols]
        M = idx.M_csc[:, cols]
        V = idx.V_csc[:, cols]
        V2 = idx.V2_csc[:, cols]
        count = np.asarray(M @ np.ones(len(cols))).ravel()
        sf = np.asarray(M @ f_j).ravel()
        sfa = np.asarray(M @ (f_j * v_a)).ravel()
        sfaa = np.asarray(M @ (f_j * v_a * v_a)).ravel()
        sfb = np.asarray(V @ f_j).ravel()
        sfbb = np.asarray(V2 @ f_j).ravel()
        sfab = np.asarray(V @ (f_j * v_a)).ravel()
        return count, sf, sfa, sfaa, sfb, sfbb, sfab

    def _pearson_weights(self, cols: list[int], v_a: np.ndarray) -> np.ndarray:
        count, sf, sfa, sfaa, sfb, sfbb, sfab = self._column_sums(cols, v_a)
        d = self.default
        if d is None:
            num = sf * sfab - sfa * sfb
            var_a = sf * sfaa - sfa**2
            var_b = sf * sfbb - sfb**2
            var_a = np.where(var_a <= 1e-12 * (sf * sfaa + sfa**2), 0.0, var_a)
            var_b = np.where(var_b <= 1e-12 * (sf * sfbb + sfb**2), 0.0, var_b)
            can = count >= 2
        else:
            f_j = self.f[cols]
            kf = (self.cfg.default_voting.k if self.cfg.default_voting else 0) * \
                SYNTHETIC_ITEM_FREQUENCY
            a_f = float(f_j.sum())
            a_fv = float((f_j * v_a).sum())
            a_fv2 = float((f_j * v_a * v_a).sum())
            tf = a_f + self._sum_f - sf + kf
            tva = a_fv + d * (self._sum_f - sf) + kf * d
            tvb = self._sum_fv + d * (a_f - sf) + kf * d
            taa = a_fv2 + d * d * (self._sum_f - sf) + kf * d * d
            tbb = self._sum_fv2 + d * d * (a_f - sf) + kf * d * d
            tab = sfab + d * (a_fv - sfa) + d * (self._sum_fv - sfb) + kf * d * d
            num = tf * tab - tva * tvb
            var_a = tf * taa - tva**2
            var_b = tf * tbb - tvb**2
            var_a = np.where(var_a <= 1e-12 * (tf * taa + tva**2), 0.0, var_a)
            var_b = np.where(var_b <= 1e-12 * (tf * tbb + tvb**2), 0.0, var_b)
            can = count >= 1
        den = np.sqrt(np.clip(var_a, 0.0, None) * np.clip(var_b, 0.0, None))
        with np.errstate(invalid="ignore", divide="ignore"):
            w = np.where(can & (den > 0), num / np.where(den > 0, den, 1.0), 0.0)
        return np.clip(w, -1.0, 1.0)

    def _cosine_weights(self, cols: list[int], v_a: np.ndarray) -> np.ndarray:
        idx = self.idx
        f_j = self.f[cols]
        dot = np.asarray(idx.V_csc[:, cols] @ (f_j * f_j * v_a)).ravel()
        norm_a = math.sqrt(float(((f_j * v_a) ** 2).sum()))
        if norm_a == 0:
            return np.zeros(len(idx.user_ids))
        with np.errstate(invalid="ignore", divide="ignore"):
            w = np.where(self._norms > 0, dot / (norm_a * np.maximum(self._norms, 1e-300)), 0.0)
        return np.clip(w, 0.0, 1.0)

    # -- predictions

    def predict_all(self, active: ActiveCase) -> tuple[np.ndarray, np.ndarray]:
        """Predicted vote and informed flag for every database item."""
        idx = self.idx
        scale = self.db.scale
        base = active.observed_mean
        n_items = len(idx.item_ids)
        w = self.weights(active)
        abs_w = np.abs(w)
        if self.default is not None:
            total = float(abs_w.sum())
            if total == 0:
                return np.full(n_items, base), np.zeros(n_items, dtype=bool)
            # every weighted user contributes; unvoted items enter at the default
            const = float(w @ (self.default - idx.user_means))
            dev = np.asarray(w @ self._v_minus_default).ravel()
            values = base + (dev + const) / total
            informed = np.ones(n_items, dtype=bool)
        else:
            numer = np.asarray(w @ idx.V_centered).ravel()
            denom = np.asarray(abs_w @ idx.M).ravel()
            informed = denom > 0
            with np.errstate(invalid="ignore", divide="ignore"):
                values = np.where(informed, base + numer / np.where(informed, denom, 1.0), base)
        return np.clip(values, scale.min_vote, scale.max_vote), informed
