"""Sparse vote databases, dataset loaders, and protocol-driven test splits."""

from __future__ import annotations

import csv
import hashlib
import json
import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

log = logging.getLogger(__name__)

UserId = str | int
ItemId = str | int


class VoteDataError(ValueError):
    """Malformed or out-of-contract vote data."""


@dataclass(frozen=True)
class VoteScale:
    """Integer vote range plus the neutral value used by ranked scoring.

    An implicit scale models presence-only voting: every recorded vote is 1
    and absence means "did not act", which is informative but ambiguous.
    """

    min_vote: int = 0
    max_vote: int = 1
    neutral: float = 0.0
    implicit: bool = True

    def __post_init__(self) -> None:
        if self.min_vote > self.max_vote:
            raise VoteDataError("min_vote must not exceed max_vote")
        if not (self.min_vote <= self.neutral <= self.max_vote):
            raise VoteDataError("neutral vote must lie within [min_vote, max_vote]")
        if self.implicit and (self.min_vote != 0 or self.max_vote != 1):
            raise VoteDataError("implicit scales are presence-only: range must be 0..1")

    def contains(self, vote: float) -> bool:
        return self.min_vote <= vote <= self.max_vote

    @property
    def vote_values(self) -> tuple[int, ...]:
        """Vote values that can actually occur (implicit scales record only 1)."""
        if self.implicit:
            return (1,)
        return tuple(range(self.min_vote, self.max_vote + 1))

    @property
    def num_states(self) -> int:
        """State count for the probabilistic models: no-vote plus each vote value."""
        return 1 + len(self.vote_values)

    def states_of(self, votes: np.ndarray) -> np.ndarray:
        """The state index of each recorded vote: 1 + its place among
        `vote_values` (state 0, no-vote, is never recorded). A vote that is
        not one of the values raises VoteDataError naming the first such vote."""
        votes = np.asarray(votes, dtype=float)
        first = self.vote_values[0]
        v = np.rint(votes)
        ok = (np.abs(votes - v) <= 1e-9) & (v >= first) & (v <= self.max_vote)
        if not ok.all():
            raise VoteDataError(
                f"vote {float(votes[np.argmin(ok)])!r} is not a vote value on this scale")
        return (v - (first - 1)).astype(np.int64)

    def expected_vote(self, dist: np.ndarray) -> np.ndarray:
        """Expected vote of each state distribution along the last axis: the
        no-vote mass is clamped to zero and the vote states renormalized.

        Each distribution's expected vote is its own (1 x states) @ (states x 1)
        product, which adds the terms as a 1-d dot product does; a stacked
        `@` over the states, `einsum` or a `sum` would add them in another
        order."""
        mass = np.asarray(dist, dtype=float)[..., 1:]
        return np.matmul((mass / mass.sum(axis=-1, keepdims=True))[..., None, :],
                         self._vote_column)[..., 0, 0]

    @cached_property
    def _vote_column(self) -> np.ndarray:
        """The vote values as a (votes x 1) column."""
        return np.asarray(self.vote_values, dtype=float)[:, None]

    def rank_score(self, dist: np.ndarray) -> np.ndarray:
        """Ranking score of each state distribution along the last axis:
        implicit scales rank by the probability of the single vote state;
        otherwise by expected vote weighted by the probability of voting at all."""
        dist = np.asarray(dist, dtype=float)
        if self.implicit:
            return dist[..., 1]
        return self.expected_vote(dist) * dist[..., 1:].sum(axis=-1)

    def to_json(self) -> dict:
        return {
            "min_vote": self.min_vote,
            "max_vote": self.max_vote,
            "neutral": self.neutral,
            "implicit": self.implicit,
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "VoteScale":
        return cls(
            min_vote=int(obj["min_vote"]),
            max_vote=int(obj["max_vote"]),
            neutral=float(obj["neutral"]),
            implicit=bool(obj["implicit"]),
        )


IMPLICIT_SCALE = VoteScale(0, 1, 0.0, True)


class _Index:
    """Array views of a database shared by the vectorized predictors.

    The votes have three encodings: `V` (users x items), `V_csc` (the same
    votes, item-major) and `vote_states` (one-hot vote states). Matrices
    derived from the votes are built by the predictors that need them. A
    block of active cases has one encoding, `observed_votes`: the (case row,
    training position, vote) arrays that every predictor and the runner
    read. Built lazily and cached on the database; the database is
    immutable by convention so the cache is safe to share across readers.
    """

    def __init__(self, db: "VoteDatabase") -> None:
        self.scale = db.scale
        self.user_ids = list(db.users)
        self.item_ids = list(db.items)
        self.user_pos = {u: i for i, u in enumerate(self.user_ids)}
        self.item_pos = {it: j for j, it in enumerate(self.item_ids)}
        n, t = len(self.user_ids), len(self.item_ids)
        rows, cols, vals = [], [], []
        for u, per_user in db.votes.items():
            i = self.user_pos[u]
            for it, v in per_user.items():
                rows.append(i)
                cols.append(self.item_pos[it])
                vals.append(v)
        # every recorded vote is an entry, 0 votes included, so entry counts
        # are vote counts
        self.V = sp.csr_matrix(
            (np.asarray(vals, dtype=float), (rows, cols)), shape=(n, t)
        )
        self.user_counts = np.diff(self.V.indptr).astype(float)
        self.user_sums = np.asarray(self.V.sum(axis=1)).ravel()
        with np.errstate(invalid="ignore"):
            self.user_means = np.where(
                self.user_counts > 0, self.user_sums / np.maximum(self.user_counts, 1), 0.0
            )
        self.item_counts = np.bincount(self.V.indices, minlength=t).astype(float)
        self.item_array = np.array(self.item_ids, dtype=object)
        # rank of each item id in sorted order, the tie-break of every ranking
        self.item_sort_rank = np.empty(t, dtype=int)
        self.item_sort_rank[sorted(range(t), key=self.item_ids.__getitem__)] = np.arange(t)

    def observed_votes(
        self, cases: Sequence["ActiveCase"]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The block's observed votes on training items as (case row,
        training position, vote) arrays: case by case, each case's votes in
        observed order. An item outside training carries no vote."""
        rows, cols, votes = [], [], []
        for k, case in enumerate(cases):
            for it, v in case.observed.items():
                j = self.item_pos.get(it)
                if j is not None:
                    rows.append(k)
                    cols.append(j)
                    votes.append(v)
        return (np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp),
                np.asarray(votes, dtype=float))

    def positions(
        self, skip: np.ndarray, uninformed: np.ndarray, key: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """The one ranking rule: the list position of item position cols[k],
        counted as the number of items outside `skip` whose (key, uninformed,
        item id) sorts ahead of the item's. The arrays hold a row per k. NaN
        sorts after every number and ties with NaN, and -0.0 ties 0.0. Ties
        fall back to the item id, so the positions of one case's items
        outside `skip` are a permutation."""
        at = np.arange(len(cols)), cols
        own = key[at][:, None]
        nan, own_nan = np.isnan(key), np.isnan(own)
        ahead = (key < own) | (own_nan & ~nan)
        tied = (key == own) | (own_nan & nan)
        second = uninformed * len(self.item_ids) + self.item_sort_rank
        ahead |= tied & (second < second[at][:, None])
        return (ahead & ~skip).sum(axis=1)

    @cached_property
    def vote_states(self) -> sp.csr_matrix:
        """One-hot users x (item, vote state) encoding of the recorded votes.

        Column `j * (num_states - 1) + state - 1` marks a vote on item
        position j in `scale.states_of` state `state`. The no-vote state 0 has
        no column: it is what remains of a total. Built on first use, so a
        vote that is not integral on the scale raises VoteDataError only for
        the models that need states.
        """
        s_votes = self.scale.num_states - 1
        states = self.scale.states_of(self.V.data)
        return sp.csr_matrix(
            (np.ones(len(states)), self.V.indices * s_votes + (states - 1), self.V.indptr),
            shape=(self.V.shape[0], self.V.shape[1] * s_votes),
        )

    @cached_property
    def vote_patterns(self) -> tuple[sp.csr_matrix, np.ndarray]:
        """The distinct rows of `vote_states` in first-seen order, and each
        user's position among them. Rows are equal when they list the same
        columns in the same order, so a product over a distinct row adds
        its terms as over the row of each of its users."""
        X = self.vote_states
        first: dict[bytes, int] = {}
        inverse = np.fromiter(
            (first.setdefault(X.indices[a:b].tobytes(), len(first))
             for a, b in zip(X.indptr[:-1].tolist(), X.indptr[1:].tolist())),
            dtype=np.intp, count=X.shape[0],
        )
        return X[np.unique(inverse, return_index=True)[1]], inverse

    @cached_property
    def V_csc(self) -> sp.csc_matrix:
        """`V` item-major: the same votes, an item's voters in user order."""
        return self.V.tocsc()

    @cached_property
    def iuf(self) -> np.ndarray:
        """Per-item ln(n / n_j); items nobody voted on get 0 and never contribute."""
        n = len(self.user_ids)
        with np.errstate(divide="ignore"):
            return np.where(self.item_counts > 0, np.log(n / np.maximum(self.item_counts, 1)), 0.0)


@dataclass(eq=False)
class VoteDatabase:
    """Sparse user-by-item vote matrix. Immutable by convention after build."""

    users: tuple[UserId, ...]
    items: tuple[ItemId, ...]
    votes: dict[UserId, dict[ItemId, float]]
    scale: VoteScale

    def __post_init__(self) -> None:
        item_set = set(self.items)
        if len(item_set) != len(self.items):
            raise VoteDataError("duplicate item ids")
        if len(set(self.users)) != len(self.users):
            raise VoteDataError("duplicate user ids")
        for u in self.users:
            per_user = self.votes.get(u)
            if not per_user:
                raise VoteDataError(f"user {u!r} has no votes")
            for it, v in per_user.items():
                if it not in item_set:
                    raise VoteDataError(f"vote on undeclared item {it!r}")
                if not self.scale.contains(v):
                    raise VoteDataError(
                        f"vote {v!r} for ({u!r}, {it!r}) outside scale "
                        f"[{self.scale.min_vote}, {self.scale.max_vote}]"
                    )

    @classmethod
    def from_votes(
        cls,
        rows: Iterable[tuple[UserId, ItemId, float]],
        scale: VoteScale,
        items: Iterable[ItemId] | None = None,
    ) -> "VoteDatabase":
        """Build a database from (user, item, vote) triples, first-seen order."""
        votes: dict[UserId, dict[ItemId, float]] = {}
        seen_items: dict[ItemId, None] = dict.fromkeys(items) if items else {}
        for u, it, v in rows:
            votes.setdefault(u, {})[it] = float(v)
            seen_items.setdefault(it, None)
        return cls(
            users=tuple(votes),
            items=tuple(seen_items),
            votes=votes,
            scale=scale,
        )

    @cached_property
    def index(self) -> _Index:
        return _Index(self)

    @property
    def num_votes(self) -> int:
        return sum(len(v) for v in self.votes.values())

    def iter_votes(self) -> Iterator[tuple[UserId, ItemId, float]]:
        for u in self.users:
            for it, v in self.votes[u].items():
                yield u, it, v

    @cached_property
    def content_hash(self) -> str:
        """Stable digest of scale plus votes, used for model caching. Computed
        once: it walks every vote."""
        h = hashlib.sha256()
        h.update(json.dumps(self.scale.to_json(), sort_keys=True).encode())
        for it in self.items:
            h.update(repr(it).encode() + b"\x1f")
        for u, it, v in self.iter_votes():
            h.update(f"{u!r}\x1f{it!r}\x1f{v!r}\x1e".encode())
        return h.hexdigest()

    def subset(
        self,
        users: Iterable[UserId] | None = None,
        items: Iterable[ItemId] | None = None,
    ) -> "VoteDatabase":
        """Restrict to the given users/items, dropping users left with no votes."""
        keep_users = set(users) if users is not None else set(self.users)
        keep_items = set(items) if items is not None else set(self.items)
        new_votes: dict[UserId, dict[ItemId, float]] = {}
        new_users = []
        for u in self.users:
            if u not in keep_users:
                continue
            per = {it: v for it, v in self.votes[u].items() if it in keep_items}
            if per:
                new_votes[u] = per
                new_users.append(u)
        new_items = tuple(it for it in self.items if it in keep_items)
        return VoteDatabase(tuple(new_users), new_items, new_votes, self.scale)


@dataclass(frozen=True)
class ActiveCase:
    """One test user's split into observed votes and prediction targets."""

    user: UserId
    observed: Mapping[ItemId, float]
    targets: Mapping[ItemId, float]

    def __post_init__(self) -> None:
        if set(self.observed) & set(self.targets):
            raise VoteDataError("observed and target item sets must be disjoint")
        if not self.observed:
            raise VoteDataError("active case needs at least one observed vote")

    @property
    def observed_mean(self) -> float:
        return sum(self.observed.values()) / len(self.observed)


ALL_BUT_1 = "all_but_1"
GIVEN = "given"


@dataclass(frozen=True)
class Protocol:
    """Test-case construction rule: hold out one vote, or observe a fixed count."""

    kind: str
    n: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (ALL_BUT_1, GIVEN):
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        if self.kind == GIVEN:
            if self.n is None or self.n < 1:
                raise ValueError("Given protocols need n >= 1")

    @classmethod
    def all_but_1(cls) -> "Protocol":
        return cls(ALL_BUT_1)

    @classmethod
    def given(cls, n: int) -> "Protocol":
        return cls(GIVEN, n)

    @property
    def label(self) -> str:
        return "AllBut1" if self.kind == ALL_BUT_1 else f"Given{self.n}"

    @classmethod
    def parse(cls, text: str) -> "Protocol":
        t = text.strip().lower().replace("_", "").replace("-", "")
        if t in ("allbut1", "allbutone"):
            return cls.all_but_1()
        if t.startswith("given"):
            try:
                return cls.given(int(t[len("given"):]))
            except ValueError:
                pass
        raise ValueError(f"cannot parse protocol {text!r}")


def generate_active_cases(
    test_db: VoteDatabase, protocol: Protocol, seed: int
) -> list[ActiveCase]:
    """Split each eligible test user into observed and target votes.

    Users without enough votes for the protocol are omitted. The output is a
    deterministic function of (database, protocol, seed); sampling uses a
    seeded PCG64 generator so splits replay identically across machines.
    """
    rng = np.random.default_rng(seed)
    cases: list[ActiveCase] = []
    for u in test_db.users:
        per = test_db.votes[u]
        items = list(per)
        n = len(items)
        if protocol.kind == ALL_BUT_1:
            if n < 2:
                continue
            pick = int(rng.integers(n))
            targets = {items[pick]: per[items[pick]]}
            observed = {it: per[it] for k, it in enumerate(items) if k != pick}
        else:
            g = protocol.n or 0
            if n < g + 1:
                continue
            picks = set(int(k) for k in rng.choice(n, size=g, replace=False))
            observed = {items[k]: per[items[k]] for k in sorted(picks)}
            targets = {it: per[it] for k, it in enumerate(items) if k not in picks}
        cases.append(ActiveCase(user=u, observed=observed, targets=targets))
    if not cases:
        raise VoteDataError(f"protocol {protocol.label} eliminated every test user")
    return cases


def split_users(
    db: VoteDatabase, test_fraction: float, seed: int
) -> tuple[VoteDatabase, VoteDatabase]:
    """Uniform user-level train/test split; both halves keep database order."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must be in (0, 1)")
    n = len(db.users)
    n_test = int(round(n * test_fraction))
    if n_test == 0 or n_test == n:
        raise ValueError("split leaves one side empty")
    perm = np.random.default_rng(seed).permutation(n)
    test_set = {db.users[i] for i in perm[:n_test]}
    train = db.subset(users=[u for u in db.users if u not in test_set])
    test = db.subset(users=[u for u in db.users if u in test_set])
    return train, test


# --- split manifests -------------------------------------------------------


def save_split_manifest(
    path, cases: list[ActiveCase], protocol: Protocol, seed: int
) -> None:
    """Write the exact observed/target split so a run can be replayed bit-for-bit."""
    doc = {
        "version": 1,
        "protocol": protocol.label,
        "seed": seed,
        "cases": [
            {
                "user": c.user,
                "observed": list(c.observed),
                "targets": list(c.targets),
            }
            for c in cases
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def load_split_manifest(path, test_db: VoteDatabase) -> list[ActiveCase]:
    """Rebuild active cases from a manifest, validating the partition against the db."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    cases = []
    for entry in doc["cases"]:
        u = entry["user"]
        per = test_db.votes.get(u)
        if per is None:
            raise VoteDataError(f"manifest user {u!r} not in database")
        listed = set()
        for it in [*entry["observed"], *entry["targets"]]:
            if it in listed or it not in per:
                raise VoteDataError(f"manifest item {it!r} of user {u!r} is "
                                    + ("listed twice" if it in listed else "not one of their votes"))
            listed.add(it)
        if listed != set(per):
            raise VoteDataError(f"manifest split for user {u!r} does not cover their votes")
        observed = {it: per[it] for it in entry["observed"]}
        targets = {it: per[it] for it in entry["targets"]}
        cases.append(ActiveCase(user=u, observed=observed, targets=targets))
    return cases


# --- loaders ---------------------------------------------------------------


def load_msweb(path) -> VoteDatabase:
    """Load a web-visit log in the published A/C/V line format.

    `A,<id>,...` declares a content area (an item), `C,...` opens a user
    record, and `V,<area id>,...` attributes a visit (an implicit vote of 1)
    to the currently open user. Other line tags are metadata and are skipped.
    """
    items: dict[ItemId, None] = {}
    votes: dict[UserId, dict[ItemId, float]] = {}
    user_order: list[UserId] = []
    current: UserId | None = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            tag = row[0].strip()
            if tag == "A":
                if len(row) < 2:
                    raise VoteDataError(f"line {lineno}: attribute line missing id")
                try:
                    item_id = int(row[1])
                except ValueError:
                    raise VoteDataError(f"line {lineno}: bad attribute id {row[1]!r}") from None
                items.setdefault(item_id, None)
            elif tag == "C":
                if len(row) < 2:
                    raise VoteDataError(f"line {lineno}: case line missing id")
                raw = row[-1] if len(row) >= 3 else row[1]
                try:
                    current = int(str(raw).strip('"'))
                except ValueError:
                    raise VoteDataError(f"line {lineno}: bad case id {raw!r}") from None
                if current not in votes:
                    votes[current] = {}
                    user_order.append(current)
            elif tag == "V":
                if current is None:
                    raise VoteDataError(f"line {lineno}: visit before any case line")
                if len(row) < 2:
                    raise VoteDataError(f"line {lineno}: visit line missing id")
                try:
                    item_id = int(row[1])
                except ValueError:
                    raise VoteDataError(f"line {lineno}: bad visit id {row[1]!r}") from None
                if item_id not in items:
                    raise VoteDataError(f"line {lineno}: visit to undeclared area {item_id}")
                votes[current][item_id] = 1.0
            # other tags (I, T, N, ...) are file metadata
    user_order = [u for u in user_order if votes[u]]
    if not user_order:
        raise VoteDataError("no user visits found")
    return VoteDatabase(
        users=tuple(user_order),
        items=tuple(items),
        votes={u: votes[u] for u in user_order},
        scale=IMPLICIT_SCALE,
    )


def load_votes_csv(path, scale: VoteScale) -> VoteDatabase:
    """Load `user,item,vote` rows (header optional); duplicate pairs keep the last value."""
    votes: dict[UserId, dict[ItemId, float]] = {}
    items: dict[ItemId, None] = {}
    duplicates = 0
    first_dup = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise VoteDataError(f"line {lineno}: expected 3 columns, got {len(row)}")
            user, item, raw = row[0].strip(), row[1].strip(), row[2].strip()
            try:
                v = float(raw)
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise VoteDataError(f"line {lineno}: bad vote value {raw!r}") from None
            if not scale.contains(v):
                raise VoteDataError(
                    f"line {lineno}: vote {v} outside scale "
                    f"[{scale.min_vote}, {scale.max_vote}]"
                )
            per = votes.setdefault(user, {})
            if item in per:
                duplicates += 1
                if first_dup is None:
                    first_dup = (lineno, user, item)
            per[item] = v
            items.setdefault(item, None)
    if duplicates:
        log.warning(
            "%d duplicate (user, item) rows, last value kept (first at line %d: %r, %r)",
            duplicates, first_dup[0], first_dup[1], first_dup[2],
        )
    if not votes:
        raise VoteDataError("no vote rows found (empty database)")
    return VoteDatabase(
        users=tuple(votes), items=tuple(items), votes=votes, scale=scale
    )


def save_votes_csv(db: VoteDatabase, path, header: bool = True) -> None:
    """Write the database as `user,item,vote` rows, database order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(["user", "item", "vote"])
        for u, it, v in db.iter_votes():
            writer.writerow([u, it, format(v, "g")])
