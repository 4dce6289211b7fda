"""Per-item decision-tree conditional models with greedy Bayesian structure search.

Every item gets a decision tree over the other items' states (a vote value or
the explicit no-vote state). Search starts from root-only trees and greedily
applies the single best-scoring leaf split anywhere in the model, subject to
the parent graph staying acyclic, until no split improves the score. The
score of a leaf is the closed-form marginal likelihood of its counts under
pseudo-counts derived from a uniform prior network, plus a per-free-parameter
structure penalty.

A model holds all its trees in one set of flat node arrays
(`BayesNetModel`): the search grows them, scoring routes whole cases
through them, and the model file nests them back into one JSON tree per
item.
"""

from __future__ import annotations

import graphlib
import heapq
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln

from .votedata import ItemId, VoteDatabase, VoteScale


@dataclass(frozen=True)
class LearnConfig:
    """Search settings.

    `structure_penalty` is the prior probability charged per free parameter
    (each extra leaf of an r-state target adds r - 1 of them);
    `equivalent_sample_size` sets the strength of the uniform prior network
    that the leaf pseudo-counts are drawn from.
    """

    structure_penalty: float = 0.1
    equivalent_sample_size: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.structure_penalty < 1.0):
            raise ValueError("structure_penalty must be in (0, 1)")
        if self.equivalent_sample_size <= 0:
            raise ValueError("equivalent_sample_size must be > 0")


def leaf_family_score(
    counts, prior_counts, structure_penalty: float = 1.0
) -> float:
    """Log marginal likelihood of one leaf's counts plus its structure penalty.

    The marginal is the closed-form integral of the multinomial likelihood
    against the leaf's pseudo-count prior; the penalty charges
    ln(structure_penalty) per free parameter (states - 1).
    """
    n = np.asarray(counts, dtype=float)
    a = np.asarray(prior_counts, dtype=float)
    if n.shape != a.shape:
        raise ValueError("counts and prior counts must align")
    if (a <= 0).any():
        raise ValueError("prior counts must be positive")
    if (n < 0).any():
        raise ValueError("counts must be nonnegative")
    return _leaf_score(n, a, math.log(structure_penalty))


def _leaf_score(n: np.ndarray, a: np.ndarray, log_penalty: float) -> float:
    """`leaf_family_score` of float count and prior arrays known to be valid."""
    a_total = a.sum()  # not len(a) * alpha, which can differ in the last bit
    marginal = gammaln(a_total) - gammaln(a_total + n.sum()) + (gammaln(a + n) - gammaln(a)).sum()
    return float(marginal + (len(n) - 1) * log_penalty)


class BayesNetModel:
    """A network of per-item decision trees, held as flat node arrays.

    Node j < len(items) is item j's root, and every other node comes after
    its parent. Split node n tests item position `var[n]`, and its child for
    state a is node `first[n] + a`. A leaf has `var` -1 and `first` itself,
    so routing past it stays put. Each node has a row of target `counts`,
    pseudo-counts `alpha` and a creation `order` within its tree; they are
    read at leaves only. `tree` is each node's item position, and per leaf
    `score` is its ranking score and `expected` its expected vote (NaN at
    splits), each computed once here.
    """

    def __init__(self, scale: VoteScale, items, var, first, counts, alpha, order) -> None:
        self.scale = scale
        self.items = tuple(items)
        self.item_pos = {it: j for j, it in enumerate(self.items)}
        self.var = np.asarray(var, dtype=np.intp)
        self.first = np.asarray(first, dtype=np.intp)
        r = scale.num_states
        self.counts = np.asarray(counts, dtype=float).reshape(len(self.var), r)
        self.alpha = np.asarray(alpha, dtype=float).reshape(len(self.var), r)
        self.order = np.asarray(order, dtype=np.intp)
        self.tree = np.arange(len(self.var))
        depth = np.zeros(len(self.var), dtype=np.intp)
        for n in np.flatnonzero(self.var >= 0):  # children come after their parent
            kids = slice(self.first[n], self.first[n] + r)
            self.tree[kids] = self.tree[n]
            depth[kids] = depth[n] + 1
        self.depth = int(depth.max(initial=0))
        leaves = self.var < 0
        total = self.counts[leaves] + self.alpha[leaves]
        dist = total / total.sum(axis=1, keepdims=True)
        self.score = np.full(len(self.var), math.nan)
        self.expected = np.full(len(self.var), math.nan)
        self.score[leaves] = scale.rank_score(dist)
        self.expected[leaves] = scale.expected_vote(dist)
        try:
            graphlib.TopologicalSorter(self.parent_graph()).prepare()
        except graphlib.CycleError:
            raise ValueError("parent graph must be acyclic") from None

    def route(self, observed: Mapping[ItemId, float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every item's leaf for a case whose unobserved items are no-vote,
        whether an observed vote steered that item's path, and the mask of
        observed model items. One numpy step moves all items down a level."""
        t = len(self.items)
        # position t (reached through var -1) is a no-vote, unobserved sentinel
        state = np.zeros(t + 1, dtype=np.intp)
        seen = np.zeros(t + 1, dtype=bool)
        for it, v in observed.items():
            j = self.item_pos.get(it)
            if j is not None:
                state[j] = self.scale.state_of(v)
                seen[j] = True
        node = np.arange(t)
        influenced = np.zeros(t, dtype=bool)
        for _ in range(self.depth):
            var = self.var[node]
            influenced |= seen[var]
            node = self.first[node] + state[var]
        return node, influenced, seen[:t]

    @staticmethod
    def count_lookups(stats: dict, influenced: np.ndarray, seen: np.ndarray) -> None:
        """Add a routed case's unobserved items, and those of them an
        observed vote steered, to `stats`."""
        stats["lookups"] = stats.get("lookups", 0) + int((~seen).sum())
        stats["influenced"] = stats.get("influenced", 0) + int((influenced & ~seen).sum())

    def parent_graph(self) -> dict[ItemId, set[ItemId]]:
        """Edges parent -> children implied by the split variables."""
        edges: dict[ItemId, set[ItemId]] = {it: set() for it in self.items}
        for n in np.flatnonzero(self.var >= 0):
            edges[self.items[self.var[n]]].add(self.items[self.tree[n]])
        return edges

    def parents(self, item: ItemId) -> set[ItemId]:
        splits = (self.var >= 0) & (self.tree == self.item_pos[item])
        return {self.items[k] for k in self.var[splits]}

    def structure_stats(self) -> dict:
        """Learned-structure summary: parent and leaf counts per item."""
        parent_counts = [len(self.parents(it)) for it in self.items]
        leaf_counts = np.bincount(self.tree[self.var < 0], minlength=len(self.items))
        return {
            "items": len(self.items),
            "mean_parents": float(np.mean(parent_counts)),
            "max_parents": int(max(parent_counts)),
            "mean_leaves": float(np.mean(leaf_counts)),
            "max_leaves": int(leaf_counts.max()),
        }

    def to_json(self) -> dict:
        """Each tree nested from its root, children in state order."""
        r = self.scale.num_states

        def node(n: int) -> dict:
            if self.var[n] < 0:
                return {
                    "counts": self.counts[n].tolist(),
                    "alpha": self.alpha[n].tolist(),
                    "order": int(self.order[n]),
                }
            # split items are stored as values, so their type survives JSON
            return {
                "split": self.items[self.var[n]],
                "children": [node(c) for c in range(self.first[n], self.first[n] + r)],
            }

        return {
            "version": 1,
            "kind": "bayesnet_model",
            "scale": self.scale.to_json(),
            "items": list(self.items),
            "trees": {str(j): node(j) for j in range(len(self.items))},
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "BayesNetModel":
        """The nested trees numbered breadth first. A split must have one child
        per state and name a model item, and a leaf one count and one
        pseudo-count per state; anything else raises ValueError."""
        scale = VoteScale.from_json(obj["scale"])
        items = tuple(obj["items"])
        pos = {it: j for j, it in enumerate(items)}
        r = scale.num_states
        nodes = [obj["trees"][str(j)] for j in range(len(items))]
        var, first, counts, alpha, order = [], [], [], [], []
        for n, node in enumerate(nodes):  # reaches the children appended below
            if "split" in node:
                if node["split"] not in pos or len(node["children"]) != r:
                    raise ValueError(f"a split needs a model item and {r} children")
                var.append(pos[node["split"]])
                first.append(len(nodes))
                nodes.extend(node["children"])
                counts.append(np.zeros(r))
                alpha.append(np.zeros(r))
                order.append(-1)
            else:
                c = np.asarray(node["counts"], dtype=float)
                a = np.asarray(node["alpha"], dtype=float)
                if c.shape != (r,) or a.shape != (r,):
                    raise ValueError(f"a leaf needs {r} counts and {r} pseudo-counts")
                var.append(-1)
                first.append(n)
                counts.append(c)
                alpha.append(a)
                order.append(int(node["order"]))
        return cls(scale, items, var, first, counts, alpha, order)


# --- learning ---------------------------------------------------------------


class _LiveLeaf:
    """Mutable leaf bookkeeping during search."""

    __slots__ = ("target", "node", "users", "path", "score", "table")

    def __init__(self, target: int, node: int, users, path, score, table):
        self.target = target
        self.node = node  # its node number in the model's arrays
        self.users = users
        self.path = path  # boolean mask of the split variables above this leaf
        self.score = score
        self.table = table  # the users' pair counts (`_pair_counts`); None once spent


def _pair_counts(
    X: sp.csr_matrix, target_states: np.ndarray, users: np.ndarray, r: int
) -> np.ndarray:
    """Contingency tables of every candidate variable against the target.

    `X` is the database's `vote_states` encoding and `target_states` every
    user's state of the target item. Returns (items, r, r) counts:
    counts[s, a, b] is the number of `users` (sorted positions) whose item s
    is in state a while the target is in state b. Only the users' recorded
    votes are visited; the no-vote row a = 0 is the target's state totals
    minus the vote rows. The dtype is the smallest signed integer type that
    holds the number of users, since the search keeps a table per live leaf.
    """
    items = X.shape[1] // (r - 1)
    starts = X.indptr[users]
    lens = X.indptr[users + 1] - starts
    # positions of the users' nonzeros: each row's run of starts[k] + 0..lens[k]-1
    pos = np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
    tstate = target_states[users]
    codes = X.indices[pos].astype(np.int64) * r + np.repeat(tstate, lens)
    votes = np.bincount(codes, minlength=items * (r - 1) * r).reshape(items, r - 1, r)
    counts = np.empty((items, r, r), dtype=np.min_scalar_type(-len(target_states) - 1))
    counts[:, 1:] = votes
    counts[:, 0] = np.bincount(tstate, minlength=r)[None, :] - votes.sum(axis=1)
    return counts


def _split_tables(
    X: sp.csr_matrix, table: np.ndarray, target_states: np.ndarray,
    users: np.ndarray, split_states: np.ndarray, svar: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Partition a leaf on item `svar`: per state a, the users whose
    `split_states` (every user's state of svar) is a, their target-state
    counts and their pair-count table.

    The counts are row [svar, a] of the leaf's `table`. Only the smaller
    children are counted with `_pair_counts`; the largest child's table is
    `table` minus theirs, computed in place, so `table` is spent.
    """
    r = table.shape[1]
    sub = split_states[users]
    parts = [users[sub == a] for a in range(r)]
    counts = [table[svar, a].astype(float) for a in range(r)]
    largest = max(range(r), key=lambda a: len(parts[a]))
    tables: list = [None] * r
    for a in range(r):
        if a != largest:
            tables[a] = _pair_counts(X, target_states, parts[a], r)
            table -= tables[a]
    tables[largest] = table
    return list(zip(parts, counts, tables))


def _family_scores(
    tables: np.ndarray, lg_alpha: np.ndarray, lg_total: np.ndarray, penalty: float
) -> np.ndarray:
    """Score of splitting a leaf on each candidate variable, vectorized.

    `tables` is (items, r_parent, r_target); each row of a table is one child
    leaf's counts under pseudo-counts alpha_child per state. `lg_alpha[k]` is
    gammaln(alpha_child + k) and `lg_total[k]` gammaln(r_target * alpha_child
    + k), looked up instead of computed per cell.
    """
    r = tables.shape[2]
    child = (
        lg_total[0]
        - lg_total[tables.sum(axis=2)]
        + (lg_alpha[tables] - lg_alpha[0]).sum(axis=2)
        + (r - 1) * math.log(penalty)
    )
    return child.sum(axis=1)


class _Constraints:
    """Which split variables keep the parent graph acyclic, maintained edge
    by edge.

    `reach[a, b]` is True when b is reachable from a along parent -> child
    edges; every item reaches itself.
    """

    def __init__(self, t: int) -> None:
        self.reach = np.eye(t, dtype=bool)

    def add_edge(self, parent: int, child: int) -> None:
        if self.reach[child, parent]:
            raise RuntimeError("parent graph must stay acyclic")
        # everything that reaches the parent now reaches all the child reaches
        self.reach[self.reach[:, parent]] |= self.reach[child]

    def invalid(self, target: int, path: np.ndarray) -> np.ndarray:
        """Mask of the variables a leaf of `target` on `path` may not split on:
        the target, its path, and any variable an edge from which would close
        a cycle."""
        return self.reach[target] | path


def learn_network(db: VoteDatabase, cfg: LearnConfig) -> BayesNetModel:
    """Greedy global search over leaf splits, best improvement first.

    Deterministic: ties between equal score gains break on (target item id,
    leaf creation order, split variable id). Every accepted split is checked
    to match its scored gain, to keep the total score from decreasing and to
    keep the parent graph acyclic; a failed check raises RuntimeError.
    """
    if not db.users:
        raise ValueError("empty database")
    idx = db.index
    scale = db.scale
    n, t = len(db.users), len(db.items)
    r = scale.num_states
    penalty = cfg.structure_penalty
    log_penalty = math.log(penalty)
    ess = cfg.equivalent_sample_size

    X = idx.vote_states
    # states[:, j]: every user's state of item j, no-vote 0
    states = np.zeros((n, t), dtype=np.uint8, order="F")
    cols = X.indices
    states[np.repeat(np.arange(n), np.diff(X.indptr)), cols // (r - 1)] = cols % (r - 1) + 1

    id_rank = idx.item_sort_rank
    constraints = _Constraints(t)
    # the model's node arrays, grown as leaves split (see BayesNetModel)
    var, first, order = [-1] * t, list(range(t)), [0] * t
    counts: list[np.ndarray] = []
    alphas: list[np.ndarray] = []
    next_order = [1] * t
    total_score = 0.0
    heap: list = []
    seq = 0
    # per child pseudo-count alpha: gammaln(alpha + k) and gammaln(r * alpha + k)
    # for every count k a table can hold
    lgamma: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def lookups(alpha: float) -> tuple[np.ndarray, np.ndarray]:
        if alpha not in lgamma:
            k = np.arange(n + 1)
            lgamma[alpha] = gammaln(alpha + k), gammaln(alpha * r + k)
        return lgamma[alpha]

    def best_candidate(leaf: _LiveLeaf):
        # only the variables the constraints leave open are scored
        open_vars = np.flatnonzero(~constraints.invalid(leaf.target, leaf.path))
        if len(open_vars):
            alpha = float(alphas[leaf.node][0]) / r
            deltas = _family_scores(leaf.table[open_vars], *lookups(alpha), penalty) - leaf.score
            best = deltas.max()
            if best > 0.0:
                # the largest gain, ties to the lowest item id
                tied = open_vars[deltas == best]
                return float(best), int(tied[np.argmin(id_rank[tied])])
        leaf.table = None  # constraints only tighten: the leaf is final
        return None

    def push_candidate(leaf: _LiveLeaf):
        nonlocal seq
        cand = best_candidate(leaf)
        if cand is None:
            return
        delta, svar = cand
        seq += 1
        heapq.heappush(
            heap,
            (-delta, int(id_rank[leaf.target]), order[leaf.node], int(id_rank[svar]), seq, leaf, svar),
        )

    all_users = np.arange(n)
    no_path = np.zeros(t, dtype=bool)
    for j in range(t):
        counts.append(np.bincount(states[:, j], minlength=r).astype(float))
        alphas.append(np.full(r, ess / r))
        live = _LiveLeaf(
            target=j, node=j, users=all_users, path=no_path,
            score=_leaf_score(counts[j], alphas[j], log_penalty),
            table=_pair_counts(X, states[:, j], all_users, r),
        )
        total_score += live.score
        push_candidate(live)

    while heap:
        # a leaf has at most one heap entry: pushed when created or rescored
        neg_delta, _, _, _, _, leaf, svar = heapq.heappop(heap)
        if constraints.invalid(leaf.target, leaf.path)[svar]:
            push_candidate(leaf)  # constraints tightened since scoring; rescore
            continue
        delta = -neg_delta
        j = leaf.target
        children = _split_tables(X, leaf.table, states[:, j], leaf.users, states[:, svar], svar)
        leaf.table = None
        # the leaf becomes a split whose children are appended in state order
        var[leaf.node], first[leaf.node] = svar, len(var)
        child_alpha = alphas[leaf.node] / r
        child_path = leaf.path.copy()
        child_path[svar] = True
        new_live = []
        for users_a, counts_a, table_a in children:
            new_live.append(
                _LiveLeaf(
                    target=j, node=len(var), users=users_a, path=child_path,
                    score=_leaf_score(counts_a, child_alpha, log_penalty),
                    table=table_a,
                )
            )
            var.append(-1)
            first.append(len(first))
            counts.append(counts_a)
            alphas.append(child_alpha)
            order.append(next_order[j])
            next_order[j] += 1
        constraints.add_edge(svar, j)
        new_total = total_score + delta
        gain = sum(nl.score for nl in new_live) - leaf.score
        if not abs(gain - delta) < 1e-6:
            raise RuntimeError(f"accepted split gains {gain!r}, scored {delta!r}")
        if not new_total >= total_score:
            raise RuntimeError("total score must not decrease")
        total_score = new_total
        for nl in new_live:
            push_candidate(nl)

    return BayesNetModel(scale, db.items, var, first, counts, alphas, order)
