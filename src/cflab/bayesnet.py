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

Each live leaf keeps a table of pair counts, [a, b, s] = its users with item
s in state a and the target in state b, so that score sums run over
contiguous rows of candidates; closed candidates are scored, then ruled out.
A split's children share target, path and pseudo-count: one call scores them
all. A leaf without users is never scored: its r children would score
(r-1) ln p each, against its own (r-1) ln p, a gain of (r-1)^2 ln p < 0.
Root tables come from the co-vote product of the vote encoding, in chunks.
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
    return float(_leaf_score(n, a, math.log(structure_penalty)))


def _leaf_score(n: np.ndarray, a: np.ndarray, log_penalty: float):
    """`leaf_family_score` of each row of valid float counts `n`."""
    a_total = a.sum(axis=-1)  # not len(a) * alpha, which can differ in the last bit
    lg = gammaln(a_total) - gammaln(a_total + n.sum(axis=-1))
    return lg + (gammaln(a + n) - gammaln(a)).sum(axis=-1) + (n.shape[-1] - 1) * log_penalty


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

    def route(
        self, n: int, rows: np.ndarray, cols: np.ndarray, states: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """n cases whose observed votes are (case row, item position, state)
        triples, their unobserved items at no-vote: a row per case of every
        item's leaf, whether an observed vote steered that item's path, and
        the mask of observed items. One numpy step moves every case's items
        down a level."""
        t = len(self.items)
        # column t (reached through var -1) is a no-vote, unobserved sentinel
        state = np.zeros((n, t + 1), dtype=np.intp)
        seen = np.zeros((n, t + 1), dtype=bool)
        state[rows, cols] = states
        seen[rows, cols] = True
        # a row's split items, as indices into the flattened arrays
        offset = np.arange(0, seen.size, t + 1)[:, None]
        node = np.tile(np.arange(t), (n, 1))
        influenced = np.zeros((n, t), dtype=bool)
        for _ in range(self.depth):
            var = self.var[node] + offset
            influenced |= seen.ravel()[var]
            node = self.first[node] + state.ravel()[var]
        return node, influenced, seen[:, :t]

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

# Root tables are built and scored at most this many table cells at a time.
_ROOT_CELLS = 1 << 14


@dataclass(slots=True, eq=False)
class _LiveLeaf:
    """Mutable leaf bookkeeping during search."""

    target: int
    node: int  # its node number in the model's arrays
    users: np.ndarray
    path: np.ndarray  # boolean mask of the split variables above this leaf
    score: float
    table: np.ndarray | None  # the users' pair counts (`_pair_counts`); None once spent


def _pair_counts(
    X: sp.csr_matrix, target_states: np.ndarray, users: np.ndarray, r: int
) -> np.ndarray:
    """Contingency tables of every candidate variable against the target.

    `X` is the database's `vote_states` encoding and `target_states` every
    user's state of the target item. Returns (r, r, items) counts:
    counts[a, b, s] is the number of `users` (sorted positions) whose item s
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
    cols = X.indices[pos]
    codes = ((cols % (r - 1)) * r + np.repeat(tstate, lens)) * items + cols // (r - 1)
    counts = np.empty((r, r, items), dtype=np.min_scalar_type(-len(target_states) - 1))
    counts[1:] = np.bincount(codes, minlength=(r - 1) * r * items).reshape(r - 1, r, items)
    counts[0] = np.bincount(tstate, minlength=r)[:, None] - counts[1:].sum(axis=0)
    return counts


def _root_tables(X: sp.csr_matrix, target_totals: np.ndarray, dtype):
    """Yields (first target, (targets, r, r, items) tables): every item's
    `_pair_counts` table over all users, given `target_totals[j]`, item j's
    state totals. The vote cells are co-vote counts `X.T @ X`, exact in float;
    the no-vote row and column are totals minus the vote cells."""
    r = target_totals.shape[1]
    items = X.shape[1] // (r - 1)
    voters = np.bincount(X.indices, minlength=X.shape[1]).reshape(items, r - 1).T
    step = max(1, _ROOT_CELLS // (r * r * items))
    for j0 in range(0, items, step):
        k = min(step, items - j0)
        co = (X.T @ X[:, j0 * (r - 1):(j0 + k) * (r - 1)]).toarray()
        tables = np.empty((k, r, r, items), dtype=dtype)
        tables[:, 1:, 1:] = co.reshape(items, r - 1, k, r - 1).transpose(2, 1, 3, 0)
        tables[:, 1:, 0] = voters - tables[:, 1:, 1:].sum(axis=2)
        tables[:, 0] = target_totals[j0:j0 + k, :, None] - tables[:, 1:].sum(axis=1)
        yield j0, tables


def _split_tables(
    X: sp.csr_matrix, table: np.ndarray, target_states: np.ndarray,
    users: np.ndarray, split_states: np.ndarray, svar: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """Partition a leaf on item `svar`: per state a, the users whose
    `split_states` (every user's state of svar) is a, their target-state
    counts and their pair-count table, None for a child with no users.

    The counts are row a of the leaf's `table[:, :, svar]`. Only the smaller
    children are counted with `_pair_counts`; the largest child's table is
    `table` minus theirs, computed in place, so `table` is spent.
    """
    r = table.shape[0]
    counts = table[:, :, svar].astype(float)
    sizes = table[:, :, svar].sum(axis=1)
    sub = split_states[users]
    # a child with all or none of the users takes no pass over them
    parts = [users[sub == a] if 0 < size < len(users) else users[:size] for a, size in enumerate(sizes)]
    largest = int(np.argmax(sizes))
    tables: list = [None] * r
    for a in np.flatnonzero(sizes):
        if a != largest:
            tables[a] = _pair_counts(X, target_states, parts[a], r)
            table -= tables[a]
    tables[largest] = table
    return list(zip(parts, counts, tables))


def _family_scores(
    tables: np.ndarray, lg_alpha: np.ndarray, lg_total: np.ndarray, penalty: float
) -> np.ndarray:
    """Score of splitting leaves on each candidate variable, vectorized.

    `tables` is (..., r_parent, r_target, items) in `_pair_counts`' layout;
    each [a, :, s] column is one child leaf's counts under pseudo-counts
    alpha_child per state. `lg_alpha[k]` is gammaln(alpha_child + k) and
    `lg_total[k]` gammaln(r_target * alpha_child + k), looked up instead of
    computed per cell. Returns (..., items). Both state sums add in state
    order; the one over target states goes a state at a time, so that no
    float temporary is the size of the tables.
    """
    r = tables.shape[-2]
    n = tables[..., 0, :].astype(np.intp)
    cells = lg_alpha[n] - lg_alpha[0]
    for b in range(1, r):
        n += tables[..., b, :]
        cells += lg_alpha[tables[..., b, :]] - lg_alpha[0]
    child = lg_total[0] - lg_total[n] + cells + (r - 1) * math.log(penalty)
    return child.sum(axis=-2)


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
    # per child pseudo-count alpha: gammaln(alpha + k) and gammaln(r * alpha + k)
    # for every count k a table can hold
    lgamma: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def lookups(alpha: float) -> tuple[np.ndarray, np.ndarray]:
        if alpha not in lgamma:
            k = np.arange(n + 1)
            lgamma[alpha] = gammaln(alpha + k), gammaln(alpha * r + k)
        return lgamma[alpha]

    def push_candidates(leaves: list[_LiveLeaf], tables: np.ndarray) -> None:
        """Score leaves of one pseudo-count in one call; push each one's best."""
        alpha = float(alphas[leaves[0].node][0]) / r
        gains = _family_scores(tables, *lookups(alpha), penalty)
        gains -= np.array([leaf.score for leaf in leaves])[:, None]
        # closed variables are scored too, then ruled out: selecting the open
        # ones would copy the tables with strides
        gains[np.array([constraints.invalid(leaf.target, leaf.path) for leaf in leaves])] = -math.inf
        best = gains.max(axis=1)
        # the largest gain, ties to the lowest item id
        svars = np.where(gains == best[:, None], id_rank, t).argmin(axis=1)
        for leaf, delta, svar in zip(leaves, best.tolist(), svars.tolist()):
            if delta > 0.0:
                heapq.heappush(
                    heap,
                    (-delta, int(id_rank[leaf.target]), order[leaf.node], int(id_rank[svar]), leaf, svar),
                )
            else:
                leaf.table = None  # constraints only tighten: the leaf is final

    all_users = np.arange(n)
    no_path = np.zeros(t, dtype=bool)
    totals = np.stack([np.bincount(states[:, j], minlength=r) for j in range(t)])
    counts.extend(totals.astype(float))
    alphas.extend([np.full(r, ess / r)] * t)
    root_scores = _leaf_score(np.array(counts), alphas[0], log_penalty).tolist()
    for j0, tables in _root_tables(X, totals, np.min_scalar_type(-n - 1)):
        roots = []
        for j in range(j0, j0 + len(tables)):
            # a copy, so that the chunk is freed once scored
            roots.append(_LiveLeaf(j, j, all_users, no_path, root_scores[j], tables[j - j0].copy()))
            total_score += root_scores[j]
        push_candidates(roots, tables)

    while heap:
        # a leaf has at most one heap entry (pushed when created or rescored),
        # so no two keys tie on (target, order) and leaves are never compared
        neg_delta, _, _, _, leaf, svar = heapq.heappop(heap)
        if constraints.invalid(leaf.target, leaf.path)[svar]:
            push_candidates([leaf], leaf.table[None])  # constraints tightened since scoring; rescore
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
        child_scores = _leaf_score(np.array([c for _, c, _ in children]), child_alpha, log_penalty)
        for (users_a, counts_a, table_a), score in zip(children, child_scores.tolist()):
            new_live.append(_LiveLeaf(j, len(var), users_a, child_path, score, table_a))
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
        # a leaf without users cannot gain (module docstring): final, unscored
        scored = [nl for nl in new_live if nl.table is not None]
        push_candidates(scored, np.stack([nl.table for nl in scored]))

    return BayesNetModel(scale, db.items, var, first, counts, alphas, order)
