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
through them, and the model file holds them as they are.

Each live leaf keeps a table of pair counts, [a, b, s] = its users with item
s in state a and the target in state b, so that score sums run over
contiguous rows of candidates; closed candidates are scored, then ruled out.
The search numbers items by id, so the first of equal gains is the lowest
id. A split's children share target, path and pseudo-count: one call scores
them all, and one mask row rules out their closed candidates. A leaf without
users is never scored: its r children would score (r-1) ln p each, against
its own (r-1) ln p, a gain of (r-1)^2 ln p < 0. Scores read lookup tables of
`gammaln` differences built once per pseudo-count (`_lookups`). Root tables
are cut, a few targets at a time, from integer co-vote products of the vote
encoding that each cover several such chunks.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln

from .votedata import VoteDatabase, VoteScale


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


class BayesNetModel:
    """A network of per-item decision trees, held as flat node arrays.

    Node j < len(items) is item j's root, and every other node is the child
    of one split, after it. Split node n tests item position `var[n]`, and
    its child for state a is node `first[n] + a`. A leaf has `var` -1 and
    `first` itself, so routing past it stays put, and a row of target
    `counts`, pseudo-counts `alpha` and a creation `order` in its tree. Any
    other arrays raise ValueError. The model numbers the nodes breadth first
    and keeps zero rows and order -1 at splits, so that its arrays do not
    depend on the order they were grown in. `tree` is each node's item
    position, and per leaf `score` is its ranking score and `expected` its
    expected vote (NaN at splits), each computed once here.
    """

    ARRAYS = ("var", "first", "counts", "alpha", "order")  # in the constructor's order

    def __init__(self, scale: VoteScale, items, var, first, counts, alpha, order) -> None:
        self.scale = scale
        self.items = tuple(items)
        r, t = scale.num_states, len(self.items)
        var, first = np.asarray(var, dtype=np.intp), np.asarray(first, dtype=np.intp)
        counts, alpha = np.asarray(counts, dtype=float), np.asarray(alpha, dtype=float)
        order = np.asarray(order, dtype=np.intp)
        nodes = np.arange(var.size)
        if not (var.shape == first.shape == order.shape == nodes.shape
                and counts.shape == alpha.shape == (var.size, r) and var.size >= t):
            raise ValueError(f"a model needs a root per item, and per node one entry "
                             f"of each array and {r} counts and pseudo-counts")
        splits = var >= 0
        kids = (first[splits, None] + np.arange(r)).ravel()
        if not ((var >= -1).all() and (var < t).all()
                and (first[~splits] == nodes[~splits]).all()
                and (first[splits] > nodes[splits]).all() and (kids < var.size).all()
                and np.array_equal(np.bincount(kids, minlength=var.size), nodes >= t)):
            raise ValueError("a node must be a leaf or a split on a model item, and "
                             "every node but the roots the child of one split, after it")
        # the trees a level at a time, from the roots down: every node once
        old, tree = [np.arange(t)], [np.arange(t)]
        while len(old[-1]):
            split = splits[old[-1]]
            old.append((first[old[-1][split], None] + np.arange(r)).ravel())
            tree.append(np.repeat(tree[-1][split], r))
        self.depth = max(len(old) - 2, 0)
        old, self.tree = np.concatenate(old), np.concatenate(tree)
        leaves = ~splits[old]
        self.var, self.first = var[old], np.argsort(old)[first[old]]
        self.counts = np.where(leaves[:, None], counts[old], 0.0)
        self.alpha = np.where(leaves[:, None], alpha[old], 0.0)
        self.order = np.where(leaves, order[old], -1)
        counts, alpha = self.counts[leaves], self.alpha[leaves]
        total = counts + alpha
        if not ((counts >= 0).all() and (alpha > 0).all() and np.isfinite(total).all()):
            raise ValueError("a leaf needs finite counts >= 0 and finite pseudo-counts > 0")
        dist = total / total.sum(axis=1, keepdims=True)
        self.score = np.full(len(self.var), math.nan)
        self.expected = np.full(len(self.var), math.nan)
        self.score[leaves] = scale.rank_score(dist)
        self.expected[leaves] = scale.expected_vote(dist)
        # the parent graph's edges (parent, child), each once, by parent: an
        # item is ordered once all its parents are, and a cycle never is
        edges = np.unique(self.var[~leaves] * t + self.tree[~leaves])
        parent, child = np.divmod(edges, t)
        waiting = np.bincount(child, minlength=t).tolist()
        starts = np.searchsorted(parent, np.arange(t + 1)).tolist()
        child = child.tolist()
        ordered = [k for k in range(t) if not waiting[k]]
        for k in ordered:  # grows as items are ordered
            for c in child[starts[k]:starts[k + 1]]:
                waiting[c] -= 1
                if not waiting[c]:
                    ordered.append(c)
        if len(ordered) < t:
            raise ValueError("parent graph must be acyclic")

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

    def structure_stats(self) -> dict:
        """Learned-structure summary: parent and leaf counts per item."""
        t = len(self.items)
        splits = self.var >= 0
        edges = np.unique(self.tree[splits] * t + self.var[splits])
        parent_counts = np.bincount(edges // t, minlength=t)
        leaf_counts = np.bincount(self.tree[~splits], minlength=t)
        return {
            "items": t,
            "mean_parents": float(np.mean(parent_counts)),
            "max_parents": int(parent_counts.max()),
            "mean_leaves": float(np.mean(leaf_counts)),
            "max_leaves": int(leaf_counts.max()),
        }

    def to_json(self) -> dict:
        """The model file: the scale, the items and the node arrays."""
        return {"version": 2, "kind": "bayesnet_model", "scale": self.scale.to_json(),
                "items": list(self.items),
                **{key: getattr(self, key).tolist() for key in self.ARRAYS}}

    @classmethod
    def from_json(cls, obj: Mapping) -> "BayesNetModel":
        """The model of a file that `to_json` wrote; the constructor checks
        its arrays, and a file of another version raises ValueError."""
        if obj["version"] != 2:
            raise ValueError(f"a BN model file of version {obj['version']!r}, not 2")
        return cls(VoteScale.from_json(obj["scale"]), obj["items"],
                   *(obj[key] for key in cls.ARRAYS))


# --- learning ---------------------------------------------------------------

# Root tables are scored at most this many table cells at a time, cut from
# co-vote products of at most this many dense cells each.
_ROOT_CELLS = 1 << 14
_PRODUCT_CELLS = 1 << 15


@dataclass(slots=True, eq=False)
class _LiveLeaf:
    """Mutable leaf bookkeeping during search; items are numbered by id, as
    the search numbers them."""

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
    state totals, at most `_ROOT_CELLS` cells at a time. The vote cells are
    co-vote counts `X.T @ X` in the tables' integer type, each product
    covering whole chunks of targets in at most `_PRODUCT_CELLS` dense cells;
    the no-vote row and column are totals minus the vote cells."""
    r = target_totals.shape[1]
    items = X.shape[1] // (r - 1)
    voters = np.bincount(X.indices, minlength=X.shape[1]).reshape(items, r - 1).T
    step = max(1, _ROOT_CELLS // (r * r * items))
    block = step * max(1, _PRODUCT_CELLS // (step * (r - 1) ** 2 * items))
    # integer products over column slices of a CSC copy take less time and
    # memory than float products over CSR column selections
    Y = X.astype(dtype)
    Y_cols = Y.tocsc()
    for p0 in range(0, items, block):
        pk = min(block, items - p0)
        co = (Y.T @ Y_cols[:, p0 * (r - 1):(p0 + pk) * (r - 1)]).toarray()
        co = co.reshape(items, r - 1, pk, r - 1).transpose(2, 1, 3, 0)
        for j0 in range(p0, p0 + pk, step):
            k = min(step, p0 + pk - j0)
            tables = np.empty((k, r, r, items), dtype=dtype)
            tables[:, 1:, 1:] = co[j0 - p0:j0 - p0 + k]
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
    counts = table[:, :, svar].copy()
    sizes = counts.sum(axis=1).tolist()
    largest = sizes.index(max(sizes))
    sub = split_states[users]
    parts, tables = [], [None] * r
    for a, size in enumerate(sizes):
        # a child with all or none of the users takes no pass over them
        parts.append(users[sub == a] if 0 < size < len(users) else users[:size])
        if size and a != largest:
            tables[a] = _pair_counts(X, target_states, parts[a], r)
            table -= tables[a]
    tables[largest] = table
    return list(zip(parts, counts, tables))


def _lookups(alpha: float, r: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score terms of an r-state leaf under pseudo-count `alpha` per state,
    for every count k = 0..n a table can hold: gammaln(alpha + k) -
    gammaln(alpha), gammaln(r alpha) - gammaln(r alpha + k), and the latter
    at the prior total summed state by state (which can differ from r * alpha
    in the last bit). Built once per pseudo-count, so that no score calls
    `gammaln` per cell."""
    k = np.arange(n + 1)
    total = np.full(r, alpha).sum()
    cell = gammaln(alpha + k) - gammaln(alpha)
    family = gammaln(alpha * r) - gammaln(alpha * r + k)
    leaf = family if total == alpha * r else gammaln(total) - gammaln(total + k)
    return cell, family, leaf


def _family_scores(
    tables: np.ndarray, cell: np.ndarray, family: np.ndarray, penalty: float
) -> np.ndarray:
    """Score of splitting leaves on each candidate variable, vectorized.

    `tables` is (..., r_parent, r_target, items) in `_pair_counts`' layout;
    each [a, :, s] column is one child leaf's counts under the pseudo-count
    whose `_lookups` are `cell` and `family`. Returns (..., items). Both
    state sums add in state order; the one over target states goes a state
    at a time, so that no float temporary is the size of the tables.
    """
    r = tables.shape[-2]
    cells = cell[tables[..., 0, :]]
    for b in range(1, r):
        cells += cell[tables[..., b, :]]
    child = family[tables.sum(axis=-2)]
    child += cells
    child += (r - 1) * math.log(penalty)
    return child.sum(axis=-2)


def _leaf_scores(
    counts: np.ndarray, cell: np.ndarray, leaf: np.ndarray, log_penalty: float
) -> np.ndarray:
    """The score of a leaf with each row of integer `counts`: the log of the
    closed-form marginal likelihood of the counts under the rows'
    pseudo-count prior, whose `_lookups` are `cell` and `leaf`, plus
    `log_penalty` per free parameter (states - 1)."""
    return leaf[counts.sum(axis=-1)] + cell[counts].sum(axis=-1) + (counts.shape[-1] - 1) * log_penalty


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
        # everything that reaches the parent now reaches all the child
        # reaches; what already reaches the child already does
        rows = (self.reach[:, parent] > self.reach[:, child]).nonzero()[0]
        self.reach[rows] |= self.reach[child]

    def invalid(self, target: int, path: np.ndarray) -> np.ndarray:
        """Mask of the variables a leaf of `target` on `path` may not split on:
        the target, its path, and any variable an edge from which would close
        a cycle."""
        return self.reach[target] | path

    def closed(self, target: int, path: np.ndarray, var: int) -> bool:
        """`invalid(target, path)[var]`, in two scalar reads."""
        return bool(self.reach[target, var] or path[var])


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

    # The search numbers items by id (item k is the k-th id, at model
    # position by_id[k]), so that the first of equal gains is the lowest id.
    id_rank = idx.item_sort_rank
    by_id = np.argsort(id_rank)
    X = idx.vote_states
    X = sp.csr_matrix(
        (X.data, (id_rank[:, None] * (r - 1) + np.arange(r - 1)).ravel()[X.indices], X.indptr),
        shape=X.shape,
    )
    # states[:, j]: every user's state of item j, no-vote 0
    states = np.zeros((n, t), dtype=np.uint8, order="F")
    cols = X.indices
    states[np.repeat(np.arange(n), np.diff(X.indptr)), cols // (r - 1)] = cols % (r - 1) + 1

    constraints = _Constraints(t)
    # the model's node arrays, grown as leaves split (see BayesNetModel):
    # item k's root is node by_id[k]; `counts` holds a block of rows per
    # split, and `alphas` each node's pseudo-count per state
    var, first, order = [-1] * t, list(range(t)), [0] * t
    alphas = [ess / r] * t
    next_order = [1] * t
    total_score = 0.0
    heap: list = []
    lookup = functools.cache(lambda alpha: _lookups(alpha, r, n))  # by child pseudo-count

    def push_candidates(leaves: list[_LiveLeaf], tables: np.ndarray, closed: np.ndarray) -> None:
        """Score leaves of one pseudo-count in one call, the variables
        `closed` (a row per leaf, or one for all) ruled out; push each one's
        best."""
        cell, family, _ = lookup(alphas[leaves[0].node] / r)
        gains = _family_scores(tables, cell, family, penalty)
        gains -= np.array([leaf.score for leaf in leaves])[:, None]
        # closed variables are scored too, then ruled out: selecting the open
        # ones would copy the tables with strides
        np.copyto(gains, -math.inf, where=closed)
        # the largest gain, ties to the lowest item id
        for leaf, row, svar in zip(leaves, gains, gains.argmax(axis=1).tolist()):
            delta = float(row[svar])
            if delta > 0.0:
                heapq.heappush(heap, (-delta, leaf.target, order[leaf.node], svar, leaf))
            else:
                leaf.table = None  # constraints only tighten: the leaf is final

    all_users = np.arange(n)
    no_path = np.zeros(t, dtype=bool)
    # every item's state totals: its votes per state, the rest no-vote
    totals = np.empty((t, r), dtype=np.intp)
    totals[:, 1:] = np.bincount(X.indices, minlength=X.shape[1]).reshape(t, r - 1)
    totals[:, 0] = n - totals[:, 1:].sum(axis=1)
    counts = [totals[id_rank]]
    cell, _, leaf_terms = lookup(ess / r)
    root_scores = _leaf_scores(totals, cell, leaf_terms, log_penalty).tolist()
    for j0, tables in _root_tables(X, totals, np.min_scalar_type(-n - 1)):
        roots = []
        for j in range(j0, j0 + len(tables)):
            # a copy, so that the chunk is freed once scored
            roots.append(_LiveLeaf(j, int(by_id[j]), all_users, no_path, root_scores[j],
                                   tables[j - j0].copy()))
            total_score += root_scores[j]
        # a root may split on any item but its own
        push_candidates(roots, tables, constraints.reach[j0:j0 + len(tables)])

    while heap:
        # a leaf has at most one heap entry (pushed when created or rescored),
        # so no two keys tie on (target, order) and leaves are never compared
        neg_delta, j, _, svar, leaf = heapq.heappop(heap)
        if constraints.closed(j, leaf.path, svar):
            # constraints tightened since scoring; rescore
            push_candidates([leaf], leaf.table[None], constraints.invalid(j, leaf.path))
            continue
        delta = -neg_delta
        children = _split_tables(X, leaf.table, states[:, j], leaf.users, states[:, svar], svar)
        leaf.table = None
        # the leaf becomes a split whose children are appended in state order
        var[leaf.node], first[leaf.node] = int(by_id[svar]), len(var)
        child_alpha = alphas[leaf.node] / r
        child_path = leaf.path.copy()
        child_path[svar] = True
        new_live = []
        cell, _, leaf_terms = lookup(child_alpha)
        counts.append(np.array([c for _, c, _ in children]))
        child_scores = _leaf_scores(counts[-1], cell, leaf_terms, log_penalty)
        for (users_a, _, table_a), score in zip(children, child_scores.tolist()):
            new_live.append(_LiveLeaf(j, len(var), users_a, child_path, score, table_a))
            var.append(-1)
            first.append(len(first))
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
        # the children share target and path: one mask row serves them all
        push_candidates(scored, np.array([nl.table for nl in scored]), constraints.invalid(j, child_path))

    alphas = np.repeat(np.array(alphas)[:, None], r, axis=1)
    return BayesNetModel(scale, db.items, var, first, np.concatenate(counts), alphas, order)
