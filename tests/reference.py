"""Slow, literal reference implementations used as test oracles.

Everything here recomputes results from the definitions with plain Python
loops and dense structures, on purpose along different algebraic paths than
the library (centered means instead of expanded sums, explicit enumeration
instead of closed forms), so agreement is meaningful.
"""

import collections
import heapq
import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln, logsumexp

from cflab.bayesnet import BayesNetModel
from cflab.cluster import ClusterModel, map_estimates
from cflab.votedata import VoteDataError


def state_of(scale, vote):
    """One vote's state index on `scale`, None (no-vote) being state 0; a
    vote that is not a vote value raises VoteDataError naming it."""
    if vote is None:
        return 0
    for state, value in enumerate(scale.vote_values, start=1):
        if abs(vote - value) <= 1e-9:
            return state
    raise VoteDataError(f"vote {float(vote)!r} is not a vote value on this scale")


def lexsort_ranked(index, observed, *keys):
    """The items of `index` outside `observed`, in `np.lexsort` order of
    `keys` (the last key is the primary one), ties to the lower item id."""
    skip = np.zeros(len(index.item_ids), dtype=bool)
    skip[[index.item_pos[it] for it in observed if it in index.item_pos]] = True
    order = np.lexsort((index.item_sort_rank, *keys))
    return index.item_array[order[~skip[order]]].tolist()


def _iuf_map(db):
    n = len(db.users)
    counts = {it: 0 for it in db.items}
    for _, it, _ in db.iter_votes():
        counts[it] += 1
    return {it: (math.log(n / c) if c else 0.0) for it, c in counts.items()}


def _weighted_pearson(pairs):
    """pairs: list of (a, b, f). Centered weighted correlation."""
    sf = sum(f for _, _, f in pairs)
    if sf <= 0:
        return 0.0
    ma = sum(f * a for a, _, f in pairs) / sf
    mb = sum(f * b for _, b, f in pairs) / sf
    cov = sum(f * (a - ma) * (b - mb) for a, b, f in pairs)
    va = sum(f * (a - ma) ** 2 for a, _, f in pairs)
    vb = sum(f * (b - mb) ** 2 for _, b, f in pairs)
    # round-off can leave ~1e-16 variance on mathematically constant vectors
    tol_a = 1e-10 * max(1.0, sum(f * a * a for a, _, f in pairs))
    tol_b = 1e-10 * max(1.0, sum(f * b * b for _, b, f in pairs))
    if va <= tol_a or vb <= tol_b:
        return 0.0
    # and ~1e-17 covariance on uncorrelated ones
    if abs(cov) <= math.sqrt(tol_a * tol_b):
        return 0.0
    return max(-1.0, min(1.0, cov / math.sqrt(va * vb)))


def brute_weight(a_votes, b_votes, db, cfg):
    """Neighbor weight computed literally from dense vote dictionaries."""
    f = _iuf_map(db) if cfg.inverse_user_frequency else {it: 1.0 for it in db.items}
    a_votes = {it: v for it, v in a_votes.items() if it in f}
    if cfg.weight_kind == "vector_similarity":
        norm_a = math.sqrt(sum((f[it] * v) ** 2 for it, v in a_votes.items()))
        norm_b = math.sqrt(sum((f[it] * v) ** 2 for it, v in b_votes.items()))
        if norm_a == 0 or norm_b == 0:
            return 0.0
        dot = sum(
            (f[it] * v) * (f[it] * b_votes[it])
            for it, v in a_votes.items() if it in b_votes
        )
        return dot / (norm_a * norm_b)
    dv = cfg.default_voting
    common = set(a_votes) & set(b_votes)
    if dv is None:
        if len(common) < 2:
            return None
        pairs = [(a_votes[it], b_votes[it], f[it]) for it in common]
    else:
        if len(common) < 1:
            return None
        d = dv.d
        if d is None:
            d = 0.0 if db.scale.implicit else db.scale.neutral
        pairs = [
            (a_votes.get(it, d), b_votes.get(it, d), f[it])
            for it in set(a_votes) | set(b_votes)
        ]
        pairs.extend((d, d, 1.0) for _ in range(dv.k))  # synthetic agreed items
    return _weighted_pearson(pairs)


def brute_predict(case, item, db, cfg):
    """Weighted-deviation prediction built from per-user dense loops."""
    base = sum(case.observed.values()) / len(case.observed)
    dv = cfg.default_voting
    d = None
    if dv is not None:
        d = dv.d if dv.d is not None else (0.0 if db.scale.implicit else db.scale.neutral)
    terms = []
    for u in db.users:
        if u == case.user:
            continue
        w = brute_weight(case.observed, db.votes[u], db, cfg)
        if w is None or w == 0.0:
            continue
        if cfg.case_amplification is not None:
            w = math.copysign(abs(w) ** cfg.case_amplification, w)
        vote = db.votes[u].get(item)
        if vote is None:
            if d is None:
                continue
            vote = d
        mean_u = sum(db.votes[u].values()) / len(db.votes[u])
        terms.append((w, vote - mean_u))
    if not terms:
        return base, False
    denom = sum(abs(w) for w, _ in terms)
    if denom == 0:
        return base, False
    value = base + sum(w * dev for w, dev in terms) / denom
    value = min(max(value, db.scale.min_vote), db.scale.max_vote)
    return value, True


def evidence_product_sums(indptr, cols, columns, *xs):
    """Per-user evidence sums as one scipy sparse product: an evidence matrix,
    a row per (x, case) holding the case's item columns in observed order
    (unsorted), times the transposed vote columns. A product row adds each
    user's terms in the row's order."""
    k, n, cases = len(xs), len(cols), len(indptr) - 1
    evidence = sp.csr_matrix(
        (np.concatenate(xs), np.tile(cols, k),
         np.concatenate([indptr[:-1] + i * n for i in range(k)] + [[k * n]])),
        shape=(k * cases, columns.shape[1]),
    )
    return list((evidence @ columns.T).toarray().reshape(k, cases, columns.shape[0]))


def brute_ranked_utility(ranked, actual, half_life, neutral):
    """Utility evaluated over the whole list, unvoted items at the neutral vote."""
    total = 0.0
    for j, item in enumerate(ranked, start=1):
        v = actual.get(item, neutral)
        total += max(v - neutral, 0.0) / 2 ** ((j - 1) / (half_life - 1))
    return total


def _log_dirichlet_multinomial(counts, alpha):
    """lgamma-based marginal of integer counts under a symmetric prior."""
    s = len(counts)
    total = sum(counts)
    out = math.lgamma(alpha * s) - math.lgamma(alpha * s + total)
    for c in counts:
        out += math.lgamma(alpha + c) - math.lgamma(alpha)
    return out


def exact_mixture_log_marginal(db, num_classes, prior_strength=1.0):
    """Exact log marginal likelihood by enumerating every class assignment."""
    scale = db.scale
    n = len(db.users)
    t = len(db.items)
    s = scale.num_states
    state = []
    for u in db.users:
        row = [0] * t
        for it, v in db.votes[u].items():
            row[db.items.index(it)] = state_of(scale, v)
        state.append(row)
    a_pi = prior_strength / num_classes
    a_s = prior_strength / s
    logs = []
    for assign in itertools.product(range(num_classes), repeat=n):
        class_counts = [0] * num_classes
        for z in assign:
            class_counts[z] += 1
        lp = _log_dirichlet_multinomial(class_counts, a_pi)
        for c in range(num_classes):
            members = [i for i, z in enumerate(assign) if z == c]
            for j in range(t):
                counts = [0] * s
                for i in members:
                    counts[state[i][j]] += 1
                lp += _log_dirichlet_multinomial(counts, a_s)
        logs.append(lp)
    m = max(logs)
    return m + math.log(sum(math.exp(x - m) for x in logs))


def leaf_family_score(counts, prior_counts, structure_penalty=1.0):
    """Log marginal likelihood of one leaf's counts plus its structure penalty.

    The marginal is the closed-form integral of the multinomial likelihood
    against the leaf's pseudo-count prior; the penalty charges
    ln(structure_penalty) per free parameter (states - 1). The prior total
    is the sum of the pseudo-counts, which can differ from states * alpha in
    the last bit.
    """
    n = np.asarray(counts, dtype=float)
    a = np.asarray(prior_counts, dtype=float)
    if n.shape != a.shape:
        raise ValueError("counts and prior counts must align")
    if (a <= 0).any():
        raise ValueError("prior counts must be positive")
    if (n < 0).any():
        raise ValueError("counts must be nonnegative")
    lg = gammaln(a.sum()) - gammaln(a.sum() + n.sum())
    return float(lg + (gammaln(a + n) - gammaln(a)).sum() + (len(n) - 1) * math.log(structure_penalty))


def dense_states(db):
    """users x items state matrix built vote by vote with `state_of`."""
    states = np.zeros((len(db.users), len(db.items)), dtype=np.uint8)
    for i, u in enumerate(db.users):
        for it, v in db.votes[u].items():
            states[i, db.items.index(it)] = state_of(db.scale, v)
    return states


def dense_pair_counts(states, users, t, r):
    """Contingency tables of every item against target t over `users`,
    from a dense gather of the users' full state rows plus one bincount."""
    sub = states[users]
    codes = sub.astype(np.int64) * r + sub[:, t][:, None]
    offs = np.arange(sub.shape[1], dtype=np.int64) * (r * r)
    flat = (codes + offs[None, :]).ravel()
    return np.bincount(flat, minlength=sub.shape[1] * r * r).reshape(sub.shape[1], r, r)


def learn_network_dense(db, cfg):
    """`bayesnet.learn_network`'s greedy search written plainly: each leaf's
    table is `dense_pair_counts` over its own users, each leaf is scored
    alone over the variables its constraints leave open (reach recomputed by
    `transitive_closure`), and the best gain is taken first, with the same
    tie rule. No table comes from a subtraction or a co-vote product, no
    scoring call is shared, and a leaf without users is scored like any
    other. The gains are computed as the library computes them, so that the
    models must agree bit for bit."""
    t, r = len(db.items), db.scale.num_states
    penalty = cfg.structure_penalty
    states = dense_states(db)
    rank = np.empty(t, dtype=int)
    rank[sorted(range(t), key=lambda j: db.items[j])] = np.arange(t)
    edges = set()
    var, first, counts, alphas, order = [], [], [], [], []
    next_order = [1] * t
    heap, leaves = [], []

    def add_leaf(target, users, path, alpha, leaf_order):
        """Append a leaf node; returns its leaf number."""
        c = np.bincount(states[users, target], minlength=r).astype(float)
        a = np.full(r, alpha)
        leaves.append((target, len(var), users, path, alpha, leaf_family_score(c, a, penalty)))
        var.append(-1)
        first.append(len(first))
        counts.append(c)
        alphas.append(a)
        order.append(leaf_order)
        return len(leaves) - 1

    def push(k):
        target, node, users, path, alpha, score = leaves[k]
        bad = transitive_closure(edges, t)[target] | path
        open_vars = np.flatnonzero(~bad)
        if not len(open_vars):
            return
        table = dense_pair_counts(states, users, target, r)[open_vars]  # [s, a, b]
        a = alpha / r  # the children's pseudo-count
        child = (
            gammaln(a * r)
            - gammaln(a * r + table.sum(axis=2))
            + (gammaln(a + table) - gammaln(a)).sum(axis=2)
            + (r - 1) * math.log(penalty)
        )
        gains = child.sum(axis=1) - score
        best = gains.max()
        if best > 0.0:
            tied = open_vars[gains == best]
            svar = int(tied[np.argmin(rank[tied])])
            heapq.heappush(heap, (-float(best), int(rank[target]), order[node], int(rank[svar]), k, svar))

    for j in range(t):
        add_leaf(j, np.arange(len(db.users)), np.zeros(t, dtype=bool), cfg.equivalent_sample_size / r, 0)
    for k in range(t):
        push(k)
    while heap:
        _, _, _, _, k, svar = heapq.heappop(heap)
        target, node, users, path, alpha, _ = leaves[k]
        if (transitive_closure(edges, t)[target] | path)[svar]:
            push(k)
            continue
        var[node], first[node] = svar, len(var)
        child_path = path.copy()
        child_path[svar] = True
        kids = []
        for a in range(r):
            kids.append(add_leaf(target, users[states[users, svar] == a], child_path, alpha / r,
                                 next_order[target]))
            next_order[target] += 1
        edges.add((svar, target))
        for kid in kids:
            push(kid)
    return BayesNetModel(db.scale, db.items, var, first, counts, alphas, order)


def transitive_closure(edges, t):
    """reach[a, b]: b is reachable from a along the (parent, child) edges;
    every node reaches itself. Warshall's triple loop."""
    reach = [[a == b or (a, b) in edges for b in range(t)] for a in range(t)]
    for k in range(t):
        for a in range(t):
            for b in range(t):
                reach[a][b] = reach[a][b] or (reach[a][k] and reach[k][b])
    return np.array(reach, dtype=bool).reshape(t, t)


def init_params_loop(db, c, rng, prior_strength, noise_scale=10.0):
    """EM's seeded starting point: vote-by-vote marginals, then one
    `rng.dirichlet` call per (class, item) row, then the class prior."""
    n, t, s = len(db.users), len(db.items), db.scale.num_states
    states = dense_states(db)
    marg = []
    for j in range(t):
        counts = [0] * s
        for i in range(n):
            counts[states[i, j]] += 1
        marg.append(np.array([(k + prior_strength / s) / (n + prior_strength) for k in counts]))
    cond = np.empty((c, t, s))
    for ci in range(c):
        for j in range(t):
            cond[ci, j] = np.maximum(rng.dirichlet(np.maximum(noise_scale * marg[j], 1e-6)), 1e-12)
    cond /= cond.sum(axis=2, keepdims=True)
    prior = np.maximum(rng.dirichlet(np.full(c, 10.0)), 1e-12)
    prior /= prior.sum()
    return prior, cond


def log_posterior_loop(model, observed):
    """BC's unnormalized log class posterior with the log tensor recomputed
    per call: the all-no-vote score, then each observed model item's change."""
    pos = {it: j for j, it in enumerate(model.items)}
    logc = np.log(model.cond)
    score = np.log(model.class_prior) + logc[:, :, 0].sum(axis=1)
    for it, v in observed.items():
        j = pos.get(it)
        if j is None:
            continue
        s = state_of(model.scale, v)
        score = score + logc[:, j, s] - logc[:, j, 0]
    return score


def posterior_loop(model, observed):
    """BC's class posterior: `log_posterior_loop` exponentiated from its
    maximum and normalized."""
    score = log_posterior_loop(model, observed)
    p = np.exp(score - score.max())
    return p / p.sum()


def expected_vote_scalar(dist, scale):
    """Expected vote of one state distribution, its vote states renormalized."""
    votes = np.asarray(scale.vote_values, dtype=float)
    mass = dist[1:]
    return float((mass / mass.sum()) @ votes)


def rank_score_scalar(dist, scale):
    """Ranking score of one state distribution, one item at a time."""
    if scale.implicit:
        return float(dist[1])
    votes = np.asarray(scale.vote_values, dtype=float)
    mass = dist[1:]
    p_vote = float(mass.sum())
    return float((mass / p_vote) @ votes) * p_vote


class EvidenceError(ValueError):
    """Evidence omitted a state assignment needed to route a tree."""


def model_trees(model):
    """Each item's tree as nested JSON, built from the model's node arrays: a
    split names its item and lists its children in state order, and a leaf
    holds its counts, pseudo-counts and creation order."""
    r = model.scale.num_states

    def node(n):
        if model.var[n] < 0:
            return {"counts": model.counts[n].tolist(), "alpha": model.alpha[n].tolist(),
                    "order": int(model.order[n])}
        kids = range(model.first[n], model.first[n] + r)
        return {"split": model.items[model.var[n]], "children": [node(c) for c in kids]}

    return {it: node(j) for j, it in enumerate(model.items)}


def version1_file(model):
    """The model in the nested file form that cflab wrote before its model
    files held node arrays (version 1): one tree per item position."""
    trees = model_trees(model)
    return {"version": 1, "kind": "bayesnet_model", "scale": model.scale.to_json(),
            "items": list(model.items),
            "trees": {str(j): trees[it] for j, it in enumerate(model.items)}}


def model_from_trees(scale, trees, depth_first=False):
    """The BayesNetModel of nested trees in `model_trees`' form, its items,
    in order, the keys of `trees`. The nodes are numbered breadth first, or
    depth first, and are not checked here: a split's children are numbered
    as many as it lists, and a split on an item the model lacks tests
    position len(items)."""
    items = list(trees)
    pos = {it: j for j, it in enumerate(items)}
    nodes = [trees[it] for it in items]
    rows = {}
    todo = collections.deque(range(len(items)))
    while todo:
        n = todo.pop() if depth_first else todo.popleft()
        node = nodes[n]
        if "split" in node:
            kids = range(len(nodes), len(nodes) + len(node["children"]))
            nodes.extend(node["children"])
            todo.extend(reversed(kids) if depth_first else kids)
            zeros = [0.0] * scale.num_states
            rows[n] = (pos.get(node["split"], len(items)), kids.start, zeros, zeros, -1)
        else:
            rows[n] = (-1, n, node["counts"], node["alpha"], node["order"])
    return BayesNetModel(scale, items, *zip(*(rows[n] for n in range(len(nodes)))))


def leaf_distribution(leaf):
    total = np.asarray(leaf["counts"], dtype=float) + np.asarray(leaf["alpha"], dtype=float)
    return total / total.sum()


def lookup_with_path(tree, state_fn):
    """Walk one JSON tree from its root: the leaf reached when each split
    takes child `state_fn(split item)`, and the split items passed on the way."""
    node = tree
    path = []
    while "split" in node:
        path.append(node["split"])
        node = node["children"][state_fn(node["split"])]
    return node, path


def split_items(tree):
    """Every split item of a JSON tree."""
    if "split" not in tree:
        return set()
    return {tree["split"]}.union(*(split_items(c) for c in tree["children"]))


def parent_graph(model):
    """Edges parent -> children implied by the split items of each tree in
    the model's file form."""
    trees = model_trees(model)
    return {p: {c for c, tree in trees.items() if p in split_items(tree)} for p in model.items}


def tree_lookup(model, item, evidence):
    """The item's leaf distribution for evidence that assigns a state (a vote
    value, or None for no-vote) to every split item of its tree; a missing
    one raises EvidenceError."""
    tree = model_trees(model).get(item)
    if tree is None:
        raise ValueError(f"item {item!r} not covered by this model")
    missing = [v for v in split_items(tree) if v not in evidence]
    if missing:
        raise EvidenceError(f"evidence missing split variable(s) {missing!r}")
    leaf, _ = lookup_with_path(tree, lambda var: state_of(model.scale, evidence[var]))
    return leaf_distribution(leaf)


def case_lookup(model, tree, case):
    """One tree's leaf distribution from a walk (unobserved items are
    no-vote), and whether an observed vote steered the path."""
    observed = case.observed
    leaf, path = lookup_with_path(tree, lambda var: state_of(model.scale, observed.get(var)))
    return leaf_distribution(leaf), any(var in observed for var in path)


def bn_vote_walk(model, case, item):
    """BN expected vote of one item from its own tree walk."""
    dist, _ = case_lookup(model, model_trees(model)[item], case)
    return expected_vote_scalar(dist, model.scale)


def bn_scores_walk(model, case):
    """Per-item dict of BN ranking scores from one tree walk per unobserved
    model item, plus the (lookups, influenced) counts."""
    out = {}
    lookups = influenced = 0
    for it, tree in model_trees(model).items():
        if it in case.observed:
            continue
        dist, hit = case_lookup(model, tree, case)
        lookups += 1
        influenced += hit
        out[it] = rank_score_scalar(dist, model.scale)
    return out, lookups, influenced


def bc_scores_loop(model, case):
    """Per-item dict of BC ranking scores of the unobserved model items."""
    mixed = np.einsum("c,cjs->js", posterior_loop(model, case.observed), model.cond)
    return {
        it: rank_score_scalar(mixed[j], model.scale)
        for j, it in enumerate(model.items) if it not in case.observed
    }


def sorted_ranking(scores):
    """Items of a score dict by descending score, ties to the lower item id."""
    return sorted(scores, key=lambda it: (-scores[it], it))


# --- whole experiment reports ---------------------------------------------------

# oracle scores closer than this may come out of the library in either order
NEAR = 1e-9


def _case_oracle(alg, train, case):
    """One predictor's view of one case from the component oracles: per
    unobserved training item its (rank score, informed) pair, the expected
    vote of such an item (None if the predictor does not predict votes), and
    the work counts the ranked report adds up. Raises where the predictor
    fails the case. A predictor with an `oracle(case, items)` method is its
    own oracle."""
    from cflab.predictors import ClusterPredictor, MemoryPredictor, PopularityPredictor

    items = [it for it in train.items if it not in case.observed]
    if hasattr(alg, "oracle"):
        return alg.oracle(case, items)
    if isinstance(alg, PopularityPredictor):
        counts = {it: 0 for it in train.items}
        for _, it, _ in train.iter_votes():
            counts[it] += 1
        return {it: (float(counts[it]), True) for it in items}, None, {}
    if isinstance(alg, MemoryPredictor):
        values = {it: brute_predict(case, it, train, alg.scorer.cfg) for it in items}
        return values, lambda it: values[it][0], {}
    model = alg.model
    pos = {it: j for j, it in enumerate(model.items)}
    for it, v in case.observed.items():
        if it in pos:
            state_of(model.scale, v)  # an off-scale vote on a model item fails the case
    if isinstance(alg, ClusterPredictor):
        post = posterior_loop(model, case.observed)
        scores = bc_scores_loop(model, case)
        return ({it: (s, True) for it, s in scores.items()},
                lambda it: expected_vote_scalar(post @ model.cond[:, pos[it]], model.scale), {})
    scores, lookups, influenced = bn_scores_walk(model, case)
    return ({it: (s, True) for it, s in scores.items()},
            lambda it: bn_vote_walk(model, case, it),
            {"lookups": lookups, "influenced": influenced})


def _sort_key(entry):
    """Descending score with NaN last, informed first, then the item id."""
    it, (score, informed) = entry
    return (math.isnan(score), 0.0 if math.isnan(score) else -score, not informed, it)


def _ranked_oracle(scores, targets, half_life, neutral):
    """The utility of the oracle's ranking (a plain sort of the scores), and
    the least and greatest utility over the orders that swap oracle scores
    closer than NEAR."""
    ranked = [it for it, _ in sorted(scores.items(), key=_sort_key)]
    exact = brute_ranked_utility(ranked, targets, half_life, neutral)
    spans = []
    for it, v in targets.items():
        gain = max(v - neutral, 0.0)
        if gain <= 0 or it not in scores:
            continue
        s = scores[it][0]
        near = sum(1 for other, (o, _) in scores.items()
                   if other != it and 0 < abs(o - s) <= NEAR)
        first = ranked.index(it) - sum(1 for other in ranked[:ranked.index(it)]
                                       if 0 < abs(scores[other][0] - s) <= NEAR)
        spans.append((gain, first, first + near))
    if all(lo == hi for _, lo, hi in spans):
        return exact, exact, exact
    least = sum(g / 2 ** (hi / (half_life - 1)) for g, _, hi in spans)
    most = sum(g / 2 ** (lo / (half_life - 1)) for g, lo, _ in spans)
    return exact, least, most


def _blocked_anova_difference(rows, confidence):
    """Bonferroni required difference from a loop-based two-way blocked ANOVA
    of a cases-by-algorithms list of rows."""
    from scipy import stats as sstats

    b, m = len(rows), len(rows[0])
    grand = sum(sum(r) for r in rows) / (b * m)
    row_means = [sum(r) / m for r in rows]
    col_means = [sum(r[k] for r in rows) / b for k in range(m)]
    sse = sum((rows[i][k] - row_means[i] - col_means[k] + grand) ** 2
              for i in range(b) for k in range(m))
    df = (m - 1) * (b - 1)
    mse = sse / df
    if mse <= 0:
        return 0.0
    alpha = (1 - confidence) / (m * (m - 1) / 2)
    return float(sstats.t.ppf(1 - alpha / 2, df)) * math.sqrt(2 * mse / b)


def reference_reports(train, cases, algorithms, metrics, ranked_cfg, confidence=0.90):
    """Every metric's report, in `ExperimentReport.to_json` form, composed
    from the component oracles one case and one predictor at a time: no
    blocks, no counting of positions.

    A case is scored for a metric only if every predictor scores it there: a
    predictor whose oracle raises fails the case for every metric, one whose
    vote raises fails it for deviation. Ranked scoring skips the cases with
    zero maximum utility. A report's `extras` add each predictor's work
    counts over the cases the ranked report keeps (zeros in the deviation
    report), for the predictors that count work, when the ranked metric runs.
    Each report also carries `utility_span`: per predictor and kept ranked
    case, the least and greatest utility over the orders of near-tied scores.
    """
    hl, neutral = ranked_cfg.half_life, ranked_cfg.neutral
    names = [alg.name for alg in algorithms]
    kept = {m: [] for m in metrics}
    excluded = {m: {"zero_max_utility": [], "failed": []} for m in metrics}
    work = {}
    for case in cases:
        ideal = sorted(case.targets, key=lambda it: -case.targets[it])
        rmax = brute_ranked_utility(ideal, case.targets, hl, neutral)
        todo = [m for m in metrics if m != "ranked" or rmax > 0]
        if len(todo) < len(metrics):
            excluded["ranked"]["zero_max_utility"].append(case.user)
        rows = {m: {} for m in todo}
        counts = {}
        for alg in algorithms:
            try:
                scores, vote, counts[alg.name] = _case_oracle(alg, train, case)
            except Exception:
                continue
            if "ranked" in todo:
                rows["ranked"][alg.name] = _ranked_oracle(scores, case.targets, hl, neutral)
            if "deviation" in todo:
                try:
                    if vote is None:
                        raise NotImplementedError(alg.name)
                    errors = [abs((vote(it) if it in train.index.item_pos
                                   else case.observed_mean) - v)
                              for it, v in case.targets.items()]
                except Exception:
                    continue
                rows["deviation"][alg.name] = sum(errors) / len(errors)
        for m in todo:
            if len(rows[m]) < len(algorithms):
                excluded[m]["failed"].append(case.user)
                continue
            kept[m].append((case.user, rows[m], rmax))
            if m == "ranked":
                for name, c in counts.items():
                    for k, v in c.items():
                        work.setdefault(name, dict.fromkeys(c, 0))[k] += v
    docs = []
    for m in metrics:
        ranked = m == "ranked"
        cols = {n: [row[n] for _, row, _ in kept[m]] for n in names}
        scores = {n: [x[0] for x in col] if ranked else col for n, col in cols.items()}
        rmaxes = [r for _, _, r in kept[m]]
        if not kept[m]:
            aggregate, matrix = None, []  # run_experiment refuses to report nothing
        elif ranked:
            aggregate = {n: 100.0 * sum(s) / sum(rmaxes) for n, s in scores.items()}
            matrix = [[100.0 * scores[n][i] / rmaxes[i] for n in names]
                      for i in range(len(rmaxes))]
        else:
            aggregate = {n: sum(s) / len(s) for n, s in scores.items()}
            matrix = [[scores[n][i] for n in names] for i in range(len(kept[m]))]
        extras = {} if "ranked" not in metrics else {
            name: {k: v if ranked else 0 for k, v in c.items()} for name, c in work.items()}
        docs.append({
            "version": 1, "kind": "experiment_report", "protocol": None, "metric": m,
            "algorithms": names, "case_count": len(kept[m]),
            "case_ids": [user for user, _, _ in kept[m]], "scores": scores,
            "aggregate": aggregate,
            "required_difference": _blocked_anova_difference(matrix, confidence)
            if len(names) >= 2 and len(matrix) >= 2 else None,
            "rmax": rmaxes if ranked else None, "excluded": excluded[m],
            "confidence": confidence, "seed": None,
            "half_life": hl if ranked else None, "neutral": neutral if ranked else None,
            "extras": extras,
            "utility_span": {n: [x[1:] for x in col] for n, col in cols.items()}
            if ranked else None,
        })
    return docs


def _bc_loglik_rows(X, class_prior, cond):
    """Every user's log joint with every class, then its log-sum-exp."""
    logc = np.log(cond)
    base = logc[:, :, 0].sum(axis=1)
    delta = (logc[:, :, 1:] - logc[:, :, :1]).reshape(len(class_prior), -1)
    L = np.log(class_prior)[None, :] + base[None, :] + X @ delta.T
    return L, logsumexp(L, axis=1)


def _bc_counts(XT, gamma, t):
    c = gamma.shape[1]
    totals = gamma.sum(axis=0)
    vote_counts = np.asarray(XT @ gamma).T.reshape(c, t, -1)
    counts = np.empty((c, t, vote_counts.shape[2] + 1))
    counts[:, :, 1:] = vote_counts
    counts[:, :, 0] = totals[:, None] - vote_counts.sum(axis=2)
    return totals, np.clip(counts, 0.0, None)


def em_fit_loop(db, c, seed=0, tol=1e-6, max_iter=200, prior_strength=1.0):
    """BC's EM as one fit over every user row per iteration: the E-step on
    all users, the M-step's smoothed counts, and the objective with its
    prior term. Returns the model and its (trace, iterations, converged)."""
    X, XT = db.index.vote_states, db.index.vote_states.T
    n, t, s = len(db.users), len(db.items), db.scale.num_states
    prior, cond = init_params_loop(db, c, np.random.default_rng(seed), prior_strength)
    L, norm = _bc_loglik_rows(X, prior, cond)
    trace, prev, converged, iterations = [], -np.inf, False, 0
    for it in range(1, max_iter + 1):
        iterations = it
        totals, counts = _bc_counts(XT, np.exp(L - norm[:, None]), t)
        prior, cond = map_estimates(totals, counts, prior_strength, n_users=n)
        L, norm = _bc_loglik_rows(X, prior, cond)
        log_prior = (prior_strength / c) * np.log(prior).sum()
        log_prior = float(log_prior + (prior_strength / s) * np.log(cond).sum())
        obj = float(norm.sum()) + log_prior
        trace.append(obj)
        per_user = obj / n
        if (per_user - prev) < tol * max(1.0, abs(per_user)):
            converged = True
            break
        prev = per_user
    return ClusterModel(db.scale, db.items, prior, cond), (trace, iterations, converged)


def _dirichlet_marginal_rows(counts, alpha):
    total_alpha = alpha * counts.shape[-1]
    return (
        gammaln(total_alpha)
        - gammaln(total_alpha + counts.sum(axis=-1))
        + (gammaln(alpha + counts) - gammaln(alpha)).sum(axis=-1)
    )


def cheeseman_stutz_loop(model, db, prior_strength=1.0):
    """The Cheeseman-Stutz score from every user row's responsibilities."""
    c, _, s = model.cond.shape
    L, norm = _bc_loglik_rows(db.index.vote_states, model.class_prior, model.cond)
    totals, counts = _bc_counts(db.index.vote_states.T, np.exp(L - norm[:, None]), len(db.items))
    complete_marginal = float(
        _dirichlet_marginal_rows(totals[None, :], prior_strength / c)[0]
        + _dirichlet_marginal_rows(counts, prior_strength / s).sum()
    )
    complete_ll = float(
        totals @ np.log(model.class_prior) + (counts * np.log(model.cond)).sum()
    )
    return complete_marginal - complete_ll + float(norm.sum()) + math.lgamma(c + 1)


def select_cluster_model_loop(db, max_classes, seed=0, restarts=3, tol=1e-6, max_iter=200,
                              prior_strength=1.0):
    """Model selection with one EM fit per (class count, restart) after the
    other: the best objective of a count's restarts (the first on ties) is
    scored, and the best score (the smallest count on ties) wins. Returns
    the model, the table and every fit's (trace, iterations, converged)."""
    table, fits, best_model, best_score = [], [], None, -np.inf
    for c in range(1, max_classes + 1):
        runs = []
        for r in range(restarts):
            sub_seed = int(np.random.SeedSequence([seed, c, r]).generate_state(1)[0])
            runs.append(em_fit_loop(db, c, sub_seed, tol, max_iter, prior_strength))
        fits.append([report for _, report in runs])
        model, (trace, iterations, converged) = runs[0]
        for other, report in runs[1:]:
            if report[0][-1] > trace[-1]:
                model, (trace, iterations, converged) = other, report
        cs = cheeseman_stutz_loop(model, db, prior_strength)
        table.append({"classes": c, "cs_score": cs, "objective": trace[-1],
                      "converged": converged, "iterations": iterations})
        if cs > best_score:
            best_model, best_score = model, cs
    return best_model, table, fits
