"""Slow, literal reference implementations used as test oracles.

Everything here recomputes results from the definitions with plain Python
loops and dense structures, on purpose along different algebraic paths than
the library (centered means instead of expanded sums, explicit enumeration
instead of closed forms), so agreement is meaningful.
"""

import itertools
import math

import numpy as np
import scipy.sparse as sp


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
            row[db.items.index(it)] = scale.state_of(v)
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


def dense_states(db):
    """users x items state matrix built vote by vote with `scale.state_of`."""
    states = np.zeros((len(db.users), len(db.items)), dtype=np.uint8)
    for i, u in enumerate(db.users):
        for it, v in db.votes[u].items():
            states[i, db.items.index(it)] = db.scale.state_of(v)
    return states


def dense_pair_counts(states, users, t, r):
    """Contingency tables of every item against target t over `users`,
    from a dense gather of the users' full state rows plus one bincount."""
    sub = states[users]
    codes = sub.astype(np.int64) * r + sub[:, t][:, None]
    offs = np.arange(sub.shape[1], dtype=np.int64) * (r * r)
    flat = (codes + offs[None, :]).ravel()
    return np.bincount(flat, minlength=sub.shape[1] * r * r).reshape(sub.shape[1], r, r)


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
        s = model.scale.state_of(v)
        score = score + logc[:, j, s] - logc[:, j, 0]
    return score


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
    """Each item's tree as nested JSON, read from the model file form."""
    trees = model.to_json()["trees"]
    return {it: trees[str(j)] for j, it in enumerate(model.items)}


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
    leaf, _ = lookup_with_path(tree, lambda var: model.scale.state_of(evidence[var]))
    return leaf_distribution(leaf)


def case_lookup(model, tree, case):
    """One tree's leaf distribution from a walk (unobserved items are
    no-vote), and whether an observed vote steered the path."""
    observed = case.observed

    def state_fn(var):
        v = observed.get(var)
        return model.scale.state_of(v) if v is not None else 0

    leaf, path = lookup_with_path(tree, state_fn)
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
    mixed = np.einsum("c,cjs->js", model.posterior(case.observed), model.cond)
    return {
        it: rank_score_scalar(mixed[j], model.scale)
        for j, it in enumerate(model.items) if it not in case.observed
    }


def sorted_ranking(scores):
    """Items of a score dict by descending score, ties to the lower item id."""
    return sorted(scores, key=lambda it: (-scores[it], it))
