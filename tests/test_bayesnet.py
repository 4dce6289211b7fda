import graphlib
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import cflab
from cflab import bayesnet
from cflab.bayesnet import BayesNetModel, LearnConfig, learn_network
from cflab.predictors import BayesNetPredictor
from cflab.votedata import IMPLICIT_SCALE, VoteDatabase, VoteDataError, VoteScale, load_votes_csv

from conftest import (
    SCALE_0_5,
    case_for,
    items_db,
    make_db,
    random_case,
    random_explicit_db,
    random_grouped_db,
    random_implicit_db,
    scores_of,
)
from reference import (
    EvidenceError,
    bn_scores_walk,
    bn_vote_walk,
    dense_pair_counts,
    dense_states,
    leaf_distribution,
    leaf_family_score,
    learn_network_dense,
    lookup_with_path,
    model_from_trees,
    model_trees,
    parent_graph,
    sorted_ranking,
    split_items,
    state_of,
    transitive_closure,
    tree_lookup,
    version1_file,
)

FIXTURE_VOTES = Path(__file__).resolve().parent.parent / "fixtures" / "fixture_votes.csv"


def parents(model, item):
    """An item's parents, read from its tree in the nested view."""
    return split_items(model_trees(model)[item])


def leaf(p, order=0, weight=2.0):
    """A two-state leaf whose distribution puts mass p on the vote state."""
    return {"counts": [0.0, 0.0], "alpha": [(1 - p) * weight, p * weight], "order": order}


def split(item, *children):
    return {"split": item, "children": list(children)}


def model_of(trees, scale=IMPLICIT_SCALE):
    """A hand-built model from nested trees; its items, in order, are the
    keys of `trees`."""
    return model_from_trees(scale, trees)


def noisy_copy_db(rng, n=10000, flip=0.05):
    """Item B's visits copy item A's with a small flip probability."""
    rows = []
    for i in range(n):
        a = rng.random() < 0.5
        b = a ^ (rng.random() < flip)
        if not (a or b):
            continue
        if a:
            rows.append((i, "A", 1.0))
        if b:
            rows.append((i, "B", 1.0))
    return VoteDatabase.from_votes(rows, IMPLICIT_SCALE, items=["A", "B"])


def independent_db(rng, n=1000, t=6, p=0.5):
    items = [f"i{j}" for j in range(t)]
    rows = []
    for i in range(n):
        got = [items[j] for j in range(t) if rng.random() < p]
        if not got:
            continue
        rows += [(i, it, 1.0) for it in got]
    return VoteDatabase.from_votes(rows, IMPLICIT_SCALE, items=items)


class TestLeafFamilyScore:
    def test_empty_counts_no_penalty(self):
        assert leaf_family_score([0, 0], [1.0, 1.0], 1.0) == pytest.approx(0.0)

    def test_single_observation_marginal(self):
        got = leaf_family_score([1, 0], [5.0, 5.0], 1.0)
        assert got == pytest.approx(math.log(0.5), abs=1e-12)

    def test_four_binary_leaves_penalty(self):
        total = sum(
            leaf_family_score([0, 0], [1.25, 1.25], 0.1) for _ in range(4)
        )
        assert total == pytest.approx(4 * math.log(0.1), abs=1e-9)
        assert total == pytest.approx(-9.2103, abs=1e-4)

    def test_nonpositive_prior_rejected(self):
        with pytest.raises(ValueError):
            leaf_family_score([1, 0], [0.0, 1.0], 0.1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            leaf_family_score([-1, 0], [1.0, 1.0], 0.1)

    @pytest.mark.parametrize("r, alpha, differ", [
        (2, 0.1, False), (2, 10.0 / 7, False),
        (7, 10.0 / 7, False), (7, 0.1, True), (7, 10.0 / 343, True),
    ])
    def test_lookups_match_reference_bitwise(self, r, alpha, differ):
        # the search's one leaf-score rule against the oracle's gammaln sums,
        # also where the summed prior total is not r * alpha
        assert (np.full(r, alpha).sum() != r * alpha) == differ
        n, penalty = 50, 0.1
        counts = np.random.default_rng(r).multinomial(n, np.full(r, 1.0 / r), size=20)
        counts[0] = 0
        cell, _, leaf_terms = bayesnet._lookups(alpha, r, n)
        got = bayesnet._leaf_scores(counts, cell, leaf_terms, math.log(penalty))
        want = [leaf_family_score(c, np.full(r, alpha), penalty) for c in counts]
        assert got.tobytes() == np.array(want).tobytes()


class TestLearnNetwork:
    def test_single_item_stays_root_only(self):
        db = make_db([("u", "a", 1), ("v", "a", 1)], scale=IMPLICIT_SCALE)
        model = learn_network(db, LearnConfig())
        assert parents(model, "a") == set()
        root = model_trees(model)["a"]
        assert "split" not in root
        # smoothed marginal: ess 10 over 2 states, both users voted
        np.testing.assert_allclose(leaf_distribution(root), [(0 + 5) / 12, (2 + 5) / 12])

    def test_dependency_recovered(self):
        wins = 0
        for seed in range(20):
            db = noisy_copy_db(np.random.default_rng(4000 + seed))
            model = learn_network(db, LearnConfig())
            wins += ("A" in parents(model, "B")) or ("B" in parents(model, "A"))
        assert wins >= 18

    def test_independent_items_stay_root_only(self):
        wins = 0
        for seed in range(20):
            db = independent_db(np.random.default_rng(5000 + seed))
            model = learn_network(db, LearnConfig(structure_penalty=0.1))
            wins += all(not parents(model, it) for it in db.items)
        assert wins >= 18

    def test_deterministic_given_config(self):
        db = random_implicit_db(np.random.default_rng(3), n_users=60, n_items=6)
        m1 = learn_network(db, LearnConfig())
        m2 = learn_network(db, LearnConfig())
        assert json.dumps(m1.to_json(), sort_keys=True) == json.dumps(
            m2.to_json(), sort_keys=True
        )

    def test_empty_database_is_error(self):
        db = VoteDatabase((), ("a",), {}, IMPLICIT_SCALE)
        with pytest.raises(ValueError):
            learn_network(db, LearnConfig())

    def test_near_unit_penalty_recovers_conditionals(self):
        # explicit 0/1 votes on both items, so nothing is ever missing
        scale = VoteScale(0, 1, 0.0, False)
        rng = np.random.default_rng(77)
        rows = []
        n = 20000
        p_a, p_b_given = 0.6, {1: 0.8, 0: 0.2}
        joint = np.zeros((2, 2))
        for i in range(n):
            a = int(rng.random() < p_a)
            b = int(rng.random() < p_b_given[a])
            joint[a, b] += 1
            rows += [(i, "A", float(a)), (i, "B", float(b))]
        db = VoteDatabase.from_votes(rows, scale, items=["A", "B"])
        model = learn_network(db, LearnConfig(structure_penalty=0.999))
        assert ("A" in parents(model, "B")) or ("B" in parents(model, "A"))
        # compare the implied joint over vote values with the sample joint
        sample = joint / n
        implied = np.zeros((2, 2))
        roots = model_trees(model)
        for a in (0, 1):
            for b in (0, 1):
                ev_b = {"A": float(a)}
                ev_a = {"B": float(b)}
                pa = tree_lookup(model, "A", ev_a)[1 + a]
                pb_given = tree_lookup(model, "B", ev_b)[1 + b]
                if "A" in parents(model, "B"):
                    marg_a = tree_lookup(model, "A", ev_a) if parents(model, "A") else leaf_distribution(roots["A"])
                    implied[a, b] = marg_a[1 + a] * pb_given
                else:
                    marg_b = leaf_distribution(roots["B"])
                    implied[a, b] = marg_b[1 + b] * pa
        np.testing.assert_allclose(implied, sample, atol=0.02)


class TestTreeLookup:
    def _two_parent_model(self):
        """Hand-built model: the target's tree splits on two parent items."""
        target_tree = split(
            "parent_a",
            leaf(0.16, 1),  # did not watch friends
            split("parent_b", leaf(0.35, 3), leaf(0.85, 4)),
        )
        return model_of(
            {"target_show": target_tree, "parent_a": leaf(0.4), "parent_b": leaf(0.3)}
        )

    def test_root_only_tree_ignores_evidence(self):
        model = self._two_parent_model()
        d1 = tree_lookup(model, "parent_a", {"target_show": 1.0, "parent_b": None})
        d2 = tree_lookup(model, "parent_a", {"target_show": None, "parent_b": 1.0})
        np.testing.assert_allclose(d1, d2)

    def test_joint_evidence_routes_to_deep_leaf(self):
        model = self._two_parent_model()
        dist = tree_lookup(model, "target_show", {"parent_a": 1.0, "parent_b": 1.0})
        assert dist[1] == pytest.approx(0.85)
        dist = tree_lookup(model, "target_show", {"parent_a": 1.0, "parent_b": None})
        assert dist[1] == pytest.approx(0.35)
        dist = tree_lookup(model, "target_show", {"parent_a": None, "parent_b": 1.0})
        assert dist[1] == pytest.approx(0.16)

    def test_missing_parent_evidence_is_error(self):
        model = self._two_parent_model()
        with pytest.raises(EvidenceError):
            tree_lookup(model, "target_show", {"parent_a": 1.0})
        # even a split variable the routing never reaches must be assigned
        with pytest.raises(EvidenceError):
            tree_lookup(model, "target_show", {"parent_a": None})

    def test_distributions_sum_to_one(self):
        rng = np.random.default_rng(8)
        db = random_implicit_db(rng, n_users=200, n_items=6, density=0.5)
        model = learn_network(db, LearnConfig(structure_penalty=0.8))
        case = case_for("t", {db.items[0]: 1.0})
        for it in db.items:
            ev = {o: case.observed.get(o) for o in db.items if o != it}
            dist = tree_lookup(model, it, ev)
            assert abs(dist.sum() - 1.0) <= 1e-10
            assert (dist > 0).all()


def bn_for(model):
    return BayesNetPredictor(items_db(model), model)


class TestExpectedVote:
    def _single_leaf_model(self, dist, scale):
        tree = {"counts": [0.0] * len(dist), "alpha": [p * 10 for p in dist], "order": 0}
        return model_of({"t": tree}, scale)

    def test_point_mass(self):
        dist = [1e-9, 1e-9, 1e-9, 1e-9, 1.0, 1e-9, 1e-9]  # state 4 is vote 3
        model = self._single_leaf_model(dist, SCALE_0_5)
        got = bn_for(model).predict(case_for("u", {"x": 1.0}), "t")
        assert got == pytest.approx(3.0, abs=1e-6)

    def test_clamp_and_renormalize(self):
        dist = [0.5, 0.25, 1e-12, 1e-12, 1e-12, 1e-12, 0.25]
        model = self._single_leaf_model(dist, SCALE_0_5)
        got = bn_for(model).predict(case_for("u", {"x": 1.0}), "t")
        assert got == pytest.approx(2.5, abs=1e-9)

    def test_implicit_scale_forces_one(self):
        model = self._single_leaf_model([0.8, 0.2], IMPLICIT_SCALE)
        got = bn_for(model).predict(case_for("u", {"x": 1.0}), "t")
        assert got == pytest.approx(1.0)

    def test_observed_target_rejected(self):
        model = self._single_leaf_model([0.8, 0.2], IMPLICIT_SCALE)
        with pytest.raises(ValueError):
            bn_for(model).predict(case_for("u", {"t": 1.0}), "t")


class TestRanking:
    def _two_item_model(self, p_hi=0.9, p_lo=0.2):
        return model_of({"hi": leaf(p_hi, weight=4.0), "lo": leaf(p_lo, weight=4.0)})

    def test_rank_by_vote_probability(self):
        model = self._two_item_model()
        assert bn_for(model).rank(case_for("u", {"zz": 1.0})) == ["hi", "lo"]

    def test_observed_items_excluded(self):
        model = self._two_item_model()
        assert bn_for(model).rank(case_for("u", {"hi": 1.0})) == ["lo"]

    def test_ties_break_by_item_id(self):
        model = self._two_item_model(p_hi=0.5, p_lo=0.5)
        assert bn_for(model).rank(case_for("u", {"zz": 1.0})) == ["hi", "lo"]

    def test_influence_tracking(self):
        tree = split("parent", leaf(0.2, 1), leaf(0.9, 2))
        model = model_of({"t": tree, "parent": leaf(0.5), "other": leaf(0.5)})
        pred = bn_for(model)
        counts = pred.evaluate([case_for("u", {"parent": 1.0}), case_for("u", {"other": 1.0})]).counts
        assert counts["influenced"][0] >= 1  # the parent vote steered t's path
        # observing only a non-parent leaves every lookup no-vote driven
        assert counts["influenced"][1] == 0


class TestModelStructure:
    def test_acyclic_validation(self):
        trees = {
            "a": split("b", leaf(0.5, 1), leaf(0.5, 2)),
            "b": split("a", leaf(0.5, 1), leaf(0.5, 2)),
        }
        with pytest.raises(ValueError, match="acyclic"):
            model_of(trees)

    @pytest.mark.parametrize(
        "tree",
        [
            split("b", leaf(0.2, 1)),  # one child on a two-state scale
            split("b", leaf(0.2, 1), leaf(0.5, 2), leaf(0.9, 3)),
            split("zz", leaf(0.2, 1), leaf(0.9, 2)),  # not a model item
            {"counts": [0.0, 0.0, 0.0], "alpha": [1.0, 1.0], "order": 0},
            {"counts": [0.0, 0.0], "alpha": [1.0], "order": 0},
            split("b", leaf(0.2, 1), {"counts": [0.0], "alpha": [1.0, 1.0], "order": 2}),
            {"counts": [-5.0, 1.0], "alpha": [-1.0, 2.0], "order": 0},  # would score -1.0
            {"counts": [0.0, 0.0], "alpha": [0.0, 0.0], "order": 0},  # would score NaN
            {"counts": [math.inf, 0.0], "alpha": [1.0, 1.0], "order": 0},
            split("b", leaf(0.2, 1), {"counts": [0.0, 1.0], "alpha": [math.nan, 1.0], "order": 2}),
        ],
    )
    def test_malformed_tree_is_rejected(self, tree):
        # routing would read past a short split into another tree's nodes
        with pytest.raises(ValueError):
            model_of({"a": tree, "b": leaf(0.5), "c": leaf(0.2)})

    def test_serialization_round_trip_exact(self):
        db = random_implicit_db(np.random.default_rng(5), n_users=150, n_items=5, density=0.5)
        model = learn_network(db, LearnConfig(structure_penalty=0.5))
        doc = json.loads(json.dumps(model.to_json()))
        again = BayesNetModel.from_json(doc)
        assert json.dumps(again.to_json(), sort_keys=True) == json.dumps(
            model.to_json(), sort_keys=True
        )
        case = case_for("u", {db.items[0]: 1.0})
        assert BayesNetPredictor(db, again).rank(case) == BayesNetPredictor(db, model).rank(case)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), explicit=st.booleans())
    def test_arrays_do_not_depend_on_node_numbering(self, seed, explicit):
        # the same trees numbered depth first give the breadth-first arrays
        rng = np.random.default_rng(seed)
        db = random_grouped_db(rng, explicit, n_users=int(rng.integers(20, 80)))
        learned = learn_network(db, LearnConfig(structure_penalty=0.99))
        trees = model_trees(learned)
        for depth_first in (False, True):
            model = model_from_trees(learned.scale, trees, depth_first)
            for key in BayesNetModel.ARRAYS + ("tree", "score", "expected"):
                assert getattr(model, key).tobytes() == getattr(learned, key).tobytes()

    def test_parent_graph_matches_split_vars(self):
        # the node arrays' parent counts against the file form's split items
        db = random_grouped_db(np.random.default_rng(1), explicit=False, n_users=80)
        model = learn_network(db, LearnConfig(structure_penalty=0.9))
        graph = parent_graph(model)
        sizes = [sum(it in graph[p] for p in model.items) for it in model.items]
        stats = model.structure_stats()
        assert stats["mean_parents"] == pytest.approx(np.mean(sizes))
        assert stats["max_parents"] == max(sizes) > 0

    @settings(max_examples=60, deadline=None)
    @given(t=st.integers(1, 6), data=st.data())
    def test_acyclicity_matches_topological_sort(self, t, data):
        # item c's tree splits on each of its parents in turn
        items = [f"i{k}" for k in range(t)]
        parents = {
            c: data.draw(st.lists(st.sampled_from(items), unique=True, max_size=3), label=c)
            for c in items
        }
        trees = {}
        for c, ps in parents.items():
            tree = leaf(0.5, len(ps))
            for depth, p in enumerate(reversed(ps)):
                tree = split(p, leaf(0.5, depth), tree)
            trees[c] = tree
        graph = {p: {c for c in items if p in parents[c]} for p in items}
        try:
            graphlib.TopologicalSorter(graph).prepare()
        except graphlib.CycleError:
            with pytest.raises(ValueError, match="acyclic"):
                model_of(trees)
            return
        model = model_of(trees)
        assert parent_graph(model) == graph
        assert model.depth == max(len(ps) for ps in parents.values())
        stats = model.structure_stats()
        assert stats["max_parents"] == max(len(ps) for ps in parents.values())
        assert stats["mean_leaves"] == pytest.approx(np.mean([len(ps) + 1 for ps in parents.values()]))

    def test_structure_stats(self):
        db = noisy_copy_db(np.random.default_rng(2), n=10000)
        model = learn_network(db, LearnConfig())
        stats = model.structure_stats()
        assert stats["items"] == 2
        assert stats["max_parents"] >= 1
        assert stats["mean_leaves"] >= 1.0


class TestSparsePairCounts:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        explicit=st.booleans(),
        n_users=st.integers(1, 25),
        n_items=st.integers(2, 7),
        data=st.data(),
    )
    def test_matches_dense_reference(self, seed, explicit, n_users, n_items, data):
        rng = np.random.default_rng(seed)
        make = random_explicit_db if explicit else random_implicit_db
        db = make(rng, n_users=n_users, n_items=n_items, density=0.5)
        r = db.scale.num_states
        target = data.draw(st.integers(0, n_items - 1), label="target")
        leaf = data.draw(st.sets(st.integers(0, n_users - 1)), label="leaf users")
        users = np.array(sorted(leaf), dtype=np.int64)  # the empty leaf included
        states = dense_states(db)
        got = bayesnet._pair_counts(db.index.vote_states, states[:, target], users, r)
        want = dense_pair_counts(states, users, target, r).transpose(1, 2, 0)
        assert got.dtype.kind == "i"
        np.testing.assert_array_equal(got, want)


class TestRootTables:
    """Every root table from the chunked co-vote product."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        explicit=st.booleans(),
        n_users=st.integers(1, 25),
        n_items=st.integers(1, 7),
        cells=st.sampled_from([1, 60, 1 << 13]),
    )
    def test_match_dense_reference(self, seed, explicit, n_users, n_items, cells):
        db = search_db(np.random.default_rng(seed), explicit, n_users, n_items, 0.4)
        t, r = len(db.items), db.scale.num_states
        states = dense_states(db)
        totals = np.stack([np.bincount(states[:, j], minlength=r) for j in range(t)])
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bayesnet, "_ROOT_CELLS", cells)  # one to all targets per chunk
            chunks = list(bayesnet._root_tables(db.index.vote_states, totals, np.int16))
        for j0, tables in chunks:
            assert tables.dtype == np.int16
            for j in range(j0, j0 + len(tables)):
                want = dense_pair_counts(states, np.arange(n_users), j, r).transpose(1, 2, 0)
                np.testing.assert_array_equal(tables[j - j0], want)
                seen.append(j)
        assert seen == list(range(t))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        explicit=st.booleans(),
        n_users=st.integers(1, 25),
        n_items=st.integers(1, 7),
        cells=st.sampled_from([1, 60, 1 << 13]),
        products=st.sampled_from([1, 40, 300, 1 << 13]),
    )
    def test_products_are_cut_into_chunks(self, seed, explicit, n_users, n_items, cells, products):
        db = search_db(np.random.default_rng(seed), explicit, n_users, n_items, 0.4)
        t, r = len(db.items), db.scale.num_states
        states = dense_states(db)
        totals = np.stack([np.bincount(states[:, j], minlength=r) for j in range(t)])
        calls = []
        matmul = sp.csc_matrix.__matmul__
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bayesnet, "_ROOT_CELLS", cells)
            mp.setattr(bayesnet, "_PRODUCT_CELLS", products)
            mp.setattr(sp.csc_matrix, "__matmul__", lambda a, b: calls.append(b.shape) or matmul(a, b))
            chunks = list(bayesnet._root_tables(db.index.vote_states, totals, np.int16))
        step = max(1, cells // (r * r * t))  # targets per chunk
        per_product = max(1, products // ((r - 1) ** 2 * t))  # targets a product may cover
        block = step * max(1, per_product // step)
        assert [j0 for j0, _ in chunks] == list(range(0, t, step))
        assert [cols // (r - 1) for _, cols in calls] == [min(block, t - p0) for p0 in range(0, t, block)]
        for j0, tables in chunks:
            for j in range(j0, j0 + len(tables)):
                want = dense_pair_counts(states, np.arange(n_users), j, r).transpose(1, 2, 0)
                np.testing.assert_array_equal(tables[j - j0], want)


class TestSplitTables:
    """A split's child tables: the smaller children counted, the largest
    derived by subtraction from the leaf's table."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        explicit=st.booleans(),
        n_users=st.integers(1, 25),
        n_items=st.integers(2, 7),
        data=st.data(),
    )
    def test_children_match_dense_reference(self, seed, explicit, n_users, n_items, data):
        rng = np.random.default_rng(seed)
        make = random_explicit_db if explicit else random_implicit_db
        db = make(rng, n_users=n_users, n_items=n_items, density=0.5)
        r = db.scale.num_states
        X = db.index.vote_states
        states = dense_states(db)
        target = data.draw(st.integers(0, n_items - 1), label="target")
        svar = data.draw(
            st.integers(0, n_items - 1).filter(lambda v: v != target), label="split var"
        )
        leaf = data.draw(st.sets(st.integers(0, n_users - 1)), label="leaf users")
        users = np.array(sorted(leaf), dtype=np.int64)  # the empty leaf included
        if not len(users):
            return  # the search splits no leaf without users
        table = bayesnet._pair_counts(X, states[:, target], users, r)
        children = bayesnet._split_tables(X, table, states[:, target], users, states[:, svar], svar)
        assert len(children) == r
        for a, (users_a, counts_a, table_a) in enumerate(children):
            np.testing.assert_array_equal(users_a, users[states[users, svar] == a])
            np.testing.assert_array_equal(
                counts_a, np.bincount(states[users_a, target], minlength=r)
            )
            if not len(users_a):
                assert table_a is None  # an empty child is never scored
                continue
            assert table_a.dtype == table.dtype and np.iinfo(table.dtype).max >= n_users
            want = dense_pair_counts(states, users_a, target, r).transpose(1, 2, 0)
            np.testing.assert_array_equal(table_a, want)


class TestEmptyLeaf:
    """A leaf without users never gains from a split, so the search skips
    its scoring."""

    @pytest.mark.parametrize("r", [2, 7])
    @pytest.mark.parametrize("penalty", [1e-6, 0.1, 0.999999])
    @pytest.mark.parametrize("alpha", [1e-3, 0.5, 10.0 / 7])
    def test_every_split_of_an_empty_leaf_loses(self, r, penalty, alpha):
        cell, family, _ = bayesnet._lookups(alpha / r, r, 3)  # as `learn_network` builds them
        gains = bayesnet._family_scores(np.zeros((r, r, 5), dtype=np.int16), cell, family, penalty)
        cell, _, leaf_terms = bayesnet._lookups(alpha, r, 3)
        gains -= bayesnet._leaf_scores(np.zeros(r, dtype=np.intp), cell, leaf_terms, math.log(penalty))
        assert (gains < 0).all()


def _brute_invalid(edges, target, path, t):
    """The split variables a leaf may not take, from the definition: its
    target and path, and anything the target reaches."""
    return transitive_closure(edges, t)[target] | path


class TestConstraints:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(1, 8))
    def test_mask_matches_brute_force_closure(self, seed, t):
        rng = np.random.default_rng(seed)
        cons = bayesnet._Constraints(t)
        edges: set = set()
        for _ in range(4 * t):
            target = int(rng.integers(t))
            path = rng.random(t) < 0.2
            bad = cons.invalid(target, path)
            np.testing.assert_array_equal(bad, _brute_invalid(edges, target, path, t))
            free = np.flatnonzero(~bad)
            if free.size:
                parent = int(rng.choice(free))
                cons.add_edge(parent, target)
                edges.add((parent, target))
        np.testing.assert_array_equal(cons.reach, transitive_closure(edges, t))
        for parent, child in edges:
            with pytest.raises(RuntimeError, match="acyclic"):
                cons.add_edge(child, parent)


def search_db(rng, explicit, n_users, n_items, density, idle=True):
    """Random database over n_items voted items, plus one that nobody votes
    on if `idle`; every user has at least one vote. Item ids are shuffled
    over the positions, so that a tie broken on position is not one broken
    on id."""
    scale = SCALE_0_5 if explicit else IMPLICIT_SCALE
    names = [f"i{k}" for k in rng.permutation(n_items + idle)]
    rows = []
    for i in range(n_users):
        voted = np.flatnonzero(rng.random(n_items) < density)
        if not len(voted):
            voted = [int(rng.integers(n_items))]
        rows += [(f"u{i}", names[j], int(rng.integers(6)) if explicit else 1) for j in voted]
    return make_db(rows, scale, items=names)


def msweb_like_db(rng, n_users=300, n_items=150, idle=50):
    """Implicit visits shaped like the web-visit benchmark: Zipf popularity
    over the visited items, one visit per user plus a Poisson(2) number
    more, and `idle` items that nobody visits. Item ids are shuffled over
    the positions."""
    visited = n_items - idle
    p = 1.0 / np.arange(1, visited + 1)
    names = [f"i{k}" for k in rng.permutation(n_items)]
    rows = []
    for i in range(n_users):
        k = min(visited, 1 + rng.poisson(2.0))
        rows += [(f"u{i}", names[j], 1) for j in rng.choice(visited, size=k, replace=False, p=p / p.sum())]
    return make_db(rows, IMPLICIT_SCALE, items=names)


# SHA-256 of the model files of `TestSearchOracle.test_sparse_model_keeps_its_digest`
# and `test_msweb_shaped_model_keeps_its_digest`, and of the same models in
# the nested version-1 file form (`reference.version1_file`), the files that
# cflab wrote before its model files held node arrays
SPARSE_MODEL_DIGEST = "8d21f8b9ebabf50ab05d6d50f40e194279810c630f9d4e692d52e8394e500333"
MSWEB_MODEL_DIGEST = "6f8889d463a8f07d700d6e6737a53f6d62b3e29f52155df8e74abff6a58bfe2e"
SPARSE_VERSION1_DIGEST = "229efca4be23bbb89838693826a19681f7844a2755ea3d676c8c13e740fa30e4"
MSWEB_VERSION1_DIGEST = "49be9fc9b8c35b06d8608b68bc3458f9b1fafeccd4563399748bf7a8ee04d884"


def file_digest(doc):
    """SHA-256 of a model document, written as the model cache writes it."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class TestSearchOracle:
    """The search against `reference.learn_network_dense`, model file for
    model file."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        explicit=st.booleans(),
        n_users=st.integers(1, 40),
        n_items=st.integers(1, 8),
        density=st.sampled_from([0.05, 0.2, 0.5]),
        idle=st.booleans(),
        penalty=st.sampled_from([0.1, 0.5, 0.99]),
        ess=st.sampled_from([0.5, 2.0, 10.0, 40.0]),
    )
    def test_matches_dense_search(self, seed, explicit, n_users, n_items, density, idle,
                                  penalty, ess):
        # sparse implicit draws leave many split children without users
        db = search_db(np.random.default_rng(seed), explicit, n_users, n_items, density, idle)
        cfg = LearnConfig(structure_penalty=penalty, equivalent_sample_size=ess)
        assert learn_network(db, cfg).to_json() == learn_network_dense(db, cfg).to_json()

    def test_sparse_model_keeps_its_digest(self):
        # sparse visits and a high penalty: 201 of the 659 leaves have no users
        db = random_implicit_db(np.random.default_rng(2024), n_users=300, n_items=60, density=0.05)
        model = learn_network(db, LearnConfig(structure_penalty=0.9))
        assert file_digest(model.to_json()) == SPARSE_MODEL_DIGEST
        assert file_digest(version1_file(model)) == SPARSE_VERSION1_DIGEST

    def test_msweb_shaped_model_keeps_its_digest(self):
        # the benchmark's settings on two-state visits: over a third of the
        # items have no visits, and their trees still split
        db = msweb_like_db(np.random.default_rng(1998))
        model = learn_network(db, LearnConfig())
        idle = np.flatnonzero(np.diff(db.index.V_csc.indptr) == 0)
        assert len(idle) >= 50 and (model.var[np.isin(model.tree, idle)] >= 0).any()
        assert file_digest(model.to_json()) == MSWEB_MODEL_DIGEST
        assert file_digest(version1_file(model)) == MSWEB_VERSION1_DIGEST

    @pytest.mark.parametrize("explicit", [False, True])
    def test_closed_best_variable_is_rescored(self, explicit, monkeypatch):
        # a popped leaf whose best variable an edge has closed since it was
        # scored is scored again on its unchanged table
        rescored = []
        closed = bayesnet._Constraints.closed
        monkeypatch.setattr(bayesnet._Constraints, "closed",
                            lambda *args: rescored.append(closed(*args)) or rescored[-1])
        db = search_db(np.random.default_rng(0), explicit, 40, 8, 0.2)
        cfg = LearnConfig(structure_penalty=0.99)
        assert learn_network(db, cfg).to_json() == learn_network_dense(db, cfg).to_json()
        assert sum(rescored) >= 3


class TestSearchChecks:
    def test_scored_gain_mismatch_raises(self, monkeypatch):
        family_scores = bayesnet._family_scores
        monkeypatch.setattr(
            bayesnet, "_family_scores", lambda *args: family_scores(*args) + 1.0
        )
        with pytest.raises(RuntimeError, match="scored"):
            learn_network(noisy_copy_db(np.random.default_rng(2), n=10000), LearnConfig())

    def test_optimized_interpreter_learns_the_same_network(self):
        script = (
            "import json, sys\n"
            "from cflab.bayesnet import LearnConfig, learn_network\n"
            "from cflab.votedata import VoteScale, load_votes_csv\n"
            "assert False, 'asserts must be stripped'\n"
            "db = load_votes_csv(sys.argv[1], VoteScale(0, 5, 3.0, False))\n"
            "cfg = LearnConfig(structure_penalty=0.99)\n"
            "print(json.dumps(learn_network(db, cfg).to_json(), sort_keys=True))\n"
        )
        src = str(Path(cflab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, str(FIXTURE_VOTES)],
            capture_output=True, text=True, timeout=120, env={"PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        db = load_votes_csv(FIXTURE_VOTES, SCALE_0_5)
        model = learn_network(db, LearnConfig(structure_penalty=0.99))
        assert model.structure_stats()["max_parents"] > 1
        assert proc.stdout.strip() == json.dumps(model.to_json(), sort_keys=True)


class TestCompiledNetwork:
    """The model's node arrays against one walk per item of its JSON trees."""

    @staticmethod
    def _network(seed, explicit, penalty):
        rng = np.random.default_rng(seed)
        db = random_grouped_db(rng, explicit, n_users=int(rng.integers(20, 80)))
        return rng, db, learn_network(db, LearnConfig(structure_penalty=penalty))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        explicit=st.booleans(),
        penalty=st.sampled_from([0.1, 0.5, 0.99]),
    )
    def test_routing_matches_tree_walk(self, seed, explicit, penalty):
        rng, db, learned = self._network(seed, explicit, penalty)
        trees = model_trees(learned)
        # the learned model, and the model of its file
        for model in (learned, BayesNetModel.from_json(learned.to_json())):
            for _ in range(5):
                case = random_case(rng, model, max_observed=4)
                rows, cols, votes = db.index.observed_votes([case])
                (leaf,), (influenced,), (seen,) = model.route(1, rows, cols,
                                                              model.scale.states_of(votes))
                assert (model.var[leaf] == -1).all()
                for j, it in enumerate(model.items):
                    want, path = lookup_with_path(
                        trees[it], lambda var: state_of(model.scale, case.observed.get(var)))
                    # a leaf is its tree and its creation order there
                    assert (model.tree[leaf[j]], model.order[leaf[j]]) == (j, want["order"])
                    assert influenced[j] == any(var in case.observed for var in path)
                    assert seen[j] == (it in case.observed)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        explicit=st.booleans(),
        penalty=st.sampled_from([0.1, 0.5, 0.99]),
    )
    def test_rank_and_expected_vote_match_tree_walk(self, seed, explicit, penalty):
        rng, db, model = self._network(seed, explicit, penalty)
        for _ in range(5):
            case = random_case(rng, model, max_observed=4)
            pred = BayesNetPredictor(db, model)  # the model covers every training item
            scores, lookups, influenced = bn_scores_walk(model, case)
            assert pred.rank(case) == sorted_ranking(scores)
            counts = pred.evaluate([case]).counts
            assert (counts["lookups"][0], counts["influenced"][0]) == (lookups, influenced)
            for it in scores:
                want = bn_vote_walk(model, case, it)
                assert pred.predict(case, it) == want  # bitwise

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        explicit=st.booleans(),
        penalty=st.sampled_from([0.1, 0.5, 0.99]),
    )
    def test_file_form_numbers_breadth_first_and_scores_alike(self, seed, explicit, penalty):
        rng, db, learned = self._network(seed, explicit, penalty)
        doc = learned.to_json()
        again = BayesNetModel.from_json(json.loads(json.dumps(doc)))
        for model in (learned, again):
            splits = np.flatnonzero(model.var >= 0)
            assert (np.diff(model.first[splits]) > 0).all()  # breadth first
            assert not model.counts[splits].any() and not model.alpha[splits].any()
            assert (model.order[splits] == -1).all()
        for key in BayesNetModel.ARRAYS + ("tree", "score", "expected"):
            a, b = getattr(learned, key), getattr(again, key)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert again.depth == learned.depth
        assert json.dumps(again.to_json()) == json.dumps(doc)
        assert again.structure_stats() == learned.structure_stats()
        preds = [BayesNetPredictor(db, m) for m in (learned, again)]
        for _ in range(5):
            case = random_case(rng, learned, max_observed=4)
            (s1, i1), (s2, i2) = (scores_of(p, case) for p in preds)
            assert s1.tobytes() == s2.tobytes() and i1.tobytes() == i2.tobytes()
            assert preds[0].rank(case) == preds[1].rank(case)
            for it in learned.items:
                if it not in case.observed:
                    a, b = (p.predict(case, it) for p in preds)
                    assert np.float64(a).tobytes() == np.float64(b).tobytes()
            c1, c2 = (p.evaluate([case]).counts for p in preds)
            assert all((c1[k] == c2[k]).all() for k in ("lookups", "influenced"))

    def test_leaf_only_network_routes_in_zero_steps(self):
        model = TestRanking()._two_item_model()
        assert model.depth == 0
        (leaf,), (influenced,), (seen,) = model.route(1, [0], [model.items.index("hi")], [1])
        assert leaf.tolist() == [0, 1] and not influenced.any()
        assert seen.tolist() == [True, False]

    def test_off_scale_observed_vote_raises(self):
        model = TestRanking()._two_item_model()
        with pytest.raises(VoteDataError):
            bn_for(model).rank(case_for("u", {"hi": 2.0}))
