import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cflab
from cflab import bayesnet
from cflab.bayesnet import BayesNetModel, LearnConfig, leaf_family_score, learn_network
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
)
from reference import (
    EvidenceError,
    bn_scores_walk,
    bn_vote_walk,
    dense_pair_counts,
    dense_states,
    leaf_distribution,
    lookup_with_path,
    model_trees,
    sorted_ranking,
    transitive_closure,
    tree_lookup,
)

FIXTURE_VOTES = Path(__file__).resolve().parent.parent / "fixtures" / "fixture_votes.csv"


def leaf(p, order=0, weight=2.0):
    """A two-state leaf whose distribution puts mass p on the vote state."""
    return {"counts": [0.0, 0.0], "alpha": [(1 - p) * weight, p * weight], "order": order}


def split(item, *children):
    return {"split": item, "children": list(children)}


def model_of(trees, scale=IMPLICIT_SCALE):
    """A hand-built model read from its file form; its items, in order, are
    the keys of `trees`."""
    items = list(trees)
    return BayesNetModel.from_json({
        "version": 1,
        "kind": "bayesnet_model",
        "scale": scale.to_json(),
        "items": items,
        "trees": {str(j): trees[it] for j, it in enumerate(items)},
    })


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


class TestLearnNetwork:
    def test_single_item_stays_root_only(self):
        db = make_db([("u", "a", 1), ("v", "a", 1)], scale=IMPLICIT_SCALE)
        model = learn_network(db, LearnConfig())
        assert model.parents("a") == set()
        root = model_trees(model)["a"]
        assert "split" not in root
        # smoothed marginal: ess 10 over 2 states, both users voted
        np.testing.assert_allclose(leaf_distribution(root), [(0 + 5) / 12, (2 + 5) / 12])

    def test_dependency_recovered(self):
        wins = 0
        for seed in range(20):
            db = noisy_copy_db(np.random.default_rng(4000 + seed))
            model = learn_network(db, LearnConfig())
            wins += ("A" in model.parents("B")) or ("B" in model.parents("A"))
        assert wins >= 18

    def test_independent_items_stay_root_only(self):
        wins = 0
        for seed in range(20):
            db = independent_db(np.random.default_rng(5000 + seed))
            model = learn_network(db, LearnConfig(structure_penalty=0.1))
            wins += all(not model.parents(it) for it in db.items)
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
        assert ("A" in model.parents("B")) or ("B" in model.parents("A"))
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
                if "A" in model.parents("B"):
                    marg_a = tree_lookup(model, "A", ev_a) if model.parents("A") else leaf_distribution(roots["A"])
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
        pred.rank(case_for("u", {"parent": 1.0}))
        assert pred.stats["influenced"] >= 1  # the parent vote steered t's path
        pred2 = bn_for(model)
        pred2.rank(case_for("u", {"other": 1.0}))
        # observing only a non-parent leaves every lookup no-vote driven
        assert pred2.stats.get("influenced", 0) == 0


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

    def test_parent_graph_matches_split_vars(self):
        db = noisy_copy_db(np.random.default_rng(1), n=2000)
        model = learn_network(db, LearnConfig())
        graph = model.parent_graph()
        for it in model.items:
            for parent in model.parents(it):
                assert it in graph[parent]

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
        want = dense_pair_counts(states, users, target, r)
        assert got.dtype.kind == "i"
        np.testing.assert_array_equal(got, want)


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
        table = bayesnet._pair_counts(X, states[:, target], users, r)
        children = bayesnet._split_tables(X, table, states[:, target], users, states[:, svar], svar)
        assert len(children) == r
        for a, (users_a, counts_a, table_a) in enumerate(children):
            np.testing.assert_array_equal(users_a, users[states[users, svar] == a])
            assert table_a.dtype == table.dtype and np.iinfo(table.dtype).max >= n_users
            np.testing.assert_array_equal(table_a, dense_pair_counts(states, users_a, target, r))
            np.testing.assert_array_equal(
                counts_a, np.bincount(states[users_a, target], minlength=r)
            )


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
        rng, _, learned = self._network(seed, explicit, penalty)
        trees = model_trees(learned)
        # numbered in creation order, and breadth first from the file form
        for model in (learned, BayesNetModel.from_json(learned.to_json())):
            for _ in range(5):
                case = random_case(rng, model, max_observed=4)
                leaf, influenced, seen = model.route(case.observed)
                assert (model.var[leaf] == -1).all()
                for j, it in enumerate(model.items):
                    state_of = lambda var: model.scale.state_of(case.observed.get(var))
                    want, path = lookup_with_path(trees[it], state_of)
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
            assert pred.stats == {"lookups": lookups, "influenced": influenced}
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
        splits = np.flatnonzero(again.var >= 0)
        assert (np.diff(again.first[splits]) > 0).all()  # breadth first
        assert json.dumps(again.to_json()) == json.dumps(doc)
        assert again.structure_stats() == learned.structure_stats()
        preds = [BayesNetPredictor(db, m) for m in (learned, again)]
        for _ in range(5):
            case = random_case(rng, learned, max_observed=4)
            (s1, i1), (s2, i2) = (p.scores(case) for p in preds)
            assert s1.tobytes() == s2.tobytes() and i1.tobytes() == i2.tobytes()
            assert preds[0].rank(case) == preds[1].rank(case)
            for it in learned.items:
                if it not in case.observed:
                    a, b = (p.predict(case, it) for p in preds)
                    assert np.float64(a).tobytes() == np.float64(b).tobytes()
        assert preds[0].stats == preds[1].stats

    def test_leaf_only_network_routes_in_zero_steps(self):
        model = TestRanking()._two_item_model()
        assert model.depth == 0
        leaf, influenced, seen = model.route({"hi": 1.0})
        assert leaf.tolist() == [0, 1] and not influenced.any()
        assert seen.tolist() == [True, False]

    def test_off_scale_observed_vote_raises(self):
        model = TestRanking()._two_item_model()
        with pytest.raises(VoteDataError):
            bn_for(model).rank(case_for("u", {"hi": 2.0}))
