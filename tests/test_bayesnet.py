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
from cflab.bayesnet import (
    BayesNetModel,
    DecisionTreeCPD,
    Leaf,
    LearnConfig,
    Split,
    leaf_family_score,
    learn_network,
)
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
    lookup_with_path,
    sorted_ranking,
    transitive_closure,
    tree_lookup,
)

FIXTURE_VOTES = Path(__file__).resolve().parent.parent / "fixtures" / "fixture_votes.csv"


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
        leaf = model.cpds["a"].root
        assert isinstance(leaf, Leaf)
        # smoothed marginal: ess 10 over 2 states, both users voted
        np.testing.assert_allclose(leaf.distribution, [(0 + 5) / 12, (2 + 5) / 12])

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

    def test_max_parents_respected(self):
        rng = np.random.default_rng(12)
        rows = []
        for i in range(3000):
            a = rng.random() < 0.5
            b = rng.random() < 0.5
            c = (a or b) ^ (rng.random() < 0.05)
            for name, bit in (("A", a), ("B", b), ("C", c)):
                if bit:
                    rows.append((i, name, 1.0))
        db = VoteDatabase.from_votes(
            [r for r in rows], IMPLICIT_SCALE, items=["A", "B", "C"]
        )
        model = learn_network(db, LearnConfig(max_parents=1))
        assert all(len(model.parents(it)) <= 1 for it in db.items)

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
        for a in (0, 1):
            for b in (0, 1):
                ev_b = {"A": float(a)}
                ev_a = {"B": float(b)}
                pa = tree_lookup(model, "A", ev_a)[1 + a]
                pb_given = tree_lookup(model, "B", ev_b)[1 + b]
                if "A" in model.parents("B"):
                    marg_a = tree_lookup(model, "A", ev_a) if model.parents("A") else model.cpds["A"].root.distribution
                    implied[a, b] = marg_a[1 + a] * pb_given
                else:
                    marg_b = model.cpds["B"].root.distribution
                    implied[a, b] = marg_b[1 + b] * pa
        np.testing.assert_allclose(implied, sample, atol=0.02)


class TestTreeLookup:
    def _two_parent_model(self):
        """Hand-built model: the target's tree splits on two parent items."""
        scale = IMPLICIT_SCALE
        leaf = lambda p, order: Leaf(
            counts=np.array([0.0, 0.0]), alpha=np.array([(1 - p) * 2, p * 2]), order=order
        )
        target_tree = Split(
            var="parent_a",
            children=[
                leaf(0.16, 1),  # did not watch friends
                Split(var="parent_b", children=[leaf(0.35, 3), leaf(0.85, 4)]),
            ],
        )
        cpds = {
            "target_show": DecisionTreeCPD("target_show", target_tree),
            "parent_a": DecisionTreeCPD("parent_a", leaf(0.4, 0)),
            "parent_b": DecisionTreeCPD("parent_b", leaf(0.3, 0)),
        }
        return BayesNetModel(scale, ("target_show", "parent_a", "parent_b"), cpds)

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
        leaf = Leaf(
            counts=np.zeros(len(dist)),
            alpha=np.asarray(dist, dtype=float) * 10,
            order=0,
        )
        cpds = {"t": DecisionTreeCPD("t", leaf)}
        return BayesNetModel(scale, ("t",), cpds)

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
        leaf = lambda p: Leaf(np.zeros(2), np.array([(1 - p) * 4, p * 4]), 0)
        cpds = {
            "hi": DecisionTreeCPD("hi", leaf(p_hi)),
            "lo": DecisionTreeCPD("lo", leaf(p_lo)),
        }
        return BayesNetModel(IMPLICIT_SCALE, ("hi", "lo"), cpds)

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
        scale = IMPLICIT_SCALE
        leaf = lambda p, o: Leaf(np.zeros(2), np.array([(1 - p) * 2, p * 2]), o)
        tree = Split(var="parent", children=[leaf(0.2, 1), leaf(0.9, 2)])
        cpds = {
            "t": DecisionTreeCPD("t", tree),
            "parent": DecisionTreeCPD("parent", leaf(0.5, 0)),
            "other": DecisionTreeCPD("other", leaf(0.5, 0)),
        }
        model = BayesNetModel(scale, ("t", "parent", "other"), cpds)
        pred = bn_for(model)
        pred.rank(case_for("u", {"parent": 1.0}))
        assert pred.stats["influenced"] >= 1  # the parent vote steered t's path
        pred2 = bn_for(model)
        pred2.rank(case_for("u", {"other": 1.0}))
        # observing only a non-parent leaves every lookup no-vote driven
        assert pred2.stats.get("influenced", 0) == 0


class TestModelStructure:
    def test_acyclic_validation(self):
        leaf = lambda: Leaf(np.zeros(2), np.full(2, 5.0), 0)
        a_tree = Split(var="b", children=[leaf(), leaf()])
        b_tree = Split(var="a", children=[leaf(), leaf()])
        cpds = {
            "a": DecisionTreeCPD("a", a_tree),
            "b": DecisionTreeCPD("b", b_tree),
        }
        with pytest.raises(ValueError):
            BayesNetModel(IMPLICIT_SCALE, ("a", "b"), cpds)

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


def _brute_invalid(edges, target, path, max_parents, t):
    """The split variables a leaf may not take, from the definition: its
    target and path, anything the target reaches, and every non-parent once
    the target has max_parents parents."""
    bad = transitive_closure(edges, t)[target] | path
    parents = {p for p, c in edges if c == target}
    if max_parents is not None and len(parents) >= max_parents:
        bad |= np.array([v not in parents for v in range(t)])
    return bad


class TestConstraints:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        t=st.integers(1, 8),
        max_parents=st.one_of(st.none(), st.integers(1, 3)),
    )
    def test_mask_matches_brute_force_closure(self, seed, t, max_parents):
        rng = np.random.default_rng(seed)
        cons = bayesnet._Constraints(t, max_parents)
        edges: set = set()
        for _ in range(4 * t):
            target = int(rng.integers(t))
            path = rng.random(t) < 0.2
            bad = cons.invalid(target, path)
            np.testing.assert_array_equal(bad, _brute_invalid(edges, target, path, max_parents, t))
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
    """The flat-array network against one tree walk per item."""

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
        rng, _, model = self._network(seed, explicit, penalty)
        net = model.compiled
        for _ in range(5):
            case = random_case(rng, model, max_observed=4)
            leaf, influenced, seen = net.route(case.observed)
            for j, it in enumerate(model.items):
                state_of = lambda var: model.scale.state_of(case.observed.get(var))
                want, path = lookup_with_path(model.cpds[it], state_of)
                assert net.nodes[leaf[j]] is want
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

    def test_leaf_only_network_routes_in_zero_steps(self):
        model = TestRanking()._two_item_model()
        net = model.compiled
        assert net.depth == 0
        leaf, influenced, seen = net.route({"hi": 1.0})
        assert leaf.tolist() == [0, 1] and not influenced.any()
        assert seen.tolist() == [True, False]

    def test_off_scale_observed_vote_raises(self):
        model = TestRanking()._two_item_model()
        with pytest.raises(VoteDataError):
            bn_for(model).rank(case_for("u", {"hi": 2.0}))
