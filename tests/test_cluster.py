import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from cflab import cluster
from cflab.cluster import (
    ClusterModel,
    cheeseman_stutz_score,
    em_fit,
    map_estimates,
    select_cluster_model,
)
from cflab.predictors import ClusterPredictor
from cflab.votedata import IMPLICIT_SCALE, VoteDatabase, VoteScale

from conftest import (
    SCALE_0_5,
    block_votes,
    case_for,
    duplicated_db,
    items_db,
    make_db,
    random_case,
    random_explicit_db,
    random_grouped_db,
    random_implicit_db,
    scores_of,
)
from reference import (
    cheeseman_stutz_loop,
    em_fit_loop,
    exact_mixture_log_marginal,
    init_params_loop,
    log_posterior_loop,
    select_cluster_model_loop,
    state_of,
)

SCALE_0_10 = VoteScale(0, 10, 5.0, False)  # 11 vote states
SCALES = {"implicit": IMPLICIT_SCALE, "0..5": SCALE_0_5, "0..10": SCALE_0_10}

# SHA-256 of the model file of `TestAgainstReference.test_duplicate_model_keeps_its_digest`
DUPLICATE_MODEL_DIGEST = "57d02f55deb8e5bb5d20015a908a0e89b4c3b40e04da35b48aceba177e550815"


def two_block_db(rng, n_per=40, items_per=4, p_own=0.92, p_other=0.02):
    """Two user populations voting on disjoint item blocks."""
    items = [f"a{j}" for j in range(items_per)] + [f"b{j}" for j in range(items_per)]
    rows = []
    for i in range(2 * n_per):
        own = items[:items_per] if i < n_per else items[items_per:]
        other = items[items_per:] if i < n_per else items[:items_per]
        got = [it for it in own if rng.random() < p_own]
        got += [it for it in other if rng.random() < p_other]
        if not got:
            got = [own[0]]
        rows += [(f"u{i}", it, 1.0) for it in got]
    return VoteDatabase.from_votes(rows, IMPLICIT_SCALE, items=items)


def one_class_db(rng, n=120, t=8):
    items = [f"i{j}" for j in range(t)]
    p = rng.uniform(0.2, 0.7, size=t)
    rows = []
    for i in range(n):
        got = [items[j] for j in range(t) if rng.random() < p[j]]
        if not got:
            got = [items[0]]
        rows += [(f"u{i}", it, 1.0) for it in got]
    return VoteDatabase.from_votes(rows, IMPLICIT_SCALE, items=items)


def three_class_db(rng, n_per=60, t=9):
    items = [f"i{j}" for j in range(t)]
    rows = []
    for c in range(3):
        block = items[c * 3:(c + 1) * 3]
        for i in range(n_per):
            u = f"u{c}_{i}"
            got = [it for it in block if rng.random() < 0.85]
            got += [it for it in items if it not in block and rng.random() < 0.05]
            if not got:
                got = [block[0]]
            rows += [(u, it, 1.0) for it in got]
    return VoteDatabase.from_votes(rows, IMPLICIT_SCALE, items=items)


def two_item_two_class_db(rng, n=8):
    """Eight users, two explicit items, two clear taste groups."""
    rows = []
    for i in range(n):
        hi, lo = ("A", "B") if i < n // 2 else ("B", "A")
        rows.append((f"u{i}", hi, float(np.clip(5 - rng.integers(0, 2), 0, 5))))
        rows.append((f"u{i}", lo, float(rng.integers(0, 2))))
    return VoteDatabase.from_votes(rows, SCALE_0_5, items=["A", "B"])


def hand_smoothed_frequencies(db, assignment, num_classes, strength=1.0):
    """Closed-form smoothed estimates computed with plain loops."""
    scale = db.scale
    s = scale.num_states
    n = len(db.users)
    class_counts = [0.0] * num_classes
    state_counts = [
        [[0.0] * s for _ in db.items] for _ in range(num_classes)
    ]
    for u, c in zip(db.users, assignment):
        class_counts[c] += 1
        for j, it in enumerate(db.items):
            v = db.votes[u].get(it)
            state_counts[c][j][state_of(scale, v)] += 1
    prior = [(class_counts[c] + strength / num_classes) / (n + strength) for c in range(num_classes)]
    cond = [
        [
            [(state_counts[c][j][k] + strength / s) / (class_counts[c] + strength) for k in range(s)]
            for j in range(len(db.items))
        ]
        for c in range(num_classes)
    ]
    return np.array(prior), np.array(cond)


class TestLogSumExpRows:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        c=st.integers(1, 16),
        kind=st.sampled_from(["real", "integer", "tied"]),
        magnitude=st.floats(1e-3, 1e3),
    )
    def test_bitwise_equal_to_scipy(self, seed, n, c, kind, magnitude):
        rng = np.random.default_rng(seed)
        if kind == "integer":  # few distinct values per row: tied maxima
            top = max(1, int(magnitude))
            a = rng.integers(-top, top + 1, size=(n, c)).astype(float)
        else:
            a = rng.uniform(-magnitude, magnitude, size=(n, c))
            if kind == "tied":  # the row maximum copied into random entries
                copy = rng.random((n, c)) < 0.4
                a = np.where(copy, a.max(axis=1, keepdims=True), a)
        got = cluster._logsumexp_rows(a)
        want = logsumexp(a, axis=1)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestEmFit:
    def test_single_class_is_smoothed_marginals(self):
        db = random_implicit_db(np.random.default_rng(0), n_users=12, n_items=5)
        model, report = em_fit(db, 1, seed=0)
        # every responsibility is 1, so the second iteration changes nothing
        assert report.iterations == 2 and report.converged
        prior, cond = hand_smoothed_frequencies(db, [0] * len(db.users), 1)
        assert model.class_prior == pytest.approx(prior)
        np.testing.assert_allclose(model.cond, cond, atol=1e-12)

    def test_two_population_recovery(self):
        rng = np.random.default_rng(1003)
        db = two_block_db(rng)
        model, _ = em_fit(db, 2, seed=3)
        posts = model.posteriors(*block_votes(model, [db.votes[u] for u in db.users]))
        assert (posts.max(axis=1) >= 0.99).all()
        # the two blocks land in opposite classes
        first, second = posts[: len(db.users) // 2], posts[len(db.users) // 2:]
        assert first.argmax(axis=1).max() == first.argmax(axis=1).min()
        assert second.argmax(axis=1).max() == second.argmax(axis=1).min()
        assert first[0].argmax() != second[0].argmax()

    def test_empty_database_is_error(self):
        db = VoteDatabase((), ("a",), {}, IMPLICIT_SCALE)
        with pytest.raises(ValueError):
            em_fit(db, 2)

    def test_zero_iterations_is_error(self):
        db = random_implicit_db(np.random.default_rng(0), n_users=6, n_items=4)
        with pytest.raises(ValueError, match="max_iter"):
            em_fit(db, 2, max_iter=0)

    def test_more_classes_than_users_warns_but_fits(self, caplog):
        db = make_db([("u", "a", 1), ("v", "a", 1), ("v", "b", 1)], scale=IMPLICIT_SCALE)
        with caplog.at_level("WARNING"):
            model, _ = em_fit(db, 5, seed=0)
        assert model.num_classes == 5
        assert any("classes" in r.message for r in caplog.records)

    def test_objective_trace_monotone(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            db = random_implicit_db(rng, n_users=15, n_items=6)
            _, report = em_fit(db, 3, seed=trial)
            diffs = np.diff(report.objective_trace)
            assert (diffs >= -1e-9).all()

    def test_complete_data_m_step_matches_closed_form(self):
        db = random_implicit_db(np.random.default_rng(9), n_users=10, n_items=5)
        assignment = [i % 2 for i in range(len(db.users))]
        gamma = np.zeros((len(db.users), 2))
        for i, c in enumerate(assignment):
            gamma[i, c] = 1.0
        totals, counts = cluster._counts(db.index.vote_states.T, gamma, len(db.items))
        prior, cond = map_estimates(totals, counts, prior_strength=1.0)
        exp_prior, exp_cond = hand_smoothed_frequencies(db, assignment, 2)
        np.testing.assert_array_equal(prior, exp_prior)
        np.testing.assert_allclose(cond, exp_cond, atol=0)


def hand_model_two_classes():
    """Prior (0.5, 0.5); one implicit item with vote odds 0.9 vs 0.1."""
    eps = 1e-9
    cond = np.array([
        [[0.1, 0.9]],
        [[0.9, 0.1]],
    ])
    return ClusterModel(IMPLICIT_SCALE, ("x",), np.array([0.5, 0.5]), cond)


class TestPosterior:
    def test_single_class(self):
        db = random_implicit_db(np.random.default_rng(1), n_users=6, n_items=4)
        model, _ = em_fit(db, 1)
        post = model.posteriors(*block_votes(model, [{db.items[0]: 1.0}]))[0]
        assert post == pytest.approx([1.0])

    def test_symmetric_evidence_is_uninformative(self):
        # the classes mirror each other, so voting on both items is a wash
        cond = np.array([
            [[0.3, 0.7], [0.7, 0.3]],
            [[0.7, 0.3], [0.3, 0.7]],
        ])
        model = ClusterModel(IMPLICIT_SCALE, ("p", "q"), np.array([0.5, 0.5]), cond)
        assert model.posteriors(*block_votes(model, [{"p": 1.0, "q": 1.0}]))[0] == pytest.approx(
            [0.5, 0.5])

    def test_hand_bayes_rule(self):
        model = hand_model_two_classes()
        assert model.posteriors(*block_votes(model, [{"x": 1.0}]))[0] == pytest.approx(
            [0.9, 0.1], abs=1e-12)

    def test_posterior_sums_to_one(self):
        rng = np.random.default_rng(5)
        db = random_implicit_db(rng, n_users=20, n_items=6)
        model, _ = em_fit(db, 4, seed=2)
        for post in model.posteriors(*block_votes(model, [db.votes[u] for u in db.users[:5]])):
            assert post.sum() == pytest.approx(1.0, abs=1e-10)
            assert (post > 0).all()


def bc_for(model):
    return ClusterPredictor(items_db(model), model)


class TestClusterPredict:
    def test_point_mass_class(self):
        eps = 1e-9
        dist = np.full(7, eps)
        dist[5] = 1.0 - 6 * eps  # state 5 is vote 4 on a 0..5 scale
        model = ClusterModel(SCALE_0_5, ("t",), np.array([1.0]), dist[None, None, :])
        assert bc_for(model).predict(case_for("u", {"other": 1.0}), "t") == pytest.approx(4.0, abs=1e-6)

    def test_uniform_votes_give_midpoint(self):
        dist = np.array([0.4] + [0.1] * 6)
        model = ClusterModel(SCALE_0_5, ("t",), np.array([1.0]), dist[None, None, :])
        pred = bc_for(model)
        case = case_for("u", {"other": 1.0})
        assert pred.predict(case, "t") == pytest.approx(2.5)
        # the ranking score keeps the no-vote mass: P(vote) 0.6 times 2.5
        assert scores_of(pred, case)[0] == pytest.approx([1.5])

    def test_hand_mixture(self):
        eps = 1e-9
        scale = VoteScale(0, 5, 3.0, False)
        # evidence item "e": observing vote 0 favors class 1 at odds 0.9 : 0.1
        e_c1 = np.array([0.05, 0.9, 0.01, 0.01, 0.01, 0.01, 0.01])
        e_c2 = np.array([0.05, 0.1, 0.17, 0.17, 0.17, 0.17, 0.17])
        # target item "t": class 1 votes 1, class 2 votes 5; identical no-vote
        # mass so the unobserved target itself stays uninformative
        t_c1 = np.full(7, eps); t_c1[2] = 1 - 6 * eps
        t_c2 = np.full(7, eps); t_c2[6] = 1 - 6 * eps
        cond = np.stack([np.stack([e_c1, t_c1]), np.stack([e_c2, t_c2])])
        model = ClusterModel(scale, ("e", "t"), np.array([0.5, 0.5]), cond)
        case = case_for("u", {"e": 0.0})
        assert model.posteriors(*block_votes(model, [case.observed]))[0] == pytest.approx(
            [0.9, 0.1], abs=1e-6)
        assert bc_for(model).predict(case, "t") == pytest.approx(1.4, abs=1e-6)

    def test_expected_vote_within_scale(self):
        rng = np.random.default_rng(31)
        db = random_implicit_db(rng, n_users=15, n_items=6)
        model, _ = em_fit(db, 3, seed=1)
        pred = ClusterPredictor(db, model)
        case = case_for("u", {db.items[0]: 1.0})
        for it in db.items[1:]:
            assert 0.0 <= pred.predict(case, it) <= 1.0

    def test_observed_item_rejected(self):
        pred = bc_for(hand_model_two_classes())
        with pytest.raises(ValueError):
            pred.predict(case_for("u", {"x": 1.0}), "x")

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(12)
        db = random_implicit_db(rng, n_users=15, n_items=6)
        model, _ = em_fit(db, 3, seed=5)
        perm = [2, 0, 1]
        permuted = ClusterModel(
            model.scale, model.items,
            model.class_prior[perm], model.cond[perm],
        )
        a, b = ClusterPredictor(db, model), ClusterPredictor(db, permuted)
        case = case_for("u", {db.items[0]: 1.0, db.items[2]: 1.0})
        for it in (db.items[1], db.items[3]):
            assert a.predict(case, it) == pytest.approx(b.predict(case, it), abs=1e-12)
        assert scores_of(a, case)[0] == pytest.approx(scores_of(b, case)[0], abs=1e-12)


class TestCheesemanStutz:
    def test_single_class_equals_exact_marginal(self):
        db = random_implicit_db(np.random.default_rng(3), n_users=7, n_items=2)
        model, _ = em_fit(db, 1)
        exact = exact_mixture_log_marginal(db, 1)
        assert cheeseman_stutz_score(model, db) == pytest.approx(exact, abs=1e-9)

    def test_score_is_negative(self):
        rng = np.random.default_rng(8)
        db = random_implicit_db(rng, n_users=12, n_items=5)
        for c in (1, 2, 3):
            model, _ = em_fit(db, c, seed=c)
            assert cheeseman_stutz_score(model, db) < 0

    def test_matches_enumeration_within_five_percent(self):
        # eight users, two items, two latent taste groups on the 0..5 scale
        for seed in range(4):
            rng = np.random.default_rng(900 + seed)
            db = two_item_two_class_db(rng)
            best = max(
                cheeseman_stutz_score(em_fit(db, 2, seed=seed * 13 + r)[0], db) for r in range(3)
            )
            exact = exact_mixture_log_marginal(db, 2)
            assert abs(best - exact) <= 0.05 * abs(exact)

    def test_item_mismatch_is_error(self):
        db = random_implicit_db(np.random.default_rng(1), n_users=6, n_items=4)
        other = random_implicit_db(np.random.default_rng(2), n_users=6, n_items=3)
        model, _ = em_fit(db, 1)
        with pytest.raises(ValueError):
            cheeseman_stutz_score(model, other)


class TestSelectClusterModel:
    def test_one_class_data_selects_one(self):
        wins = 0
        for seed in range(20):
            db = one_class_db(np.random.default_rng(2000 + seed))
            model, table = select_cluster_model(db, 4, seed=seed, restarts=2)
            wins += model.num_classes == 1
        assert wins >= 16

    def test_three_class_data_selects_three(self):
        wins = 0
        for seed in range(20):
            db = three_class_db(np.random.default_rng(3000 + seed))
            model, table = select_cluster_model(db, 5, seed=seed, restarts=2)
            wins += model.num_classes == 3
        assert wins >= 16

    def test_cmax_one_returns_single_class(self):
        db = one_class_db(np.random.default_rng(0), n=30)
        model, table = select_cluster_model(db, 1, seed=0)
        assert model.num_classes == 1
        assert len(table) == 1

    def test_zero_iterations_is_error(self):
        db = one_class_db(np.random.default_rng(0), n=20)
        with pytest.raises(ValueError, match="max_iter"):
            select_cluster_model(db, 2, max_iter=0)

    def test_zero_restarts_is_error(self):
        db = one_class_db(np.random.default_rng(0), n=20)
        with pytest.raises(ValueError, match="restarts"):
            select_cluster_model(db, 2, restarts=0)

    def test_rows_list_every_restart(self):
        db = three_class_db(np.random.default_rng(3000), n_per=20)
        _, table = select_cluster_model(db, 3, seed=1, restarts=3, max_iter=10)
        for row in table:
            assert len(row["restarts"]) == 3
            best = max(row["restarts"], key=lambda r: r["objective"])
            assert row["objective"] == best["objective"]
            assert (row["iterations"], row["converged"]) == (best["iterations"], best["converged"])

    def test_table_covers_all_counts(self):
        db = one_class_db(np.random.default_rng(5), n=40, t=5)
        _, table = select_cluster_model(db, 3, seed=1, restarts=1)
        assert [row["classes"] for row in table] == [1, 2, 3]
        assert all(math.isfinite(row["cs_score"]) for row in table)


class TestSerialization:
    def test_round_trip_exact(self):
        db = random_implicit_db(np.random.default_rng(4), n_users=10, n_items=5)
        model, _ = em_fit(db, 2, seed=0)
        import json

        doc = json.loads(json.dumps(model.to_json()))
        again = ClusterModel.from_json(doc)
        np.testing.assert_array_equal(again.class_prior, model.class_prior)
        np.testing.assert_array_equal(again.cond, model.cond)
        assert again.items == model.items

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ClusterModel(IMPLICIT_SCALE, ("x",), np.array([0.6, 0.6]),
                         np.full((2, 1, 2), 0.5))
        with pytest.raises(ValueError):
            ClusterModel(IMPLICIT_SCALE, ("x",), np.array([1.0]),
                         np.array([[[1.0, 0.0]]]))

    @pytest.mark.parametrize("where", ["class_prior", "cond"])
    def test_nan_probability_rejected(self, where):
        doc = hand_model_two_classes().to_json()
        if where == "class_prior":
            doc["class_prior"] = [0.5, math.nan]
        else:
            doc["cond"][1][0] = [math.nan, 1.0]
        with pytest.raises(ValueError, match="positive"):
            ClusterModel.from_json(json.loads(json.dumps(doc)))


class TestInitDraw:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(2, 9)),
        scale=st.floats(1e-3, 20.0),
    )
    def test_matches_per_row_dirichlet_bitwise(self, seed, shape, scale):
        alpha = np.random.default_rng(seed).random(shape) * scale + 1e-6
        alpha[..., 0] = np.maximum(alpha[..., 0], 0.1)  # numpy's gamma branch
        got = cluster._dirichlet_rows(np.random.default_rng(seed), alpha)
        rng = np.random.default_rng(seed)
        want = np.array([rng.dirichlet(row) for row in alpha.reshape(-1, shape[-1])])
        assert np.array_equal(got, want.reshape(shape))

    @pytest.mark.parametrize("explicit", [False, True])
    def test_init_params_matches_row_loop(self, explicit):
        rng = np.random.default_rng(8)
        make = random_explicit_db if explicit else random_implicit_db
        db = make(rng, n_users=30, n_items=7, density=0.5)
        got = cluster._init_params(db, 4, np.random.default_rng(21), 1.0)
        want = init_params_loop(db, 4, np.random.default_rng(21), 1.0, cluster.NOISE_SCALE)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


class TestLogPosteriorCache:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        explicit=st.booleans(),
        classes=st.integers(1, 5),
        n_items=st.integers(1, 6),
    )
    def test_matches_per_call_logs_bitwise(self, seed, explicit, classes, n_items):
        rng = np.random.default_rng(seed)
        db = random_grouped_db(rng, explicit, n_users=30, n_items=6)
        scale = db.scale
        items = tuple(db.items[:n_items])
        cond = rng.dirichlet(np.ones(scale.num_states), size=(classes, n_items))
        prior = rng.dirichlet(np.ones(classes))
        model = ClusterModel(scale, items, prior, cond)
        # some votes outside the model; one block of cases, each its own row
        observed = [random_case(rng, db, max_observed=5).observed for _ in range(5)]
        want = np.array([log_posterior_loop(model, obs) for obs in observed]).tobytes()
        got = model.log_posteriors(*block_votes(model, observed))
        assert got.tobytes() == want
        got += 1.0  # the caller's own array, not the cached one
        assert model.log_posteriors(*block_votes(model, observed)).tobytes() == want


def model_file(model):
    return json.dumps(model.to_json(), sort_keys=True)  # as the model cache writes it


class TestAgainstReference:
    """The batched fit over distinct vote rows against `reference`'s fits over
    every user row, one restart after the other, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from(sorted(SCALES)),
        n_users=st.integers(1, 40),
        profiles=st.integers(1, 10),
        classes=st.integers(1, 12),
        restarts=st.integers(1, 3),
        max_iter=st.integers(1, 12),
    )
    def test_restarts_match_one_fit_each(self, seed, scale, n_users, profiles, classes,
                                         restarts, max_iter):
        db = duplicated_db(np.random.default_rng(seed), SCALES[scale], n_users, 6, profiles)
        seeds = [seed + r for r in range(restarts)]
        fits = cluster._fit_restarts(db, classes, seeds, 1e-6, max_iter, 1.0)
        for s, (model, report) in zip(seeds, fits):
            want, (trace, iterations, converged) = em_fit_loop(db, classes, s, max_iter=max_iter)
            assert model_file(model) == model_file(want)
            assert (report.objective_trace, report.iterations, report.converged) == (
                trace, iterations, converged)
            assert cheeseman_stutz_score(model, db) == cheeseman_stutz_loop(model, db)
        model, report = em_fit(db, classes, seed=seeds[-1], max_iter=max_iter)
        assert model_file(model) == model_file(fits[-1][0])
        assert report == fits[-1][1]

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from(sorted(SCALES)),
        n_users=st.integers(1, 40),
        profiles=st.integers(1, 10),
        max_classes=st.integers(1, 12),
        restarts=st.integers(1, 3),
        max_iter=st.integers(1, 10),
    )
    def test_selection(self, seed, scale, n_users, profiles, max_classes, restarts, max_iter):
        db = duplicated_db(np.random.default_rng(seed), SCALES[scale], n_users, 6, profiles)
        self.check_selection(db, max_classes, seed, restarts, max_iter)

    def test_selection_wide_scale_with_early_stops(self):
        # 0..10 votes and 9-12 classes: numpy sums 9 or more terms in another
        # order than fewer; at 8 iterations some restarts of one count have
        # converged while others stop at the cap
        db = duplicated_db(np.random.default_rng(0), SCALE_0_10, 60, 8, profiles=12)
        table = self.check_selection(db, 12, 0, 3, 8)
        mixed = [row["classes"] for row in table
                 if len({r["converged"] for r in row["restarts"]}) == 2]
        assert any(c >= 9 for c in mixed)

    def check_selection(self, db, max_classes, seed, restarts, max_iter):
        model, table = select_cluster_model(
            db, max_classes, seed=seed, restarts=restarts, max_iter=max_iter)
        want, want_table, fits = select_cluster_model_loop(
            db, max_classes, seed=seed, restarts=restarts, max_iter=max_iter)
        assert model_file(model) == model_file(want)
        assert [{k: v for k, v in row.items() if k != "restarts"} for row in table] == want_table
        assert [
            [(r["iterations"], r["converged"], r["objective"]) for r in row["restarts"]]
            for row in table
        ] == [[(it, conv, trace[-1]) for trace, it, conv in row] for row in fits]
        return table

    def test_duplicate_model_keeps_its_digest(self):
        # 300 users share 30 vote records on the 0..10 scale
        db = duplicated_db(np.random.default_rng(1414), SCALE_0_10, 300, 12, profiles=30)
        model, _ = select_cluster_model(db, 6, seed=7, restarts=3, max_iter=40)
        assert hashlib.sha256(model_file(model).encode()).hexdigest() == DUPLICATE_MODEL_DIGEST
