import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from cflab import memory
from cflab.memory import DefaultVoting, MemoryConfig, MemoryScorer, _Evidence
from cflab.predictors import MemoryPredictor, PopularityPredictor
from cflab.votedata import IMPLICIT_SCALE

from conftest import (FixedScores, case_for, make_db, random_explicit_db, random_implicit_db,
                      scores_of)
from reference import brute_predict, brute_weight, evidence_product_sums, lexsort_ranked

CORR = MemoryConfig(weight_kind="correlation")
VSIM = MemoryConfig(weight_kind="vector_similarity")


def weight(db, case, user, cfg):
    """The weight of neighbour `user` for `case`; a user with no match weighs 0."""
    return float(MemoryScorer(db, cfg).weights([case])[0, db.index.user_pos[user]])


class TestCorrelationWeight:
    def test_cross_terms_cancel(self):
        # intersection means 3 and 8/3 make the deviations orthogonal
        db = make_db([("i", "j1", 2), ("i", "j2", 2), ("i", "j3", 4)])
        case = case_for("a", {"j1": 1, "j2": 5, "j3": 3})
        assert weight(db, case, "i", CORR) == pytest.approx(0.0, abs=1e-12)

    def test_identical_vectors_give_one(self):
        db = make_db([("i", "j1", 1), ("i", "j2", 5), ("i", "j3", 3)])
        case = case_for("a", {"j1": 1, "j2": 5, "j3": 3})
        assert weight(db, case, "i", CORR) == pytest.approx(1.0)

    def test_constant_neighbor_gets_zero(self):
        db = make_db([("i", "j1", 2), ("i", "j2", 2), ("i", "j3", 2)])
        case = case_for("a", {"j1": 1, "j2": 5, "j3": 3})
        assert weight(db, case, "i", CORR) == 0.0

    def test_insufficient_overlap_is_no_match(self):
        db = make_db([("i", "j1", 2), ("i", "j9", 4)])
        case = case_for("a", {"j1": 1, "j2": 5})
        assert weight(db, case, "i", CORR) == 0.0

    def test_default_voting_needs_single_match(self):
        cfg = MemoryConfig(weight_kind="correlation", default_voting=DefaultVoting(d=0.0, k=0))
        db = make_db(
            [("i", "x", 1), ("i", "y", 1), ("z", "w", 1), ("z", "x", 1)],
            scale=IMPLICIT_SCALE,
        )
        # one common item, x: over the union {x, y, w} the vectors are
        # (1, 0, 1) and (1, 1, 0), which correlate at -0.5
        w = weight(db, case_for("a", {"x": 1.0, "w": 1.0}), "i", cfg)
        assert w == pytest.approx(-0.5)
        # "q" is not a database item; the comparison runs over db items only
        assert weight(db, case_for("a", {"x": 1.0, "w": 1.0, "q": 1.0}), "i", cfg) == w

    def test_symmetry_on_random_databases(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            db = random_explicit_db(rng, n_users=6, n_items=6, density=0.7)
            scorer = MemoryScorer(db, CORR)
            w = {a: scorer.weights([case_for(a, db.votes[a])])[0] for a in db.users}
            pos = db.index.user_pos
            for a in db.users:
                for b in db.users:
                    if a != b:
                        assert w[a][pos[b]] == pytest.approx(w[b][pos[a]], abs=1e-12)

    def test_weight_bounded_by_one(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            db = random_explicit_db(rng, n_users=8, n_items=6, density=0.8)
            a = db.users[0]
            w = MemoryScorer(db, CORR).weights([case_for(a, db.votes[a])])
            assert (np.abs(w) <= 1.0).all()

    def test_binary_data_needs_default_voting(self):
        # all implicit votes are identical, so plain correlation has no variance,
        # but completing the vectors with zeros makes overlapping pairs comparable
        rng = np.random.default_rng(3)
        db = random_implicit_db(rng, n_users=8, n_items=8, density=0.5)
        dv = MemoryConfig(weight_kind="correlation", default_voting=DefaultVoting(d=0.0, k=0))
        a = db.users[0]
        case = case_for(a, db.votes[a])
        for b in db.users[1:]:
            assert weight(db, case, b, CORR) == 0.0
            set_a, set_b = set(db.votes[a]), set(db.votes[b])
            if set_a & set_b and not (set_a <= set_b or set_b <= set_a):
                # both users then vary over the union, so the weight is live
                assert weight(db, case, b, dv) != 0.0


class TestVectorSimilarity:
    def test_identical_implicit_vectors(self):
        db = make_db([("i", "x", 1), ("i", "y", 1)], scale=IMPLICIT_SCALE)
        case = case_for("a", {"x": 1.0, "y": 1.0})
        assert weight(db, case, "i", VSIM) == pytest.approx(1.0)

    def test_half_overlap_gives_half(self):
        db = make_db(
            [("i", "y", 1), ("i", "z", 1), ("other", "x", 1)], scale=IMPLICIT_SCALE
        )
        case = case_for("a", {"x": 1.0, "y": 1.0})
        assert weight(db, case, "i", VSIM) == pytest.approx(0.5)

    def test_disjoint_sets_give_zero(self):
        db = make_db([("i", "p", 1), ("i", "q", 1)], scale=IMPLICIT_SCALE)
        case = case_for("a", {"x": 1.0, "y": 1.0})
        assert weight(db, case, "i", VSIM) == 0.0

    def test_all_factors_zero_gives_zero(self):
        # both users voted the universally-voted item only: its factor is 0
        db = make_db([("i", "x", 1), ("z", "x", 1)], scale=IMPLICIT_SCALE)
        cfg = MemoryConfig(weight_kind="vector_similarity", inverse_user_frequency=True)
        case = case_for("i", {"x": 1.0})
        assert weight(db, case, "z", cfg) == 0.0

    def test_bounds_on_random_databases(self):
        rng = np.random.default_rng(23)
        for trial in range(30):
            db = random_implicit_db(rng, n_users=8, n_items=7)
            a, b = db.users[0], db.users[1]
            w = weight(db, case_for(a, db.votes[a]), b, VSIM)
            assert 0.0 <= w <= 1.0

    def test_frequency_scaling_leaves_cosine_unchanged(self):
        # scaling every factor by a positive constant cancels in the norms
        rng = np.random.default_rng(5)
        db = random_explicit_db(rng, n_users=6, n_items=6, density=0.9)
        a, b = db.users[0], db.users[1]
        base = weight(db, case_for(a, db.votes[a]), b, VSIM)
        f = {it: 3.7 for it in db.items}
        pairs = [(db.votes[a].get(it, 0.0) * f[it], db.votes[b].get(it, 0.0) * f[it]) for it in db.items]
        na = math.sqrt(sum(x * x for x, _ in pairs))
        nb = math.sqrt(sum(y * y for _, y in pairs))
        scaled = sum(x * y for x, y in pairs) / (na * nb)
        assert scaled == pytest.approx(base, abs=1e-12)


def iuf(db, item):
    return float(db.index.iuf[db.index.item_pos[item]])


class TestInverseUserFrequency:
    def test_universal_item_scores_zero(self):
        db = make_db([("u", "a", 1), ("u", "b", 1), ("v", "a", 1)], scale=IMPLICIT_SCALE)
        assert iuf(db, "a") == pytest.approx(0.0)

    def test_log_ratio(self):
        rows = [(f"u{i}", "common", 1) for i in range(100)]
        rows += [(f"u{i}", "rare", 1) for i in range(10)]
        db = make_db(rows, scale=IMPLICIT_SCALE)
        assert iuf(db, "rare") == pytest.approx(math.log(10), abs=1e-9)

    def test_unvoted_item_scores_zero(self):
        # an item nobody voted on has no frequency factor; it never contributes
        db = make_db([("u", "a", 1)], scale=IMPLICIT_SCALE, items=["a", "ghost"])
        assert iuf(db, "ghost") == 0.0


def amplified(p, user):
    """The weight of `user` for the case (0, 1, 2) on j1..j3, amplified by p."""
    db = make_db([
        ("same", "j1", 0), ("same", "j2", 1), ("same", "j3", 2),  # correlates 1
        ("half", "j1", 1), ("half", "j2", 0), ("half", "j3", 2),  # correlates 0.5
        ("anti", "j1", 1), ("anti", "j2", 2), ("anti", "j3", 0),  # correlates -0.5
    ])
    case = case_for("a", {"j1": 0.0, "j2": 1.0, "j3": 2.0})
    return weight(db, case, user, MemoryConfig("correlation", case_amplification=p))


class TestCaseAmplify:
    def test_fixed_point(self):
        assert amplified(2.5, "same") == pytest.approx(1.0)

    def test_positive_power(self):
        assert amplified(2.5, "half") == pytest.approx(0.1767767, abs=1e-7)

    def test_odd_symmetry(self):
        assert amplified(2.5, "anti") == pytest.approx(-0.1767767, abs=1e-7)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.floats(min_value=0.1, max_value=6.0),
    )
    def test_preserves_sign_and_bound(self, seed, p):
        db = random_explicit_db(np.random.default_rng(seed), n_users=8, n_items=6, density=0.7)
        case = case_for("probe", dict(db.votes[db.users[0]]))
        w = MemoryScorer(db, CORR).weights([case])[0]
        out = MemoryScorer(db, MemoryConfig("correlation", case_amplification=p)).weights([case])[0]
        assert (np.abs(out) <= 1.0 + 1e-12).all()
        assert ((np.sign(out) == np.sign(w)) | (out == 0.0)).all()
        assert out == pytest.approx(np.sign(w) * np.abs(w) ** p, abs=1e-12)

    def test_preserves_ordering_of_magnitudes(self):
        rng = np.random.default_rng(0)
        db = random_explicit_db(rng, n_users=50, n_items=8, density=0.6)
        case = case_for("probe", dict(db.votes[db.users[0]]))
        w = MemoryScorer(db, CORR).weights([case])[0]
        for p in (0.5, 1.0, 2.5, 4.0):
            amped = MemoryScorer(db, MemoryConfig("correlation", case_amplification=p)).weights([case])[0]
            assert (np.argsort(np.abs(w), kind="stable") == np.argsort(np.abs(amped), kind="stable")).all()


def informed(pred, case, item):
    return bool(scores_of(pred, case)[1][pred.train.index.item_pos[item]])


class TestPredictVote:
    def test_single_neighbor(self):
        db = make_db([("i", "j", 5), ("i", "a", 4), ("i", "b", 3)])
        # neighbor mean is 4; the active case correlates perfectly on (a, b)
        case = case_for("act", {"a": 5.0, "b": 4.0})
        assert weight(db, case, "i", CORR) == pytest.approx(1.0)
        base = case.observed_mean
        pred = MemoryPredictor(db, CORR, name="CR")
        assert informed(pred, case, "j")
        assert pred.predict(case, "j") == pytest.approx(min(5.0, base + (5.0 - 4.0)))

    def test_opposing_deviations_cancel(self):
        # two equally weighted neighbors deviate +1 and -1 on the target
        db = make_db(
            [
                ("n1", "a", 1), ("n1", "b", 5), ("n1", "j", 4),  # mean 10/3
                ("n2", "a", 1), ("n2", "b", 5), ("n2", "j", 2),  # mean 8/3
            ]
        )
        case = case_for("act", {"a": 1.0, "b": 5.0})
        w1 = weight(db, case, "n1", CORR)
        w2 = weight(db, case, "n2", CORR)
        assert w1 == pytest.approx(w2)
        dev1 = 4.0 - mean(db, "n1")
        dev2 = 2.0 - mean(db, "n2")
        expected = case.observed_mean + (w1 * dev1 + w2 * dev2) / (abs(w1) + abs(w2))
        pred = MemoryPredictor(db, CORR, name="CR")
        assert pred.predict(case, "j") == pytest.approx(expected, abs=1e-12)

    def test_uninformed_fallback(self):
        db = make_db([("i", "a", 2), ("i", "b", 4), ("k", "c", 1), ("k", "d", 5)])
        case = case_for("act", {"a": 2.0, "b": 4.0})
        pred = MemoryPredictor(db, CORR, name="CR")
        # no neighbour weighs in on c, and nowhere is absent from training
        assert not informed(pred, case, "c")
        assert pred.predict(case, "c") == pytest.approx(3.0)
        assert pred.predict(case, "nowhere") == pytest.approx(3.0)

    def test_clamped_to_scale(self):
        db = make_db([("i", "a", 5), ("i", "b", 0), ("i", "j", 5)])
        case = case_for("act", {"a": 5.0, "b": 0.0})
        assert 0.0 <= MemoryPredictor(db, CORR, name="CR").predict(case, "j") <= 5.0


def mean(db, user):
    votes = db.votes[user]
    return sum(votes.values()) / len(votes)


class TestRankItems:
    def test_sorted_by_prediction(self, tiny_explicit_db):
        case = case_for("act", {"a": 1.0, "b": 5.0})
        ranked = MemoryPredictor(tiny_explicit_db, CORR, name="CR").rank(case)
        assert set(ranked) == {"c", "d"}

    def test_observed_items_excluded(self, tiny_explicit_db):
        case = case_for("act", {"a": 1.0, "b": 5.0})
        ranked = MemoryPredictor(tiny_explicit_db, CORR, name="CR").rank(case)
        assert "a" not in ranked and "b" not in ranked

    def test_ties_break_by_item_id(self):
        db = make_db([("u", "i9", 3), ("u", "i2", 3), ("u", "a", 1), ("x", "a", 2), ("x", "i2", 3)])
        case = case_for("act", {"a": 1.0})
        ranked = MemoryPredictor(db, CORR, name="CR").rank(case)
        # no informative neighbors: everything ties at the base, id order wins
        assert ranked == sorted(ranked)


    def test_informed_before_uninformed_on_equal_scores(self):
        # i correlates 1 and deviates 0 on j, so j is informed at the base 3;
        # x shares no item, so c and d fall back to the base uninformed
        db = make_db([("i", "a", 1), ("i", "b", 5), ("i", "j", 3), ("x", "c", 4), ("x", "d", 2)])
        case = case_for("act", {"a": 1.0, "b": 5.0})
        pred = MemoryPredictor(db, CORR, name="CR")
        scores, informed = scores_of(pred, case)
        assert scores[2:].tolist() == [3.0] * 3 and informed[2:].tolist() == [True, False, False]
        assert pred.rank(case) == ["j", "c", "d"]


class TestPopularityRank:
    def test_count_order(self):
        rows = [(f"u{i}", "i1", 1) for i in range(10)] + [("u0", "i2", 1), ("u1", "i2", 1), ("u2", "i2", 1)]
        db = make_db(rows, scale=IMPLICIT_SCALE)
        case = case_for("act", {"zz": 1.0})
        assert PopularityPredictor(db).rank(case) == ["i1", "i2"]

    def test_observed_excluded_even_if_popular(self):
        rows = [(f"u{i}", "i1", 1) for i in range(10)] + [("u0", "i2", 1)]
        db = make_db(rows, scale=IMPLICIT_SCALE)
        case = case_for("act", {"i1": 1.0})
        assert PopularityPredictor(db).rank(case) == ["i2"]

    def test_equal_counts_id_order(self):
        db = make_db([("u", "b", 1), ("u", "a", 1)], scale=IMPLICIT_SCALE)
        case = case_for("act", {"zz": 1.0})
        assert PopularityPredictor(db).rank(case) == ["a", "b"]


def _configs_for(scale_implicit: bool):
    """Weight/extension combinations exercised against the brute-force oracle."""
    out = []
    for iuf in (False, True):
        for amp in (None, 2.5):
            out.append(MemoryConfig("correlation", None, iuf, amp))
            d = 0.0 if scale_implicit else 3.0
            out.append(MemoryConfig("correlation", DefaultVoting(d=d, k=7), iuf, amp))
            if scale_implicit:
                out.append(MemoryConfig("vector_similarity", DefaultVoting(d=0.0, k=0), iuf, amp))
            else:
                out.append(MemoryConfig("vector_similarity", None, iuf, amp))
    return out


class TestVectorizedAgainstBruteForce:
    def test_explicit_databases(self):
        rng = np.random.default_rng(101)
        for trial in range(25):
            db = random_explicit_db(rng, n_users=7, n_items=6, density=0.6)
            user = db.users[0]
            votes = dict(db.votes[user])
            observed = dict(list(votes.items())[: max(1, len(votes) - 1)])
            case = case_for("outside", observed)
            for cfg in _configs_for(False):
                scorer = MemoryScorer(db, cfg)
                (values,), (informed,) = scorer.predict_all([case])
                for j, item in enumerate(db.items):
                    ref_val, ref_inf = brute_predict(case, item, db, cfg)
                    assert values[j] == pytest.approx(ref_val, abs=1e-9), (cfg, item)
                    assert bool(informed[j]) == ref_inf

    def test_implicit_databases(self):
        rng = np.random.default_rng(202)
        for trial in range(25):
            db = random_implicit_db(rng, n_users=7, n_items=6, density=0.5)
            user = db.users[0]
            case = case_for("outside", dict(db.votes[user]))
            for cfg in _configs_for(True):
                scorer = MemoryScorer(db, cfg)
                (values,), (informed,) = scorer.predict_all([case])
                for j, item in enumerate(db.items):
                    ref_val, ref_inf = brute_predict(case, item, db, cfg)
                    assert values[j] == pytest.approx(ref_val, abs=1e-9), (cfg, item)
                    assert bool(informed[j]) == ref_inf

    def test_scalar_weights_match_vectorized(self):
        rng = np.random.default_rng(303)
        for trial in range(10):
            db = random_explicit_db(rng, n_users=6, n_items=6, density=0.7)
            case = case_for("outside", dict(db.votes[db.users[0]]))
            for cfg in _configs_for(False):
                scorer = MemoryScorer(db, cfg)
                w = scorer.weights([case])[0]
                for i, u in enumerate(db.users):
                    ref = brute_weight(case.observed, db.votes[u], db, cfg)
                    ref = 0.0 if ref is None else ref
                    if cfg.case_amplification is not None:
                        ref = math.copysign(abs(ref) ** cfg.case_amplification, ref)
                    assert w[i] == pytest.approx(ref, abs=1e-9)


def block_cases(rng, db, n):
    """n cases, each observing its items in a random order. Some observe only
    items absent from training, some are a training user voting as in
    training."""
    values = db.scale.vote_values
    cases = []
    for k in range(n):
        kind = int(rng.integers(4))
        if kind == 0:
            cases.append(case_for(f"t{k}", {"zz": float(values[-1]), "zy": float(values[0])}))
        elif kind == 1:
            user = db.users[int(rng.integers(len(db.users)))]
            votes = db.votes[user]
            cases.append(case_for(user, {it: votes[it] for it in rng.permutation(list(votes))}))
        else:
            items = rng.permutation(len(db.items))[: int(rng.integers(1, len(db.items) + 1))]
            observed = {db.items[j]: float(values[rng.integers(len(values))]) for j in items}
            cases.append(case_for(f"t{k}", observed))
    return cases


# the largest block test_block_equals_block_of_one has the block rule give
MAX_BLOCK = 4


def vote_columns(db):
    """The votes to the powers 0, 1 and 2, each an item-major matrix on the
    pattern of `V_csc`: the columns that `_Evidence.user_sums` weighs by."""
    V = db.index.V_csc
    return [sp.csc_matrix((V.data**power, V.indices, V.indptr), shape=V.shape)
            for power in range(3)]


class TestBlocks:
    """A block's weights and predictions are, row for row and bit for bit,
    those of each case scored alone."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_cases=st.integers(0, 6))
    def test_user_sums_add_in_observed_order(self, seed, n_cases):
        # a case alone walks its item columns in observed order, adding each
        # user's terms as it goes; the block's sums must add them alike, for
        # every power of the vote (0 votes included)
        rng = np.random.default_rng(seed)
        db = random_explicit_db(rng, n_users=6, n_items=7, density=0.7)
        cases = block_cases(rng, db, n_cases)
        ev = _Evidence(cases, db.index)
        x = rng.normal(size=len(ev.cols)) * 10.0 ** rng.integers(-8, 9, size=len(ev.cols))
        term = {0: lambda v: 1.0, 1: lambda v: v, 2: lambda v: v * v}
        for power, value in term.items():
            (got,) = ev.user_sums(power, x)
            assert got.shape == (n_cases, len(db.users))
            for row, case in enumerate(cases):
                for i, u in enumerate(db.users):
                    want = 0.0
                    for k in range(ev.indptr[row], ev.indptr[row + 1]):
                        vote = db.votes[u].get(db.items[ev.cols[k]])
                        if vote is not None:
                            want += float(x[k]) * value(vote)
                    assert got[row, i] == want, power
            want = evidence_product_sums(ev.indptr, ev.cols, vote_columns(db)[power], x)
            assert got.tobytes() == want[0].tobytes(), power

    def test_zero_votes_and_cases_outside_training(self):
        # a 0 vote is a co-vote: it counts at power 0 and adds 0 * x at
        # powers 1 and 2
        db = make_db([("u", "a", 0), ("u", "b", 4), ("w", "a", 2)])
        cases = [case_for("t", {"b": 3, "a": 5}), case_for("s", {"zz": 1}), case_for("r", {"a": 1})]
        ev = _Evidence(cases, db.index)
        x = np.array([2.0, 3.0, 7.0])
        count, sx = ev.user_sums(0, np.ones(3), x)
        (sv,) = ev.user_sums(1, x)
        (sv2,) = ev.user_sums(2, x)
        assert count.tolist() == [[2.0, 1.0], [0.0, 0.0], [1.0, 1.0]]
        assert sx.tolist() == [[5.0, 3.0], [0.0, 0.0], [7.0, 7.0]]
        assert sv.tolist() == [[8.0, 6.0], [0.0, 0.0], [0.0, 14.0]]
        assert sv2.tolist() == [[32.0, 12.0], [0.0, 0.0], [0.0, 28.0]]
        columns = vote_columns(db)
        for power, xs, got in ((0, np.ones(3), count), (0, x, sx), (1, x, sv), (2, x, sv2)):
            (want,) = evidence_product_sums(ev.indptr, ev.cols, columns[power], xs)
            assert got.tobytes() == want.tobytes(), power
        assert [a.shape for a in _Evidence([], db.index).user_sums(1, x[:0])] == [(0, 2)]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_cases=st.integers(0, 8), implicit=st.booleans())
    def test_user_sums_equal_the_sparse_product(self, seed, n_cases, implicit):
        rng = np.random.default_rng(seed)
        n_users, n_items = int(rng.integers(1, 15)), int(rng.integers(1, 10))
        if implicit:
            db = random_implicit_db(rng, n_users=n_users, n_items=n_items, density=0.5)
        else:
            db = random_explicit_db(rng, n_users=n_users, n_items=max(n_items, 2), density=0.6)
        cases = block_cases(rng, db, n_cases)
        ev = _Evidence(cases, db.index)
        xs = [rng.normal(size=len(ev.cols)) * 10.0 ** rng.integers(-8, 9, size=len(ev.cols))
              for _ in range(3)]
        for power, columns in enumerate(vote_columns(db)):
            got = ev.user_sums(power, *xs)
            want = evidence_product_sums(ev.indptr, ev.cols, columns, *xs)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 5))
    def test_item_major_products_equal_user_major(self, seed, n_rows):
        # predictions multiply the weights into the scorer's item-major
        # (items x users) vote matrices, (X.T @ w.T).T; each item must add
        # its voters' terms as w @ X adds them on the user-major matrix
        rng = np.random.default_rng(seed)
        db = random_explicit_db(rng, n_users=int(rng.integers(1, 15)), n_items=6, density=0.6)
        shape = (n_rows, len(db.users))
        w = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        w[rng.random(shape) < 0.4] = 0.0
        plain = MemoryScorer(db, CORR)
        completed = MemoryScorer(db, MemoryConfig(default_voting=DefaultVoting()))
        V, means = db.index.V, db.index.user_means

        def on_votes(data):  # user-major, on the pattern of the votes
            return sp.csr_matrix((data, V.indices, V.indptr), shape=V.shape)

        user_major = {
            "centred": on_votes(V.data - np.repeat(means, np.diff(V.indptr))),
            "mask": on_votes(np.ones(V.nnz)),
            "minus default": on_votes(V.data - completed.default),
        }
        item_major = {"centred": plain._centered_T, "mask": plain._mask_T,
                      "minus default": completed._v_minus_default_T}
        for name, X_T in item_major.items():
            assert X_T.shape == (len(db.items), len(db.users)), name
            assert (X_T.T != user_major[name]).nnz == 0 and X_T.nnz == V.nnz, name
            want = np.asarray(w @ user_major[name])
            assert (X_T @ w.T).T.tobytes() == want.tobytes(), name

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        implicit=st.booleans(),
        n_cases=st.integers(1, 2 * MAX_BLOCK + 3),
        block=st.integers(1, MAX_BLOCK),
    )
    # an uncorrelated neighbour whose round-off covariance is 3.2e-17
    @example(seed=559, implicit=False, n_cases=1, block=1)
    def test_block_equals_block_of_one(self, seed, implicit, n_cases, block):
        rng = np.random.default_rng(seed)
        n_users, n_items = int(rng.integers(2, 12)), int(rng.integers(2, 9))
        # a weight budget that the block rule turns into `block` cases per
        # block, so that predict_all splits the cases into up to n_cases blocks
        budget = block * n_users + seed % n_users
        if implicit:
            db = random_implicit_db(rng, n_users=n_users, n_items=n_items, density=0.5)
        else:
            db = random_explicit_db(rng, n_users=n_users, n_items=n_items, density=0.6)
        cases = block_cases(rng, db, n_cases)
        for cfg in _configs_for(implicit):
            scorer = MemoryScorer(db, cfg)
            # the default budget holds every case in one block
            assert memory.block_cases(db) >= n_cases
            weights = scorer.weights(cases)
            values, informed = scorer.predict_all(cases)
            pred = MemoryPredictor(db, cfg, name="M")
            with mock.patch.object(memory, "BLOCK_WEIGHTS", budget):
                assert memory.block_cases(db) == block
                # the predictor's evaluation of every case, in the scorer's blocks
                got = pred.evaluate(cases)
            got_v, got_i = got.scores, got.informed
            for row, case in enumerate(cases):
                (alone_v,), (alone_i,) = scorer.predict_all([case])
                assert weights[row].tobytes() == scorer.weights([case]).tobytes(), cfg
                assert values[row].tobytes() == alone_v.tobytes(), cfg
                assert informed[row].tobytes() == alone_i.tobytes(), cfg
                assert got_v[row].tobytes() == alone_v.tobytes(), cfg
                assert got_i[row].tobytes() == alone_i.tobytes(), cfg
            row = int(rng.integers(n_cases))
            case = cases[row]
            for i, u in enumerate(db.users):
                ref = 0.0 if u == case.user else brute_weight(case.observed, db.votes[u], db, cfg)
                ref = 0.0 if ref is None else ref
                if cfg.case_amplification is not None:
                    ref = math.copysign(abs(ref) ** cfg.case_amplification, ref)
                assert weights[row, i] == pytest.approx(ref, abs=1e-9), (cfg, u)
            if np.any((weights[row] != 0) & (np.abs(weights[row]) < 1e-9)):
                continue  # round-off left for a zero weight decides the votes
            for j, item in enumerate(db.items):
                ref_val, ref_inf = brute_predict(case, item, db, cfg)
                assert values[row, j] == pytest.approx(ref_val, abs=1e-9), (cfg, item)
                assert bool(informed[row, j]) == ref_inf, (cfg, item)


class TestConfigValidation:
    def test_vsim_default_voting_requires_implicit_zero(self):
        db = make_db([("u", "a", 3), ("u", "b", 2)])
        cfg = MemoryConfig("vector_similarity", DefaultVoting(d=3.0, k=0))
        case = case_for("x", {"a": 1.0})
        with pytest.raises(ValueError):
            MemoryScorer(db, cfg)

    def test_amplification_power_positive(self):
        with pytest.raises(ValueError):
            MemoryConfig(case_amplification=0.0)


class TestRankingRule:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_items=st.integers(1, 8), informed_all=st.booleans())
    def test_ranked_ids_matches_sorted_keys(self, seed, n_items, informed_all):
        rng = np.random.default_rng(seed)
        db = random_implicit_db(rng, n_users=6, n_items=n_items)
        values = rng.integers(0, 3, size=n_items).astype(float)  # small range: ties
        informed = None if informed_all else rng.random(n_items) < 0.5
        observed = {it: 1.0 for it in db.items if rng.random() < 0.3} or {"zz": 1.0}
        case = case_for("t", observed)
        flag = np.ones(n_items, dtype=bool) if informed is None else informed
        want = sorted(
            (it for it in db.items if it not in observed),
            key=lambda it: (-values[db.items.index(it)], not flag[db.items.index(it)], it),
        )
        assert lexsort_ranked(db.index, case.observed, ~flag, -values) == want
        assert FixedScores(db, values, flag).rank(case) == want
