import json
import math
import os
import subprocess
import sys
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats as sstats

from cflab import evaluation, memory
from cflab.bayesnet import LearnConfig, learn_network
from cflab.cluster import em_fit
from cflab.evaluation import (
    METRICS,
    ExperimentReport,
    RankedScoringConfig,
    absolute_deviation,
    bonferroni_required_difference,
    max_ranked_utility,
    normalized_ranked_score,
    ranked_utility,
    run_experiment,
)
from cflab.memory import DefaultVoting, MemoryConfig, MemoryScorer
from cflab.predictors import (
    BayesNetPredictor,
    Block,
    ClusterPredictor,
    PopularityPredictor,
    Predictor,
)
from cflab.votedata import ActiveCase, Protocol, VoteDataError, generate_active_cases

from conftest import case_for, make_db, random_grouped_db, random_implicit_db
from reference import bn_scores_walk, brute_ranked_utility, reference_reports

CFG5 = RankedScoringConfig(half_life=5.0, neutral=0.0)


class TestRankedUtility:
    def test_single_item_top_of_list(self):
        assert ranked_utility(["a"], {"a": 1.0}, CFG5) == pytest.approx(1.0)

    def test_half_life_position_halves_the_credit(self):
        ranked = ["x1", "x2", "x3", "x4", "a"]
        assert ranked_utility(ranked, {"a": 1.0}, CFG5) == pytest.approx(0.5)

    def test_voted_item_at_rank_two(self):
        ranked = ["unvoted", "a"]
        assert ranked_utility(ranked, {"a": 1.0}, CFG5) == pytest.approx(
            0.840896, abs=1e-6
        )

    def test_against_brute_force_random_lists(self):
        rng = np.random.default_rng(99)
        items = [f"i{k}" for k in range(30)]
        for trial in range(100):
            perm = list(rng.permutation(items))
            voted = {it: float(rng.integers(0, 6)) for it in rng.choice(items, 6, replace=False)}
            cfg = RankedScoringConfig(half_life=float(rng.choice([3, 5, 10])), neutral=float(rng.integers(0, 3)))
            ref = brute_ranked_utility(perm, voted, cfg.half_life, cfg.neutral)
            assert ranked_utility(perm, voted, cfg) == pytest.approx(ref, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        n_items=st.integers(0, 40),
        half_life=st.sampled_from([2.0, 3.0, 5.0, 10.0]),
        neutral=st.sampled_from([0.0, 1.0, 3.0]),
        data=st.data(),
    )
    def test_equals_full_walk_bitwise(self, n_items, half_life, neutral, data):
        items = [f"i{k}" for k in range(n_items)]
        ranked = data.draw(st.permutations(items))
        # 0, 1 or several targets, some of them absent from the list
        targets = data.draw(st.dictionaries(
            st.sampled_from(items + ["absent1", "absent2"]),
            st.floats(min_value=0.0, max_value=5.0),
            max_size=8,
        ))
        cfg = RankedScoringConfig(half_life=half_life, neutral=neutral)
        want = brute_ranked_utility(ranked, targets, half_life, neutral)
        assert ranked_utility(ranked, targets, cfg) == want

    def test_votes_below_neutral_earn_nothing(self):
        cfg = RankedScoringConfig(half_life=5.0, neutral=3.0)
        assert ranked_utility(["a"], {"a": 2.0}, cfg) == 0.0

    def test_monotone_under_upward_swap(self):
        rng = np.random.default_rng(4)
        items = [f"i{k}" for k in range(12)]
        for trial in range(50):
            perm = list(rng.permutation(items))
            voted = {it: float(rng.integers(1, 6)) for it in rng.choice(items, 4, replace=False)}
            pos = [i for i, it in enumerate(perm) if it in voted and i > 0 and perm[i - 1] not in voted]
            if not pos:
                continue
            i = pos[0]
            swapped = perm.copy()
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            assert ranked_utility(swapped, voted, CFG5) >= ranked_utility(perm, voted, CFG5)

    def test_half_life_doubling_every_four_ranks(self):
        base = ranked_utility(["a"], {"a": 1.0}, CFG5)
        for shift in (1, 2, 3):
            padded = ["x"] * (4 * shift) + ["a"]
            assert ranked_utility(padded, {"a": 1.0}, CFG5) == pytest.approx(
                base / 2**shift
            )


class TestNormalizedRankedScore:
    def test_perfect_lists_score_100(self):
        cfg = CFG5
        actual = {"a": 3.0, "b": 1.0}
        ideal_r = max_ranked_utility(actual, cfg)
        got = ranked_utility(["a", "b", "x"], actual, cfg)
        assert normalized_ranked_score([got], [ideal_r]) == pytest.approx(100.0)

    def test_single_case_from_utilities(self):
        assert normalized_ranked_score([0.840896], [1.0]) == pytest.approx(
            84.0896, abs=1e-4
        )

    def test_all_cases_excluded_is_error(self):
        with pytest.raises(ValueError):
            normalized_ranked_score([0.0], [0.0])

    def test_max_utility_orders_by_vote(self):
        cfg = CFG5
        actual = {"low": 1.0, "high": 4.0}
        ideal = 4.0 / 1.0 + 1.0 / 2 ** (1 / 4)
        assert max_ranked_utility(actual, cfg) == pytest.approx(ideal)


class TestAbsoluteDeviation:
    def test_exact_predictions(self):
        assert absolute_deviation({"a": 3.0, "b": 2.0}, {"a": 3.0, "b": 2.0}) == 0.0

    def test_hand_value(self):
        assert absolute_deviation({"a": 3.0, "b": 4.0}, {"a": 5.0, "b": 2.0}) == pytest.approx(2.0)

    def test_empty_targets_is_error(self):
        with pytest.raises(ValueError):
            absolute_deviation({}, {})

    def test_missing_prediction_is_error(self):
        with pytest.raises(ValueError):
            absolute_deviation({"a": 3.0}, {"a": 3.0, "b": 1.0})

    @settings(max_examples=50, deadline=None)
    @given(
        votes=st.lists(st.floats(0, 5), min_size=1, max_size=6),
        errs=st.lists(st.floats(-2, 2), min_size=6, max_size=6),
        c=st.floats(-10, 10),
    )
    def test_translation_equivariance(self, votes, errs, c):
        actual = {f"i{k}": v for k, v in enumerate(votes)}
        preds = {f"i{k}": v + errs[k] for k, v in enumerate(votes)}
        shifted_actual = {k: v + c for k, v in actual.items()}
        shifted_preds = {k: v + c for k, v in preds.items()}
        assert absolute_deviation(preds, actual) == pytest.approx(
            absolute_deviation(shifted_preds, shifted_actual), abs=1e-9
        )


@st.composite
def _score_shapes(draw):
    """(cases, algorithms): 2-12 algorithms and up to 2e6 scores (16 MB an
    array), so up to 10^6 cases at two algorithms and 166666 at twelve; the
    case count is log-uniform, so that large ones are drawn as often as small."""
    algorithms = draw(st.integers(2, 12))
    most = 2 * 10**6 // algorithms
    return int(2 ** draw(st.floats(1, math.log2(most)))), algorithms


class TestRequiredDifference:
    def test_identical_columns_give_zero(self):
        x = np.tile(np.array([[1.0], [2.0], [5.0]]), (1, 3))
        assert bonferroni_required_difference(x) == 0.0

    def test_hand_worked_three_by_two(self):
        # blocks (1,2), (2,4), (3,3): row means 1.5, 3, 3; column means 2, 3;
        # grand 2.5; residuals 0, 0, -.5, .5, .5, -.5 so SSE = 1, df = 2,
        # MSE = 0.5; one pair at 90 percent keeps alpha' = 0.1
        x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 3.0]])
        t_crit = sstats.t.ppf(1 - 0.05, 2)
        expected = t_crit * math.sqrt(2 * 0.5 / 3)
        assert bonferroni_required_difference(x, 0.90) == expected
        assert bonferroni_required_difference(x, 0.90) == pytest.approx(1.6858544608, abs=1e-6)

    def test_three_algorithms_bonferroni_correction(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(12, 3))
        b, m = x.shape
        grand = x.mean()
        resid = x - x.mean(1, keepdims=True) - x.mean(0, keepdims=True) + grand
        mse = (resid**2).sum() / ((m - 1) * (b - 1))
        alpha_pair = (1 - 0.90) / 3  # three pairwise comparisons
        expected = sstats.t.ppf(1 - alpha_pair / 2, (m - 1) * (b - 1)) * math.sqrt(2 * mse / b)
        assert bonferroni_required_difference(x, 0.90) == expected

    @settings(max_examples=60, deadline=None)
    @given(shape=_score_shapes(), seed=st.integers(0, 2**32 - 1), decimals=st.integers(0, 3),
           confidence=st.one_of(st.just(0.90),
                                st.floats(0, 1, exclude_min=True, exclude_max=True)))
    @example(shape=(5, 3), seed=0, decimals=1, confidence=0.90)
    @example(shape=(10**6, 2), seed=1, decimals=3, confidence=0.90)
    @example(shape=(166666, 12), seed=2, decimals=3, confidence=0.90)
    def test_same_bits_as_t_ppf(self, shape, seed, decimals, confidence):
        x = np.round(np.random.default_rng(seed).normal(size=shape), decimals)
        got = bonferroni_required_difference(x, confidence)
        assert float.hex(got) == float.hex(_rd_with_t_ppf(x, confidence))

    def test_block_shift_invariance(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(9, 4))
        rd1 = bonferroni_required_difference(x)
        shifted = x + rng.normal(size=(9, 1))  # constant added per block
        rd2 = bonferroni_required_difference(shifted)
        assert rd1 == pytest.approx(rd2, abs=1e-9)

    def test_needs_two_of_each(self):
        with pytest.raises(ValueError):
            bonferroni_required_difference(np.ones((1, 3)))
        with pytest.raises(ValueError):
            bonferroni_required_difference(np.ones((3, 1)))


def _rd_with_t_ppf(x, confidence):
    """`bonferroni_required_difference`'s formula, with the quantile from
    `scipy.stats.t.ppf`."""
    b, m = x.shape
    resid = x - x.mean(axis=1, keepdims=True) - x.mean(axis=0, keepdims=True) + x.mean()
    df = (m - 1) * (b - 1)
    mse = float((resid**2).sum()) / df
    if mse <= 0.0:
        return 0.0
    alpha_pair = (1.0 - confidence) / (m * (m - 1) / 2)
    return float(sstats.t.ppf(1.0 - alpha_pair / 2.0, df)) * float(np.sqrt(2.0 * mse / b))


def test_import_leaves_out_scipy_stats():
    # scipy.stats costs more memory and start-up time than everything else
    # cflab imports together; the CLI's import path must not load it
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import json, sys\nimport cflab, cflab.cli\n"
            "print(json.dumps({name: hasattr(mod, '__path__') for name, mod in "
            "sys.modules.items() if name.startswith('scipy.')}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    loaded = json.loads(proc.stdout)  # scipy module name: is it a package
    assert not [name for name in loaded if name.split(".")[1] == "stats"]
    public = {name for name, is_package in loaded.items() if is_package
              and name.count(".") == 1 and not name.split(".")[1].startswith("_")}
    assert public == {"scipy.sparse", "scipy.special"}


class _ConstantRanker:
    """Deterministic stub: ranks the training items in a fixed order and
    predicts one vote."""

    def __init__(self, train, name, order, value=3.0):
        self.name = name
        self.value = value
        position = {it: k for k, it in enumerate(order)}
        self.row = np.array([-float(position[it]) for it in train.items])

    def evaluate(self, cases):
        scores = np.tile(self.row, (len(cases), 1))
        return Block(scores, np.ones(scores.shape, dtype=bool),
                     lambda rows, cols: np.array([self._vote(cases[r]) for r in rows], float))

    def _vote(self, case):
        return self.value


class _FailingOnUser(_ConstantRanker):
    def __init__(self, train, name, bad_user, order):
        super().__init__(train, name, order, value=1.0)
        self.bad_user = bad_user

    def evaluate(self, cases):
        if any(case.user == self.bad_user for case in cases):
            raise RuntimeError("boom")
        return super().evaluate(cases)


def _implicit_cases(db, n_observed=1):
    cases = []
    for u in db.users:
        votes = dict(db.votes[u])
        if len(votes) < n_observed + 1:
            continue
        items = list(votes)
        observed = {it: votes[it] for it in items[:n_observed]}
        targets = {it: votes[it] for it in items[n_observed:]}
        cases.append(ActiveCase(u, observed, targets))
    return cases


class TestRunExperiment:
    def _setup(self):
        db = random_implicit_db(np.random.default_rng(17), n_users=10, n_items=6, density=0.6)
        cases = _implicit_cases(db)
        items = list(db.items)
        algs = [
            _ConstantRanker(db, "A", items),
            _ConstantRanker(db, "B", list(reversed(items))),
        ]
        return db, cases, algs

    def test_deterministic_repeat(self):
        db, cases, algs = self._setup()
        [r1] = run_experiment(db, cases, algs, ["ranked"], protocol_label="Given1", seed=3)
        [r2] = run_experiment(db, cases, algs, ["ranked"], protocol_label="Given1", seed=3)
        assert r1.dumps() == r2.dumps()

    def test_single_algorithm_rd_not_applicable(self):
        db, cases, algs = self._setup()
        [r] = run_experiment(db, cases, algs[:1], ["ranked"])
        assert r.required_difference is None

    def test_aggregate_recomputable_from_matrix(self):
        db, cases, algs = self._setup()
        [r] = run_experiment(db, cases, algs, ["ranked"])
        for name in r.algorithms:
            want = normalized_ranked_score(r.scores[name], r.rmax)
            assert r.aggregate[name] == pytest.approx(want, abs=1e-9)

    def test_failing_algorithm_drops_case_for_all(self):
        db, cases, algs = self._setup()
        bad_user = cases[0].user
        algs = [algs[0], _FailingOnUser(db, "F", bad_user, list(db.items))]
        [r] = run_experiment(db, cases, algs, ["ranked"])
        assert bad_user not in r.case_ids
        assert bad_user in r.excluded["failed"]
        assert len(r.scores["A"]) == len(r.case_ids)
        assert len(r.scores["F"]) == len(r.case_ids)

    def test_zero_max_utility_cases_reported(self):
        db = make_db(
            [("u", "a", 1), ("u", "b", 2), ("v", "a", 4), ("v", "b", 5)],
            scale=None or __import__("cflab").VoteScale(0, 5, 3.0, False),
        )
        cases = [
            ActiveCase("u", {"a": 1.0}, {"b": 2.0}),  # target below neutral
            ActiveCase("v", {"a": 4.0}, {"b": 5.0}),
        ]
        algs = [_ConstantRanker(db, "A", ["a", "b"]), _ConstantRanker(db, "B", ["b", "a"])]
        [r] = run_experiment(
            db, cases, algs, ["ranked"],
            ranked_cfg=RankedScoringConfig(half_life=5.0, neutral=3.0),
        )
        assert r.excluded["zero_max_utility"] == ["u"]
        assert r.case_ids == ["v"]

    def test_deviation_metric(self):
        db, cases, _ = self._setup()
        algs = [_ConstantRanker(db, "A", list(db.items), value=1.0),
                _ConstantRanker(db, "B", list(db.items), value=0.0)]
        [r] = run_experiment(db, cases, algs, ["deviation"])
        # implicit targets are all ones, so the constant-1 predictor is exact
        assert r.aggregate["A"] == pytest.approx(0.0)
        assert r.aggregate["B"] == pytest.approx(1.0)
        assert r.required_difference is not None

    def test_report_json_round_trip(self):
        db, cases, algs = self._setup()
        [r] = run_experiment(db, cases, algs, ["ranked"], seed=5, protocol_label="Given1")
        again = ExperimentReport.from_json(r.to_json())
        assert again.dumps() == r.dumps()
        for report in (r, again):  # per-case values as float64 arrays, as a run holds them
            for values in (*report.scores.values(), report.rmax):
                assert values.dtype == np.float64 and values.shape == (report.case_count,)


class _FailingPredict(_ConstantRanker):
    """Ranks every case; fails to predict on the given users' cases."""

    def __init__(self, train, name, order, bad_users):
        super().__init__(train, name, order)
        self.bad_users = set(bad_users)

    def _vote(self, case):
        if case.user in self.bad_users:
            raise RuntimeError("boom")
        return self.value


class _FailingPopularity(PopularityPredictor):
    """POP that fails every block holding a case of one user."""

    def __init__(self, train, bad_user):
        super().__init__(train, "F")
        self.bad_user = bad_user

    def evaluate(self, cases):
        if any(case.user == self.bad_user for case in cases):
            raise RuntimeError("boom")
        return super().evaluate(cases)


class TestOnePass:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_one_pass_equals_a_pass_per_metric(self, seed):
        rng = np.random.default_rng(seed)
        train = random_grouped_db(rng, explicit=True, n_users=40)
        test = random_grouped_db(rng, explicit=True, n_users=16)
        cases = generate_active_cases(test, Protocol.all_but_1(), seed=seed % 1000)
        i0, i1, i2 = train.items[:3]
        extra = [
            # no target above neutral: zero maximum utility, scored for deviation
            ActiveCase("low", {i0: 4.0}, {i1: 1.0}),
            # so that ranked scoring keeps a case on every database
            ActiveCase("high", {i1: 2.0}, {i0: 5.0}),
            # an off-scale vote on a model item: BN and BC fail every call
            ActiveCase("bad", {i0: 2.5, i1: 4.0}, {i2: 5.0}),
        ]
        for case in extra:
            cases.insert(int(rng.integers(len(cases) + 1)), case)
        bad_predict = {cases[int(k)].user for k in rng.choice(len(cases), size=2, replace=False)}
        bad_predict -= {"bad"}
        bc = em_fit(train, 2, seed=1)[0]
        bn = learn_network(train, LearnConfig(structure_penalty=0.99))

        def docs(metrics):
            # fresh predictors, so that each pass starts from empty stats
            algs = [
                MemoryScorer(train, MemoryConfig("correlation"), "CR"),
                BayesNetPredictor(train, bn),
                ClusterPredictor(train, bc),
                _FailingPredict(train, "F", train.items, bad_predict),
            ]
            reports = run_experiment(train, cases, algs, metrics, seed=7)
            assert [r.metric for r in reports] == list(metrics)
            assert all(set(r.timing) == {"CR", "BN", "BC", "F"} for r in reports)
            return {r.metric: r.to_json() for r in reports}

        alone = {m: docs([m])[m] for m in METRICS}
        forward, backward = docs(["ranked", "deviation"]), docs(["deviation", "ranked"])
        assert forward == backward
        for m in METRICS:
            got = {k: v for k, v in forward[m].items() if k != "extras"}
            want = {k: v for k, v in alone[m].items() if k != "extras"}
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        # extras count each metric's own calls; a predictor with stats is in both
        assert forward["ranked"]["extras"] == alone["ranked"]["extras"]
        assert forward["ranked"]["extras"]["BN"]["lookups"] > 0
        assert forward["deviation"]["extras"] == {"BN": {"influenced": 0, "lookups": 0}}
        assert alone["deviation"]["extras"] == {}
        # a failure excludes its case from the metric that raised only
        ranked, deviation = forward["ranked"], forward["deviation"]
        assert ranked["excluded"]["failed"] == ["bad"]
        assert sorted(deviation["excluded"]["failed"]) == sorted(bad_predict | {"bad"})
        assert "low" in ranked["excluded"]["zero_max_utility"]
        assert deviation["excluded"]["zero_max_utility"] == []
        assert "low" in deviation["case_ids"] or "low" in bad_predict
        assert bad_predict <= set(ranked["case_ids"]) | set(ranked["excluded"]["zero_max_utility"])

    def test_extras_do_not_depend_on_algorithm_order(self):
        # a predictor that fails a case listed before or after BN: BN's
        # extras count its work on the cases the report keeps either way
        rng = np.random.default_rng(3)
        train = random_grouped_db(rng, explicit=True, n_users=40)
        test = random_grouped_db(rng, explicit=True, n_users=16)
        cases = generate_active_cases(test, Protocol.all_but_1(), seed=1)
        bn = learn_network(train, LearnConfig(structure_penalty=0.99))

        def report(order):
            algs = {"F": _FailingPopularity(train, "u2"), "BN": BayesNetPredictor(train, bn)}
            [r] = run_experiment(train, cases, [algs[n] for n in order], ["ranked"])
            return r.to_json()

        first, last = report(["F", "BN"]), report(["BN", "F"])
        assert first["excluded"]["failed"] == ["u2"]
        assert first.pop("required_difference") == pytest.approx(last.pop("required_difference"))
        assert first.pop("algorithms") == last.pop("algorithms")[::-1]
        assert first == last
        kept = [case for case in cases if case.user in first["case_ids"]]
        assert first["extras"]["BN"]["lookups"] == sum(bn_scores_walk(bn, c)[1] for c in kept)

    def test_metrics_must_be_a_list_of_known_distinct_names(self):
        db, cases, algs = TestRunExperiment()._setup()
        for metrics in ([], ["ranked", "ranked"], ["precision"], "ranked"):
            with pytest.raises(ValueError):
                run_experiment(db, cases, algs, metrics)


class _Scripted(Predictor):
    """Scores drawn from a fixed hash of (user, item) among ties, +-0.0 and
    NaN, with a hashed informed mask; every call on a `fail_users` case
    raises, and so does a vote on a `vote_fail_users` case. It is its own
    oracle."""

    VALUES = (0.0, -0.0, 1.0, 1.0, 2.5, math.nan)

    def __init__(self, train, fail_users=(), vote_fail_users=()):
        super().__init__(train, "S")
        self.fail_users = set(fail_users)
        self.vote_fail_users = set(vote_fail_users)

    @staticmethod
    def _hash(*key):
        return zlib.crc32(repr(key).encode())

    def _row(self, case):
        if case.user in self.fail_users:
            raise RuntimeError("scripted failure")
        items = self.train.items
        scores = np.array([self.VALUES[self._hash(case.user, it) % 6] for it in items])
        informed = np.array([self._hash(it, case.user) % 3 > 0 for it in items])
        return scores, informed

    def evaluate(self, cases):
        rows = [self._row(case) for case in cases]
        return Block(np.array([s for s, _ in rows]), np.array([i for _, i in rows]),
                     lambda rows, cols: np.array([self._vote(cases[r], j) for r, j
                                                  in zip(rows.tolist(), cols.tolist())], float))

    def _vote(self, case, j):
        if case.user in self.vote_fail_users:
            raise RuntimeError("scripted vote failure")
        return float(self._hash(case.user, j) % 6)

    def oracle(self, case, items):
        scores, informed = self._row(case)
        pos = self.train.index.item_pos
        return ({it: (float(scores[pos[it]]), bool(informed[pos[it]])) for it in items},
                lambda it: self._vote(case, pos[it]), {})


def _has_residual_weights(alg, cases):
    """A memory predictor's round-off residual weights decide its votes, where
    the oracle has none: such draws are not compared."""
    if not isinstance(alg, MemoryScorer):
        return False
    w = alg.weights(cases)
    return bool(np.any((w != 0) & (np.abs(w) < 1e-9)))


class TestAgainstReference:
    """`run_experiment` against the reference runner, which composes the
    component oracles case by case."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        explicit=st.booleans(),
        given2=st.booleans(),
        metrics=st.sampled_from([["ranked"], ["deviation"], ["ranked", "deviation"],
                                 ["deviation", "ranked"]]),
        # the runner's cases per block and the memory scorer's, each drawn
        # apart; None puts every case in one block
        per_block=st.sampled_from([1, 2, 3, 4, None]),
        per_memory_block=st.sampled_from([1, 2, 3, None]),
    )
    def test_reports_match(self, seed, explicit, given2, metrics, per_block, per_memory_block):
        rng = np.random.default_rng(seed)
        # up to 13 items, so that a Given2 case can hold three or more targets,
        # whose gains add to different bits in another order
        n_items = int(rng.integers(6, 13))
        train = random_grouped_db(rng, explicit, n_users=int(rng.integers(15, 35)), n_items=n_items)
        # users share ids with train
        test = random_grouped_db(rng, explicit, n_users=10, n_items=n_items)
        protocol = Protocol.given(2) if given2 else Protocol.all_but_1()
        try:
            cases = generate_active_cases(test, protocol, seed=seed % 1000)
        except VoteDataError:
            assume(False)
        # an off-scale vote on a model item: BN and BC fail this case
        i0, i1, i2 = train.items[:3]
        bad = ActiveCase("bad", {i0: 2.5 if explicit else 0.5, i1: 1.0}, {i2: 1.0})
        cases.insert(int(rng.integers(len(cases) + 1)), bad)
        users = [case.user for case in cases]
        algs = [
            MemoryScorer(train, MemoryConfig("correlation", DefaultVoting(k=20), True, 2.5), "CR+"),
            MemoryScorer(train, MemoryConfig("vector_similarity", None, True), "VSIM"),
            ClusterPredictor(train, em_fit(train, 2, seed=1)[0]),
            BayesNetPredictor(train, learn_network(train, LearnConfig(structure_penalty=0.99))),
        ]
        # with no case failing its evaluation, a vote failure hits a part of
        # more than one case wherever a block holds several
        others = [_Scripted(train, rng.choice(users, int(rng.integers(2))), rng.choice(users, 2))]
        if "deviation" not in metrics:
            others.append(PopularityPredictor(train))
        for alg in others:
            algs.insert(int(rng.integers(len(algs) + 1)), alg)
        assume(not any(_has_residual_weights(alg, cases) for alg in algs))
        cfg = RankedScoringConfig(half_life=5.0, neutral=float(train.scale.neutral))
        want = reference_reports(train, cases, algs, metrics, cfg)
        cells = 2**40 if per_block is None else per_block * len(train.items)
        weights = 2**40 if per_memory_block is None else per_memory_block * len(train.users)
        with mock.patch.object(evaluation, "BLOCK_CELLS", cells), \
                mock.patch.object(memory, "BLOCK_WEIGHTS", weights):
            assert per_block is None or evaluation.block_cases(train) == per_block
            assert per_memory_block is None or memory.block_cases(train) == per_memory_block
            try:
                got = [r.to_json() for r in run_experiment(train, cases, algs, metrics, cfg)]
            except ValueError as exc:  # every case excluded from some metric
                assert any(doc["case_count"] == 0 for doc in want), exc
                return
        for g, w in zip(got, want):
            _assert_report_matches(g, w)


class TestDeviationReading:
    def test_a_failing_vote_loses_only_its_case(self):
        # one `votes` call reads a part's targets; when it raises, each case
        # of the part is read alone
        rng = np.random.default_rng(4)
        train = random_grouped_db(rng, explicit=True, n_users=30)
        cases = generate_active_cases(random_grouped_db(rng, explicit=True, n_users=12),
                                      Protocol.given(2), seed=3)
        bad = cases[len(cases) // 2].user
        alg = _Scripted(train, vote_fail_users=[bad])
        calls = []
        evaluate = alg.evaluate

        def counted(cases):
            block = evaluate(cases)

            def votes(rows, cols):
                calls.append(len(set(rows.tolist())))
                return block.votes(rows, cols)

            return Block(block.scores, block.informed, votes)

        alg.evaluate = counted
        cfg = RankedScoringConfig(half_life=5.0, neutral=3.0)
        [got] = run_experiment(train, cases, [alg], ["deviation"], cfg)
        assert calls == [len(cases)] + [1] * len(cases)  # the part, then each case
        assert got.excluded["failed"] == [bad]
        assert got.case_ids == [case.user for case in cases if case.user != bad]
        [want] = reference_reports(train, cases, [alg], ["deviation"], cfg)
        _assert_report_matches(got.to_json(), want)


def _assert_report_matches(got, want):
    """Exact where the oracle is exact, 1e-9 on round-off, near ties either way."""
    exact = ("metric", "algorithms", "case_count", "case_ids", "rmax", "excluded",
             "half_life", "neutral", "extras")
    assert {k: got[k] for k in exact} == {k: want[k] for k in exact}
    for name in want["algorithms"]:
        if want["metric"] == "ranked":
            for u, (lo, hi), exact_u in zip(got["scores"][name], want["utility_span"][name],
                                           want["scores"][name]):
                if lo == hi:
                    assert u == exact_u, name
                else:
                    assert lo - 1e-12 <= u <= hi + 1e-12, name
        else:
            assert got["scores"][name] == pytest.approx(want["scores"][name], abs=1e-9)
        assert got["aggregate"][name] == pytest.approx(want["aggregate"][name], abs=1e-9)
    if want["required_difference"] is None:
        assert got["required_difference"] is None
    else:
        assert got["required_difference"] == pytest.approx(want["required_difference"],
                                                           rel=1e-9, abs=1e-9)
