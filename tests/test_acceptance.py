"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The web-visit benchmark (criterion 1) needs the published log files
at data/anonymous-msweb.data and data/anonymous-msweb.test (see
scripts/fetch_msweb.py); it is skipped when they are absent.
"""

import json
import math
import shutil
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sstats

import cflab
from cflab import cluster, harness
from cflab.bayesnet import LearnConfig, learn_network
from cflab.cluster import (
    cheeseman_stutz_score,
    em_fit,
    map_estimates,
    select_cluster_model,
)
from cflab.evaluation import (
    RankedScoringConfig,
    bonferroni_required_difference,
    max_ranked_utility,
    normalized_ranked_score,
    ranked_utility,
)
from cflab.memory import DefaultVoting, MemoryConfig, MemoryScorer
from cflab.votedata import (
    IMPLICIT_SCALE,
    Protocol,
    VoteDatabase,
    generate_active_cases,
)

from conftest import block_votes, case_for, random_explicit_db, random_implicit_db
from reference import (
    brute_predict,
    brute_ranked_utility,
    exact_mixture_log_marginal,
    tree_lookup,
)
from test_cluster import (
    hand_smoothed_frequencies,
    one_class_db,
    three_class_db,
    two_block_db,
    two_item_two_class_db,
)
from test_bayesnet import independent_db, noisy_copy_db, parents

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "data"
MSWEB_TRAIN = DATA_DIR / "anonymous-msweb.data"
MSWEB_TEST = DATA_DIR / "anonymous-msweb.test"


def ok(num, label):
    print(f"\nACCEPTANCE {num} {label}: PASS")


@pytest.mark.skipif(
    not (MSWEB_TRAIN.exists() and MSWEB_TEST.exists()),
    reason="published web-visit log files not present under data/; "
    "run scripts/fetch_msweb.py on a machine with network access",
)
def test_criterion_1_msweb_ranked_ordering(tmp_path):
    """Hold-one-out ranked scores on the published web-visit data must order
    POP < BC < VSIM < CR+ with CR+ near 63.59, POP near 49.77, and the
    Bayesian network beating both POP and VSIM."""
    t0 = time.time()
    train = cflab.load_msweb(MSWEB_TRAIN)
    assert len(train.items) == 294
    assert len(train.users) == 32711
    test = cflab.load_msweb(MSWEB_TEST)
    print(f"\n  test file: {len(test.users)} users, {len(test.items)} items")

    doc = json.loads((ROOT / "configs" / "msweb.json").read_text())
    doc["protocols"] = ["allbut1"]
    doc["dataset"]["train"] = str(MSWEB_TRAIN)
    doc["dataset"]["test"] = str(MSWEB_TEST)
    doc["output_dir"] = str(tmp_path / "msweb_out")
    config = harness.parse_config(doc, tmp_path)
    result = harness.run(config)
    report = result.reports[("ranked", "AllBut1")]
    agg = report.aggregate
    elapsed = time.time() - t0

    print(f"\n  scores: {dict((k, round(v, 2)) for k, v in agg.items())}")
    print(f"  cases: {report.case_count}  elapsed: {elapsed/60:.1f} min")
    assert agg["POP"] < agg["BC"] < agg["VSIM"] < agg["CR+"]
    assert abs(agg["CR+"] - 63.59) <= 4.0
    assert abs(agg["POP"] - 49.77) <= 3.0
    assert agg["BN"] > agg["POP"] and agg["BN"] > agg["VSIM"]
    assert elapsed <= 30 * 60
    ok(1, "web-visit benchmark ordering")


def test_criterion_2_ranked_metric_oracle():
    cfg = RankedScoringConfig(half_life=5.0, neutral=0.0)
    assert ranked_utility(["a"], {"a": 1.0}, cfg) == pytest.approx(1.0, abs=1e-9)
    assert ranked_utility(["x1", "x2", "x3", "x4", "a"], {"a": 1.0}, cfg) == pytest.approx(
        0.5, abs=1e-9
    )
    assert ranked_utility(["u", "a"], {"a": 1.0}, cfg) == pytest.approx(
        2 ** (-0.25), abs=1e-9
    )
    rng = np.random.default_rng(2024)
    items = [f"i{k}" for k in range(40)]
    for _ in range(100):
        perm = list(rng.permutation(items))
        voted = {it: float(rng.integers(0, 6)) for it in rng.choice(items, 8, replace=False)}
        c = RankedScoringConfig(
            half_life=float(rng.choice([2.5, 5.0, 10.0])),
            neutral=float(rng.integers(0, 3)),
        )
        assert ranked_utility(perm, voted, c) == pytest.approx(
            brute_ranked_utility(perm, voted, c.half_life, c.neutral), abs=1e-9
        )
    # perfectly ordered lists reach exactly 100
    actual = {"a": 5.0, "b": 4.0, "c": 1.0}
    ideal = sorted(actual, key=lambda it: -actual[it])
    r = ranked_utility(ideal + ["x", "y"], actual, cfg)
    assert normalized_ranked_score([r], [max_ranked_utility(actual, cfg)]) == pytest.approx(
        100.0, abs=1e-9
    )
    ok(2, "ranked utility matches brute-force evaluation")


def _weight_extension_combos(implicit):
    out = []
    for iuf in (False, True):
        for amp in (None, 2.5):
            out.append(MemoryConfig("correlation", None, iuf, amp))
            d = 0.0 if implicit else 3.0
            out.append(MemoryConfig("correlation", DefaultVoting(d=d, k=7), iuf, amp))
            if implicit:
                out.append(MemoryConfig("vector_similarity", DefaultVoting(d=0.0, k=0), iuf, amp))
            else:
                out.append(MemoryConfig("vector_similarity", None, iuf, amp))
    return out


def test_criterion_3_prediction_oracle_equivalence():
    rng = np.random.default_rng(31337)
    checked = 0
    for trial in range(200):
        implicit = trial % 2 == 1
        n_users = int(rng.integers(5, 21))
        n_items = int(rng.integers(4, 16))
        if implicit:
            db = random_implicit_db(rng, n_users=n_users, n_items=n_items, density=0.45)
        else:
            db = random_explicit_db(rng, n_users=n_users, n_items=n_items, density=0.5)
        votes = dict(db.votes[db.users[0]])
        observed = dict(list(votes.items())[: max(1, len(votes) - 1)])
        case = case_for("probe", observed)
        for cfg in _weight_extension_combos(implicit):
            scorer = MemoryScorer(db, cfg)
            (values,), (informed,) = scorer.predict_all([case])
            for j, item in enumerate(db.items):
                ref_val, ref_inf = brute_predict(case, item, db, cfg)
                assert values[j] == pytest.approx(ref_val, abs=1e-9), (trial, cfg, item)
                assert bool(informed[j]) == ref_inf, (trial, cfg, item)
                checked += 1
    assert checked > 10_000
    ok(3, f"weighted-sum predictions match dense reference ({checked} checks)")


def _taste_db(rng, users_per, prefix):
    """Popular noise items that everyone visits plus rare taste-defining items."""
    n_groups, noise_items, taste_per = 4, 16, 6
    p_noise, p_own, p_other = 0.7, 0.65, 0.12
    items = [f"pop{j:02d}" for j in range(noise_items)]
    taste = {g: [f"g{g}_{j:02d}" for j in range(taste_per)] for g in range(n_groups)}
    for g in range(n_groups):
        items += taste[g]
    rows = []
    for g in range(n_groups):
        for i in range(users_per):
            u = f"{prefix}{g}_{i}"
            got = [it for it in items[:noise_items] if rng.random() < p_noise]
            got += [it for it in taste[g] if rng.random() < p_own]
            for og in range(n_groups):
                if og != g:
                    got += [it for it in taste[og] if rng.random() < p_other]
            if len(got) < 2:
                got = items[:2]
            rows += [(u, it, 1.0) for it in got]
    return VoteDatabase.from_votes(rows, IMPLICIT_SCALE, items=items)


def _ranked_score(train, cases, cfg):
    predictor = MemoryScorer(train, cfg, name="CR")
    rc = RankedScoringConfig(5.0, 0.0)
    utilities, maxima = [], []
    for c in cases:
        ranked = predictor.rank(c)
        m = max_ranked_utility(c.targets, rc)
        if m <= 0:
            continue
        utilities.append(ranked_utility(ranked, c.targets, rc))
        maxima.append(m)
    return normalized_ranked_score(utilities, maxima)


def test_criterion_4_extension_effects_directional():
    base = MemoryConfig("correlation", DefaultVoting(0.0, 10000))
    with_iuf = MemoryConfig("correlation", DefaultVoting(0.0, 10000), True)
    with_amp = MemoryConfig("correlation", DefaultVoting(0.0, 10000), False, 2.5)
    iuf_wins = amp_wins = 0
    for seed in range(10):
        rng = np.random.default_rng(7000 + seed)
        train = _taste_db(rng, users_per=25, prefix="u")
        test = _taste_db(rng, users_per=15, prefix="t")
        cases = generate_active_cases(test, Protocol.given(7), seed=seed)
        b = _ranked_score(train, cases, base)
        iuf_wins += _ranked_score(train, cases, with_iuf) > b
        amp_wins += _ranked_score(train, cases, with_amp) > b
    assert iuf_wins >= 8, f"frequency weighting helped on only {iuf_wins}/10 seeds"
    assert amp_wins >= 8, f"case amplification helped on only {amp_wins}/10 seeds"
    ok(4, f"extensions improve ranked score (iuf {iuf_wins}/10, amp {amp_wins}/10)")


def test_criterion_5_em_properties():
    # monotone smoothed objective on every fit
    rng = np.random.default_rng(55)
    for trial in range(6):
        db = random_implicit_db(rng, n_users=25, n_items=7, density=0.5)
        _, report = em_fit(db, int(rng.integers(1, 5)), seed=trial)
        assert (np.diff(report.objective_trace) >= -1e-9).all()

    # one M step on class-labeled data reproduces smoothed frequencies exactly
    db = random_explicit_db(np.random.default_rng(56), n_users=12, n_items=5, density=0.7)
    assignment = [i % 3 for i in range(len(db.users))]
    gamma = np.zeros((len(db.users), 3))
    for i, c in enumerate(assignment):
        gamma[i, c] = 1.0
    totals, counts = cluster._counts(db.index.vote_states.T, gamma, len(db.items))
    prior, cond = map_estimates(totals, counts, n_users=len(db.users))
    exp_prior, exp_cond = hand_smoothed_frequencies(db, assignment, 3)
    np.testing.assert_array_equal(prior, exp_prior)
    np.testing.assert_allclose(cond, exp_cond, atol=0)

    # separable two-population recovery with posteriors at 0.99 or better
    wins = 0
    for seed in range(20):
        db = two_block_db(np.random.default_rng(1000 + seed))
        model, _ = em_fit(db, 2, seed=seed)
        posts = model.posteriors(*block_votes(model, [db.votes[u] for u in db.users]))
        wins += bool((posts.max(axis=1) >= 0.99).all())
    assert wins >= 18, f"recovered on only {wins}/20 seeds"
    ok(5, f"EM monotone, closed-form M step, recovery {wins}/20")


def test_criterion_6_marginal_likelihood_quality():
    # approximation against exact enumeration on eight-user instances
    for seed in range(5):
        rng = np.random.default_rng(900 + seed)
        db = two_item_two_class_db(rng)
        best = max(cheeseman_stutz_score(em_fit(db, 2, seed=seed * 13 + r)[0], db)
                   for r in range(3))
        exact = exact_mixture_log_marginal(db, 2)
        rel = abs(best - exact) / abs(exact)
        assert rel <= 0.05, f"seed {seed}: relative gap {rel:.3f}"

    one_wins = 0
    for seed in range(20):
        db = one_class_db(np.random.default_rng(2000 + seed))
        model, _ = select_cluster_model(db, 4, seed=seed, restarts=2)
        one_wins += model.num_classes == 1
    three_wins = 0
    for seed in range(20):
        db = three_class_db(np.random.default_rng(3000 + seed))
        model, _ = select_cluster_model(db, 5, seed=seed, restarts=2)
        three_wins += model.num_classes == 3
    assert one_wins >= 16, f"one-class data recovered on {one_wins}/20"
    assert three_wins >= 16, f"three-class data recovered on {three_wins}/20"
    ok(6, f"marginal-likelihood scoring (selection {one_wins} and {three_wins} of 20)")


def test_criterion_7_structure_learning_sanity():
    dep_wins = 0
    for seed in range(20):
        db = noisy_copy_db(np.random.default_rng(4000 + seed))
        model = learn_network(db, LearnConfig())  # score/acyclicity asserted inside
        dep_wins += ("A" in parents(model, "B")) or ("B" in parents(model, "A"))
    assert dep_wins >= 18, f"dependency recovered on {dep_wins}/20"

    ind_wins = 0
    for seed in range(20):
        db = independent_db(np.random.default_rng(5000 + seed))
        model = learn_network(db, LearnConfig(structure_penalty=0.1))
        ind_wins += all(not parents(model, it) for it in db.items)
    assert ind_wins >= 18, f"independence kept on {ind_wins}/20"

    db = random_implicit_db(np.random.default_rng(71), n_users=300, n_items=7, density=0.4)
    model = learn_network(db, LearnConfig(structure_penalty=0.5))
    case = case_for("probe", {db.items[0]: 1.0})
    for it in db.items:
        ev = {o: case.observed.get(o) for o in db.items if o != it}
        dist = tree_lookup(model, it, ev)
        assert abs(float(dist.sum()) - 1.0) <= 1e-10
    ok(7, f"structure learning (dependency {dep_wins}/20, independence {ind_wins}/20)")


def test_criterion_8_blocked_statistics():
    x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 3.0]])
    # residuals worked by hand: SSE 1.0, df 2, MSE 0.5, one pair at 90 percent
    expected = sstats.t.ppf(0.95, 2) * math.sqrt(2 * 0.5 / 3)
    assert bonferroni_required_difference(x, 0.90) == pytest.approx(expected, abs=1e-9)
    assert bonferroni_required_difference(np.tile([[2.0], [7.0], [4.0]], (1, 4))) == 0.0

    summary = {
        "version": 1,
        "kind": "experiment_summary",
        "metric": "ranked",
        "algorithms": ["A", "B"],
        "protocols": ["AllBut1"],
        "aggregate": {"AllBut1": {"A": 61.7, "B": 59.4}},
        "required_difference": {"AllBut1": 0.93},
        "case_counts": {"AllBut1": 10},
    }
    text = harness.render_summary(summary, "text")
    assert text.rstrip().splitlines()[-1].startswith("RD")
    ok(8, "required-difference statistics and report layout")


def test_criterion_9_deterministic_reports(tmp_path):
    for name in ("fixture_votes.csv", "fixture_config.json"):
        shutil.copy(ROOT / "fixtures" / name, tmp_path / name)
    config_path = tmp_path / "fixture_config.json"

    harness.run(harness.load_config(config_path))
    reports = sorted((tmp_path / "out" / "reports").glob("*.json"))
    first = {p.name: p.read_bytes() for p in reports}
    assert first, "fixture run produced no reports"

    shutil.rmtree(tmp_path / "out")
    harness.run(harness.load_config(config_path))
    second = {p.name: p.read_bytes() for p in sorted((tmp_path / "out" / "reports").glob("*.json"))}
    assert first == second
    ok(9, "byte-identical reports across runs")
