import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cflab import predictors
from cflab.bayesnet import LearnConfig, learn_network
from cflab.cluster import em_fit
from cflab.evaluation import run_experiment
from cflab.memory import DefaultVoting, MemoryConfig, MemoryScorer
from cflab.predictors import (
    BayesNetPredictor,
    ClusterPredictor,
    MemoryPredictor,
    PopularityPredictor,
)
from cflab.votedata import ActiveCase, Protocol, generate_active_cases, restrict_to_top_items

from conftest import case_for, random_case, random_explicit_db, random_grouped_db, random_implicit_db
from reference import (
    bc_scores_loop,
    bn_scores_walk,
    bn_vote_walk,
    model_backed_ranking,
)


@pytest.fixture
def implicit_db():
    return random_implicit_db(np.random.default_rng(42), n_users=30, n_items=8, density=0.5)


class TestPopularityPredictor:
    def test_ranks_and_refuses_votes(self, implicit_db):
        pred = PopularityPredictor(implicit_db)
        case = case_for("t", {implicit_db.items[0]: 1.0})
        ranked = pred.rank(case)
        assert implicit_db.items[0] not in ranked
        with pytest.raises(NotImplementedError):
            pred.predict(case, implicit_db.items[1])


class TestMemoryPredictor:
    def test_matches_scorer(self, implicit_db):
        cfg = MemoryConfig("vector_similarity")
        pred = MemoryPredictor(implicit_db, cfg, name="VSIM")
        case = case_for("t", dict(implicit_db.votes[implicit_db.users[0]]))
        (values,), (informed,) = MemoryScorer(implicit_db, cfg).predict_all([case])
        pos = implicit_db.index.item_pos
        want = sorted(
            (it for it in implicit_db.items if it not in case.observed),
            key=lambda it: (-values[pos[it]], not informed[pos[it]], it),
        )
        assert pred.rank(case) == want
        for it in want:
            assert pred.predict(case, it) == values[pos[it]]


def all_predictors(db):
    """One predictor of each kind, trained on `db`."""
    return [
        PopularityPredictor(db),
        MemoryPredictor(db, MemoryConfig("correlation"), name="CR"),
        ClusterPredictor(db, em_fit(db, 2, seed=1)[0]),
        BayesNetPredictor(db, learn_network(db, LearnConfig())),
    ]


class TestContract:
    """The one contract: scores over the training items, one ranking rule,
    one prediction rule."""

    @pytest.fixture
    def db(self):
        return random_explicit_db(np.random.default_rng(3), n_users=20, n_items=6, density=0.7)

    def test_scores_cover_training_items(self, db):
        case = case_for("t", {db.items[0]: 4.0, "zz": 1.0})
        for pred in all_predictors(db):
            scores, informed = pred.scores(case)
            assert scores.shape == informed.shape == (len(db.items),)
            if not isinstance(pred, MemoryPredictor):
                assert informed.all()

    def test_rank_is_the_shared_rule(self, db):
        case = case_for("t", {db.items[0]: 4.0, db.items[3]: 1.0})
        for pred in all_predictors(db):
            scores, informed = pred.scores(case)
            want = sorted(
                (it for it in db.items if it not in case.observed),
                key=lambda it: (-scores[db.items.index(it)], not informed[db.items.index(it)], it),
            )
            assert pred.rank(case) == want, pred.name

    def test_observed_item_is_refused(self, db):
        case = case_for("t", {db.items[0]: 4.0, "zz": 1.0})
        for pred in all_predictors(db)[1:]:
            for item in case.observed:
                with pytest.raises(ValueError):
                    pred.predict(case, item)


class TestModelFallbacks:
    def test_cluster_ranks_unmodeled_items(self, implicit_db):
        trimmed = restrict_to_top_items(implicit_db, 4)
        model, _ = em_fit(trimmed, 2, seed=0)
        pred = ClusterPredictor(implicit_db, model, name="BC")
        case = case_for("t", {implicit_db.items[0]: 1.0})
        ranked = pred.rank(case)
        assert set(ranked) == set(implicit_db.items) - {implicit_db.items[0]}
        outside = next(it for it in implicit_db.items if it not in model.items)
        assert 0.0 <= pred.predict(case, outside) <= 1.0

    def test_bayesnet_ranks_unmodeled_items(self, implicit_db):
        trimmed = restrict_to_top_items(implicit_db, 4)
        model = learn_network(trimmed, LearnConfig())
        pred = BayesNetPredictor(implicit_db, model, name="BN")
        case = case_for("t", {implicit_db.items[0]: 1.0})
        ranked = pred.rank(case)
        assert set(ranked) == set(implicit_db.items) - {implicit_db.items[0]}
        assert pred.stats.get("lookups", 0) > 0

    def test_deviation_predictions_in_scale(self):
        db = random_explicit_db(np.random.default_rng(3), n_users=20, n_items=6, density=0.7)
        model, _ = em_fit(db, 2, seed=1)
        pred = ClusterPredictor(db, model, name="BC")
        case = case_for("t", {db.items[0]: 4.0})
        for it in db.items[1:]:
            assert 0.0 <= pred.predict(case, it) <= 5.0

    def test_item_absent_from_training_predicts_case_mean(self):
        db = random_explicit_db(np.random.default_rng(3), n_users=20, n_items=6, density=0.7)
        case = case_for("t", {db.items[0]: 4.0, db.items[1]: 1.0})
        bc = ClusterPredictor(db, em_fit(db, 2, seed=1)[0], name="BC")
        bn = BayesNetPredictor(db, learn_network(db, LearnConfig()), name="BN")
        assert "zz" not in db.items
        cr = MemoryPredictor(db, MemoryConfig("correlation"), name="CR")
        assert bc.predict(case, "zz") == case.observed_mean == 2.5
        assert bn.predict(case, "zz") == case.observed_mean
        assert cr.predict(case, "zz") == case.observed_mean


class TestArrayRanking:
    """Model predictors' array ranking against per-item dicts sorted in Python."""

    @staticmethod
    def _train(seed, explicit, top):
        rng = np.random.default_rng(seed)
        db = random_grouped_db(rng, explicit, n_users=int(rng.integers(20, 60)))
        return rng, db, restrict_to_top_items(db, top)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), explicit=st.booleans(), top=st.integers(1, 7))
    def test_bayesnet_matches_tree_walk(self, seed, explicit, top):
        rng, db, trimmed = self._train(seed, explicit, top)
        model = learn_network(trimmed, LearnConfig(structure_penalty=0.9))
        pred = BayesNetPredictor(db, model, name="BN")
        lookups = influenced = 0
        for _ in range(6):
            case = random_case(rng, db, max_observed=4)
            scores, n, hits = bn_scores_walk(model, case)
            lookups, influenced = lookups + n, influenced + hits
            assert pred.rank(case) == model_backed_ranking(db, scores, case)
            for it in scores:
                assert pred.predict(case, it) == bn_vote_walk(model, case, it)
        assert pred.stats == {"lookups": lookups, "influenced": influenced}

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), explicit=st.booleans(), top=st.integers(1, 7))
    def test_cluster_matches_item_loop(self, seed, explicit, top):
        rng, db, trimmed = self._train(seed, explicit, top)
        model, _ = em_fit(trimmed, int(rng.integers(1, 4)), seed=seed)
        pred = ClusterPredictor(db, model, name="BC")
        for _ in range(6):
            case = random_case(rng, db, max_observed=4)
            scores = bc_scores_loop(model, case)
            assert pred.rank(case) == model_backed_ranking(db, scores, case)
            got = dict(zip(db.items, pred.scores(case)[0]))
            assert all(got[it] == score for it, score in scores.items())  # bitwise


class TestBlocks:
    def test_failing_case_fails_alone_in_its_block(self, monkeypatch):
        # an off-scale observed vote on a model item fails BN and BC on that
        # case; the rest of its block must score as it does case by case
        train = random_grouped_db(np.random.default_rng(5), explicit=True, n_users=80)
        test = random_grouped_db(np.random.default_rng(6), explicit=True, n_users=60)
        bc = em_fit(train, 2, seed=1)[0]
        bn = learn_network(train, LearnConfig(structure_penalty=0.99))
        cases = generate_active_cases(test, Protocol.all_but_1(), seed=3)
        # by default the bad case shares its block with other cases
        assert PopularityPredictor(train).block_cases > 1
        bad = ActiveCase("bad", {bn.items[0]: 2.5, bn.items[1]: 4.0}, {bn.items[2]: 5.0})
        cases.insert(len(cases) // 2, bad)
        memory_configs = [
            MemoryConfig("correlation"),
            MemoryConfig("correlation", DefaultVoting(k=100), True, 2.5),
            MemoryConfig("vector_similarity", None, True),
        ]

        def reports():
            algs = [MemoryPredictor(train, cfg, f"M{k}") for k, cfg in enumerate(memory_configs)]
            algs += [BayesNetPredictor(train, bn), ClusterPredictor(train, bc)]
            reports = run_experiment(train, cases, algs, ["ranked", "deviation"])
            return [r.dumps() for r in reports]

        blocked = reports()
        monkeypatch.setattr(predictors, "BLOCK_WEIGHTS", 1)  # a case per block
        assert PopularityPredictor(train).block_cases == 1
        assert blocked == reports()
        for text in blocked:
            doc = json.loads(text)
            assert doc["excluded"]["failed"] == ["bad"]
            assert doc["case_count"] == len(cases) - 1 - len(doc["excluded"]["zero_max_utility"])
        extras = json.loads(blocked[0])["extras"]["BN"]
        assert extras["lookups"] > 0 and extras["influenced"] > 0
