"""The mutation register: small changes to `src/cflab` that tier-1 must catch.

Each mutant replaces one exact text of a source file by another. It records
the rule that the change breaks and its verdict:
- "caught": tier-1 fails with the mutant applied; `reason` names the first
  test that failed in a run with `-x`;
- "equivalent": the mutant cannot change a result; `reason` says why.

A mutant's `old` text must occur exactly once in its file
(`test_mutants.py`), so a change that moves or rewrites the code it names
must move or rewrite the mutant too. That check fails on any mutated tree,
so a mutant's run leaves `tests/test_mutants.py` out. `scripts/mutate.py`
runs each mutant on a copy of the checkout and prints its verdict.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    rule: str
    verdict: str  # "caught" or "equivalent"
    reason: str


MUTANTS = (
    Mutant(
        "pearson-variance-tolerance",
        "src/cflab/memory.py",
        "var_a = np.where(var_a <= 1e-12 * (tf * taa + tva**2), 0.0, var_a)",
        "var_a = np.where(var_a <= 0.0 * (tf * taa + tva**2), 0.0, var_a)",
        "correlation: a variance within round-off of zero is zero",
        "caught",
        "test_acceptance.py::test_criterion_3_prediction_oracle_equivalence",
    ),
    Mutant(
        "default-voting-k",
        "src/cflab/memory.py",
        "kf = self.cfg.default_voting.k * SYNTHETIC_ITEM_FREQUENCY",
        "kf = (self.cfg.default_voting.k + 1) * SYNTHETIC_ITEM_FREQUENCY",
        "default voting adds exactly k synthetic agreed items",
        "caught",
        "test_acceptance.py::test_criterion_3_prediction_oracle_equivalence",
    ),
    Mutant(
        "self-zeroing",
        "src/cflab/memory.py",
        "w[row, pos] = 0.0",
        "pass",
        "a case that is a training user gets no weight on itself",
        "caught",
        "test_evaluation.py::TestAgainstReference::test_reports_match",
    ),
    Mutant(
        "pearson-two-covotes",
        "src/cflab/memory.py",
        "can = count >= 2",
        "can = count >= 1",
        "correlation without default voting needs two co-voted items",
        "equivalent",
        "one co-voted item gives zero variance, which the 1e-12 tolerance zeroes, "
        "so the weight is 0 either way",
    ),
    Mutant(
        "vsim-lower-clip",
        "src/cflab/memory.py",
        "w[norm_a[:, 0] == 0] = 0.0\n        return np.clip(w, -1.0, 1.0)",
        "w[norm_a[:, 0] == 0] = 0.0\n        return np.clip(w, 0.0, 1.0)",
        "VSIM is the plain cosine, negative on a scale with negative votes",
        "caught",
        "test_memory.py::TestVectorizedAgainstBruteForce::test_explicit_databases",
    ),
    Mutant(
        "cs-relabelings",
        "src/cflab/cluster.py",
        "math.lgamma(c + 1)",
        "math.lgamma(c)",
        "Cheeseman-Stutz counts the C! relabelings of a C-class mixture",
        "caught",
        "test_acceptance.py::test_criterion_6_marginal_likelihood_quality",
    ),
    Mutant(
        "em-tolerance",
        "src/cflab/cluster.py",
        "TOL = 1e-6",
        "TOL = 1e-3",
        "EM stops when the per-user objective improves by less than 1e-6 (relative)",
        "caught",
        "test_cluster.py::TestAgainstReference::test_restarts_match_one_fit_each",
    ),
    Mutant(
        "bn-child-pseudo-count",
        "src/cflab/bayesnet.py",
        "child_alpha = alphas[leaf.node] / r",
        "child_alpha = alphas[leaf.node]",
        "a split divides its leaf's pseudo-counts among the r children",
        "caught",
        "test_acceptance.py::test_criterion_7_structure_learning_sanity",
    ),
    Mutant(
        "rank-decay",
        "src/cflab/evaluation.py",
        "return 2.0 ** ((rank - 1) / (half_life - 1))",
        "return 2.0 ** (rank / (half_life - 1))",
        "ranked utility: the first list position is not discounted",
        "caught",
        "test_acceptance.py::test_criterion_2_ranked_metric_oracle",
    ),
    Mutant(
        "bonferroni-pairs",
        "src/cflab/evaluation.py",
        "n_pairs = m * (m - 1) / 2",
        "n_pairs = m * (m - 1)",
        "the Bonferroni correction divides by the m(m-1)/2 pairs",
        "caught",
        "test_acceptance.py::test_criterion_8_blocked_statistics",
    ),
    Mutant(
        "failed-case-exclusion",
        "src/cflab/evaluation.py",
        "if len(rows[k][m]) < len(algorithms):",
        "if len(rows[k][m]) < 1:",
        "a case that any algorithm fails on is excluded for every algorithm",
        "caught",
        "test_evaluation.py::TestRunExperiment::test_failing_algorithm_drops_case_for_all",
    ),
    Mutant(
        "cached-model-scale",
        "src/cflab/harness.py",
        "if model.scale != train.scale:",
        "if False:",
        "a cached model on another vote scale is not reused",
        "caught",
        "test_harness.py::TestRun::test_mismatched_cached_model_is_retrained[scale-cluster]",
    ),
    Mutant(
        "ranking-tie-break",
        "src/cflab/votedata.py",
        "ahead |= tied & (second < second[at][:, None])",
        "ahead |= tied & (second > second[at][:, None])",
        "ranking: equal scores put informed items first, then the lower item id",
        "caught",
        "test_bayesnet.py::TestRanking::test_ties_break_by_item_id",
    ),
    Mutant(
        "pop-predicts-no-votes",
        "src/cflab/predictors.py",
        'raise NotImplementedError("popularity baseline does not predict vote values")',
        "return 0.0",
        "POP ranks items and predicts no vote values",
        "caught",
        "test_predictors.py::TestPopularityPredictor::test_ranks_and_refuses_votes",
    ),
    Mutant(
        "walk-sort-keys-swapped",
        "src/cflab/evaluation.py",
        "order = np.lexsort((pos, case_of))",
        "order = np.lexsort((case_of, pos))",
        "ranked utility adds a case's gains in list order",
        "equivalent",
        "sorting by position first still leaves each case's hits in list order, and "
        "`np.bincount` adds each case's terms in input order",
    ),
    Mutant(
        "walk-in-target-order",
        "src/cflab/evaluation.py",
        "order = np.lexsort((pos, case_of))",
        'order = np.argsort(case_of, kind="stable")',
        "ranked utility adds a case's gains in list order",
        "caught",
        "test_evaluation.py::TestRankedUtility::test_equals_full_walk_bitwise",
    ),
    Mutant(
        "bc-votes-from-einsum-mixture",
        "src/cflab/predictors.py",
        "lambda rows, cols: scale.expected_vote(np.matmul(\n"
        "                         post[rows][:, None, :], "
        "cond[:, cols, :].transpose(1, 0, 2))[:, 0, :]))",
        "lambda rows, cols: scale.expected_vote(mixed[rows, cols]))",
        "BC's vote mixes the classes in a (1 x classes) @ (classes x states) product per pair",
        "caught",
        "test_predictors.py::TestClusterArrays::test_votes_are_each_pairs_product",
    ),
    Mutant(
        "bc-block-matmul",
        "src/cflab/predictors.py",
        'mixed = np.einsum("kc,cjs->kjs", post, cond)',
        "mixed = (post @ cond.reshape(len(cond), -1)).reshape(len(post), *cond.shape[1:])",
        "BC's scores mix each case's classes as its own einsum adds them",
        "caught",
        "test_predictors.py::TestContract::test_rank_lists_the_counted_order",
    ),
    Mutant(
        "deviation-retry-dropped",
        "src/cflab/evaluation.py",
        "except Exception:\n            pass",
        "except Exception:\n            return {}",
        "a case whose vote fails is excluded alone, not with the rest of its part",
        "caught",
        "test_evaluation.py::TestOnePass::test_one_pass_equals_a_pass_per_metric",
    ),
    Mutant(
        "bc-prior-strength",
        "src/cflab/cluster.py",
        "PRIOR_STRENGTH = 1.0",
        "PRIOR_STRENGTH = 2.0",
        "BC smooths every distribution with a total pseudo-count of 1",
        "caught",
        "test_acceptance.py::test_criterion_5_em_properties",
    ),
)
