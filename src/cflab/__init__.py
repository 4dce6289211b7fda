"""Collaborative filtering laboratory.

Memory-based predictors (correlation and vector-similarity neighbor weights
with default voting, inverse user frequency, and case amplification), two
probabilistic models (a multinomial mixture fit by EM and a Bayesian network
with decision-tree conditionals), and a benchmark harness with half-life
ranked utility, absolute deviation, and blocked significance statistics.
"""

from .bayesnet import (
    BayesNetModel,
    LearnConfig,
    leaf_family_score,
    learn_network,
)
from .cluster import (
    ClusterModel,
    FitReport,
    cheeseman_stutz_score,
    em_fit,
    select_cluster_model,
)
from .evaluation import (
    ExperimentReport,
    RankedScoringConfig,
    absolute_deviation,
    bonferroni_required_difference,
    max_ranked_utility,
    normalized_ranked_score,
    ranked_utility,
    run_experiment,
)
from .memory import DefaultVoting, MemoryConfig, MemoryScorer
from .votedata import (
    IMPLICIT_SCALE,
    ActiveCase,
    Protocol,
    VoteDataError,
    VoteDatabase,
    VoteScale,
    generate_active_cases,
    load_msweb,
    load_split_manifest,
    load_votes_csv,
    save_split_manifest,
    save_votes_csv,
    split_users,
)

__version__ = "0.1.0"
