#!/usr/bin/env python3
"""Desk-scale study of the correlation-weight extensions.

Builds seeded synthetic visit data where popular noise items drown out the
rare taste-defining ones, then measures the ranked score of the completed
correlation predictor with and without inverse user frequency and case
amplification. Prints one line per seed plus the win counts.
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cflab.evaluation import RankedScoringConfig, run_experiment  # noqa: E402
from cflab.memory import DefaultVoting, MemoryConfig, MemoryScorer  # noqa: E402
from cflab.votedata import (  # noqa: E402
    IMPLICIT_SCALE,
    Protocol,
    VoteDatabase,
    generate_active_cases,
)

N_GROUPS, NOISE_ITEMS, TASTE_PER = 4, 16, 6
P_NOISE, P_OWN, P_OTHER = 0.7, 0.65, 0.12


def taste_db(rng, users_per, prefix):
    items = [f"pop{j:02d}" for j in range(NOISE_ITEMS)]
    taste = {g: [f"g{g}_{j:02d}" for j in range(TASTE_PER)] for g in range(N_GROUPS)}
    for g in range(N_GROUPS):
        items += taste[g]
    rows = []
    for g in range(N_GROUPS):
        for i in range(users_per):
            u = f"{prefix}{g}_{i}"
            got = [it for it in items[:NOISE_ITEMS] if rng.random() < P_NOISE]
            got += [it for it in taste[g] if rng.random() < P_OWN]
            for og in range(N_GROUPS):
                if og != g:
                    got += [it for it in taste[og] if rng.random() < P_OTHER]
            if len(got) < 2:
                got = items[:2]
            rows += [(u, it, 1.0) for it in got]
    return VoteDatabase.from_votes(rows, IMPLICIT_SCALE, items=items)


def ranked_score(train, cases, cfg):
    predictor = MemoryScorer(train, cfg, name="CR")
    [report] = run_experiment(train, cases, [predictor], ["ranked"],
                              ranked_cfg=RankedScoringConfig(5.0, 0.0))
    return report.aggregate["CR"]


def main() -> int:
    base = MemoryConfig("correlation", DefaultVoting(0.0, 10000))
    with_iuf = MemoryConfig("correlation", DefaultVoting(0.0, 10000), True)
    with_amp = MemoryConfig("correlation", DefaultVoting(0.0, 10000), False, 2.5)
    iuf_wins = amp_wins = 0
    print("seed   base    +iuf    +amp")
    for seed in range(10):
        rng = np.random.default_rng(7000 + seed)
        train = taste_db(rng, users_per=25, prefix="u")
        test = taste_db(rng, users_per=15, prefix="t")
        cases = generate_active_cases(test, Protocol.given(7), seed=seed)
        b = ranked_score(train, cases, base)
        i = ranked_score(train, cases, with_iuf)
        a = ranked_score(train, cases, with_amp)
        iuf_wins += i > b
        amp_wins += a > b
        print(f"{seed:4d}  {b:6.2f}  {i:6.2f}  {a:6.2f}")
    print(f"\ninverse user frequency improved {iuf_wins}/10 seeds")
    print(f"case amplification improved {amp_wins}/10 seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
