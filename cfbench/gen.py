#!/usr/bin/env python3
"""Seeded input generators for the cflab benchmark.

Two shapes, both deterministic functions of their arguments (the same seed
writes byte-identical files):

- `msweb`: implicit web-visit data in the published A/C/V line format, so the
  benchmark exercises `load_msweb`. 294 content areas with Zipf popularity,
  latent taste groups that tilt popularity towards their own areas, and about
  three visits per user, like the real anonymous web-visit logs.
- `explicit`: 0..5 votes as a `user,item,vote` CSV, from the taste-group model
  of `scripts/gen_fixture.py` scaled up: every group has a mean-vote profile
  over the items, and each vote is that mean plus Gaussian noise, rounded and
  clipped to the scale.

Train and test users are drawn from one model, so they share item
popularity and taste groups. As in the real logs, some test users vote only
once; the harness's `min_votes` filter drops them.

Usage:
    python3 cfbench/gen.py msweb --seed 1 --train-users 1200 --test-users 400 --out DIR
    python3 cfbench/gen.py explicit --seed 1 --train-users 800 --test-users 200 --out DIR
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

MSWEB_ITEMS = 294
MSWEB_FIRST_ITEM = 1000
MSWEB_FIRST_USER = 10001
MSWEB_GROUPS = 8
MSWEB_MEAN_VISITS = 3.0

EXPLICIT_ITEMS = 100
EXPLICIT_GROUPS = 4
EXPLICIT_MEAN_VOTES = 12.0
EXPLICIT_NOISE = 0.8


def _sample_sets(rng, logits: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """Per row i, `counts[i]` distinct columns drawn without replacement with
    probability proportional to exp(logits[i]) (Gumbel top-k), sorted."""
    keys = logits + rng.gumbel(size=logits.shape)
    order = np.argsort(-keys, axis=1, kind="stable")
    return [np.sort(order[i, : counts[i]]) for i in range(len(counts))]


def _taste_logits(rng, n_items: int, n_groups: int) -> np.ndarray:
    """Group-by-item log popularity: Zipf over a random item order, and each
    group favors its own ~10% of the items 30-fold."""
    base = -np.log(rng.permutation(n_items) + 1.0)
    favored = rng.random((n_groups, n_items)) < 0.10
    return base[None, :] + np.where(favored, np.log(30.0), 0.0)


def _draw_users(rng, logits: np.ndarray, counts: np.ndarray):
    groups = rng.integers(len(logits), size=len(counts))
    counts = np.clip(counts, 1, logits.shape[1])
    return groups, _sample_sets(rng, logits[groups], counts)


def _write_msweb(path: Path, users: list[np.ndarray], first_user: int) -> None:
    lines = ['I,4,"www.microsoft.com","synthetic web-visit log"']
    for j in range(MSWEB_ITEMS):
        area = MSWEB_FIRST_ITEM + j
        lines.append(f'A,{area},1,"Area {area}","/area{area}"')
    for i, visits in enumerate(users):
        uid = first_user + i
        lines.append(f'C,"{uid}",{uid}')
        lines.extend(f"V,{MSWEB_FIRST_ITEM + int(j)},1" for j in visits)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_msweb(out: Path, seed: int, train_users: int, test_users: int) -> list[Path]:
    """Write `train.data` and `test.data` in the A/C/V format."""
    rng = np.random.default_rng([seed, MSWEB_ITEMS])
    logits = _taste_logits(rng, MSWEB_ITEMS, MSWEB_GROUPS)
    # geometric visit counts: most users visit a few areas, and a long tail
    # visits enough of them for the Given5 and Given10 protocols
    p = 1.0 / MSWEB_MEAN_VISITS
    _, train = _draw_users(rng, logits, rng.geometric(p, size=train_users))
    _, test = _draw_users(rng, logits, rng.geometric(p, size=test_users))
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "train.data", out / "test.data"]
    _write_msweb(paths[0], train, MSWEB_FIRST_USER)
    _write_msweb(paths[1], test, MSWEB_FIRST_USER + train_users)
    return paths


def _write_votes(path: Path, rng, profiles, groups, voted, first_user: int) -> None:
    lines = ["user,item,vote"]
    for i, (g, items) in enumerate(zip(groups, voted)):
        means = profiles[g, items]
        votes = np.clip(np.rint(means + rng.normal(0.0, EXPLICIT_NOISE, len(items))), 0, 5)
        user = f"u{first_user + i:06d}"
        lines.extend(f"{user},m{int(j):03d},{int(v)}" for j, v in zip(items, votes))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_explicit(out: Path, seed: int, train_users: int, test_users: int) -> list[Path]:
    """Write `train.csv` and `test.csv` with explicit 0..5 votes."""
    rng = np.random.default_rng([seed, EXPLICIT_ITEMS])
    logits = _taste_logits(rng, EXPLICIT_ITEMS, EXPLICIT_GROUPS)
    # groups like what they visit most: profile means rise with the group's tilt
    profiles = 1.0 + 3.5 * rng.random((EXPLICIT_GROUPS, EXPLICIT_ITEMS))
    profiles = np.clip(profiles + 0.5 * (logits - logits.mean(axis=1, keepdims=True)), 0.0, 5.0)
    # binomial vote counts, as each fixture user votes on each item by a coin flip
    p = EXPLICIT_MEAN_VOTES / EXPLICIT_ITEMS
    train_groups, train = _draw_users(rng, logits, rng.binomial(EXPLICIT_ITEMS, p, train_users))
    test_groups, test = _draw_users(rng, logits, rng.binomial(EXPLICIT_ITEMS, p, test_users))
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "train.csv", out / "test.csv"]
    _write_votes(paths[0], rng, profiles, train_groups, train, 0)
    _write_votes(paths[1], rng, profiles, test_groups, test, train_users)
    return paths


GENERATORS = {"msweb": write_msweb, "explicit": write_explicit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("shape", choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--train-users", type=int, required=True)
    ap.add_argument("--test-users", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    for path in GENERATORS[args.shape](args.out, args.seed, args.train_users, args.test_users):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
