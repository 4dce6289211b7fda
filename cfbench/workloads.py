"""The benchmark's workloads: input shape, sizes and the cflab run config.

Each workload is a closed loop with one client: one process calls the
harness and waits for it. Sizes are scaled down from the paper's web-visit
grid (32711 training users) so that several repetitions fit in one run on a
2-core machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

from . import gen

# The five algorithms, ranked scoring and seed of configs/msweb.json, copied
# so that editing the repo's config does not silently change the benchmark.
# One addition: BC's EM runs at most EM_MAX_ITER iterations per fit. Run to
# convergence, the iterations summed over a model selection differ by about a
# fifth between seeds, which would swamp the timing of one seed's work.
EM_MAX_ITER = 25
MSWEB_ALGORITHMS = [
    {"name": "POP", "kind": "popularity"},
    {"name": "CR+", "kind": "memory",
     "config": {"weight": "correlation", "iuf": True,
                "default_voting": {"d": 0, "k": 10000},
                "case_amp": {"p": 2.5}}},
    {"name": "VSIM", "kind": "memory",
     "config": {"weight": "vector_similarity", "iuf": True,
                "default_voting": {"d": 0, "k": 0}}},
    {"name": "BC", "kind": "cluster",
     "config": {"max_classes": 12, "restarts": 2, "max_iter": EM_MAX_ITER}},
    {"name": "BN", "kind": "bayesnet",
     "config": {"structure_penalty": 0.1, "ess": 10}},
]

# CR and VSIM without default voting take the plain correlation and cosine
# paths that the msweb config never reaches.
EXPLICIT_ALGORITHMS = [
    {"name": "CR", "kind": "memory", "config": {"weight": "correlation"}},
    {"name": "CR+", "kind": "memory",
     "config": {"weight": "correlation", "iuf": True,
                "default_voting": {"d": None, "k": 10000},
                "case_amp": {"p": 2.5}}},
    {"name": "VSIM", "kind": "memory", "config": {"weight": "vector_similarity", "iuf": True}},
    {"name": "BC", "kind": "cluster",
     "config": {"max_classes": 10, "restarts": 2, "max_iter": EM_MAX_ITER}},
    {"name": "BN", "kind": "bayesnet", "config": {"structure_penalty": 0.1, "ess": 10}},
]

MODEL_SEED = 1998


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str  # a key of gen.GENERATORS
    train_users: int
    test_users: int
    protocols: tuple[str, ...]
    metrics: tuple[str, ...]
    algorithms: list
    # warm workloads train the model cache during set-up, and their timed
    # part is `cflab run` alone
    pretrain: bool

    def config_doc(self) -> dict:
        if self.shape == "msweb":
            dataset = {"format": "msweb", "train": "train.data", "test": "test.data",
                       "min_votes": 2}
            ranked = {"half_life": 5.0, "neutral": 0.0}
        else:
            dataset = {"format": "csv", "train": "train.csv", "test": "test.csv",
                       "scale": {"min_vote": 0, "max_vote": 5, "neutral": 3.0,
                                 "implicit": False},
                       "min_votes": 2}
            ranked = {"half_life": 5.0, "neutral": 3.0}
        return {
            "dataset": dataset,
            "protocols": list(self.protocols),
            "algorithms": self.algorithms,
            "metrics": list(self.metrics),
            "ranked": ranked,
            "confidence": 0.9,
            "seed": MODEL_SEED,
            "output_dir": "out",
        }

    def scaled(self, divisor: int) -> "Workload":
        """The same workload with 1/divisor of the training users, for smoke
        tests. Test users stay, so that the long tail the Given protocols
        need stays populated."""
        return replace(self, train_users=max(40, self.train_users // divisor))


WORKLOADS = {
    w.name: w
    for w in [
        Workload("msweb-cold", "msweb", 300, 400, ("allbut1",), ("ranked",),
                 MSWEB_ALGORITHMS, pretrain=False),
        Workload("msweb-warm", "msweb", 400, 400,
                 ("allbut1", "given2", "given5", "given10"), ("ranked",),
                 MSWEB_ALGORITHMS, pretrain=True),
        Workload("explicit-dev", "explicit", 800, 120, ("allbut1", "given2"),
                 ("ranked", "deviation"), EXPLICIT_ALGORITHMS, pretrain=False),
    ]
}


def set_up(workload: Workload, seed: int, dest: Path) -> tuple[float, float | None]:
    """Generate the inputs and config into `dest`; on warm workloads also fill
    the model cache. Returns the wall time taken and, on warm workloads, the
    part of it `harness.train_models` took."""
    from cflab import harness

    t0 = time.perf_counter()
    gen.GENERATORS[workload.shape](dest, seed, workload.train_users, workload.test_users)
    config_path = dest / "config.json"
    config_path.write_text(json.dumps(workload.config_doc(), indent=2) + "\n", encoding="utf-8")
    train_s = None
    if workload.pretrain:
        t1 = time.perf_counter()
        harness.train_models(harness.load_config(config_path))
        train_s = time.perf_counter() - t1
    return time.perf_counter() - t0, train_s


def set_up_repeatedly(workload: Workload, seed: int, work: Path, repeats: int,
                      min_seconds: float = 0.0) -> list:
    """Set up `repeats` times, and more until `min_seconds` have passed, into
    `work/setup<k>`. Returns, per repeat, the two times `set_up` returns and
    the SHA-256 of every file it wrote, so the caller can check that one seed
    gives byte-identical inputs."""
    out = []
    start = time.perf_counter()
    while len(out) < repeats or time.perf_counter() - start < min_seconds:
        dest = work / f"setup{len(out)}"
        seconds, train_s = set_up(workload, seed, dest)
        digests = {
            str(p.relative_to(dest)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(dest.rglob("*")) if p.is_file()
        }
        out.append([seconds, train_s, digests])
    return out


def main(argv=None) -> int:
    """Set-up as its own process, so that the peak memory of the benchmark's
    timed part is not that of set-up: prints `set_up_repeatedly` as JSON."""
    ap = argparse.ArgumentParser(description=main.__doc__.split(":")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--repeats", type=int, required=True)
    ap.add_argument("--min-seconds", type=float, default=0.0,
                    help="keep setting up until this much time has passed")
    ap.add_argument("--divisor", type=int, default=1,
                    help="divide the training user count by this factor")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload].scaled(args.divisor)
    print(json.dumps(set_up_repeatedly(workload, args.seed, args.work, args.repeats,
                                       args.min_seconds)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
