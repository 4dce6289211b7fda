#!/usr/bin/env python3
"""The cflab benchmark: one command that sets up seeded inputs, drives the
harness the way the CLI does, checks the reports and prints every metric.

    python3 cfbench/run.py --workload msweb-cold --seed 1 --seconds 55 --trace 0

Run from the repository root (or any checkout of it): the program under test
is `src/cflab` beside this directory. Per run:

1. Set-up, five times or more in a child process: generate the inputs from
   `--seed` and write the config; `msweb-warm` also fills the model cache.
   The input sets must be byte-identical.
2. The timed part, repeated until `--seconds` is used: `harness.train_models`
   (`cflab train`) on a fresh output directory, then `harness.run`
   (`cflab run`); on `msweb-warm`, `harness.run` alone on a copy of the
   set-up's model cache. Each repetition's reports must be byte-identical to
   the first's.
3. The output check: invariants on every seed, golden per-case scores on the
   default seed. A mismatch fails the run before any timing is printed.

With `--trace 0` the metrics are the end-to-end ones, measured untraced.
With `--trace 1` every repetition is run twice, untraced and traced, and the
metrics are the per-layer ones from the traced runs; the spans are written
to `.bench_out/`. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, where `attempted` and
`failed` count the cases scored and the cases a predictor failed on.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
SETUP_REPEATS = 5
# set-up of the cold workloads takes a few hundredths of a second: repeat it
# for this long, so that its median does not rest on one instant
SETUP_MIN_SECONDS = 2.0
MIN_ITERATIONS = 2  # the byte-identity check needs two runs of one seed
TINY_DIVISOR = 10


def parse_args(argv):
    from cfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description="Benchmark cflab's train and run paths.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0,
                    help="time budget of the timed part")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help=f"1/{TINY_DIVISOR} of the training users, for smoke tests; "
                         "no golden check")
    ap.add_argument("--write-golden", action="store_true",
                    help="store this run's per-case scores as the golden values")
    args = ap.parse_args(argv)
    if args.write_golden and (args.tiny or args.seed != DEFAULT_SEED):
        ap.error(f"--write-golden needs the full size and the default seed {DEFAULT_SEED}")
    return args


def isolate_environment() -> None:
    """Pin BLAS to one thread, so the harness's scoring pool is the only
    parallelism, and drop the harness's environment overrides."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in ("CFLAB_JOBS", "CFLAB_OUTPUT_DIR"):
        os.environ.pop(var, None)


def import_program():
    """Import `src/cflab` of this checkout, and nothing installed elsewhere."""
    package = ROOT / "src" / "cflab"
    if not (package / "__init__.py").is_file():
        raise RuntimeError(f"program not found: {package} is missing")
    sys.path[:0] = [str(ROOT / "src")]
    import cflab

    if Path(cflab.__file__).resolve().parent != package.resolve():
        raise RuntimeError(f"imported cflab from {cflab.__file__}, not {package}")
    return cflab


def blas_threads():
    """OpenBLAS's thread count as the library reports it, if it can be asked."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def set_up(workload: str, seed: int, divisor: int, work: Path) -> list:
    """Set up at least SETUP_REPEATS times, and for at least SETUP_MIN_SECONDS,
    in a child process; see `workloads.main`."""
    path = os.pathsep.join([str(ROOT), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "cfbench.workloads", "--workload", workload,
         "--seed", str(seed), "--divisor", str(divisor), "--work", str(work),
         "--repeats", str(SETUP_REPEATS), "--min-seconds", str(SETUP_MIN_SECONDS)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed with exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


@dataclass
class Iteration:
    train_s: float | None  # None on warm workloads
    run_s: float
    reports: list
    report_bytes: dict
    spans: list = field(default_factory=list)


def run_iteration(workload, setup_dir: Path, out_dir: Path, tracer=None) -> Iteration:
    """`cflab train` then `cflab run` on a fresh output directory; on warm
    workloads `cflab run` alone, on a copy of the cache set-up filled."""
    from cflab import harness

    from cfbench import checks, tracing

    config = replace(harness.load_config(setup_dir / "config.json"), output_dir=out_dir)
    if workload.pretrain:
        shutil.copytree(setup_dir / "out" / "models", out_dir / "models")

    def timed(name, fn):
        gc.collect()  # so that no call pays for its predecessor's garbage
        t0 = time.perf_counter()
        with tracer.span(name) if tracer else nullcontext():
            result = fn(config)
        return time.perf_counter() - t0, result

    train_s = None
    with tracing.installed(tracer) if tracer else nullcontext():
        if not workload.pretrain:
            train_s, _ = timed("harness.train_models", harness.train_models)
        run_s, result = timed("harness.run", harness.run)
    reports = [result.reports[key] for key in sorted(result.reports)]
    return Iteration(train_s, run_s, reports, checks.read_reports_dir(out_dir),
                     tracer.spans if tracer else [])


def measure(workload, setup_dir: Path, work: Path, seconds: float, trace: bool):
    """Repeat the timed part until the next repetition would overrun
    `seconds`. Returns the untraced and the traced iterations."""
    from cfbench.tracing import Tracer

    plain, traced, durations = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_iteration(workload, setup_dir, work / f"run{len(plain)}"))
        if trace:
            traced.append(run_iteration(workload, setup_dir, work / f"traced{len(traced)}",
                                        Tracer()))
        durations.append(time.perf_counter() - t0)
        enough = len(durations) >= (1 if trace else MIN_ITERATIONS)
        if enough and time.perf_counter() - start + statistics.median(durations) > seconds:
            return plain, traced


def check_outputs(workload, iterations, seed: int, tiny: bool, write_golden: bool):
    """Problems found in the reports; prints each report's score digest."""
    from cfbench import checks

    first = iterations[0]
    problems = []
    for k, it in enumerate(iterations[1:], start=1):
        if it.report_bytes != first.report_bytes:
            differ = sorted(n for n in set(it.report_bytes) | set(first.report_bytes)
                            if it.report_bytes.get(n) != first.report_bytes.get(n))
            problems.append(f"repetition {k} reports differ from the first: {differ}")
    vote_range = 1.0 if workload.shape == "msweb" else 5.0
    problems += checks.check_invariants(first.reports, vote_range)
    golden = checks.golden_path(workload.name)
    if write_golden:
        checks.write_golden(golden, first.reports)
        print(f"wrote golden values to {golden}")
    if seed == DEFAULT_SEED and not tiny:
        if golden.is_file():
            problems += checks.compare_golden(first.reports, json.loads(golden.read_text()))
        else:
            problems.append(f"golden values missing: {golden}")
    for r in first.reports:
        print(f"digest {checks.report_name(r)} sha256={checks.score_digest(r)} "
              f"cases={r.case_count}")
    return problems


def case_counts(iterations) -> tuple[int, int]:
    """(attempted, failed) cases over every report of every repetition."""
    attempted = failed = 0
    for it in iterations:
        for r in it.reports:
            failed += len(r.excluded.get("failed", []))
            attempted += r.case_count + sum(len(v) for v in r.excluded.values())
    return attempted, failed


def end_to_end_metrics(setups, iterations) -> dict:
    # warm workloads train on an empty cache during set-up, not in the
    # timed part: their train_s is taken there
    train_times = [train_s for _, train_s, _ in setups if train_s is not None]
    train_times += [it.train_s for it in iterations if it.train_s is not None]
    return {
        "setup_s": (statistics.median(seconds for seconds, _, _ in setups), "s"),
        "train_s": (statistics.median(train_times), "s"),
        "run_s": (statistics.median(it.run_s for it in iterations), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def bench(args, work: Path) -> dict:
    from cfbench import checks, tracing, workloads

    divisor = TINY_DIVISOR if args.tiny else 1
    workload = workloads.WORKLOADS[args.workload].scaled(divisor)
    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()))

    setups = set_up(args.workload, args.seed, divisor, work)
    problems = [f"set-up {k} wrote different files than set-up 0"
                for k, (_, _, digests) in enumerate(setups) if digests != setups[0][2]]
    setup_dir = work / f"setup{len(setups) - 1}"

    plain, traced = measure(workload, setup_dir, work, args.seconds, bool(args.trace))
    for k, (seconds, train_s, _) in enumerate(setups):
        print(f"set-up {k}: seconds={seconds:.4f} train_s={train_s}")
    for kind, its in (("timed", plain), ("traced", traced)):
        for k, it in enumerate(its):
            print(f"{kind} repetition {k}: train_s={it.train_s} run_s={it.run_s:.4f}")
    problems += check_outputs(workload, plain + traced, args.seed, args.tiny,
                              args.write_golden)
    attempted, failed = case_counts(plain)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"check {'failed' if problems else 'passed'}: {len(plain)} timed and "
          f"{len(traced)} traced repetitions of {args.workload}, seed {args.seed}")
    if problems:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}

    print(f"failed_share {failed / attempted} ratio ({failed} of {attempted} cases)")
    if args.trace:
        overhead = (statistics.median(it.run_s for it in traced)
                    / statistics.median(it.run_s for it in plain))
        metrics = tracing.per_layer_metrics([(it.spans, it.reports) for it in traced], overhead)
        out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps([tracing.spans_json(it.spans) for it in traced]) + "\n",
                       encoding="utf-8")
        print(f"spans written to {out}")
    else:
        metrics = end_to_end_metrics(setups, plain)
    cases = " ".join(f"{checks.report_name(r)}={r.case_count}" for r in plain[0].reports)
    for name, (value, unit) in metrics.items():
        note = f"  (cases {cases})" if name == "run_s" else ""
        print(f"{name} {value} {unit}{note}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    isolate_environment()  # before numpy is first imported
    sys.path[:0] = [str(ROOT)]
    args = parse_args(argv)
    try:
        import_program()
    except (ImportError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = bench(args, work)
    except Exception:
        traceback.print_exc()
        # a crashed workload counts as every attempted case failed
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
