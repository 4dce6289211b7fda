"""Tests of the benchmark itself (not of cflab).

Kept out of the repository's tier-1 run by the file name; run them with

    python3 -m pytest -q cfbench/tests/bench_selftest.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from cfbench import checks, gen, tracing, workloads  # noqa: E402
from cfbench import run as bench_run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "cfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def files_digest(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


@pytest.mark.parametrize("shape", sorted(gen.GENERATORS))
def test_generator_is_a_function_of_the_seed(tmp_path, shape):
    write = gen.GENERATORS[shape]
    write(tmp_path / "a", 7, 50, 20)
    write(tmp_path / "b", 7, 50, 20)
    write(tmp_path / "c", 8, 50, 20)
    assert files_digest(tmp_path / "a") == files_digest(tmp_path / "b")
    assert files_digest(tmp_path / "a") != files_digest(tmp_path / "c")


def test_msweb_files_load_with_the_msweb_loader(tmp_path):
    from cflab import load_msweb

    train, test = gen.write_msweb(tmp_path, 3, 200, 50)
    db = load_msweb(train)
    assert len(db.items) == gen.MSWEB_ITEMS
    assert len(db.users) == 200
    assert set(load_msweb(test).items) == set(db.items)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(workload):
    proc, result = run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True
    assert result["attempted"] >= 1
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_prints_every_per_layer_metric():
    proc, result = run_bench("--workload", "msweb-cold", "--seed", "5", "--seconds", "1",
                             "--tiny", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["harness.cache_misses"] == 2  # BC and BN trained once
    assert metrics["harness.cache_hits"] == 2  # and loaded by the run
    assert metrics["memory.crplus.rank_ms_n"] > 0
    assert metrics["predictors.cr.predict_ms_n"] == 0  # ranked only on msweb


def golden_reports(name):
    golden = json.loads(checks.golden_path(name).read_text())
    reports = []
    for key, doc in golden.items():
        metric, protocol = key.split("_", 1)
        reports.append(SimpleNamespace(
            metric=metric, protocol=protocol, algorithms=sorted(doc["scores"]),
            case_ids=list(doc["case_ids"]),
            scores={a: list(v) for a, v in doc["scores"].items()},
        ))
    return reports, golden


def test_golden_check_catches_one_perturbed_score():
    reports, golden = golden_reports("explicit-dev")
    assert checks.compare_golden(reports, golden) == []
    ranked = next(r for r in reports if r.metric == "ranked")
    ranked.scores["BN"][3] = float(np.nextafter(ranked.scores["BN"][3], np.inf))
    problems = checks.compare_golden(reports, golden)
    assert len(problems) == 1 and "BN" in problems[0]


def test_deviation_tolerance():
    reports, golden = golden_reports("explicit-dev")
    dev = next(r for r in reports if r.metric == "deviation")
    dev.scores["CR"][0] += checks.DEVIATION_ATOL / 10
    assert checks.compare_golden(reports, golden) == []
    dev.scores["CR"][0] += checks.DEVIATION_ATOL * 10
    assert len(checks.compare_golden(reports, golden)) == 1


def test_invariants_catch_out_of_range_and_missing_scores():
    report = SimpleNamespace(metric="ranked", protocol="AllBut1", algorithms=["A", "B"],
                             case_ids=[1, 2], rmax=[1.0, 2.0],
                             scores={"A": [0.5, 2.0], "B": [0.1, 0.2]})
    assert checks.check_invariants([report], 1.0) == []
    report.scores["A"][1] = 2.5
    report.scores["B"] = [0.1]
    assert len(checks.check_invariants([report], 1.0)) == 2


def copy_checkout(dest: Path, with_program: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(ROOT / "cfbench", dest / "cfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_run_fails_before_timing_on_a_golden_mismatch(tmp_path):
    checkout = copy_checkout(tmp_path, with_program=True)
    path = checkout / "cfbench" / "golden" / "explicit-dev.json"
    golden = json.loads(path.read_text())
    golden["ranked_AllBut1"]["scores"]["CR"][0] += 1.0
    path.write_text(json.dumps(golden))
    proc, result = run_bench("--workload", "explicit-dev", "--seconds", "1", cwd=checkout)
    assert proc.returncode == 1
    assert result["correct"] is False
    assert "CHECK FAILED: ranked_AllBut1: CR case" in proc.stdout
    assert not any(line.startswith(("run_s", "train_s")) for line in proc.stdout.splitlines())


def test_run_fails_without_the_program(tmp_path):
    checkout = copy_checkout(tmp_path, with_program=False)
    proc, result = run_bench("--workload", "msweb-cold", "--seconds", "1", cwd=checkout)
    assert proc.returncode != 0
    assert result is None


def test_self_times_of_nested_and_overlapping_spans():
    S = tracing.Span
    spans = [
        S(1, "root", None, 0, start=0.0, end=10.0),
        S(2, "a", 1, 0, start=1.0, end=4.0),
        S(3, "b", 1, 1, start=3.0, end=6.0),  # overlaps a on another thread
        S(4, "c", 2, 0, start=2.0, end=3.0),
    ]
    assert tracing.self_times(spans) == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}


def test_traced_self_times_add_up_to_wall_time(tmp_path, monkeypatch):
    """With one scoring thread no spans overlap, so the self times of all
    spans add up to the wall time of the traced calls. Tolerance: 1e-9 s of
    float round-off per span between span sums, and 1 ms plus 2% between
    the spans and the benchmark's own clock around them."""
    monkeypatch.setenv("CFLAB_JOBS", "1")
    from cflab import harness

    original = harness.train_model
    workload = workloads.WORKLOADS["explicit-dev"].scaled(10)
    workloads.set_up(workload, 4, tmp_path / "setup")
    it = bench_run.run_iteration(workload, tmp_path / "setup", tmp_path / "out",
                                 tracing.Tracer())
    assert harness.train_model is original  # wrappers removed again

    roots = [s for s in it.spans if s.parent is None]
    assert sorted(s.name for s in roots) == ["harness.run", "harness.train_models"]
    wall = sum(s.duration for s in roots)
    total_self = sum(tracing.self_times(it.spans).values())
    assert abs(total_self - wall) <= 1e-9 * len(it.spans)
    timed = it.train_s + it.run_s
    assert wall <= timed and timed - wall <= 1e-3 + 0.02 * timed
