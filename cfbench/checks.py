"""Output checks: golden per-case scores, invariants, and score digests.

A report's per-case scores are the equality gate for speed changes: a
change that claims only to be faster must leave every digest unchanged.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Mean absolute deviations are means of at most a few hundred terms, each
# built from sums over at most a few thousand users of values below 6. The
# float64 round-off of a reordered sum is then below 1e4 * 2.2e-16 * 6, about
# 1e-11; the tolerance keeps two orders of magnitude above that. Ranked
# utilities come from an ordering and must match exactly.
DEVIATION_ATOL = 1e-9


def report_name(report) -> str:
    return f"{report.metric}_{report.protocol}"


def score_vector(report) -> dict:
    """The per-case scores of a report, in a canonical JSON-ready form."""
    return {
        "case_ids": list(report.case_ids),
        "scores": {a: [float(x) for x in report.scores[a]] for a in report.algorithms},
    }


def score_digest(report) -> str:
    """SHA-256 of the report's case ids and per-case score vectors."""
    text = json.dumps(score_vector(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def golden_path(workload_name: str) -> Path:
    return GOLDEN_DIR / f"{workload_name}.json"


def write_golden(path: Path, reports) -> None:
    doc = {report_name(r): score_vector(r) for r in reports}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def compare_golden(reports, golden: dict) -> list[str]:
    """Mismatches between reports and golden score vectors, as messages."""
    problems = []
    names = {report_name(r) for r in reports}
    for missing in sorted(set(golden) - names):
        problems.append(f"{missing}: report missing")
    for r in reports:
        name = report_name(r)
        want = golden.get(name)
        if want is None:
            problems.append(f"{name}: no golden values")
            continue
        got = score_vector(r)
        if got["case_ids"] != want["case_ids"]:
            problems.append(f"{name}: case ids differ from golden")
            continue
        if sorted(got["scores"]) != sorted(want["scores"]):
            problems.append(f"{name}: algorithms differ from golden")
            continue
        for alg, values in got["scores"].items():
            for case, x, y in zip(got["case_ids"], values, want["scores"][alg]):
                same = x == y if r.metric == "ranked" else abs(x - y) <= DEVIATION_ATOL
                if not same:
                    problems.append(f"{name}: {alg} case {case!r} scored {x!r}, golden {y!r}")
                    break
    return problems


def check_invariants(reports, vote_range: float) -> list[str]:
    """Checks that hold for every seed: every algorithm scores every kept
    case, and each score lies within its metric's range."""
    problems = []
    for r in reports:
        name = report_name(r)
        n = len(r.case_ids)
        if n == 0:
            problems.append(f"{name}: no cases kept")
        for alg in r.algorithms:
            values = r.scores[alg]
            if len(values) != n:
                problems.append(f"{name}: {alg} scored {len(values)} of {n} cases")
                continue
            if r.metric == "ranked":
                bad = [i for i, x in enumerate(values)
                       if not 0.0 <= x <= r.rmax[i] * (1 + 1e-12)]
            else:
                bad = [i for i, x in enumerate(values) if not 0.0 <= x <= vote_range]
            if bad:
                i = bad[0]
                problems.append(
                    f"{name}: {alg} case {r.case_ids[i]!r} score {values[i]!r} out of range"
                )
    return problems


def read_reports_dir(out_dir: Path) -> dict[str, bytes]:
    """Every report and summary file the run wrote, by file name."""
    return {p.name: p.read_bytes() for p in sorted((out_dir / "reports").iterdir())}
