#!/usr/bin/env python3
"""Run the mutation register (`tests/mutants.py`) against tier-1.

For each mutant: copy this checkout to a temporary directory, apply the
mutant there, and run tier-1 with `-x`, leaving out `tests/test_mutants.py`
(its once-only check fails on any mutated tree). Prints a line per mutant:
caught, with the first failing test; survived; or timed out. The checkout
itself is never changed.

    python3 scripts/mutate.py                    # every mutant
    python3 scripts/mutate.py rank-decay em-tolerance
    python3 scripts/mutate.py --timeout 900

Exits 1 if a mutant that the register records as caught survived. Not part
of tier-1: a mutant's run can take as long as a whole tier-1 run.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402

SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                              ".bench_work", ".bench_out", ".benchmarks")


def run_mutant(mutant, timeout: float) -> tuple[str, str]:
    """(verdict, detail) of one mutant: "caught" and the first failing
    test, "survived", or "timeout"."""
    with tempfile.TemporaryDirectory(prefix="cflab-mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        path = tree / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: its old text does not occur once in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        try:
            proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout", f"after {timeout:.0f} s"
    if proc.returncode == 0:
        return "survived", ""
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return "caught", first.group(1) if first else f"pytest exit code {proc.returncode}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run the mutation register against tier-1.")
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    ap.add_argument("--timeout", type=float, default=600.0, help="seconds per mutant")
    args = ap.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        ap.error(f"unknown mutants: {', '.join(unknown)}")
    status = 0
    for mutant in [by_name[n] for n in args.names] or MUTANTS:
        verdict, detail = run_mutant(mutant, args.timeout)
        print(f"{mutant.name}: {verdict}{' ' + detail if detail else ''} "
              f"(recorded: {mutant.verdict})", flush=True)
        if mutant.verdict == "caught" and verdict != "caught":
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
