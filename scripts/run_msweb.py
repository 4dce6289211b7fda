#!/usr/bin/env python3
"""Run the web-visit benchmark grid and print the ranked-score table.

Loads configs/msweb.json (all four protocols, the five reference
algorithms, ranked scoring with a half-life of 5) against the published
log files under data/. Use --protocols to run a subset, for example:

    python scripts/run_msweb.py --protocols allbut1
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cflab import harness  # noqa: E402
from cflab.votedata import Protocol  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--protocols", nargs="*", default=None,
                        help="subset of protocols, e.g. allbut1 given5")
    args = parser.parse_args()

    data = ROOT / "data"
    if not (data / "anonymous-msweb.data").exists():
        print("data files missing; run scripts/fetch_msweb.py first", file=sys.stderr)
        return 3
    config = harness.load_config(ROOT / "configs" / "msweb.json")
    if args.protocols:
        config.protocols = [Protocol.parse(p) for p in args.protocols]
    result = harness.run(config)
    for path in result.summary_paths:
        if path.suffix == ".txt":
            print(path.read_text())
    print(f"artifacts in {result.output_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
