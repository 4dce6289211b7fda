"""Command-line front end.

Subcommands: `run <config>`, `report <path> --format {text|csv|md}`,
`ingest <format> <path> --out <path>`, `train <config> --only {bc|bn}`.
Exit codes: 0 ok, 1 runtime failure, 2 usage or config error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import harness
from .votedata import (
    VoteDataError,
    VoteScale,
    load_msweb,
    load_votes_csv,
    save_votes_csv,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_DATA = 3


def _cmd_run(args) -> int:
    config = harness.load_config(args.config)
    result = harness.run(config)
    for path in result.summary_paths:
        if path.suffix == ".txt":
            print(path.read_text(encoding="utf-8"))
    for (metric, label), report in result.reports.items():
        n = report.case_counts()
        print(f"{metric} {label}: {n['kept']} cases kept, {n['zero_max_utility']} excluded "
              f"for zero maximum utility, {n['failed']} excluded as failed")
    print(f"artifacts written to {result.output_dir}")
    return EXIT_OK


def _cmd_report(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        print(f"report not found: {args.report}", file=sys.stderr)
        return EXIT_RUNTIME
    except json.JSONDecodeError as exc:
        print(f"cannot parse report: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        print(harness.render_summary(doc, args.format), end="")
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_ingest(args) -> int:
    if args.format == "msweb":
        if (args.min_vote, args.max_vote, args.neutral, args.implicit) != (None,) * 4:
            print("usage error: msweb data is implicit and takes no scale flags", file=sys.stderr)
            return EXIT_USAGE
        db = load_msweb(args.path)
    else:
        low = 0 if args.min_vote is None else args.min_vote
        try:
            scale = VoteScale(low, 1 if args.max_vote is None else args.max_vote,
                              low if args.neutral is None else args.neutral, bool(args.implicit))
        except VoteDataError as exc:  # the flags, not the data, are at fault
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        db = load_votes_csv(args.path, scale)
    save_votes_csv(db, args.out)
    print(f"{len(db.users)} users, {len(db.items)} items, {db.num_votes} votes -> {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    config = harness.load_config(args.config)
    paths = harness.train_models(config, only=args.only)
    if not paths:
        print("config names no trainable (cluster/bayesnet) algorithms", file=sys.stderr)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cflab",
        description="Collaborative filtering benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment grid from a config file")
    p_run.add_argument("config", type=Path)
    p_run.set_defaults(fn=_cmd_run)

    p_rep = sub.add_parser("report", help="render a report or summary JSON as a table")
    p_rep.add_argument("report", type=Path)
    p_rep.add_argument("--format", choices=("text", "csv", "md"), default="text")
    p_rep.set_defaults(fn=_cmd_report)

    p_ing = sub.add_parser("ingest", help="normalize a dataset to the votes CSV format")
    p_ing.add_argument("format", choices=("msweb", "csv"))
    p_ing.add_argument("path", type=Path)
    p_ing.add_argument("--out", type=Path, required=True)
    # scale flags, for csv only; unset, a csv scale is 0..1 with neutral min-vote
    p_ing.add_argument("--min-vote", dest="min_vote", type=int, default=None)
    p_ing.add_argument("--max-vote", dest="max_vote", type=int, default=None)
    p_ing.add_argument("--neutral", type=float, default=None)
    p_ing.add_argument("--implicit", action="store_true", default=None)
    p_ing.set_defaults(fn=_cmd_ingest)

    p_tr = sub.add_parser("train", help="train and cache the models a config needs")
    p_tr.add_argument("config", type=Path)
    p_tr.add_argument("--only", choices=("bc", "bn"), default=None)
    p_tr.set_defaults(fn=_cmd_train)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VoteDataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        logging.getLogger(__name__).exception("run failed")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
