"""Command line front end.

Every subcommand reads a JSON config, validates it with the subcommand as
its experiment, runs that experiment and writes a JSON report (or CSV
plot tables with --format csv).  Exit status is 0 iff every check in the
report passed, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, GirthlabError
from .harness import EXPERIMENTS, ExperimentConfig, emit_plot_data, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="girthlab",
        description="Geodesic, duality and volume experiments for Minkowski unit spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument(
            "--format",
            choices=("json", "csv"),
            default="json",
            help="json report or csv plot tables",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.from_file(args.config, experiment=args.command, seed=args.seed)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GirthlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.format == "json":
        text = report.to_json()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        stem = args.out if args.out else f"girthlab_{args.command}"
        if stem.endswith(".csv"):
            stem = stem[:-4]
        paths = emit_plot_data(report, stem)
        for p in paths:
            print(p)

    for check in report.checks:
        status = "pass" if check["passed"] else "FAIL"
        print(
            f"[{status}] {check['name']}: {check['value']:.3e}"
            f" (tol {check['tolerance']:.3e})",
            file=sys.stderr,
        )
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
