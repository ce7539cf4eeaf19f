"""Command-line front door: run experiments, classification, and baselines.

Experiment definitions live in JSON config files so they stay versionable;
the command line only points at files and tweaks the seed or job count.
Exit codes: 0 success, 1 runtime or I/O failure, 2 validation failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .harness import (
    ConfigError,
    DataError,
    load_classification_config,
    load_classification_csv,
    load_experiment_config,
    run_classification,
    run_experiment,
    write_results,
)

__all__ = ["main", "cmd_run", "cmd_classify"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpem",
        description="Differentially private EM: experiments, baselines, classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a private EM sweep experiment")
    classify_p = sub.add_parser("classify", help="run the two-class pipeline on a CSV")
    baseline_p = sub.add_parser("baseline", help="run the non-private gradient EM baseline")

    for p in (run_p, classify_p, baseline_p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config master_seed")
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="max concurrent repetitions")
    classify_p.add_argument("--data", required=True, help="input data CSV (label column + features)")

    run_p.set_defaults(func=cmd_run, engine="private")
    classify_p.set_defaults(func=cmd_classify)
    baseline_p.set_defaults(func=cmd_run, engine="nonprivate")
    return parser


def cmd_run(args) -> int:
    """``dpem run`` (engine 'private') and ``dpem baseline`` (engine 'nonprivate')."""
    config = load_experiment_config(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    result = run_experiment(config, jobs=args.jobs, engine=args.engine)
    write_results(result, args.out)
    print(_summary_line(config, result, label="baseline " if args.engine == "nonprivate" else ""))
    return 0


def cmd_classify(args) -> int:
    params, reps, master_seed = load_classification_config(args.config)
    if args.seed is not None:
        master_seed = args.seed
    features, labels = load_classification_csv(args.data)
    report = run_classification(features, labels, params, reps, master_seed, jobs=args.jobs)
    write_results(report, args.out)
    print(
        f"misclassification: mean={report.misclassification_rate:.4f} "
        f"se={report.std_error:.4f} over {report.reps} reps "
        f"(s_hat={report.s_hat}, epsilon={report.epsilon})"
    )
    return 0


def _summary_line(config, result, label: str = "") -> str:
    means = result.mean_final_error()
    parts = " ".join(f"{value:g}={means[float(value)]:.4e}" for value in config.sweep.values)
    return f"{label}mean final error by {config.sweep.name}: {parts}"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime/I-O failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
