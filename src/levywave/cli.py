"""Command-line entry points: run, compare, predict.

Exit codes: 0 when the requested check passes, 1 on a verdict failure,
2 on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .harness import compare_families, emit_outputs, load_config, parse_settings, run_experiment

_THREADS_HELP = ("worker processes for the trials, started with fork (at most the usable "
                "CPUs, 4 by default); a trial that runs alone on 3 * 2^20 cells or more "
                "(d=2 from J=11, d=1 from J=22) splits its stages across them as threads, "
                "and its DWT steps at most one per 3 * 2^19 cells")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levywave",
        description="Simulate periodic Levy-driven processes and measure "
        "their wavelet n-term compressibility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--output", help="output directory (overrides config)")
    p_run.add_argument("--threads", type=int, help=_THREADS_HELP)
    p_run.set_defaults(handler=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run several configs and check the ordering")
    p_cmp.add_argument("configs", nargs="+", help="config file paths")
    p_cmp.add_argument("--threads", type=int, help=_THREADS_HELP)
    p_cmp.set_defaults(handler=_cmd_compare)

    p_pre = sub.add_parser("predict", help="print the theoretical decay exponent")
    # each token is one config line; settings the prediction does not read
    # (J, k, operator, ...) are typed and ignored
    p_pre.add_argument("settings", nargs="+", metavar="key=value",
                       help="config settings, each one config line")
    p_pre.set_defaults(handler=_cmd_predict)
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    report = run_experiment(config, threads=args.threads)
    print(f"family          : {config.family} {config.params}")
    print(f"gamma, d, J, k  : {config.gamma}, {config.d}, {config.J}, {config.k}")
    print(f"trials          : {config.trials} (base seed {config.base_seed})")
    print(f"theory          : {report.prediction.describe()}")
    print(f"kappa median    : {report.kappa_median:.4f} "
          f"(IQR [{report.kappa_q1:.4f}, {report.kappa_q3:.4f}])")
    print(f"verdict         : {report.verdict}")
    if args.output or config.output:
        for path in emit_outputs(report, out_dir=args.output):
            print(f"wrote {path}")
    return 0 if report.verdict == "pass" else 1


def _cmd_compare(args) -> int:
    configs = [load_config(path) for path in args.configs]
    report = compare_families(configs, threads=args.threads)
    print(report.table())
    return 0 if report.ok else 1


def _cmd_predict(args) -> int:
    # not validated: any d >= 1 gets a prediction, inadmissible settings "no prediction"
    print(parse_settings("\n".join(args.settings)).prediction().describe())
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except Exception as exc:  # a runtime error too, also one from a worker; 1 is a failed verdict
        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
