"""Command-line entry points: run, compare, predict.

Exit codes: 0 when the requested check passes, 1 on a verdict failure,
2 on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import math
import sys

from .exponents import FAMILIES, theoretical_kappa
from .harness import (
    ConfigError,
    compare_families,
    emit_outputs,
    exponent_from_params,
    load_config,
    run_experiment,
    summary_record,
)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


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
    p_run.add_argument("--threads", type=int, help="worker threads for trials")

    p_cmp = sub.add_parser("compare", help="run several configs and check the ordering")
    p_cmp.add_argument("configs", nargs="+", help="config file paths")
    p_cmp.add_argument("--threads", type=int)

    p_pre = sub.add_parser("predict", help="print the theoretical decay exponent")
    p_pre.add_argument("family", choices=list(FAMILIES))
    p_pre.add_argument("gamma", type=_finite_float)
    p_pre.add_argument("d", type=int)
    p_pre.add_argument("p0", type=_finite_float, nargs="?", default=2.0)
    p_pre.add_argument("tau0", type=_finite_float, nargs="?", default=0.0)
    # the prediction depends on the family's indices only, which no other
    # family parameter changes
    p_pre.add_argument("--alpha", type=float, help="stability index for sas")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    report = run_experiment(config, threads=args.threads)
    record = summary_record(report)
    print(f"family          : {record['family']} {record['params']}")
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
    params = {} if args.alpha is None else {"alpha": args.alpha}
    exponent = exponent_from_params(args.family, params)
    prediction = theoretical_kappa(exponent, args.gamma, args.d, args.p0, args.tau0)
    print(prediction.describe())
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "predict":
            return _cmd_predict(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
