"""Experiment configuration, orchestration, aggregation, and output emission.

A config fixes (noise family, operator order gamma, grid, wavelet order,
trial count, base seed).  Each trial synthesizes one process realization,
decomposes it, measures the n-term error curve in the (p0, tau0) norm, and
fits the decay exponent.  Trials aggregate by median and interquartile
range because per-trial norms are heavy-tailed for several families.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, get_type_hints

import numpy as np

from . import __version__
from .besov import BesovParams, DecayCurve, estimate_kappa, sigma_curve
from .exponents import FAMILIES, KappaPrediction, LevyExponent, theoretical_kappa
from .sampling import GridSpec, trial_seed
from .spectral import FractionalLaplacian, Matern, synthesize_process
from .wavelets import WaveletSpec, dwt_periodic

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "ComparisonEntry",
    "ComparisonReport",
    "parse_config",
    "load_config",
    "exponent_from_params",
    "run_experiment",
    "compare_families",
    "emit_outputs",
]

THREADS_ENV_VAR = "LEVYWAVE_THREADS"


class ConfigError(ValueError):
    """Malformed or inadmissible experiment configuration."""


def _reject_key(family: str, key: str):
    if any(key in cls.config_keys() for cls in FAMILIES.values()):
        raise ConfigError(f"key {key!r} not applicable to family {family!r}")
    raise ConfigError(f"unknown key {key!r}")


def _family_keys(family: str) -> dict:
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}")
    return FAMILIES[family].config_keys()


def exponent_from_params(family: str, params: dict) -> LevyExponent:
    """Build a noise family from its config-file name and parameters."""
    keys = _family_keys(family)
    for key in params:
        if key not in keys:
            _reject_key(family, key)
    return FAMILIES[family].from_params(params)


@dataclass
class ExperimentConfig:
    family: str
    params: dict = field(default_factory=dict)
    operator: str = "fractional_laplacian"
    gamma: float = 1.0
    d: int = 1
    J: int = 14
    k: int = 4
    trials: int = 20
    base_seed: int = 20260810
    p0: float = 2.0
    tau0: float = 0.0
    n_grid: str = "dyadic"
    fit_lo: Optional[int] = None
    fit_hi: Optional[int] = None
    tolerance: float = 0.15
    allow_inadmissible: bool = False
    output: Optional[str] = None

    def exponent(self) -> LevyExponent:
        return exponent_from_params(self.family, self.params)

    def grid(self) -> GridSpec:
        return GridSpec(d=self.d, J=self.J)

    def symbol(self):
        if self.operator == "fractional_laplacian":
            return FractionalLaplacian(gamma=self.gamma)
        if self.operator == "matern":
            return Matern(gamma=self.gamma)
        raise ConfigError(f"unknown operator {self.operator!r}")

    def wavelet_spec(self) -> WaveletSpec:
        return WaveletSpec(k=self.k)

    def n_values(self) -> np.ndarray:
        if self.n_grid == "dyadic":
            return 2 ** np.arange(2, self.J * self.d - 1)
        try:
            values = sorted({int(tok) for tok in self.n_grid.split(",")})
        except ValueError as exc:
            raise ConfigError(f"bad n_grid {self.n_grid!r}") from exc
        return np.array(values, dtype=int)

    def fit_range(self) -> tuple:
        lo = self.fit_lo if self.fit_lo is not None else 2**4
        hi = self.fit_hi if self.fit_hi is not None else 2 ** (self.J * self.d - 4)
        return (lo, hi)

    def prediction(self) -> KappaPrediction:
        return theoretical_kappa(self.exponent(), self.gamma, self.d, self.p0, self.tau0)

    def admissibility_inequality(self) -> str:
        if self.exponent().is_gaussian:
            return (
                f"gamma > tau0 + d/2 "
                f"({self.gamma} > {self.tau0 + self.d / 2.0} required)"
            )
        return (
            f"gamma > tau0 + d - d/p0 "
            f"({self.gamma} > {self.tau0 + self.d - self.d / self.p0} required)"
        )

    def validate(self) -> None:
        self.exponent()
        self.grid()
        self.symbol()
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        spec = self.wavelet_spec()
        if spec.max_level(self.J) < 0:
            raise ConfigError(f"J={self.J} too coarse for k={self.k}")
        (lo, hi), n_values = self.fit_range(), self.n_values()
        inside = int(np.count_nonzero((n_values >= lo) & (n_values <= hi)))
        if inside < 5:
            raise ConfigError(f"fit window [{lo}, {hi}] must hold at least 5 points, got {inside}")
        if not self.prediction().condition_satisfied and not self.allow_inadmissible:
            raise ConfigError(
                f"config violates the admissibility inequality "
                f"{self.admissibility_inequality()}; set allow_inadmissible = true "
                f"to run anyway"
            )

    def canonical_text(self) -> str:
        items = {
            "family": self.family,
            **{k: _fmt_value(v) for k, v in sorted(self.params.items())},
            "operator": self.operator,
            "gamma": _fmt_value(self.gamma),
            "d": self.d,
            "J": self.J,
            "k": self.k,
            "trials": self.trials,
            "base_seed": self.base_seed,
            "p0": _fmt_value(self.p0),
            "tau0": _fmt_value(self.tau0),
            "n_grid": self.n_grid,
            "fit_lo": self.fit_range()[0],
            "fit_hi": self.fit_range()[1],
            "tolerance": _fmt_value(self.tolerance),
        }
        return "".join(f"{k} = {v}\n" for k, v in items.items())

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


_BOOL_TOKENS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_PARSERS = {
    int: int,
    Optional[int]: int,
    float: float,
    bool: lambda text: _BOOL_TOKENS[text.lower()],
}
# general config keys and their types; "family" and "params" are not plain keys
_GENERAL_KEYS = {
    name: kind
    for name, kind in get_type_hints(ExperimentConfig).items()
    if name not in ("family", "params")
}


def _parse_value(key: str, text: str, kind, lineno: int):
    try:
        value = _PARSERS.get(kind, str)(text)
    except (KeyError, ValueError):
        raise ConfigError(f"line {lineno}: bad value {text!r} for key {key!r}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"line {lineno}: key {key!r} must be finite, got {text!r}")
    return value


def parse_config(text: str) -> ExperimentConfig:
    """Strict key = value parser; '#' starts a comment, unknown keys are errors."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = (lineno, value)

    if "family" not in raw:
        raise ConfigError("missing required key 'family'")
    family = raw.pop("family")[1]
    family_keys = _family_keys(family)

    params = {}
    kwargs = {}
    for key, (lineno, value) in raw.items():
        if key in _GENERAL_KEYS:
            kwargs[key] = _parse_value(key, value, _GENERAL_KEYS[key], lineno)
        elif key in family_keys:
            params[key] = _parse_value(key, value, family_keys[key], lineno)
        else:
            _reject_key(family, key)

    config = ExperimentConfig(family=family, params=params, **kwargs)
    config.validate()
    return config


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# experiment execution


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    curves: list
    kappa_values: list
    kappa_median: float
    kappa_q1: float
    kappa_q3: float
    prediction: KappaPrediction
    verdict: str
    config_hash: str
    version: str

    def median_sigma_at(self, n: int) -> float:
        column = []
        for curve in self.curves:
            where = np.nonzero(curve.n_values == n)[0]
            if where.size == 0:
                raise ValueError(f"n={n} is not on the curve grid")
            column.append(curve.sigma_values[where[0]])
        return float(np.median(column))


def _quantile(values, q: float) -> float:
    """Percentile that stays finite-math safe: all-zero-jump trials can make
    the fitted exponent infinite, and linear interpolation between two
    infinities is undefined, so fall back to the nearest-rank estimate."""
    arr = np.asarray(values, dtype=float)
    if np.all(np.isfinite(arr)):
        return float(np.percentile(arr, q))
    return float(np.percentile(arr, q, method="nearest"))


def _thread_count(threads: Optional[int]) -> int:
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


def _run_trial(config: ExperimentConfig, index: int) -> DecayCurve:
    exponent = config.exponent()
    seed = trial_seed(config.base_seed, index)
    fieldvals = synthesize_process(exponent, config.grid(), config.symbol(), seed)
    coeffs = dwt_periodic(fieldvals, config.wavelet_spec())
    del fieldvals
    params = BesovParams(tau=config.tau0, p=config.p0, q=config.p0, d=config.d)
    curve = sigma_curve(coeffs, params, config.n_values())
    curve.fit = estimate_kappa(curve, config.fit_range())
    return curve


def _gaussian_reference_value(config: ExperimentConfig) -> float:
    return (config.gamma - config.tau0) / config.d - 0.5


def _verdict(prediction: KappaPrediction, median: float, config: ExperimentConfig) -> str:
    tol = config.tolerance
    if prediction.kind == "exact":
        return "pass" if abs(median - prediction.value) <= tol else "fail"
    if prediction.kind == "bounds":
        ok = (median >= prediction.lower - tol) and (median <= prediction.upper + tol)
        return "pass" if ok else "fail"
    if prediction.kind == "infinite":
        # no finite target exists; require a clear margin over the matching
        # Gaussian-noise rate, which every family of this kind must beat
        return "pass" if median >= _gaussian_reference_value(config) + 0.5 else "fail"
    return "unchecked"


def run_experiment(config: ExperimentConfig, threads: Optional[int] = None) -> ExperimentReport:
    """Run all trials, aggregate the fitted exponents, and attach the verdict."""
    config.validate()
    n_workers = min(_thread_count(threads), config.trials)
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        # one worker runs the trials on the calling thread; a failing
        # trial's own exception reaches the caller either way
        run = map if n_workers == 1 else pool.map
        curves = list(run(partial(_run_trial, config), range(config.trials)))

    kappas = [curve.fit.kappa_hat for curve in curves]
    median = _quantile(kappas, 50.0)
    q1 = _quantile(kappas, 25.0)
    q3 = _quantile(kappas, 75.0)
    prediction = config.prediction()
    return ExperimentReport(
        config=config,
        curves=curves,
        kappa_values=kappas,
        kappa_median=median,
        kappa_q1=q1,
        kappa_q3=q3,
        prediction=prediction,
        verdict=_verdict(prediction, median, config),
        config_hash=config.sha256(),
        version=__version__,
    )


# ---------------------------------------------------------------------------
# family comparison


@dataclass
class ComparisonEntry:
    label: str
    theory: KappaPrediction
    theory_key: float
    kappa_median: float


@dataclass
class ComparisonReport:
    entries: list
    inversions: list
    ok: bool

    def table(self) -> str:
        lines = [f"{'family':<28} {'theory':<32} {'median kappa':>12}"]
        for e in self.entries:
            lines.append(f"{e.label:<28} {e.theory.describe():<32} {e.kappa_median:>12.4f}")
        if self.inversions:
            for a, b in self.inversions:
                lines.append(f"INVERSION: {a} measured above {b}")
        else:
            lines.append("ordering matches theory (no inversions)")
        return "\n".join(lines)


def _family_label(config: ExperimentConfig) -> str:
    parts = ",".join(f"{k}={v}" for k, v in sorted(config.params.items()))
    return f"{config.family}({parts})" if parts else config.family


def compare_families(configs, threads: Optional[int] = None) -> ComparisonReport:
    """Run each config and check the measured medians against the theory order."""
    if not configs:
        raise ConfigError("compare_families needs at least one config")
    shared = [(c.gamma, c.d, c.J, c.p0, c.tau0) for c in configs]
    if len(set(shared)) != 1:
        raise ConfigError(
            f"configs must share (gamma, d, J, p0, tau0), got {sorted(set(shared))}"
        )
    reports = [run_experiment(c, threads=threads) for c in configs]
    entries = [
        ComparisonEntry(
            label=_family_label(r.config),
            theory=r.prediction,
            theory_key=r.prediction.sort_key(),
            kappa_median=r.kappa_median,
        )
        for r in reports
    ]
    entries.sort(key=lambda e: e.theory_key)
    inversions = []
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            if entries[i].theory_key < entries[j].theory_key and not (
                entries[i].kappa_median < entries[j].kappa_median
            ):
                inversions.append((entries[i].label, entries[j].label))
    return ComparisonReport(entries=entries, inversions=inversions, ok=not inversions)


# ---------------------------------------------------------------------------
# output emission


def _json_safe(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    return value


def summary_record(report: ExperimentReport) -> dict:
    config = report.config
    pred = report.prediction
    theory = {"kind": pred.kind, "condition_satisfied": pred.condition_satisfied}
    if pred.kind == "exact":
        theory["value"] = pred.value
    elif pred.kind == "bounds":
        theory["lower"] = pred.lower
        theory["upper"] = pred.upper
    return {
        "family": config.family,
        "params": dict(config.params),
        "operator": config.operator,
        "gamma": config.gamma,
        "d": config.d,
        "J": config.J,
        "k": config.k,
        "trials": config.trials,
        "base_seed": config.base_seed,
        "p0": config.p0,
        "tau0": config.tau0,
        "fit_lo": config.fit_range()[0],
        "fit_hi": config.fit_range()[1],
        "kappa_values": [_json_safe(v) for v in report.kappa_values],
        "kappa_median": _json_safe(report.kappa_median),
        "kappa_iqr": [_json_safe(report.kappa_q1), _json_safe(report.kappa_q3)],
        "theory": theory,
        "verdict": report.verdict,
        "config_sha256": report.config_hash,
        "version": report.version,
    }


def emit_outputs(report: ExperimentReport, out_dir=None) -> list:
    """Write the decay-curve CSV, summary record, and log-log plot data.

    Emission is deterministic: the same report always produces the same
    bytes.  Returns the written paths.
    """
    out_dir = out_dir or report.config.output
    if out_dir is None:
        raise ValueError("no output directory: set config 'output' or pass out_dir")
    os.makedirs(out_dir, exist_ok=True)

    curves_path = os.path.join(out_dir, "curves.csv")
    with open(curves_path, "w") as fh:
        fh.write("trial,n,sigma\n")
        for t, curve in enumerate(report.curves):
            for n, s in zip(curve.n_values, curve.sigma_values):
                fh.write(f"{t},{int(n)},{float(s)!r}\n")

    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w") as fh:
        fh.write(json.dumps(summary_record(report), sort_keys=True, indent=2))
        fh.write("\n")

    # median curve in natural-log coordinates; zero medians are omitted
    plot_path = os.path.join(out_dir, "plot.tsv")
    n_values = report.curves[0].n_values
    stacked = np.vstack([c.sigma_values for c in report.curves])
    medians = np.median(stacked, axis=0)
    with open(plot_path, "w") as fh:
        fh.write("log_n\tlog_sigma\n")
        for n, s in zip(n_values, medians):
            if s > 0:
                fh.write(f"{math.log(float(n))!r}\t{math.log(float(s))!r}\n")

    return [curves_path, summary_path, plot_path]
