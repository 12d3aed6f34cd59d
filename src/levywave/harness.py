"""Experiment configuration, orchestration, aggregation, and output emission.

A config fixes (noise family, operator order gamma, grid, wavelet order,
trial count, base seed).  Each trial synthesizes one process realization,
decomposes it and measures its n-term error curve in the (p0, tau0) norm.
The report fits each curve's decay exponent and aggregates them by median
and IQR, because per-trial norms are heavy-tailed for several families.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import multiprocessing
import os
from dataclasses import dataclass, field, fields
from itertools import permutations
from typing import Optional, get_type_hints

import numpy as np

from . import __version__
from .besov import BesovParams, estimate_kappa, sigma_curve
from .exponents import (_MAX_CELLS, FAMILIES, ConfigError, GridSpec, KappaPrediction, LevyExponent,
                         admissibility, exponent_from_params, theoretical_kappa, trial_seed)
from .spectral import OPERATORS, synthesize_process
from .wavelets import WaveletSpec, dwt_periodic

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "ComparisonEntry",
    "ComparisonReport",
    "parse_settings",
    "parse_config",
    "load_config",
    "run_experiment",
    "run_sweep",
    "compare_families",
    "emit_outputs",
]

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
        if self.operator not in OPERATORS:
            raise ConfigError(f"unknown operator {self.operator!r}")
        return OPERATORS[self.operator](gamma=self.gamma)

    def wavelet_spec(self) -> WaveletSpec:
        try:
            return WaveletSpec(k=self.k)
        except ValueError as exc:  # the filter's own check of k
            raise ConfigError(str(exc)) from None

    def n_values(self) -> np.ndarray:
        return 2 ** np.arange(2, self.J * self.d - 1)

    def fit_range(self) -> tuple:
        lo = self.fit_lo if self.fit_lo is not None else 2**4
        hi = self.fit_hi if self.fit_hi is not None else 2 ** (self.J * self.d - 4)
        return (lo, hi)

    def prediction(self) -> KappaPrediction:
        return theoretical_kappa(self.exponent(), self.gamma, self.d, self.p0, self.tau0)

    def validate(self) -> None:
        exponent = self.exponent()
        self.grid()
        self.symbol()
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.base_seed < 1 << 64:  # trial_seed keeps 64 bits
            raise ConfigError(f"base_seed must be in [0, 2^64), got {self.base_seed}")
        if self.tolerance < 0:
            raise ConfigError(f"tolerance must be >= 0, got {self.tolerance}")
        if self.J <= self.wavelet_spec().zeta:
            raise ConfigError(f"J={self.J} too coarse for k={self.k}")
        (lo, hi), n_values = self.fit_range(), self.n_values()
        inside = int(np.count_nonzero((n_values >= lo) & (n_values <= hi)))
        if inside < 5:
            raise ConfigError(f"fit window [{lo}, {hi}] must hold at least 5 points, got {inside}")
        formula, bound = admissibility(exponent, self.d, self.p0, self.tau0)
        if not self.gamma > bound and not self.allow_inadmissible:
            raise ConfigError(
                f"config violates the admissibility inequality "
                f"{formula} ({self.gamma} > {bound} required); set allow_inadmissible = true "
                f"to run anyway"
            )

    def record(self) -> dict:
        """The settings that fix a run's outputs, in field order: every field
        but allow_inadmissible and output, params copied, the fit window
        resolved.  The config hash and summary.json both come from it."""
        record = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name not in ("allow_inadmissible", "output")}
        record["params"] = dict(self.params)
        record["fit_lo"], record["fit_hi"] = self.fit_range()
        return record

    def canonical_text(self) -> str:
        items = {}
        for key, value in self.record().items():
            if key == "fit_lo":
                # the n grid is always dyadic; the line stays so that the
                # hashes of existing outputs remain valid
                items["n_grid"] = "dyadic"
            items.update(sorted(value.items()) if key == "params" else [(key, value)])
        return "".join(f"{k} = {_fmt_value(v)}\n" for k, v in items.items())

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _fmt_value(v) -> str:
    # float() first: a numpy float's repr names its type
    return repr(float(v)) if isinstance(v, float) else str(v)


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


def parse_settings(text: str) -> ExperimentConfig:
    """Strict key = value reader: '#' starts a comment, values are typed and
    finite, and the config is not validated."""
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
    # only typed here: validate() names an unknown family or a key it does not take
    family_keys = FAMILIES[family].config_keys() if family in FAMILIES else {}

    params = {}
    kwargs = {}
    for key, (lineno, value) in raw.items():
        if key in _GENERAL_KEYS:
            kwargs[key] = _parse_value(key, value, _GENERAL_KEYS[key], lineno)
        else:
            params[key] = _parse_value(key, value, family_keys.get(key, str), lineno)

    return ExperimentConfig(family=family, params=params, **kwargs)


def parse_config(text: str) -> ExperimentConfig:
    """parse_settings, then validate(): unknown keys and inadmissible settings are errors."""
    config = parse_settings(text)
    config.validate()
    return config


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# experiment execution


def _quantile(values, q: float) -> float:
    """Percentile that stays finite-math safe: all-zero-jump trials can make
    the fitted exponent infinite, and linear interpolation between two
    infinities is undefined, so fall back to the nearest-rank estimate."""
    arr = np.asarray(values, dtype=float)
    if np.all(np.isfinite(arr)):
        return float(np.percentile(arr, q))
    return float(np.percentile(arr, q, method="nearest"))


@dataclass
class ExperimentReport:
    """Row t of sigma is trial t's n-term errors over config.n_values().  The
    fits, their quartiles, the prediction and the verdict are derived, so a
    refit is ExperimentReport(dataclasses.replace(config, fit_lo=...), sigma)."""

    config: ExperimentConfig
    sigma: np.ndarray
    kappa_values: list = field(init=False)
    kappa_stderr: list = field(init=False)
    kappa_q1: float = field(init=False)
    kappa_median: float = field(init=False)
    kappa_q3: float = field(init=False)
    prediction: KappaPrediction = field(init=False)
    verdict: str = field(init=False)

    def __post_init__(self):
        n_values, window = self.config.n_values(), self.config.fit_range()
        for index, row in enumerate(self.sigma):
            # the FFT spreads a nan or inf of the noise over the whole field, so
            # the few n-term errors stand in for a sweep of it
            if not np.isfinite(row).all():
                raise ValueError(f"trial {index}: the realization is not finite "
                                 "(its n-term errors are nan or inf)")
        fits = [estimate_kappa(n_values, row, window) for row in self.sigma]
        self.kappa_values = [kappa for kappa, _ in fits]
        self.kappa_stderr = [stderr for _, stderr in fits]
        self.kappa_q1, self.kappa_median, self.kappa_q3 = (
            _quantile(self.kappa_values, q) for q in (25.0, 50.0, 75.0)
        )
        self.prediction = self.config.prediction()
        self.verdict = self.prediction.verdict(self.kappa_median, self.config.tolerance)


def _usable_cpus() -> int:
    # the CPUs this process may run on: a pinned process has fewer than cpu_count()
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(workers: Optional[int]) -> int:
    """The run's worker budget: the workers asked for (4 by default), at most the usable CPUs."""
    if workers is not None and workers < 1:
        raise ConfigError(f"threads must be >= 1, got {workers}")
    return min(4 if workers is None else int(workers), _usable_cpus())


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters (malloc.h)


def _keep_heap() -> None:
    """Trial pool initializer: keep freed memory in the worker's heap.

    By default glibc serves a block above its mmap threshold (128 KiB at
    first, raised as such blocks are freed) by mmap and returns it on free,
    and trims the heap's free top, so each trial faults its fields in again.
    Raising the mmap threshold to glibc's cap, 32 MiB, puts a d=1 J=20
    field in the heap, and a high trim threshold keeps it there for the
    next trial.  Setting either one turns off the dynamic threshold, so the
    trim setting alone would leave every block above 128 KiB to mmap.  Where
    libc is not glibc, has no mallopt, or its mallopt cannot be called this
    way, this does nothing: an initializer that raises would break the pool
    before its first trial.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    except (OSError, AttributeError, TypeError, ctypes.ArgumentError):
        pass  # no glibc mallopt that takes these: the allocator keeps its defaults


# cells per stack of trials: four trials at d=1 J=14; a trial of 2^16 cells or
# more is a stack of one
_STACK_CELLS = 1 << 16
# cells per thread of a DWT step; a stack under twice as many runs on one thread
_THREAD_CELLS = 3 << 19


def _run_stack(config: ExperimentConfig, indices, threads: int) -> np.ndarray:
    """The n-term errors over config.n_values() of config's trials `indices`,
    one row each, run as one stack along a leading trial axis; a split pass
    loses below 2 _THREAD_CELLS cells, so only a larger stack splits, across `threads`."""
    grid = config.grid()
    cells = len(indices) * grid.size
    threads = threads if cells >= 2 * _THREAD_CELLS else 1
    seeds = [trial_seed(config.base_seed, index) for index in indices]
    # passed on with no name kept, so the DWT frees the stack after its finest level
    coeffs = dwt_periodic(
        synthesize_process(config.exponent(), grid, config.symbol(), seeds, threads=threads),
        config.wavelet_spec(), threads=min(threads, cells // _THREAD_CELLS or 1), d=grid.d,
    )
    params = BesovParams(tau=config.tau0, p=config.p0)
    return sigma_curve(coeffs, params, config.n_values(), threads=threads)


def _stacks(configs) -> list:
    """(config, trial indices) of each stack, in trial order: each config's
    trials in consecutive stacks of at most _STACK_CELLS cells of its own
    grid, and at least one trial."""
    return [(config, range(start, min(start + size, config.trials)))
            for config in configs for size in [max(1, _STACK_CELLS // config.grid().size)]
            for start in range(0, config.trials, size)]


def _run_chunk(stacks, threads: int = 1) -> list:
    # _run_stack is looked up when the chunk runs, so a stack pickles as (config, indices) alone
    return [row for config, indices in stacks for row in _run_stack(config, indices, threads)]


def _chunks(stacks, workers: int) -> list:
    """stacks cut into consecutive chunks that shrink toward the end of the
    map, each about the stacks not yet cut over twice the workers, and at
    least one: a round trip per stack would cost most of the gain, and the
    last chunks are small, so the workers finish close together."""
    chunks, start = [], 0
    while start < len(stacks):
        size = math.ceil((len(stacks) - start) / (2 * workers))
        chunks.append(stacks[start:start + size])
        start += size
    return chunks


def run_sweep(configs, threads: Optional[int] = None) -> list:
    """One report per config, in order ([] for none); the configs may differ in
    any setting.  All are validated before any trial runs, and all their
    trials go through one map, in order, so the lowest-index failing trial's
    own exception reaches the caller.

    The trials run as stacks along a leading trial axis: each stage takes a
    stack of up to _STACK_CELLS cells of its config's grid in one set of
    numpy calls, which at desk scale (d=1 J=14, a stack of four) saves most
    of the per-call overhead of the DWT's small coarse levels.  Every row
    gets the operations of a trial run alone, in the same order.

    The workers are processes started with fork: a stack at desk scale is
    a few ms of small numpy calls with the GIL held between them, so threads
    gain little.  fork starts a pool and runs its first task in about 0.01 s,
    forkserver in 0.21 s and spawn in 0.25 s, which would eat the gain.
    Python 3.12+ warns when a process with threads forks, and after
    `import numpy` this process has OpenBLAS's.  The map's chunks shrink
    toward its end, so the workers finish close together.  The memory
    guard's cell cap bounds all the stacks in flight, each counted as large
    as the map's largest, by its cells or one trial's jumps if more.  When a
    trial raises, the chunks already handed out (one running per worker and
    up to workers + 1 queued) run to their end before its exception reaches
    the caller; the rest are dropped.  A worker that dies without raising
    breaks the executor.

    The run's budget is the `threads` asked for, 4 by default, at most the
    usable CPUs; the pool takes at most the budget, the stacks and the cell
    cap's room.  With one worker, or no fork, the stacks run one at a time on
    the calling process, and a lone stack of 3 * 2^20 cells or more (d=2 from
    J=11, d=1 from J=22) splits its numpy calls, which release the GIL, across
    the budget as threads; any other stack runs on one thread, same bytes.
    """
    configs = list(configs)
    for config in configs:
        config.validate()
    budget = _worker_count(threads)
    stacks = _stacks(configs)
    # the cell cap bounds all the stacks in flight; a stack draws its jumps a trial at a time
    largest = max((max(len(indices) * config.grid().size, math.ceil(config.exponent().jump_rate))
                   for config, indices in stacks), default=1)
    n_workers = min(budget, len(stacks), _MAX_CELLS // largest)
    if n_workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        rows = _run_chunk(stacks, threads=budget)
    else:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        pool = ProcessPoolExecutor(n_workers, multiprocessing.get_context("fork"), _keep_heap)
        try:
            rows = [row for chunk in pool.map(_run_chunk, _chunks(stacks, n_workers))
                    for row in chunk]
        except BrokenExecutor:
            # a worker killed mid-chunk sends nothing back; the executor fails every chunk left
            raise ChildProcessError("a trial's worker process died") from None
        finally:
            # drops the chunks not yet handed out and joins the workers
            pool.shutdown(cancel_futures=True)
    ends = np.cumsum([config.trials for config in configs])
    return [ExperimentReport(config, np.array(rows[end - config.trials:end]))
            for config, end in zip(configs, ends)]


def run_experiment(config: ExperimentConfig, threads: Optional[int] = None) -> ExperimentReport:
    """Run all trials, on `threads` worker processes, and report their n-term
    errors, fits and verdict."""
    return run_sweep([config], threads)[0]


# ---------------------------------------------------------------------------
# family comparison


@dataclass
class ComparisonEntry:
    label: str
    theory: KappaPrediction
    kappa_median: float


@dataclass
class ComparisonReport:
    """Entries in theory order, and the pairs whose medians do not follow it."""

    entries: list
    inversions: list = field(init=False)

    def __post_init__(self):
        # no prediction (a nan key) sorts last and joins no inversion; pairs go both ways
        self.entries = sorted(
            self.entries, key=lambda e: (e.theory.kind is None, e.theory.sort_key())
        )
        self.inversions = [
            (a.label, b.label)
            for a, b in permutations(self.entries, 2)
            if a.theory.sort_key() < b.theory.sort_key() and not a.kappa_median < b.kappa_median
        ]

    @property
    def ok(self) -> bool:
        return not self.inversions

    def table(self) -> str:
        rows = [("family", "theory", "median kappa")]
        rows += [(e.label, e.theory.describe(), f"{e.kappa_median:.4f}") for e in self.entries]
        label_w, theory_w = (max(len(row[i]) for row in rows) for i in (0, 1))
        lines = [f"{a:<{label_w}} {b:<{theory_w}} {c:>12}" for a, b, c in rows]
        inversions = [f"INVERSION: {a} measured above {b}" for a, b in self.inversions]
        return "\n".join(lines + (inversions or ["ordering matches theory (no inversions)"]))


def _family_label(config: ExperimentConfig) -> str:
    parts = ",".join(f"{k}={v}" for k, v in sorted(config.params.items()))
    return f"{config.family}({parts})" if parts else config.family


def compare_families(configs, threads: Optional[int] = None) -> ComparisonReport:
    """Run each config's trials, on `threads` worker processes, and check the
    measured medians against the theory order."""
    configs = list(configs)  # an iterator would be used up by the shared-settings check
    if not configs:
        raise ConfigError("compare_families needs at least one config")
    # k caps the measured rate, so medians at different k do not compare
    shared = [(c.gamma, c.d, c.J, c.k, c.p0, c.tau0) for c in configs]
    if len(set(shared)) != 1:
        raise ConfigError(
            f"configs must share (gamma, d, J, k, p0, tau0), got {sorted(set(shared))}"
        )
    return ComparisonReport([ComparisonEntry(_family_label(r.config), r.prediction, r.kappa_median)
                             for r in run_sweep(configs, threads)])


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
    settings = config.record()
    del settings["tolerance"]  # summary.json has never carried it
    return {
        **settings,
        "kappa_values": [_json_safe(v) for v in report.kappa_values],
        "kappa_median": _json_safe(report.kappa_median),
        "kappa_iqr": [_json_safe(report.kappa_q1), _json_safe(report.kappa_q3)],
        "theory": report.prediction.record(),
        "verdict": report.verdict,
        "config_sha256": config.sha256(),
        "version": __version__,
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

    n_values = report.config.n_values()
    curves_path = os.path.join(out_dir, "curves.csv")
    with open(curves_path, "w") as fh:
        fh.write("trial,n,sigma\n")
        for t, row in enumerate(report.sigma):
            for n, s in zip(n_values, row):
                fh.write(f"{t},{int(n)},{float(s)!r}\n")

    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w") as fh:
        fh.write(json.dumps(summary_record(report), sort_keys=True, indent=2))
        fh.write("\n")

    # median curve in natural-log coordinates; zero medians are omitted
    plot_path = os.path.join(out_dir, "plot.tsv")
    medians = np.median(report.sigma, axis=0)
    with open(plot_path, "w") as fh:
        fh.write("log_n\tlog_sigma\n")
        for n, s in zip(n_values, medians):
            if s > 0:
                fh.write(f"{math.log(float(n))!r}\t{math.log(float(s))!r}\n")

    return [curves_path, summary_path, plot_path]
