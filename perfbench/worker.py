"""One benchmark child process: runs one workload of levywave and prints one JSON line.

    python3 perfbench/worker.py MODE --workload NAME --seed N [--seconds S]

MODE is one of
  setup      import levywave and load and validate the workload's configs, timed;
  measure    untraced calls at threads=2 and threads=1, alternating, for S seconds
             and until each median has MIN_SAMPLES calls, each call bracketed by
             a host-speed calibration;
  trace      untraced and traced calls at threads=2, alternating, for S seconds,
             then one call at threads=1 with tracemalloc on;
  reference  one call per workload at the default seed, printed as the
             correctness reference (perfbench/reference.json).

The parent, perfbench/run.py, starts one of these per phase so that set-up
and peak memory are counted per workload.  Only the public API is driven:
compare_families, run_experiment and emit_outputs.  Outputs, spans and
results go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import hashlib
import json
import math
import os
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 20260810
OUT = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
THREADS = 2  # nproc of the reference machine; wall_1t_ref_s is the 1-thread baseline
# a wide_2d call takes about 9 s, so --seconds alone would give it one or two
# samples; calls go on past --seconds until each median has MIN_SAMPLES, but
# not past HARD_LIMIT_S after the first timed call (run.py allows 170 s in all)
MIN_SAMPLES = 4
HARD_LIMIT_S = 120
# The host is shared: the same work took from 1x to 2x as long within minutes,
# its two vCPUs differed in speed by 15% (up to 50%), and a 20-s median of
# threads=1 desk_compare calls varied by 20% (IQR/median) between runs.  So
# each timed call is bracketed by a fixed calibration that does not touch
# levywave, and the time metrics are reported at reference host speed.
# CALIBRATION_REF_S holds the median time of one calibration round's three
# parts, pinned to one vCPU of the reference machine (2-vCPU x86-64 VM, numpy
# 2.4): a pure-Python loop, small FFTs and sorts, and an in-place sort of a
# 16 MiB array.
CALIBRATION_REF_S = (0.0098, 0.0141, 0.0200)

# base_seed is appended from --seed.  desk_compare is the six sample configs.
WORKLOADS = {
    "desk_compare": None,
    "fine_1d": "family = sas\nalpha = 0.5\ngamma = 1.0\nd = 1\nJ = 20\nk = 4\ntrials = 8\n",
    "wide_2d": "family = laplace\ngamma = 1.5\nd = 2\nJ = 12\nk = 4\ntrials = 1\n",
    # seconds-long check that every metric is emitted; not a timed workload
    "smoke": "family = gaussian\ngamma = 1.0\nd = 1\nJ = 8\nk = 4\ntrials = 2\n"
             "fit_lo = 4\nfit_hi = 64\n",
}


class Calibration:
    """Host speed, measured with work that does not depend on levywave: one round
    pinned to each of the first THREADS CPUs this process may run on, so that a
    slow vCPU shows as it does in a threads=2 call."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._small = rng.standard_normal(1 << 14)
        self._big = rng.standard_normal(1 << 21)
        self._buf = np.empty_like(self._big)
        self._cpus = sorted(os.sched_getaffinity(0))
        self.index()  # first touch of the arrays; not a measurement

    def _round(self):
        import numpy as np

        t0 = time.perf_counter()
        s = 0
        for i in range(250_000):
            s += i
        t1 = time.perf_counter()
        for _ in range(15):
            np.fft.ifft(np.fft.fft(self._small))
            np.sort(self._small)
        t2 = time.perf_counter()
        np.copyto(self._buf, self._big)
        self._buf.sort()
        t3 = time.perf_counter()
        return t1 - t0, t2 - t1, t3 - t2

    def index(self) -> float:
        """Time of the calibration relative to the reference machine, the mean of
        its parts' ratios over the rounds: 1.0 there, 1.5 on a host that is a
        third slower."""
        ratios = []
        try:
            for cpu in self._cpus[:THREADS]:
                os.sched_setaffinity(0, {cpu})
                ratios += [t / ref for t, ref in zip(self._round(), CALIBRATION_REF_S)]
        finally:
            os.sched_setaffinity(0, self._cpus)  # the workload's threads inherit this
        return sum(ratios) / len(ratios)


class Workload:
    """The configs of one workload and the public call it makes."""

    def __init__(self, name: str, seed: int, out_dir: str = OUT):
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        import levywave
        import levywave.harness as harness

        if not os.path.abspath(levywave.__file__).startswith(SRC + os.sep):
            raise RuntimeError(f"levywave imported from {levywave.__file__}, not this checkout")
        self.harness = harness
        self.out_dir = os.path.join(out_dir, name)
        if WORKLOADS[name] is None:
            paths = sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))
            if not paths:
                raise RuntimeError("no configs/*.cfg in this checkout")
            self.configs = [dataclasses.replace(harness.load_config(p), base_seed=seed)
                            for p in paths]
        else:
            self.configs = [harness.parse_config(WORKLOADS[name] + f"base_seed = {seed}\n")]
        self.compare = WORKLOADS[name] is None

    @property
    def cells(self) -> int:
        return sum(c.trials << (c.J * c.d) for c in self.configs)

    @property
    def workers(self) -> int:
        """Threads that can be busy at once at threads=THREADS: run_experiment runs a
        config's trials on min(threads, trials) workers, and a single trial on the
        calling thread; compare_families runs the configs one after another."""
        return min(THREADS, max(c.trials for c in self.configs))

    @property
    def field_bytes(self) -> int:
        c = self.configs[0]
        return 8 << (c.J * c.d)

    def call(self, threads: int):
        """One workload call; returns (wall seconds, outcome dict)."""
        h = self.harness
        t0 = time.perf_counter()
        if self.compare:
            rep = h.compare_families(self.configs, threads=threads)
            wall = time.perf_counter() - t0
            entries = [(e.label, e.theory.kind, e.kappa_median) for e in rep.entries]
            return wall, {
                "medians": {label: m for label, _, m in entries},
                "superpolynomial": [label for label, kind, _ in entries if kind == "infinite"],
                "order": [label for label, _, m in sorted(entries, key=lambda e: e[2])],
                "inversions": [list(pair) for pair in rep.inversions],
                "kappas": [m for _, _, m in entries],
                "fingerprint": repr((entries, rep.inversions)),
            }
        report = h.run_experiment(self.configs[0], threads=threads)
        paths = h.emit_outputs(report, self.out_dir)
        wall = time.perf_counter() - t0
        digest = hashlib.sha256()
        for p in paths:
            with open(p, "rb") as fh:
                digest.update(fh.read())
        label = self.configs[0].family
        return wall, {
            "medians": {label: report.kappa_median},
            "superpolynomial": [label] if report.prediction.kind == "infinite" else [],
            "verdict": report.verdict,
            "kappas": list(report.kappa_values),
            "fingerprint": digest.hexdigest(),
        }


class Checker:
    """Counts failed calls: a raise, a non-finite kappa median, a changed verdict or
    ordering, outputs that differ from the first call (at any thread count), or
    a traced call whose kappas differ from its untraced partner's.

    At the default seed the reference recorded at the seed commit applies;
    at other seeds only determinism and finiteness are checked.
    """

    def __init__(self, workload: str, seed: int):
        self.reference = None
        if seed == DEFAULT_SEED:
            with open(REFERENCE) as fh:
                self.reference = json.load(fh).get(workload)
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.kappa_drift = 0.0 if self.reference else None

    def _problems(self, out):
        if self.first is None:
            self.first = out
        elif out["fingerprint"] != self.first["fingerprint"]:
            yield "outputs differ from the first call"
        ref = self.reference
        for label, m in out["medians"].items():
            if ref is not None:
                r = ref["medians"][label]
                if math.isfinite(r) and not math.isfinite(m):
                    yield f"{label}: kappa median {m} where the reference is {r}"
                drift = 0.0 if m == r else abs(m - r)
                self.kappa_drift = max(self.kappa_drift, drift)
            elif math.isnan(m) or (math.isinf(m) and label not in out["superpolynomial"]):
                yield f"{label}: non-finite kappa median {m}"
        if ref is not None:
            for key in ("verdict", "order", "inversions"):
                if key in ref and out.get(key) != ref[key]:
                    yield f"{key} {out.get(key)!r} differs from the reference {ref[key]!r}"

    def check(self, out, expect_kappas=None) -> bool:
        self.attempted += 1
        problems = list(self._problems(out))
        if expect_kappas is not None and repr(out["kappas"]) != repr(expect_kappas):
            problems.append("traced kappas differ from the untraced call's")
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        self.failed += bool(problems)
        return not problems

    def error(self):
        self.attempted += 1
        self.failed += 1
        traceback.print_exc(file=sys.stderr)


def _attempt(work, checker, threads, expect_kappas=None):
    """One checked call; returns (wall, outcome), or None when it raised."""
    try:
        wall, out = work.call(threads)
    except Exception:  # a failing call is counted, and the loop goes on
        checker.error()
        return None
    checker.check(out, expect_kappas)
    return wall, out


def _metric(value, samples=1):
    return {"value": value, "samples": samples}


def _median(values):
    return statistics.median(values) if values else math.nan


def _peak_rss_mb():
    """High-water RSS of this process.  VmHWM, not getrusage's ru_maxrss: the
    latter also keeps the parent's high water from before exec, and run.py
    holds the calibration arrays."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _running(start, seconds, have, need):
    """Whether to make another call: within --seconds, or short of `need` samples
    and within HARD_LIMIT_S."""
    elapsed = time.perf_counter() - start
    return elapsed < seconds or (have < need and elapsed < HARD_LIMIT_S)


def measure(work, checker, seconds):
    """Timed calls until the time is up and each median has MIN_SAMPLES samples.

    The first call, at threads=1, warms caches and FFT plans and is not timed.
    peak_rss_mb is the high-water RSS right after it: at threads=2 the high
    water depends on how the two workers' trials overlap, which varied from
    262 to 302 MB between runs of fine_1d.  A multi-trial workload alternates
    threads=2 and threads=1.  A single-trial one runs the same code at any
    thread count, so it is timed at threads=2 only and those samples are its
    wall_1t too.

    A calibration runs before the first timed call and after each one.  A
    call's reference-speed time is its wall divided by the mean host speed
    index of the calibrations on either side of it.  The metrics are medians
    of reference-speed times; the plain wall medians go to the record only.
    """
    _attempt(work, checker, 1)
    peak_rss_mb = _peak_rss_mb()
    calibration = Calibration()
    counts = (THREADS, 1) if work.workers > 1 else (THREADS,)
    walls = {t: [] for t in counts}
    ref_walls = {t: [] for t in counts}
    indices = []
    before = calibration.index()
    start = time.perf_counter()
    i = 0
    while _running(start, seconds, min(map(len, walls.values())), MIN_SAMPLES):
        threads = counts[i % len(counts)]
        i += 1
        result = _attempt(work, checker, threads)
        after = calibration.index()
        indices.append(after)
        if result is not None:
            walls[threads].append(result[0])
            ref_walls[threads].append(result[0] * 2.0 / (before + after))
        before = after
    walls.setdefault(1, walls[THREADS])
    ref_walls.setdefault(1, ref_walls[THREADS])
    n, n1 = len(walls[THREADS]), len(walls[1])
    ref_wall = _median(ref_walls[THREADS])
    metrics = {
        "wall_ref_s": _metric(ref_wall, n),
        "wall_1t_ref_s": _metric(_median(ref_walls[1]), n1),
        "cells_per_ref_s": _metric(work.cells / ref_wall, n),
        "peak_rss_mb": _metric(peak_rss_mb),
    }
    wall = _median(walls[THREADS])
    plain = {
        "wall_s": {**_metric(wall, n), "unit": "s"},
        "wall_1t_s": {**_metric(_median(walls[1]), n1), "unit": "s"},
        "cells_per_s": {**_metric(work.cells / wall, n), "unit": "1/s"},
        "host_speed_index": {**_metric(_median(indices), len(indices)), "unit": "x"},
    }
    return metrics, {"plain_wall": plain}


def trace(work, checker, seconds, spans_path):
    """Traced calls paired with untraced ones, then one tracemalloc call at threads=1."""
    import tracemalloc

    from spans import SPAN_NAMES, STAGES, Tracer, self_times

    _attempt(work, checker, THREADS)
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while _running(start, seconds, len(traced), 1):
        base = _attempt(work, checker, THREADS)
        tracer.install()
        try:
            got = _attempt(work, checker, THREADS, base[1]["kappas"] if base else None)
        finally:
            tracer.uninstall()
        if base is None or got is None:
            tracer.spans = [s for s in tracer.spans if s["call"] != tracer.call]
            continue
        plain.append(base[0])
        traced.append(got[0])
        tracer.call += 1

    memory = Tracer(memory=True)
    memory.install()
    tracemalloc.start()
    try:
        _attempt(work, checker, 1)
    finally:
        tracemalloc.stop()
        memory.uninstall()

    n = len(traced)
    selfs = self_times(tracer.spans)
    self_s = [dict.fromkeys(SPAN_NAMES, 0.0) for _ in range(n)]
    calls = [dict.fromkeys(SPAN_NAMES, 0) for _ in range(n)]
    counts = [{} for _ in range(n)]
    busy = [0.0] * n
    for s in tracer.spans:
        k = s["call"]
        self_s[k][s["name"]] += selfs[s["id"]]
        calls[k][s["name"]] += 1
        if s["name"] in STAGES:
            busy[k] += s["t1"] - s["t0"]
        if "count" in s:
            key, value = s["count"]
            counts[k][key] = counts[k].get(key, 0) + value

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = _metric(_median([c[name] for c in self_s]), n)
        metrics[f"{name}.calls"] = _metric(_median([c[name] for c in calls]), n)
        peaks = [s["mem_peak"] - s["mem_entry"] for s in memory.spans if s["name"] == name]
        metrics[f"{name}.peak_alloc_x"] = _metric(
            max(peaks) / work.field_bytes if peaks else 0.0, len(peaks))
    for key in ("sampling.cells", "besov.coeffs_ranked", "harness.emit_outputs.bytes"):
        metrics[key] = _metric(_median([c.get(key, 0) for c in counts]), n)
    for key in ("sampling.cells", "besov.coeffs_ranked"):
        metrics[key]["computed"] = True  # from array sizes, not measured
    metrics["harness.busy_share"] = _metric(
        _median([b / (work.workers * w) for b, w in zip(busy, traced)]), n)
    metrics["trace.overhead_s"] = _metric(_median(traced) - _median(plain), n)

    # Where the traced wall goes, on a workload with one busy thread (with two,
    # the workers' self times overlap): self time of the non-harness layers, of
    # the harness (glue inside run_experiment and emit_outputs' I/O), and time
    # outside every span.
    coverage = None
    if work.workers == 1:
        shares = {"layers": [], "harness": [], "unspanned": []}
        for c, w in zip(self_s, traced):
            harness = sum(v for k, v in c.items() if k.startswith("harness."))
            layers = sum(c.values()) - harness
            shares["layers"].append(layers / w)
            shares["harness"].append(harness / w)
            shares["unspanned"].append(1.0 - (layers + harness) / w)
        coverage = {k: _median(v) for k, v in shares.items()}
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "memory_spans": memory.spans,
                   "traced_wall_s": traced, "untraced_wall_s": plain,
                   "share_of_traced_wall": coverage}, fh)
    return metrics, {"share_of_traced_wall": coverage, "spans_file": spans_path}


def reference():
    """Kappa medians, verdicts and ordering of every timed workload at the default seed."""
    out = {}
    for name in ("desk_compare", "fine_1d", "wide_2d"):
        work = Workload(name, DEFAULT_SEED, os.path.join(OUT, "reference"))
        _, got = work.call(THREADS)
        out[name] = {k: got[k] for k in ("medians", "verdict", "order", "inversions") if k in got}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "measure", "trace", "reference"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, help="measure and trace modes only")
    args = parser.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)

    if args.mode == "reference":
        print(json.dumps(reference(), indent=2, sort_keys=True))
        return 0
    if args.mode == "setup":
        t0 = time.perf_counter()
        Workload(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    import numpy

    work = Workload(args.workload, args.seed)
    checker = Checker(args.workload, args.seed)
    if args.mode == "measure":
        metrics, extra = measure(work, checker, args.seconds)
    else:
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        metrics, extra = trace(work, checker, args.seconds, spans_path)
    print(json.dumps({
        "metrics": metrics,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "kappa_drift": checker.kappa_drift,
        "provenance": {"numpy": numpy.__version__, "threads": THREADS},
        **extra,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
