"""The levywave benchmark: one workload per invocation, closed loop, checked outputs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

Run from the root of a checkout; nothing is built, levywave is imported from
src/.  Workloads (see BENCHMARK.json for why each was chosen):

  desk_compare  compare_families over the six configs/*.cfg (d=1, J=14, 150 trials)
  fine_1d       run_experiment + emit_outputs, sas alpha=0.5, d=1, J=20, 8 trials
  wide_2d       run_experiment + emit_outputs, laplace gamma=1.5, d=2, J=12, 1 trial

--seed is the base_seed of every config (default 20260810, the seed at which
perfbench/reference.json was recorded).  --seconds is how long the timed
loop runs at least (default: run_seconds of BENCHMARK.json); it goes on until
each median has four calls.  Each phase runs in a fresh child process
(perfbench/worker.py), one at a time, so set-up time and peak RSS are per
workload:

  --trace 0  setup_s from several fresh processes (median), then one child
             that makes untraced calls, alternating threads=2 and threads=1
             on multi-trial workloads.  Every time metric, setup_s too, is
             reported at reference host speed: each probe and call is
             bracketed by a calibration that does not use levywave (see
             worker.Calibration), because a shared host drifts by up to 2x
             in speed;
  --trace 1  one child that pairs untraced and traced calls, then makes one
             tracemalloc call at threads=1; per-layer metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; units come from BENCHMARK.json.  A human-readable table
with sample counts goes before it, with the plain wall times for reference,
and the full record with provenance and kappa_drift is written to .perfbench/.  --smoke runs a d=1, J=8, 2-trial
workload through both modes in seconds and checks that every metric named in
BENCHMARK.json is emitted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import DEFAULT_SEED, OUT, ROOT, Calibration

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
SETUP_PROBES = 11
TIME_LIMIT_S = 170  # every run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _worker(mode, workload, seed, deadline, seconds=None):
    cmd = [sys.executable, WORKER, mode, "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} phase")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} phase of {workload} did not end in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} phase of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _provenance():
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "levywave")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"commit": commit, "src_sha256": src.hexdigest(), "python": platform.python_version(),
            "nproc": os.cpu_count()}


def _setup(workload, seed, deadline):
    """Median set-up time of SETUP_PROBES fresh processes, at reference host speed
    (each probe bracketed by calibrations, as the timed calls are), and plain."""
    # one untimed probe first so bytecode caches are warm, as for any user
    _worker("setup", workload, seed, deadline)
    calibration = Calibration()
    plain, ref = [], []
    before = calibration.index()
    for _ in range(SETUP_PROBES):
        setup_s = _worker("setup", workload, seed, deadline)["setup_s"]
        after = calibration.index()
        plain.append(setup_s)
        ref.append(setup_s * 2.0 / (before + after))
        before = after
    return ({"value": statistics.median(ref), "samples": len(ref)},
            {"value": statistics.median(plain), "samples": len(plain), "unit": "s"})


def run(workload, seed, seconds, trace, spec):
    """Run one workload in one mode; returns the record whose last-line JSON is printed."""
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    if not trace:
        metrics["setup_s"], plain_setup = _setup(workload, seed, deadline)
    child = _worker("trace" if trace else "measure", workload, seed, deadline, seconds)
    metrics.update(child.pop("metrics"))
    if not trace:
        child["plain_wall"]["setup_s"] = plain_setup

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not emitted: {', '.join(missing)}")
    for m in wanted:
        metrics[m["name"]]["unit"] = m["unit"]
    attempted, failed = child.pop("attempted"), child.pop("failed")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "error_rate": failed / max(1, attempted),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
        "provenance": {**_provenance(), **child.pop("provenance")},
        **child,
    }
    bad = [n for n, m in record["metrics"].items() if not math.isfinite(m["value"])]
    if bad:
        raise BenchError(f"no successful call to measure {', '.join(bad)}")
    path = os.path.join(OUT, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return record


def _print_table(record):
    print(f"# levywave benchmark: workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} seconds={record['seconds']}")
    print(f"# provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"{'metric':<44} {'value':>14} {'unit':<7} samples")
    for name, m in record["metrics"].items():
        note = "  (computed from array sizes)" if m.get("computed") else ""
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']:<7} {m['samples']}{note}")
    for name, m in record.get("plain_wall", {}).items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']:<7} {m['samples']}  (plain wall time)")
    print(f"{'error_rate':<44} {record['error_rate']:>14.6g} {'1':<7} {record['attempted']}")
    drift = record["kappa_drift"]
    if drift is None:
        print(f"{'kappa_drift':<44} {'n/a':>14} {'1':<7} 0  (no reference at this seed)")
    else:
        print(f"{'kappa_drift':<44} {drift:>14.6g} {'1':<7} {record['attempted']}")
    if record.get("share_of_traced_wall"):
        print("# share of the traced wall: " + ", ".join(
            f"{k} {v:.4f}" for k, v in record["share_of_traced_wall"].items()))
    if "spans_file" in record:
        print(f"# spans in {record['spans_file']}")


def _result_line(record):
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in record["metrics"].items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload through both modes; checks every metric is emitted")
    args = parser.parse_args(argv)

    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "levywave", "__init__.py")):
            raise BenchError("run from the root of a levywave checkout (src/levywave missing)")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        names = [w["name"] for w in spec["workloads"]]
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        if args.smoke:
            records = [run("smoke", args.seed, 1, trace, spec) for trace in (0, 1)]
        elif args.workload in names:
            records = [run(args.workload, args.seed, seconds, args.trace, spec)]
        else:
            raise BenchError(f"--workload must be one of {names}")
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for record in records:
        _print_table(record)
    if args.smoke:
        emitted = sum(len(r["metrics"]) for r in records)
        print(f"# smoke: all {emitted} metrics of BENCHMARK.json emitted with unit "
              "and sample count")
    print(_result_line(records[-1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
