"""Check that two checkouts of levywave write byte-identical outputs.

    python3 tools/compare_outputs.py PARENT CHANGE

Runs `levywave run` from each checkout's src/ (PYTHONPATH=<checkout>/src)
into temporary output directories, at --threads 1 and 2, on this set of
configs:
  - the six sample configs/*.cfg, as they are and in eleven variants: with
    d = 2, J = 9 and gamma = 1.5; with tau0 = 0.25, all still admissible;
    with operator = matern; with operator = matern at d = 2, J = 9 and
    gamma = 1.5; with k = 1 (Haar, whose DWT wraps no samples) and
    k = 6 (12 taps), since the DWT's split of its input into even and odd
    phases depends on the filter length; three that stack their trials
    differently from the sample configs' stacks of four (2^16 cells a
    stack): J = 15 (stacks of two), trials = 7 (a ragged last stack of
    three) and d = 2, J = 7, gamma = 1.5 (d=2 stacks of four); and d = 2,
    J = 9, gamma = 1.5 at k = 1 and at k = 6, whose row and column phases
    wrap 0 and 5 rows or columns;
  - the fine_1d and wide_2d workloads of perfbench/worker.py, whose WORKLOADS
    table is parsed from the file, not imported, and fine_1d with trials = 1:
    a d=1 lone trial, which like every stack below 3 * 2^20 cells runs on
    one thread; wide_2d's d=2 J=12 trial at --threads 2 is the one run whose
    FFT passes, operator, DWT blocks and n-term sort split across two
    threads (on a host with 2 usable CPUs);
  - configs/gaussian.cfg at gamma = 0.4 with allow_inadmissible = true, whose
    verdict is "unchecked";
  - the six sample configs at d = 2, J = 9, gamma = 1.5 and trials = 1, under
    each operator and at k = 1 and k = 6: a lone trial, which runs in the
    calling process at any --threads.
It also runs `levywave compare` on each variant's six configs as one block,
at --threads 1 and 2, and `levywave run` once on each config of REJECTED, a
sample config with one key rewritten to a value it must refuse.  The config
texts come from CHANGE, so both sides run the same configs.  For each run it
compares the sha256 of curves.csv, summary.json and plot.tsv (`levywave run`
only), what the command printed (with the side's output directory in the
`wrote ...` lines replaced by OUT; stderr for a rejected config) and its exit
code, and prints one line: 224 runs and 7 rejected configs in all.  Under a
run whose output files differ it prints how far their numbers moved: the
largest relative difference between the two sides' sigma in curves.csv, the
columns of plot.tsv and the kappa fields of summary.json.  It exits 1 if
anything differs or any run fails, and 0 otherwise.  A failed verdict or
an inversion (exit code 1) is a completed run; a rejected config's run is
completed only with exit code 2.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

OUTPUTS = ("curves.csv", "summary.json", "plot.tsv")
THREADS = (1, 2)
WORKLOADS = ("fine_1d", "wide_2d")
LONE_WORKLOADS = ("fine_1d",)  # also run with trials = 1
D2_KEYS = {"d": "2", "J": "9", "gamma": "1.5"}
TAU0_KEYS = {"tau0": "0.25"}
INADMISSIBLE_KEYS = {"gamma": "0.4", "allow_inadmissible": "true"}
MATERN_KEYS = {"operator": "matern"}
# (label suffix, rewritten keys) of each variant of the sample configs
VARIANTS = (
    ("", {}),
    (" at d=2 J=9 gamma=1.5", D2_KEYS),
    (" at tau0=0.25", TAU0_KEYS),
    (" under matern", MATERN_KEYS),
    (" under matern at d=2 J=9 gamma=1.5", {**MATERN_KEYS, **D2_KEYS}),
    (" at k=1", {"k": "1"}),
    (" at k=6", {"k": "6"}),
    (" at J=15", {"J": "15"}),
    (" at trials=7", {"trials": "7"}),
    (" at d=2 J=7 gamma=1.5", {**D2_KEYS, "J": "7"}),
    (" at d=2 J=9 gamma=1.5 k=1", {**D2_KEYS, "k": "1"}),
    (" at d=2 J=9 gamma=1.5 k=6", {**D2_KEYS, "k": "6"}),
)
# (label suffix, rewritten keys) of each d=2 J=9 variant run as lone trials, not compared as a block
LONE_VARIANTS = tuple(
    (f"{suffix}, one trial", {**keys, "trials": "1"})
    for suffix, keys in VARIANTS if D2_KEYS.items() <= keys.items()
)
# (sample config, key, value) of each rejected config, each refused by a different check
REJECTED = (
    ("gaussian", "d", "3"),
    ("gaussian", "J", "30"),
    ("gaussian", "k", "30"),
    ("gaussian", "gamma", "-1"),
    ("sas15", "alpha", "3"),
    ("compound_poisson", "jump", "foo"),
    ("compound_poisson", "rate", "1e9"),
)


def _workloads(worker: Path) -> dict:
    """The WORKLOADS literal of perfbench/worker.py, read without running the file."""
    for node in ast.parse(worker.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WORKLOADS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise RuntimeError(f"no WORKLOADS table in {worker}")


def _with_keys(text: str, keys: dict) -> str:
    """text with the given keys' lines replaced by new values."""
    kept = [line for line in text.splitlines()
            if line.split("#", 1)[0].split("=", 1)[0].strip() not in keys]
    return "\n".join(kept + [f"{key} = {value}" for key, value in keys.items()]) + "\n"


def compare_blocks(root: Path) -> list:
    """(block label, [(label, config text)]) for each variant of the sample
    configs in the checkout at root, the configs as they are first."""
    samples = [(f"configs/{p.name}", p.read_text())
               for p in sorted((root / "configs").glob("*.cfg"))]
    return [
        (f"configs/*.cfg{suffix}",
         [(f"{label}{suffix}", _with_keys(text, keys) if keys else text)
          for label, text in samples])
        for suffix, keys in VARIANTS
    ]


def config_set(root: Path) -> list:
    """(label, config text) for every config `levywave run` runs, from the checkout at root."""
    blocks = compare_blocks(root)
    samples = dict(blocks[0][1])
    workloads = _workloads(root / "perfbench" / "worker.py")
    return (
        [entry for _, block in blocks for entry in block]
        + [(f"perfbench:{name}", workloads[name]) for name in WORKLOADS]
        + [(f"perfbench:{name}, one trial", _with_keys(workloads[name], {"trials": "1"}))
           for name in LONE_WORKLOADS]
        + [("configs/gaussian.cfg at gamma=0.4, inadmissible",
            _with_keys(samples["configs/gaussian.cfg"], INADMISSIBLE_KEYS))]
        + [(f"{label}{suffix}", _with_keys(text, keys))
           for suffix, keys in LONE_VARIANTS for label, text in samples.items()]
    )


def rejected_configs(root: Path) -> list:
    """(label, config text) for every config of REJECTED, from the checkout at root."""
    samples = dict(compare_blocks(root)[0][1])
    return [(f"configs/{name}.cfg at {key}={value}",
             _with_keys(samples[f"configs/{name}.cfg"], {key: value}))
            for name, key, value in REJECTED]


def _levywave(checkout: Path, args: list, cwd: Path, codes=(0, 1)):
    """The finished process of one levywave command, or an error message if
    its exit code is not one of codes."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-m", "levywave.cli", *args],
                          env=env, cwd=cwd, capture_output=True, text=True)
    if proc.returncode not in codes:
        last = (proc.stderr.strip().splitlines() or ["no message"])[-1]
        return f"exit {proc.returncode}: {last}"
    return proc


def _run(checkout: Path, cfg: Path, out: Path, threads: int):
    """sha256 per output file, stdout and exit code of one run, or an error message."""
    proc = _levywave(checkout, ["run", str(cfg), "--output", str(out),
                                "--threads", str(threads)], out.parent)
    if isinstance(proc, str):
        return proc
    missing = [name for name in OUTPUTS if not (out / name).is_file()]
    if missing:
        return f"wrote no {', '.join(missing)}"
    return {
        **{name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS},
        "stdout": proc.stdout.replace(str(out), "OUT"),
        "exit code": proc.returncode,
    }


def _compare(checkout: Path, cfgs: list, threads: int):
    """stdout and exit code of `levywave compare` on cfgs, or an error message."""
    proc = _levywave(checkout, ["compare", *map(str, cfgs), "--threads", str(threads)],
                     cfgs[0].parent)
    if isinstance(proc, str):
        return proc
    return {"stdout": proc.stdout, "exit code": proc.returncode}


def _reject(checkout: Path, cfg: Path):
    """stderr and exit code of `levywave run` refusing cfg, or an error message."""
    proc = _levywave(checkout, ["run", str(cfg)], cfg.parent, codes=(2,))
    if isinstance(proc, str):
        return proc
    return {"stderr": proc.stderr, "exit code": proc.returncode}


def _numbers(out: Path) -> list:
    """sigma of curves.csv, both columns of plot.tsv and the kappa fields of
    summary.json, in file order, of the run that wrote out."""
    values = [line.rsplit(",", 1)[1] for line in (out / "curves.csv").read_text().splitlines()[1:]]
    values += (out / "plot.tsv").read_text().split()[2:]
    summary = json.loads((out / "summary.json").read_text())
    values += [*summary["kappa_values"], summary["kappa_median"], *summary["kappa_iqr"]]
    return [float(value) for value in values]  # "inf" and "nan" too


def _moved(outs: list) -> float:
    """Largest relative difference between the numbers the two sides wrote:
    inf where a count or a non-finite value differs."""
    parent, change = (_numbers(out) for out in outs)
    if len(parent) != len(change):
        return math.inf
    moved = 0.0
    for a, b in zip(parent, change):
        if a != b and not (math.isnan(a) and math.isnan(b)):
            moved = max(moved, abs(a - b) / max(abs(a), abs(b)) if math.isfinite(a - b) else math.inf)
    return moved


def _verdict(results: list) -> str:
    errors = [f"{tag} {r}" for tag, r in zip(("parent", "change"), results)
              if isinstance(r, str)]
    if errors:
        return "FAILED     " + "; ".join(errors)
    differ = [name for name, value in results[0].items() if results[1][name] != value]
    return f"DIFFERS    {', '.join(differ)}" if differ else "identical"


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    sides = (("parent", parent), ("change", change))
    verdicts, most = [], 0.0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for i, (label, text) in enumerate(config_set(change)):
            cfg = tmp / f"{i}.cfg"
            cfg.write_text(text)
            for threads in THREADS:
                outs = [tmp / f"{i}-{threads}-{tag}" for tag, _ in sides]
                results = [_run(side, cfg, out, threads) for (_, side), out in zip(sides, outs)]
                verdicts.append(_verdict(results))
                print(f"threads={threads}  {label}: {verdicts[-1]}", flush=True)
                if verdicts[-1].startswith("DIFFERS"):
                    moved = _moved(outs)
                    most = max(most, moved)
                    print(f"           largest relative difference of the numbers: {moved:.3g}",
                          flush=True)
        for i, (label, text) in enumerate(rejected_configs(change)):
            cfg = tmp / f"rejected{i}.cfg"
            cfg.write_text(text)
            verdicts.append(_verdict([_reject(side, cfg) for _, side in sides]))
            print(f"rejected   {label}: {verdicts[-1]}", flush=True)
        for i, (label, block) in enumerate(compare_blocks(change)):
            cfgs = [tmp / f"block{i}-{j}.cfg" for j in range(len(block))]
            for cfg, (_, text) in zip(cfgs, block):
                cfg.write_text(text)
            for threads in THREADS:
                verdicts.append(_verdict([_compare(side, cfgs, threads) for _, side in sides]))
                print(f"threads={threads}  compare {label}: {verdicts[-1]}", flush=True)
    same = verdicts.count("identical")
    print(f"{same} of {len(verdicts)} runs identical")
    if most:
        print(f"largest relative difference of any run's numbers: {most:.3g}")
    return 0 if same == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
