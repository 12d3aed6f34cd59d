"""Check that two checkouts of levywave write byte-identical outputs.

    python3 tools/compare_outputs.py PARENT CHANGE

Runs `levywave run` from each checkout's src/ (PYTHONPATH=<checkout>/src)
into temporary output directories, at --threads 1 and 2, on this set of
configs:
  - the six sample configs/*.cfg;
  - the fine_1d and wide_2d workloads of perfbench/worker.py, whose WORKLOADS
    table is parsed from the file, not imported;
  - the six sample configs again with d = 2, J = 9 and gamma = 1.5;
  - the six sample configs again with tau0 = 0.25, all still admissible;
  - configs/gaussian.cfg at gamma = 0.4 with allow_inadmissible = true, whose
    verdict is "unchecked";
  - the six sample configs again with operator = matern, and once more with
    operator = matern at d = 2, J = 9 and gamma = 1.5.
The config texts come from CHANGE, so both sides run the same configs.  For
each run it compares the sha256 of curves.csv, summary.json and plot.tsv,
what `levywave run` printed (with the side's output directory in the
`wrote ...` lines replaced by OUT) and its exit code, and prints one line.
It exits 1 if anything differs or any run fails, and 0 otherwise.  A failed
verdict (exit code 1) is a completed run.
"""

from __future__ import annotations

import ast
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

OUTPUTS = ("curves.csv", "summary.json", "plot.tsv")
CHECKS = OUTPUTS + ("stdout", "exit code")
THREADS = (1, 2)
WORKLOADS = ("fine_1d", "wide_2d")
D2_KEYS = {"d": "2", "J": "9", "gamma": "1.5"}
TAU0_KEYS = {"tau0": "0.25"}
INADMISSIBLE_KEYS = {"gamma": "0.4", "allow_inadmissible": "true"}
MATERN_KEYS = {"operator": "matern"}


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


def config_set(root: Path) -> list:
    """(label, config text) for every config compared, from the checkout at root."""
    samples = [(f"configs/{p.name}", p.read_text())
               for p in sorted((root / "configs").glob("*.cfg"))]
    workloads = _workloads(root / "perfbench" / "worker.py")
    return (
        samples
        + [(f"perfbench:{name}", workloads[name]) for name in WORKLOADS]
        + [(f"{label} at d=2 J=9 gamma=1.5", _with_keys(text, D2_KEYS))
           for label, text in samples]
        + [(f"{label} at tau0=0.25", _with_keys(text, TAU0_KEYS)) for label, text in samples]
        + [("configs/gaussian.cfg at gamma=0.4, inadmissible",
            _with_keys(dict(samples)["configs/gaussian.cfg"], INADMISSIBLE_KEYS))]
        + [(f"{label} under matern", _with_keys(text, MATERN_KEYS)) for label, text in samples]
        + [(f"{label} under matern at d=2 J=9 gamma=1.5",
            _with_keys(text, {**MATERN_KEYS, **D2_KEYS})) for label, text in samples]
    )


def _run(checkout: Path, cfg: Path, out: Path, threads: int):
    """sha256 per output file, stdout and exit code of one run, or an error message."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "levywave.cli", "run", str(cfg), "--output", str(out),
         "--threads", str(threads)],
        env=env, cwd=out.parent, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):
        last = (proc.stderr.strip().splitlines() or ["no message"])[-1]
        return f"exit {proc.returncode}: {last}"
    missing = [name for name in OUTPUTS if not (out / name).is_file()]
    if missing:
        return f"wrote no {', '.join(missing)}"
    return {
        **{name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS},
        "stdout": proc.stdout.replace(str(out), "OUT"),
        "exit code": proc.returncode,
    }


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    failed = runs = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for i, (label, text) in enumerate(config_set(change)):
            cfg = tmp / f"{i}.cfg"
            cfg.write_text(text)
            for threads in THREADS:
                runs += 1
                results = [_run(side, cfg, tmp / f"{i}-{threads}-{tag}", threads)
                           for tag, side in (("parent", parent), ("change", change))]
                errors = [f"{tag} {r}" for tag, r in zip(("parent", "change"), results)
                          if isinstance(r, str)]
                if errors:
                    verdict = "FAILED     " + "; ".join(errors)
                else:
                    differ = [name for name in CHECKS if results[0][name] != results[1][name]]
                    verdict = f"DIFFERS    {', '.join(differ)}" if differ else "identical"
                failed += verdict != "identical"
                print(f"threads={threads}  {label}: {verdict}", flush=True)
    print(f"{runs - failed} of {runs} runs identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
