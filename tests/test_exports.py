import dataclasses
import importlib
import importlib.util
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import levywave
from levywave import exponents, harness

MODULES = [info.name for info in pkgutil.iter_modules(levywave.__path__)]
ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_exports_resolve_and_package_imports_are_exported():
    # each module's __all__ is the one list of its public names, and the
    # package republishes every one of them as the module's own object
    owner = {}
    for name in MODULES:
        module = importlib.import_module(f"levywave.{name}")
        for symbol in getattr(module, "__all__", []):
            assert symbol not in owner, f"{symbol!r} is in the __all__ of {owner[symbol]} and {name}"
            owner[symbol] = name
            assert getattr(levywave, symbol) is getattr(module, symbol), symbol
    # the package itself defines no public name but __version__
    public = {n for n in vars(levywave) if not n.startswith("_") and n not in MODULES}
    assert public == set(owner)
    # every registered family, operator and jump law is a public name
    registries = [levywave.FAMILIES, levywave.OPERATORS, exponents._JUMP_LAWS]
    for cls in (cls for registry in registries for cls in registry.values()):
        assert owner.get(cls.__name__) == cls.__module__.rsplit(".", 1)[1], cls


def test_readme_library_example_runs():
    readme = ROOT / "README.md"
    section = readme.read_text().split("## Library layout", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    src = pathlib.Path(levywave.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.split()
    assert len(lines) == 1, done.stdout
    # the comment on the print line states the printed value to 4 places
    stated = re.search(r"print\(.*#\s*(\d+\.\d{4}) ", code)
    assert stated, code
    assert round(float(lines[0]), 4) == float(stated.group(1)), done.stdout



def test_a_serial_run_imports_no_pool_module():
    # the pools import concurrent.futures where they start, and a threads=1
    # run starts none, nor does a lone trial below two DWT threads' cells at
    # threads=2, so neither the import nor the run loads it
    src = pathlib.Path(levywave.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    for settings, threads in [
        ("family = gaussian\\nJ = 9\\nk = 2\\ntrials = 3\\nfit_lo = 4\\nfit_hi = 128", 1),
        ("family = laplace\\ngamma = 1.5\\nd = 2\\nJ = 9\\ntrials = 1", 2),
    ]:
        code = (
            "import sys\n"
            "import levywave\n"
            f"config = levywave.harness.parse_config('{settings}\\n')\n"
            f"levywave.run_experiment(config, threads={threads})\n"
            "print(sorted(name for name in sys.modules if name.startswith('concurrent.futures')))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n", settings

def test_perfbench_patch_points_are_looked_up(monkeypatch, tmp_path):
    # perfbench/spans.py times a layer by replacing the module attribute its
    # caller looks up; a name no caller looks up any more would read as a
    # zero per-layer metric instead of failing.  A lone d=2 trial that splits
    # its passes across threads still calls each stage once, from its own thread
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    calls = dict.fromkeys(spans.SPAN_NAMES, 0)
    for layer, func, module in spans.WRAPPED:
        original = getattr(importlib.import_module(module), func)
        assert callable(original), f"{module}.{func}"

        def counted(*args, _name=f"{layer}.{func}", _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(f"{module}.{func}", counted)
    config = harness.parse_config(
        "family = gaussian\nJ = 9\nk = 2\ntrials = 2\nfit_lo = 4\nfit_hi = 128\n"
    )
    harness.compare_families([config], threads=1)
    harness.emit_outputs(harness.run_experiment(config, threads=1), tmp_path)
    assert all(calls.values()), calls

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(harness, "_THREAD_CELLS", 1)
    lone = harness.parse_config("family = laplace\ngamma = 1.5\nd = 2\nJ = 9\ntrials = 1\n")
    calls.update(dict.fromkeys(calls, 0))
    harness.run_experiment(lone, threads=2)
    assert [calls[name] for name in spans.STAGES] == [1] * len(spans.STAGES), calls


def _compare_outputs():
    spec = importlib.util.spec_from_file_location("compare", ROOT / "tools" / "compare_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_compare_outputs_runs_parseable_configs():
    # tools/compare_outputs.py parses perfbench's workload table without
    # importing it and rewrites the sample configs to d=2, to tau0 = 0.25, to p0 = 1, to
    # the matern operator at d=1 and d=2, to k = 1 and k = 6, to J = 15, to seven trials,
    # to d=2 J=7 and to d=2 J=9 at k = 1 and k = 6, gaussian to an inadmissible gamma,
    # and fine_1d and the four d=2 J=9 variants to one trial; every text it runs must parse, or
    # a byte-identity check would report failed runs only, and every rejected
    # text it runs must be refused
    tool = _compare_outputs()
    configs = [harness.parse_config(text) for _, text in tool.config_set(ROOT)]
    n = len(list((ROOT / "configs").glob("*.cfg")))
    assert len(configs) == 17 * n + 4
    samples, d2, shifted, matern, matern_d2, haar, k6, j15, seven, d2_j7, d2_haar, d2_k6, p1 = (
        configs[i * n:(i + 1) * n] for i in range(13))
    workloads = configs[13 * n:13 * n + 2]
    assert [(c.family, c.d, c.J) for c in workloads] == [("sas", 1, 20), ("laplace", 2, 12)]
    # fine_1d as a lone trial, which runs in the calling process
    assert configs[13 * n + 2] == dataclasses.replace(workloads[0], trials=1)
    assert [(c.d, c.J, c.gamma) for c in d2] == [(2, 9, 1.5)] * n
    assert [c.family for c in d2] == [c.family for c in samples]
    assert [(c.family, c.tau0) for c in shifted] == [(c.family, 0.25) for c in samples]
    assert all(c.prediction().condition_satisfied for c in shifted)
    # the norm's p: only p0 changes, and every config stays admissible
    assert [dataclasses.replace(c, p0=s.p0) for c, s in zip(p1, samples)] == samples
    assert {c.p0 for c in p1} == {1.0} != {c.p0 for c in samples}
    assert all(c.prediction().condition_satisfied for c in p1)
    (inadmissible,) = configs[13 * n + 3:13 * n + 4]
    assert (inadmissible.family, inadmissible.gamma) == ("gaussian", 0.4)
    assert inadmissible.prediction().verdict(0.5, inadmissible.tolerance) == "unchecked"
    # the DWT's phase split depends on the filter length: Haar wraps no samples, k = 6 has 12 taps
    assert [(c.family, c.k) for c in haar + k6] == [(c.family, k) for k in (1, 6) for c in samples]
    assert [dataclasses.replace(c, k=4) for c in haar + k6] == samples + samples
    # stacks of 2^16 cells: two trials at d=1 J=15, a ragged three after four at
    # seven trials, four at d=2 J=7
    assert [dataclasses.replace(c, J=14) for c in j15] == samples
    assert [dataclasses.replace(c, trials=s.trials) for c, s in zip(seven, samples)] == samples
    assert {c.trials for c in seven} == {7}
    assert [(c.family, c.d, c.J, c.gamma) for c in d2_j7] == [
        (c.family, 2, 7, 1.5) for c in samples]
    # the d=2 row and column phases wrap 0 rows at k = 1 and 5 at k = 6
    assert [(c.family, c.d, c.J, c.gamma, c.k) for c in d2_haar + d2_k6] == [
        (c.family, 2, 9, 1.5, k) for k in (1, 6) for c in samples]
    assert [dataclasses.replace(c, k=4) for c in d2_haar + d2_k6] == d2 + d2
    assert all(c.operator == "fractional_laplacian"
               for c in samples + d2 + shifted + haar + k6 + j15 + seven + d2_j7 + d2_haar
               + d2_k6 + p1 + workloads + [inadmissible])
    assert [(c.family, c.operator, c.d, c.J, c.gamma) for c in matern] == [
        (c.family, "matern", 1, c.J, c.gamma) for c in samples]
    assert [(c.family, c.operator, c.d, c.J, c.gamma) for c in matern_d2] == [
        (c.family, "matern", 2, 9, 1.5) for c in samples]
    # the lone trials: the d=2 variants, under each operator, at one trial
    lone = configs[13 * n + 4:]
    assert [dataclasses.replace(c, trials=1) for c in d2 + matern_d2 + d2_haar + d2_k6] == lone
    # `levywave compare` runs each variant as one block, which must share its scale
    blocks = tool.compare_blocks(ROOT)
    assert len(blocks) == 13
    assert [entry for _, block in blocks for entry in block] == tool.config_set(ROOT)[:13 * n]
    for _, block in blocks:
        parsed = [harness.parse_config(text) for _, text in block]
        assert len({(c.gamma, c.d, c.J, c.k, c.p0, c.tau0) for c in parsed}) == 1
    # each rejected config is refused with a ConfigError, whose run exits 2
    for _, text in tool.rejected_configs(ROOT):
        with pytest.raises(levywave.ConfigError):
            harness.parse_config(text)


def test_compare_outputs_reports_how_far_the_numbers_moved(tmp_path):
    # one sigma of curves.csv moved by 2^-40, then a kappa that became inf
    tool = _compare_outputs()
    config = harness.parse_config("family = gaussian\nJ = 9\nk = 2\ntrials = 2\nfit_lo = 4\nfit_hi = 128\n")
    outs = [tmp_path / "parent", tmp_path / "change"]
    for out in outs:
        harness.emit_outputs(harness.run_experiment(config, threads=1), out)
    assert tool._moved(outs) == 0.0
    curves = (outs[1] / "curves.csv").read_text().splitlines()
    t, n, sigma = curves[5].split(",")
    curves[5] = f"{t},{n},{float(sigma) * (1 + 2.0**-40)!r}"
    (outs[1] / "curves.csv").write_text("\n".join(curves) + "\n")
    assert tool._moved(outs) == pytest.approx(2.0**-40, rel=1e-3)
    summary = outs[1] / "summary.json"
    summary.write_text(re.sub(r'"kappa_median": [^,]*', '"kappa_median": "inf"', summary.read_text()))
    assert tool._moved(outs) == float("inf")
