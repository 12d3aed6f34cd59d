import concurrent.futures
import ctypes
import dataclasses
import itertools
import multiprocessing
import os
import pathlib
import re
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from levywave import (
    FAMILIES,
    OPERATORS,
    ConfigError,
    KappaPrediction,
    WaveletSpec,
    compare_families,
    dwt_periodic,
    emit_outputs,
    exponent_from_params,
    harness,
    make_rng,
    run_experiment,
    run_sweep,
    wavelets,
)
from levywave.cli import main as cli_main
from levywave.harness import (
    load_config,
    parse_config,
    summary_record,
)

SAMPLE_CONFIGS = sorted((pathlib.Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))

SMALL = """
family = gaussian
sigma2 = 1.0
gamma = 1.0
d = 1
J = 9
k = 2
trials = 4
base_seed = 4242
fit_lo = 4
fit_hi = 128
"""


def _small_config(**overrides):
    config = parse_config(SMALL)
    for key, value in overrides.items():
        setattr(config, key, value)
    config.validate()
    return config


def _flat_rows(config, indices):
    # a stand-in stack's n-term errors: every row n^-1, which fits kappa = 1
    return np.tile(config.n_values() ** -1.0, (len(indices), 1))


def test_parse_config_round_trip_fields():
    config = parse_config(SMALL)
    assert config.family == "gaussian"
    assert config.params == {"sigma2": 1.0}
    assert (config.gamma, config.d, config.J, config.k) == (1.0, 1, 9, 2)
    assert config.trials == 4
    assert list(config.n_values()) == [4, 8, 16, 32, 64, 128]
    assert config.fit_range() == (4, 128)


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("family = gaussian\nbogus = 1\n")


def test_parse_config_wrong_family_key():
    with pytest.raises(ConfigError, match="not applicable"):
        parse_config("family = gaussian\nalpha = 1.0\n")


def test_parse_config_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("family = laplace\ngamma = 1\ngamma = 2\n")


def test_parse_config_requires_family():
    with pytest.raises(ConfigError, match="family"):
        parse_config("gamma = 1.0\n")


def test_admissibility_gate_names_inequality():
    with pytest.raises(ConfigError, match="gamma > tau0 \\+ d/2"):
        parse_config("family = gaussian\ngamma = 0.4\n")
    with pytest.raises(ConfigError, match="gamma > tau0 \\+ d - d/p0"):
        parse_config("family = sas\nalpha = 1.0\ngamma = 0.4\n")


def test_admissibility_override():
    config = parse_config(
        "family = gaussian\ngamma = 0.4\nallow_inadmissible = true\nJ = 9\nk = 2\n"
        "trials = 2\nfit_lo = 4\nfit_hi = 128\n"
    )
    assert config.allow_inadmissible
    report = run_experiment(config, threads=1)
    assert report.verdict == "unchecked"


def test_default_dyadic_grid_and_window():
    config = parse_config("family = laplace\nJ = 12\n")
    assert list(config.n_values()) == [2**e for e in range(2, 11)]
    assert config.fit_range() == (16, 256)


def test_exponent_param_round_trip():
    cases = [
        ("gaussian", {"sigma2": 2.0}),
        ("sas", {"alpha": 1.3}),
        ("compound_poisson", {"rate": 2.0, "jump": "uniform", "jump_a": -1.0, "jump_b": 3.0}),
        ("compound_poisson", {"jump": "dirac", "jump_c": 0.7}),
        ("laplace", {}),
        ("inverse_gaussian", {"delta": 0.5, "ig_gamma": 2.0}),
    ]
    assert {family for family, _ in cases} == set(FAMILIES)
    for family, params in cases:
        exponent = exponent_from_params(family, params)
        assert exponent.family_name == family


def test_run_experiment_deterministic(pool_cpus, one_trial_stacks):
    # in stacks of one, threads=3 runs the four trials on three worker processes
    config = _small_config()
    r1 = run_experiment(config, threads=1)
    r2 = run_experiment(config, threads=3)
    assert r1.kappa_values == r2.kappa_values
    assert r1.kappa_median == r2.kappa_median
    assert summary_record(r1) == summary_record(r2)
    np.testing.assert_array_equal(r1.sigma, r2.sigma)


@pytest.mark.parametrize("d, J", [(1, 9), (2, 5)])
@pytest.mark.parametrize("family, params", [("laplace", {}), ("compound_poisson", {"rate": 50.0})])
def test_jump_families_deterministic_across_threads(pool_cpus, one_trial_stacks, family, params,
                                                    d, J):
    config = _small_config(family=family, params=params, d=d, J=J, gamma=1.5)
    r1 = run_experiment(config, threads=1)
    r3 = run_experiment(config, threads=3)
    assert r1.sigma.tobytes() == r3.sigma.tobytes()


# d=2 J=9 is the smallest grid on which every split pass of a lone trial has
# at least 2 parts (the operator's row blocks set it)
LONE = {"d": 2, "J": 9, "gamma": 1.5, "trials": 1}


@pytest.mark.parametrize("operator", sorted(OPERATORS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_lone_trial_is_bit_identical_at_any_thread_count(four_cpus, family, operator):
    # a part whose range is cut wrong, or a pass that splits its work differently,
    # moves bits of some family's sigma
    params = {"alpha": 1.5} if family == "sas" else {}
    config = _small_config(family=family, params=params, operator=operator, **LONE)
    serial = run_experiment(config, threads=1).sigma.tobytes()
    for threads in (2, 3):
        assert run_experiment(config, threads=threads).sigma.tobytes() == serial, threads


def test_trials_split_when_the_cell_cap_allows_one_in_flight(monkeypatch, four_cpus):
    config = _small_config(family="laplace", params={}, **{**LONE, "trials": 3})
    serial = run_experiment(config, threads=1).sigma.tobytes()
    monkeypatch.setattr(harness, "_MAX_CELLS", config.grid().size)
    assert run_experiment(config, threads=2).sigma.tobytes() == serial
    assert multiprocessing.active_children() == []


def test_lone_trial_threads_end_with_the_call(monkeypatch, four_cpus, fail_selection):
    # the split passes' threads are joined before the call returns, also when
    # a part raises, so a later forked pool starts with no thread alive
    config = _small_config(family="laplace", params={}, **LONE)
    before = threading.enumerate()
    run_experiment(config, threads=2)
    assert threading.enumerate() == before

    # the last rows of the inverse FFT fail: with one part on the calling
    # thread, with two in the second part, on its own thread
    irfft, failed_on = np.fft.irfft, []

    def failing_irfft(a, *args, out=None, **kwargs):
        if np.shares_memory(out, out.base[-1]):
            failed_on.append(threading.current_thread())
            raise FloatingPointError("the last row failed")
        return irfft(a, *args, out=out, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", failing_irfft)
    for threads in (1, 2):
        with pytest.raises(FloatingPointError, match="^the last row failed$") as info:
            run_experiment(config, threads=threads)
        assert type(info.value) is FloatingPointError
        assert threading.enumerate() == before
    assert failed_on[0] is threading.main_thread() is not failed_on[1]

    # the n-term errors' selection fails, on the calling thread, after the
    # magnitude pass's second part on its own thread at threads=2, and the call still ends
    monkeypatch.setattr(np.fft, "irfft", irfft)
    fail_selection()
    for threads in (1, 2):
        raised = []

        def call():
            try:
                run_experiment(config, threads=threads)
            except FloatingPointError as exc:
                raised.append(str(exc))

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=20)
        assert not caller.is_alive(), "a part of the magnitude pass never ends"
        assert raised == ["the selection failed"]
        assert threading.enumerate() == before


def test_lone_trial_threads_are_capped_at_the_usable_cpus(monkeypatch):
    # threads=64 on two usable CPUs runs at most two threads at once, the
    # calling one included, also where the trial's cells would allow more
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(harness, "_THREAD_CELLS", 1)
    running, peak = [threading.current_thread()], []

    class SpyThread(threading.Thread):
        def start(self):
            running.append(self)
            peak.append(sum(t.is_alive() for t in running) + 1)
            super().start()

    config = _small_config(family="laplace", params={}, **LONE)
    serial = run_experiment(config, threads=1).sigma.tobytes()
    monkeypatch.setattr(threading, "Thread", SpyThread)
    assert run_experiment(config, threads=64).sigma.tobytes() == serial
    assert peak and max(peak) <= 2


def _spy_stack_threads(monkeypatch) -> list:
    # records the threads _run_stack hands its synthesis and its DWT; the
    # DWT's spy raises, so no stage runs
    handed = []

    def synthesize_spy(*args, threads):
        handed.append(threads)
        return "field"

    def dwt_spy(values, spec, threads, d):
        handed.append(threads)
        raise RuntimeError("spied")

    monkeypatch.setattr(harness, "synthesize_process", synthesize_spy)
    monkeypatch.setattr(harness, "dwt_periodic", dwt_spy)
    return handed


@pytest.mark.parametrize(
    "d, J, trials, threads, cpus, passes, dwt",
    [
        (2, 9, 1, 2, 4, 1, 1),  # 2^18 cells: below two DWT threads' 3 * 2^20
        (2, 10, 1, 4, 4, 1, 1),
        (1, 14, 4, 4, 4, 1, 1),  # a stack of four, 2^16 cells
        (1, 21, 1, 2, 2, 1, 1),
        (1, 22, 1, 2, 2, 2, 2),  # 2^22 cells
        (2, 11, 1, 4, 4, 4, 2),
        (2, 12, 1, 2, 2, 2, 2),  # 2^24 cells: wide_2d at --threads 2
        (2, 12, 1, 16, 16, 16, 10),
        (2, 12, 1, 16, 4, 4, 4),  # the budget: 16 asked for on four usable CPUs
    ],
)
def test_a_stack_splits_from_two_dwt_threads_cells(monkeypatch, d, J, trials, threads, cpus,
                                                   passes, dwt):
    # a lone stack gets the run's budget, and its thread counts are chosen
    # once, in _run_stack: below two DWT threads' cells it runs on one thread;
    # above, its passes take the budget and its DWT steps one per
    # _THREAD_CELLS.  The size-rule rows patch at least the threads they ask
    # for, so only the last row is capped by the usable CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    handed = _spy_stack_threads(monkeypatch)
    config = _small_config(family="laplace", params={}, gamma=1.5, d=d, J=J, trials=trials)
    with pytest.raises(RuntimeError, match="^spied$"):
        run_experiment(config, threads=threads)
    assert handed == [passes, dwt]


def test_a_stack_takes_the_threads_it_is_given(monkeypatch):
    # _run_stack reads no host setting: on one usable CPU, a d=2 J=12 stack
    # handed 16 threads still splits its passes 16 ways and its DWT steps 10
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    handed = _spy_stack_threads(monkeypatch)
    config = _small_config(family="laplace", params={}, gamma=1.5, d=2, J=12, trials=1)
    with pytest.raises(RuntimeError, match="^spied$"):
        harness._run_stack(config, range(1), 16)
    assert handed == [16, 10]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "family, params, gamma, d, J, bound",
    [
        # d=2 reads 2.67 fields: the field, the coefficient buffer and the
        # quarter-size coarse part, at the DWT's finest level; whole-size
        # axis-0 parts there, or one more full-size array, would cross it
        ("laplace", {}, 1.5, 2, 9, 2.75),
        # d=1 reads 4.14, set by the sampler
        ("sas", {"alpha": 0.5}, 1.0, 1, 16, 4.2),
    ],
)
def test_trial_peak_memory_in_field_sizes(four_cpus, family, params, gamma, d, J, bound, threads):
    # at threads=2 each thread holds its own block scratch, and no part may
    # allocate a whole-size array
    config = harness.ExperimentConfig(family=family, params=params, gamma=gamma, d=d, J=J, trials=1)
    run_experiment(config, threads=1)  # first-call allocations (lazy imports) are not the trial's
    tracemalloc.start()
    try:
        run_experiment(config, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * config.grid().size


@pytest.mark.parametrize("threads", [1, 2])
def test_trial_field_is_freed_after_the_finest_level(monkeypatch, four_cpus, threads):
    # the DWT holds the only reference to a trial's field, so every step
    # after the finest level runs without it; no part's closure keeps it
    fields, alive = [], []
    synthesize, step = harness.synthesize_process, wavelets._analyze_step

    def recording_synthesize(*args, **kwargs):
        field = synthesize(*args, **kwargs)
        fields.append(weakref.ref(field))
        return field

    def spy_step(*args):
        alive.append(fields[-1]() is not None)
        return step(*args)

    monkeypatch.setattr(harness, "synthesize_process", recording_synthesize)
    monkeypatch.setattr(wavelets, "_analyze_step", spy_step)
    config = _small_config(**LONE)
    steps = config.J - config.wavelet_spec().zeta
    run_experiment(config, threads=threads)
    assert alive == [True] + [False] * (steps - 1)

    def make_field():
        field = make_rng(7).standard_normal((1 << config.J,) * 2)
        fields.append(weakref.ref(field))
        return field

    # small blocks make every step of this grid split across threads at threads=2,
    # as a large grid's steps do
    alive.clear()
    monkeypatch.setattr(wavelets, "_BLOCK", 16)
    dwt_periodic(make_field(), WaveletSpec(k=config.k), threads=threads)
    assert alive == [True] + [False] * (steps - 1)


def test_run_experiment_report_contents():
    config = _small_config()
    report = run_experiment(config, threads=2)
    assert report.sigma.shape == (config.trials, len(config.n_values()))
    assert report.sigma.dtype == np.float64 and report.sigma.flags.c_contiguous
    assert len(report.kappa_values) == config.trials
    assert all(type(v) is float for v in report.kappa_values + report.kappa_stderr)
    assert len(report.kappa_stderr) == config.trials
    assert report.prediction.kind == "exact"
    assert report.kappa_q1 <= report.kappa_median <= report.kappa_q3
    assert report.verdict in ("pass", "fail")
    record = summary_record(report)
    assert record["theory"]["value"] == 0.5
    assert record["config_sha256"] == config.sha256()


def test_emit_outputs_counts_and_determinism(tmp_path):
    config = _small_config()
    report = run_experiment(config, threads=1)
    out = tmp_path / "run1"
    paths = emit_outputs(report, out_dir=out)
    curves = (out / "curves.csv").read_text().splitlines()
    assert len(curves) == 1 + config.trials * len(config.n_values())
    assert curves[0] == "trial,n,sigma"
    summary = (out / "summary.json").read_text()
    assert '"verdict"' in summary and '"theory"' in summary
    plot = (out / "plot.tsv").read_text().splitlines()
    assert plot[0] == "log_n\tlog_sigma"

    blobs1 = [pathlib.Path(p).read_bytes() for p in paths]
    emit_outputs(report, out_dir=out)
    blobs2 = [pathlib.Path(p).read_bytes() for p in paths]
    assert blobs1 == blobs2


def test_emit_outputs_needs_a_directory(tmp_path):
    report = run_experiment(_small_config(trials=1), threads=1)
    message = "^no output directory: set config 'output' or pass out_dir$"
    with pytest.raises(ValueError, match=message):
        emit_outputs(report)
    report.config.output = str(tmp_path / "from_config")
    assert emit_outputs(report)[0] == str(tmp_path / "from_config" / "curves.csv")


def test_summary_handles_infinite_kappa(tmp_path):
    # a trial with no jumps yields a zero field and an infinite fitted rate
    config = _small_config(family="compound_poisson", params={"rate": 1.0}, trials=3, base_seed=11)
    report = run_experiment(config, threads=1)
    record = summary_record(report)
    assert all(isinstance(v, (float, str)) for v in record["kappa_values"])
    emit_outputs(report, out_dir=tmp_path / "cp")  # must not raise


def test_compare_families_requires_shared_scale():
    a = _small_config()
    b = _small_config(gamma=1.5)
    with pytest.raises(ConfigError, match="share"):
        compare_families([a, b])
    # the wavelet order caps the measured rate, so it is shared too
    with pytest.raises(ConfigError, match=r"share \(gamma, d, J, k, p0, tau0\)"):
        compare_families([a, _small_config(k=3)])
    with pytest.raises(ConfigError, match="^compare_families needs at least one config$"):
        compare_families([])


def test_compare_families_single_config_trivial():
    report = compare_families([_small_config()], threads=1)
    assert report.ok
    assert len(report.entries) == 1
    assert report.inversions == []


def test_compare_families_two_stable_indices():
    # alpha = 0.8 is predicted (and measured) more compressible than alpha = 1.5
    a = _small_config(family="sas", params={"alpha": 1.5}, J=11, trials=6, fit_lo=8, fit_hi=512)
    b = _small_config(family="sas", params={"alpha": 0.8}, J=11, trials=6, fit_lo=8, fit_hi=512)
    report = compare_families([a, b], threads=2)
    assert report.ok
    labels = [e.label for e in report.entries]
    assert labels == ["sas(alpha=1.5)", "sas(alpha=0.8)"]
    assert report.entries[0].kappa_median < report.entries[1].kappa_median


def test_compare_families_takes_an_iterator():
    # a generator of configs is read once: the shared-settings check and the
    # run see the same configs, so it gives the list's table, and its errors
    configs = [_small_config(), _small_config(family="sas", params={"alpha": 1.5}, base_seed=7)]
    table = compare_families(configs, threads=1).table()
    assert compare_families((c for c in configs), threads=1).table() == table
    with pytest.raises(ConfigError, match="share"):
        compare_families(c for c in [configs[0], _small_config(gamma=1.5)])
    with pytest.raises(ConfigError, match="^compare_families needs at least one config$"):
        compare_families(iter([]))


def test_compare_families_splits_one_map_back_into_configs(monkeypatch):
    # the trials of both configs go through one map at 2 workers; each
    # report, built in this process, gets its own config's rows
    a = _small_config(trials=3)
    b = _small_config(family="sas", params={"alpha": 1.5}, trials=5, base_seed=7)
    built = []

    class RecordedReport(harness.ExperimentReport):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(harness, "ExperimentReport", RecordedReport)
    report = compare_families([a, b], threads=2)
    assert [r.config for r in built] == [a, b]
    medians = {e.label: e.kappa_median for e in report.entries}
    for config, got in zip((a, b), list(built)):
        alone = run_experiment(config, threads=1)
        assert got.sigma.shape == (config.trials, len(config.n_values()))
        np.testing.assert_array_equal(got.sigma, alone.sigma)
        assert medians[harness._family_label(config)] == alone.kappa_median


def _entries(laplace_median):
    # one entry per prediction kind, in theory order
    rows = [
        ("gaussian", KappaPrediction("exact", value=0.5), 1.25),
        ("sas(alpha=1.5)", KappaPrediction("bounds", lower=0.5, upper=2 / 3), 1.25),
        ("laplace", KappaPrediction("infinite", lower=1.0), laplace_median),
        ("inadmissible", KappaPrediction(None), 0.5),
    ]
    return [harness.ComparisonEntry(*row) for row in rows]


def test_comparison_table_rows_and_inversions():
    # gaussian and sas are predicted below laplace but measured above it;
    # they share a sort key, so their equal medians are no inversion
    report = harness.ComparisonReport(_entries(1.0))
    assert not report.ok
    assert report.inversions == [("gaussian", "laplace"), ("sas(alpha=1.5)", "laplace")]
    assert report.table().splitlines() == [
        "family         theory                                          median kappa",
        "gaussian       exact 0.5                                             1.2500",
        "sas(alpha=1.5) bounds [0.5, 0.666667]                                1.2500",
        "laplace        infinite (faster than any polynomial)                 1.0000",
        "inadmissible   no prediction (admissibility condition not met)       0.5000",
        "INVERSION: gaussian measured above laplace",
        "INVERSION: sas(alpha=1.5) measured above laplace",
    ]
    # a median equal to one predicted above it counts as an inversion
    assert harness.ComparisonReport(_entries(1.25)).inversions == report.inversions
    assert harness.ComparisonReport(_entries(2.0)).table().splitlines()[-1] == (
        "ordering matches theory (no inversions)"
    )


def test_comparison_report_sorts_entries_and_derives_inversions():
    entries = [
        harness.ComparisonEntry("laplace", KappaPrediction("infinite", lower=1.0), 3.0),
        harness.ComparisonEntry("b", KappaPrediction("exact", value=2.0), 0.4),
        harness.ComparisonEntry("a", KappaPrediction("exact", value=0.5), 0.6),
    ]
    report = harness.ComparisonReport(entries)
    assert [e.label for e in report.entries] == ["a", "b", "laplace"]
    assert [e.label for e in entries] == ["laplace", "b", "a"]  # the caller's list is kept
    assert report.inversions == [("a", "b")] and not report.ok
    assert [f.name for f in dataclasses.fields(report) if f.init] == ["entries"]


def test_comparison_without_a_prediction_hides_no_inversion():
    # b is predicted below laplace but measured above it; an inadmissible
    # entry, whose sort key is nan, must neither move the others nor hide
    # that inversion, whatever order the entries arrive in
    entries = [
        harness.ComparisonEntry("gaussian", KappaPrediction("exact", value=0.5), 0.5),
        harness.ComparisonEntry("laplace", KappaPrediction("infinite", lower=1.0), 2.0),
        harness.ComparisonEntry("b", KappaPrediction("exact", value=2.0), 2.5),
        harness.ComparisonEntry("inadmissible", KappaPrediction(None), 1.0),
    ]
    for order in itertools.permutations(entries):
        report = harness.ComparisonReport(list(order))
        assert [e.label for e in report.entries] == ["gaussian", "b", "laplace", "inadmissible"]
        assert report.inversions == [("b", "laplace")] and not report.ok


def test_trial_failure_is_diagnosed():
    config = _small_config(trials=3)
    config.fit_lo, config.fit_hi = 3, 5  # window with too few points
    with pytest.raises(ConfigError, match=r"fit window \[3, 5\]"):
        run_experiment(config, threads=2)
    # a trial whose curve has only 3 positive points in its window cannot be fitted
    config = _small_config(trials=1)
    sigma = np.array([[1.0, 0.5, 0.25, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="need at least 5 positive-sigma points in \\[4, 128\\]"):
        harness.ExperimentReport(config, sigma)


def test_report_is_built_from_config_and_sigma():
    config = _small_config()
    report = run_experiment(config, threads=1)
    assert [f.name for f in dataclasses.fields(report) if f.init] == ["config", "sigma"]
    # a refit of the measured curves under a new window equals a rerun with it
    narrow = dataclasses.replace(config, fit_lo=8)
    refit = harness.ExperimentReport(narrow, report.sigma)
    rerun = run_experiment(narrow, threads=2)
    assert refit.kappa_values == rerun.kappa_values != report.kappa_values
    assert refit.kappa_stderr == rerun.kappa_stderr
    assert summary_record(refit) == summary_record(rerun)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_report_names_a_non_finite_row(bad):
    config = _small_config(trials=3)
    sigma = np.tile(config.n_values() ** -1.0, (3, 1))
    assert harness.ExperimentReport(config, sigma).kappa_values == pytest.approx([1.0] * 3)
    sigma[1, 2] = bad
    with pytest.raises(ValueError, match="^trial 1: the realization is not finite"):
        harness.ExperimentReport(config, sigma)


def _check_trials_in_flight(monkeypatch, tmp_path, J, stack, max_trials):
    # the fake stack allocates nothing large, waits a little so that stacks
    # given workers overlap, and leaves its pid and its enter and exit times
    # in a file per trial, which a worker process can
    def small_stack(config, indices, threads=1):
        enter = time.monotonic()
        time.sleep(0.05)
        for index in indices:
            (tmp_path / f"trial{index}").write_text(
                f"{os.getpid()} {enter!r} {time.monotonic()!r}")
        return _flat_rows(config, indices)

    monkeypatch.setattr(harness, "_STACK_CELLS", stack << J)
    monkeypatch.setattr(harness, "_run_stack", small_stack)
    report = run_experiment(_small_config(J=J, k=4, trials=8, fit_lo=None, fit_hi=None),
                            threads=4)
    assert report.kappa_median == pytest.approx(1.0)
    records = [path.read_text().split() for path in tmp_path.iterdir()]
    # +1 at each enter and -1 at each exit, an exit first at a tie
    events = sorted([(float(t0), 1) for _, t0, _ in records]
                    + [(float(t1), -1) for _, _, t1 in records])
    peak = max(itertools.accumulate(step for _, step in events))
    assert len(records) == 8 and 1 <= peak <= max_trials
    if max_trials == 1:
        assert {int(pid) for pid, _, _ in records} == {os.getpid()}


@pytest.mark.parametrize("J, max_workers", [(26, 1), (25, 2)])
def test_trials_in_flight_stay_within_the_memory_guard(monkeypatch, tmp_path, pool_cpus, J,
                                                       max_workers):
    # a d=1 J=26 trial alone fills the cell cap, so its trials run one at a
    # time on the calling process
    _check_trials_in_flight(monkeypatch, tmp_path, J, 1, max_workers)


def test_the_memory_guard_counts_every_cell_of_a_stack(monkeypatch, tmp_path, pool_cpus):
    # at J=24 in stacks of two, two stacks fill the cell cap, so two of the
    # four workers asked for run, four trials in flight at most
    _check_trials_in_flight(monkeypatch, tmp_path, 24, 2, 4)


@pytest.mark.parametrize("threads", [1, 2])
def test_trial_exception_is_the_same_at_any_thread_count(monkeypatch, tmp_path, capsys, threads,
                                                         one_trial_stacks, pool_cpus):
    def failing_stack(config, indices, threads=1):
        raise ValueError(f"trial {indices[0]} cannot fit")

    monkeypatch.setattr(harness, "_run_stack", failing_stack)
    with pytest.raises(ValueError, match="trial 0 cannot fit") as info:
        run_experiment(_small_config(trials=3), threads=threads)
    assert type(info.value) is ValueError
    cfg = _write_config(tmp_path, SMALL)
    assert cli_main(["run", str(cfg), "--threads", str(threads)]) == 2
    assert "error: trial 0 cannot fit" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_cli_exits_2_on_any_error_of_a_run(monkeypatch, tmp_path, capsys, command, threads,
                                           one_trial_stacks, pool_cpus):
    # exit code 1 is a failed verdict, so an error that is neither a
    # ValueError nor an OSError exits 2 with its traceback and type
    def failing_stack(config, indices, threads=1):
        raise MemoryError(f"trial {indices[0]} ran out of memory")

    monkeypatch.setattr(harness, "_run_stack", failing_stack)
    cfg = _write_config(tmp_path, SMALL)
    assert cli_main([command, str(cfg), "--threads", threads]) == 2
    err = capsys.readouterr().err
    assert "Traceback (most recent call last):" in err
    assert err.endswith("\nerror: MemoryError: trial 0 ran out of memory\n")


def _check_lowest_index_failure(monkeypatch, tmp_path, capsys, threads, stack):
    def failing_stack(config, indices, threads=1):
        for index in indices:
            if index == 1:
                time.sleep(0.2)
                raise ValueError("trial 1 failed late")
            if index == 2:
                raise ValueError("trial 2 failed early")
        return _flat_rows(config, indices)

    monkeypatch.setattr(harness, "_STACK_CELLS", stack * _small_config().grid().size)
    monkeypatch.setattr(harness, "_run_stack", failing_stack)
    with pytest.raises(ValueError, match="^trial 1 failed late$"):
        run_experiment(_small_config(trials=6), threads=threads)
    cfg = _write_config(tmp_path, SMALL)
    assert cli_main(["run", str(cfg), "--threads", str(threads)]) == 2
    assert "error: trial 1 failed late" in capsys.readouterr().err


@pytest.mark.parametrize("threads", [1, 2])
def test_lowest_index_failure_wins_at_any_worker_count(monkeypatch, tmp_path, capsys, pool_cpus,
                                                       threads):
    # in stacks of one trial, trial 2 fails while trial 1 still sleeps, so at
    # 2 workers its error arrives first; the caller still gets trial 1's
    _check_lowest_index_failure(monkeypatch, tmp_path, capsys, threads, 1)


@pytest.mark.parametrize("threads", [1, 2])
def test_lowest_index_failure_wins_within_a_shared_stack(monkeypatch, tmp_path, capsys, pool_cpus,
                                                         threads):
    # in stacks of three, trials 1 and 2 share the first stack, which draws
    # its trials in order, while the second stack runs on the other worker
    _check_lowest_index_failure(monkeypatch, tmp_path, capsys, threads, 3)


@pytest.mark.parametrize(
    "failure, message",
    [
        (None, None),
        (ValueError, "trial 1 failed"),
        # a worker killed mid-trial sends nothing back, and the call must not wait for it
        (ChildProcessError, "a trial's worker process died"),
    ],
    ids=["succeeds", "raises", "worker-dies"],
)
def test_no_worker_process_outlives_a_call(monkeypatch, tmp_path, capsys, failure, message,
                                           one_trial_stacks, pool_cpus):
    parent = os.getpid()

    def stack(config, indices, threads=1):
        if 1 in indices and failure is ValueError:
            raise ValueError(message)
        if 1 in indices and failure is ChildProcessError and os.getpid() != parent:
            os._exit(3)
        return _flat_rows(config, indices)

    monkeypatch.setattr(harness, "_run_stack", stack)
    cfg = _write_config(tmp_path, SMALL)
    calls = [lambda: run_experiment(_small_config(), threads=2),
             lambda: compare_families([_small_config(), _small_config(base_seed=1)], threads=2),
             lambda: cli_main(["run", str(cfg), "--threads", "2"])]
    assert multiprocessing.active_children() == []
    for call in calls:
        start = time.monotonic()
        if failure is None:
            call()
        elif call is calls[-1]:
            assert call() == 2
            assert f"error: {message}" in capsys.readouterr().err
        else:
            with pytest.raises(failure, match=f"^{re.escape(message)}$"):
                call()
        # the executor sees a dead worker in about 0.1 s
        assert time.monotonic() - start < 5.0
        assert multiprocessing.active_children() == []


class _RecordingLibc:
    """Stands in for ctypes.CDLL: each mallopt call appends "pid param value"
    to a file, so a call made in a worker process shows too."""

    def __init__(self, log):
        self.log = log

        def mallopt(param, value):  # a plain function takes argtypes, as a ctypes one does
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {param} {value}\n")
            return 1

        self.mallopt = mallopt

    def __call__(self, name):
        assert name == "libc.so.6"
        return self

    def calls(self):
        lines = self.log.read_text().splitlines() if self.log.exists() else []
        calls = {}
        for line in lines:
            pid, param, value = map(int, line.split())
            calls.setdefault(pid, []).append((param, value))
        return calls


def _stack_leaving_pid(tmp_path):
    def stack(config, indices, threads=1):
        for index in indices:
            (tmp_path / f"trial{index}").write_text(str(os.getpid()))
        return _flat_rows(config, indices)
    return stack


def test_every_trial_worker_keeps_its_heap(monkeypatch, tmp_path, one_trial_stacks, pool_cpus):
    libc = _RecordingLibc(tmp_path / "mallopt.log")
    monkeypatch.setattr(harness.ctypes, "CDLL", libc)
    monkeypatch.setattr(harness, "_run_stack", _stack_leaving_pid(tmp_path))
    run_experiment(_small_config(trials=4), threads=2)
    calls = libc.calls()
    # M_MMAP_THRESHOLD at glibc's 32 MiB cap, then M_TRIM_THRESHOLD at 1 GiB, in each of the 2
    assert list(calls.values()) == [[(-3, 32 << 20), (-1, 1 << 30)]] * 2
    assert os.getpid() not in calls
    trial_pids = {int(path.read_text()) for path in tmp_path.glob("trial*")}
    assert trial_pids <= set(calls)


@pytest.mark.parametrize("trials, threads", [(4, 1), (1, 2), (4, 2)],
                         ids=["one-worker", "lone-trial", "one-stack"])
def test_the_calling_process_keeps_its_allocator_settings(monkeypatch, tmp_path, trials, threads):
    libc = _RecordingLibc(tmp_path / "mallopt.log")
    monkeypatch.setattr(harness.ctypes, "CDLL", libc)
    monkeypatch.setattr(harness, "_run_stack", _stack_leaving_pid(tmp_path))
    run_experiment(_small_config(trials=trials), threads=threads)
    assert {int(path.read_text()) for path in tmp_path.glob("trial*")} == {os.getpid()}
    assert libc.calls() == {}


def test_the_cell_cap_counts_the_largest_stack_of_any_config(monkeypatch, tmp_path):
    # 200 trials at d=1 J=10 form stacks of 64 (2^16 cells each), and a J=17
    # trial is a stack of 2^17 cells, which fills the cap: the whole sweep
    # runs in this process.  A cap counted at the first config's grid would
    # allow 2^17 // 2^16 = 2 workers.
    monkeypatch.setattr(harness, "_MAX_CELLS", 1 << 17)
    monkeypatch.setattr(harness, "_run_stack", _stack_leaving_pid(tmp_path))
    reports = run_sweep([_small_config(J=10, trials=200), _small_config(J=17, trials=2)], threads=2)
    assert [report.sigma.shape[0] for report in reports] == [200, 2]
    assert {int(path.read_text()) for path in tmp_path.glob("trial*")} == {os.getpid()}


def test_the_cell_cap_counts_one_trials_jumps_when_they_outnumber_a_stacks_cells(
        monkeypatch, tmp_path):
    # 8 trials at d=1 J=14 form two stacks of four, 2^16 cells each, but a
    # trial at rate 2^17 draws about 2^17 jumps, which fill the cap: both
    # stacks run in this process.  A cap that counts cells alone would allow
    # 2^17 // 2^16 = 2 workers.
    monkeypatch.setattr(harness, "_MAX_CELLS", 1 << 17)
    monkeypatch.setattr(harness, "_run_stack", _stack_leaving_pid(tmp_path))
    config = _small_config(family="compound_poisson", params={"rate": float(1 << 17)},
                           J=14, trials=8)
    assert run_experiment(config, threads=2).sigma.shape[0] == 8
    assert {int(path.read_text()) for path in tmp_path.glob("trial*")} == {os.getpid()}


@pytest.mark.parametrize("threads", [1, 2])
def test_a_sweep_validates_every_config_before_any_trial(monkeypatch, tmp_path, threads):
    monkeypatch.setattr(harness, "_run_stack", _stack_leaving_pid(tmp_path))
    configs = [_small_config(), _small_config(base_seed=1), _small_config()]
    configs[-1].trials = 0
    with pytest.raises(ConfigError, match="^trials must be >= 1, got 0$"):
        run_sweep(configs, threads=threads)
    assert list(tmp_path.glob("trial*")) == []


def test_a_sweep_of_no_configs_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert run_sweep([], threads=2) == []
    assert run_sweep(iter([]), threads=2) == []
    assert multiprocessing.active_children() == []


def test_a_sweep_takes_a_generator_of_configs():
    configs = [_small_config(), _small_config(family="sas", params={"alpha": 1.5}, base_seed=7)]
    listed = run_sweep(configs, threads=2)
    generated = run_sweep((config for config in configs), threads=2)
    assert [report.config for report in generated] == configs
    assert [r.sigma.tobytes() for r in generated] == [r.sigma.tobytes() for r in listed]


def _no_libc(name):
    raise OSError(f"{name}: cannot open shared object file")


class _RaisingLibc:
    """Stands in for ctypes.CDLL with a mallopt that cannot be called with ints."""

    def __init__(self, error):
        def mallopt(param, value):
            raise error("mallopt cannot take these arguments")

        self.mallopt = mallopt

    def __call__(self, name):
        return self


@pytest.mark.parametrize(
    "cdll",
    [_no_libc, lambda name: object(), _RaisingLibc(ctypes.ArgumentError), _RaisingLibc(TypeError)],
    ids=["no-libc", "no-mallopt", "mallopt-argument-error", "mallopt-type-error"],
)
def test_heap_setting_is_skipped_without_glibc_mallopt(monkeypatch, cdll, one_trial_stacks):
    # a pool initializer that raised would kill every worker it started, and
    # the call would stop with "worker process died" instead of running
    monkeypatch.setattr(harness.ctypes, "CDLL", cdll)
    assert harness._keep_heap() is None
    config = _small_config()
    assert np.array_equal(run_experiment(config, threads=2).sigma,
                          run_experiment(config, threads=1).sigma)


def test_non_finite_trial_is_named(tmp_path, capsys):
    # at alpha = 0.01 the Chambers-Mallows-Stuck draw overflows float64, so
    # the field and every n-term error are nan: the error names the trial,
    # not the fit window
    text = "family = sas\nalpha = 0.01\nJ = 10\nk = 2\ntrials = 2\nfit_lo = 4\n"
    cfg = _write_config(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the sampler's overflow
        with pytest.raises(ValueError, match="trial 0: the realization is not finite"):
            run_experiment(load_config(cfg), threads=1)
        assert cli_main(["run", str(cfg), "--threads", "1"]) == 2
    assert "error: trial 0: the realization is not finite" in capsys.readouterr().err


def test_default_window_too_small_for_grid_rejected():
    # J = 11: the default window [16, 128] holds 16, 32, 64 and 128 only
    with pytest.raises(ConfigError, match="at least 5 points"):
        parse_config("family = laplace\nJ = 11\n")
    assert parse_config("family = laplace\nJ = 12\n").fit_range() == (16, 256)


# ---------------------------------------------------------------------------
# CLI


def _write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_cli_predict(capsys):
    assert cli_main(["predict", "family=gaussian", "gamma=1.0", "d=1"]) == 0
    assert "exact 0.5" in capsys.readouterr().out
    assert cli_main(["predict", "family=sas", "gamma=1.0", "d=1", "alpha=1.0"]) == 0
    assert "bounds [1, 1]" in capsys.readouterr().out
    assert cli_main(["predict", "family=compound_poisson", "gamma=1.0", "d=1"]) == 0
    assert "infinite" in capsys.readouterr().out


def test_cli_predict_missing_alpha(capsys):
    assert cli_main(["predict", "family=sas", "gamma=1.0", "d=1"]) == 2
    assert "alpha" in capsys.readouterr().err


def test_cli_predict_alpha_not_applicable(capsys):
    assert cli_main(["predict", "family=gaussian", "gamma=1.0", "d=1", "alpha=1.0"]) == 2
    assert "not applicable" in capsys.readouterr().err


@pytest.mark.parametrize("path", SAMPLE_CONFIGS, ids=lambda path: path.stem)
def test_cli_predict_reads_config_lines(capsys, path):
    assert cli_main(["predict", *path.read_text().splitlines()]) == 0
    assert capsys.readouterr().out == load_config(path).prediction().describe() + "\n"


@pytest.mark.parametrize(
    "settings,status,expected",
    [
        # the indices do not depend on delta, but any family key is read
        (["family=inverse_gaussian", "delta=2"], 0, "bounds [2, 2]"),
        (["family=compound_poisson", "rate=-1"], 2, "rate must be positive"),
        # settings are not validated: d = 3 and an inadmissible gamma still predict
        (["family=gaussian", "gamma=2.5", "d=3"], 0, "exact 0.333333"),
        (["family=gaussian", "gamma=0.4"], 0, "no prediction"),
        # but the admissibility bound needs a dimension
        (["family=gaussian", "d=0"], 2, "dimension must be >= 1, got 0"),
    ],
    ids=["family_key", "bad_family_key", "d3", "inadmissible", "d0"],
)
def test_cli_predict_settings(capsys, settings, status, expected):
    assert cli_main(["predict", *settings]) == status
    assert expected in "".join(capsys.readouterr())


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_run_narrow_fit_window_exits_before_trials(monkeypatch, tmp_path, capsys, threads):
    def no_stack(config, indices, threads=1):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_run_stack", no_stack)
    cfg = _write_config(
        tmp_path, "family = gaussian\nJ = 10\ntrials = 2\nfit_lo = 3\nfit_hi = 5\n"
    )
    assert cli_main(["run", str(cfg), "--threads", threads]) == 2
    err = capsys.readouterr().err
    assert "fit window [3, 5]" in err and "at least 5" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("index", [2, 4, 5])  # the gamma, p0 and tau0 tokens
def test_cli_predict_rejects_non_finite(capsys, value, index):
    argv = ["predict", "family=gaussian", "gamma=1.0", "d=1", "p0=2.0", "tau0=0.0"]
    key = argv[index].split("=")[0]
    argv[index] = f"{key}={value}"
    assert cli_main(argv) == 2
    assert f"line {index}: key '{key}' must be finite" in capsys.readouterr().err


def test_jump_count_memory_guard(tmp_path, capsys):
    # about `rate` jumps per trial; the guard fires before any field is drawn
    text = "family = compound_poisson\nrate = 1e13\nJ = 14\n"
    with pytest.raises(ConfigError, match="key 'rate'"):
        parse_config(text)
    cfg = tmp_path / "huge_rate.cfg"
    cfg.write_text(text)
    assert cli_main(["run", str(cfg)]) == 2
    assert "key 'rate'" in capsys.readouterr().err
    assert parse_config(f"family = compound_poisson\nrate = {2**26}\n").params["rate"] == 2**26


@pytest.mark.parametrize(
    "text,key",
    [
        ("jump = dirac\njump_sigma = 5.0\njump_a = 3\n", "jump_a"),
        ("jump_c = 2.0\n", "jump_c"),  # the default law is gaussian
    ],
    ids=["dirac_law", "gaussian_law"],
)
def test_compound_poisson_rejects_keys_of_another_jump_law(tmp_path, capsys, text, key):
    text = "family = compound_poisson\n" + text
    with pytest.raises(ValueError, match=f"key '{key}' not applicable to jump law"):
        parse_config(text)
    assert cli_main(["run", str(_write_config(tmp_path, text))]) == 2
    assert f"key '{key}'" in capsys.readouterr().err


def test_base_seed_takes_every_64_bit_value():
    for seed in (0, 2**64 - 1):
        assert parse_config(f"family = gaussian\nJ = 12\nbase_seed = {seed}\n").base_seed == seed


def test_negative_tolerance_rejected(tmp_path, capsys):
    text = "family = gaussian\nJ = 12\ntolerance = -1\n"
    with pytest.raises(ConfigError, match="tolerance must be >= 0"):
        parse_config(text)
    assert cli_main(["run", str(_write_config(tmp_path, text))]) == 2
    assert "tolerance must be >= 0, got -1.0" in capsys.readouterr().err
    assert parse_config("family = gaussian\nJ = 12\ntolerance = 0\n").tolerance == 0.0


def test_grid_too_coarse_for_filter_rejected(tmp_path, capsys):
    # k = 4 has zeta = 3, so level 0 already needs J = 4
    text = "family = gaussian\nJ = 3\n"
    with pytest.raises(ConfigError, match="^J=3 too coarse for k=4$"):
        parse_config(text)
    assert cli_main(["run", str(_write_config(tmp_path, text))]) == 2
    assert "J=3 too coarse for k=4" in capsys.readouterr().err
    # J = 4 is the coarsest grid; only d = 2 puts 5 points in its fit window
    text = "family = gaussian\nd = 2\nJ = 4\ngamma = 1.5\nfit_lo = 4\nfit_hi = 64\n"
    assert parse_config(text).J == 4


def test_filter_order_beyond_bound_rejected(tmp_path, capsys):
    text = "family = gaussian\nJ = 14\nk = 60\n"
    with pytest.raises(ConfigError, match="k=60 too large"):
        parse_config(text)
    assert cli_main(["run", str(_write_config(tmp_path, text))]) == 2
    assert "k=60 too large" in capsys.readouterr().err


SAMPLE_CONFIG_SHA256 = {
    "cauchy": "6a75dcf91535a2ec4ced60a964b13055d42983de338ae4cef85a7aa7a8ddeb69",
    "compound_poisson": "d8d326023681519106dd7657e8fc3d17c10d3751cda8dadd1f4e04ee69f7bfa9",
    "gaussian": "b1d5dac0eab41e088377236cf6c68b02ac2596640ebb4484a4d7284e75c1bd4c",
    "inverse_gaussian": "d0c49472c2b6aa2fa52817e1e5fe8336eeb557fed518e3566006da79d0ea16c7",
    "laplace": "22dbe33af2c4d89e0efdb60c8e6aed0dc9757eafe6743dc84554eed742c189cc",
    "sas15": "4fa3341598b59fd05c25480f636bf2dda107a3dbb5fc2b02ad3060f16c14eb8c",
}


def test_sample_config_hashes_are_pinned():
    # summary.json files written earlier carry these hashes; they stay valid
    # only while canonical_text does not drift
    configs = pathlib.Path(__file__).resolve().parents[1] / "configs"
    hashes = {path.stem: load_config(path).sha256() for path in configs.glob("*.cfg")}
    assert hashes == SAMPLE_CONFIG_SHA256


def test_config_record_and_hash_ignore_numpy_scalar_types():
    # a setting given as a numpy scalar records and hashes as its Python value
    config = load_config(pathlib.Path(__file__).resolve().parents[1] / "configs" / "gaussian.cfg")
    numpy_config = dataclasses.replace(
        config, gamma=np.float64(config.gamma), trials=np.int64(config.trials)
    )
    assert numpy_config.canonical_text() == config.canonical_text()
    assert numpy_config.record() == config.record()
    record = config.record()
    assert "output" not in record and "allow_inadmissible" not in record
    assert (record["fit_lo"], record["fit_hi"]) == config.fit_range()
    assert record["params"] == config.params and record["params"] is not config.params


def test_cli_run_small(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "family = gaussian\nJ = 9\nk = 2\ntrials = 4\nbase_seed = 4242\n"
        "fit_lo = 4\nfit_hi = 128\n",
    )
    code = cli_main(["run", str(cfg), "--output", str(tmp_path / "out"), "--threads", "1"])
    out = capsys.readouterr().out
    assert "kappa median" in out and "verdict" in out
    assert code in (0, 1)
    assert (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("name", list(OPERATORS))
def test_operator_key_selects_its_symbol_and_runs(name):
    config = parse_config(SMALL.replace("trials = 4", "trials = 2") + f"operator = {name}\n")
    config.validate()
    symbol = config.symbol()
    assert type(symbol) is OPERATORS[name] and symbol.gamma == config.gamma
    report = run_experiment(config, threads=1)
    assert report.sigma.shape == (2, 6) and np.all(np.isfinite(report.kappa_values))
    assert summary_record(report)["operator"] == name


def _filter_message(k):
    """The message of the filter's own rejection of k; its reported miss comes
    from root finding, so it is read here rather than written out."""
    with pytest.raises(ConfigError) as info:
        wavelets.daubechies_lowpass(k)
    return str(info.value)


@pytest.mark.parametrize(
    "text,message",
    [
        ("family = gaussian\nnonsense = 1\n", "unknown key 'nonsense'"),
        ("family = bogus\n", "unknown family 'bogus'"),
        ("family = gaussian\noperator = wave\n", "unknown operator 'wave'"),
        ("family = gaussian\ntrials = 0\n", "trials must be >= 1, got 0"),
        ("family = gaussian\njust words\n", "line 2: expected 'key = value', got 'just words'"),
        # the first wrong key in file order is named, not the first in sorted order
        ("family = gaussian\nrate = 2\nalpha = 1\n",
         "key 'rate' not applicable to family 'gaussian'"),
        ("family = gaussian\nd = 3\n", "dimension must be 1 or 2, got 3"),
        ("family = gaussian\nJ = 0\n", "grid level J must be >= 1, got 0"),
        ("family = gaussian\nJ = 30\n", "memory guard: 2^(30*1) cells exceeds 67108864"),
        ("family = gaussian\ngamma = -1\n", "order gamma must be positive, got -1.0"),
        ("family = gaussian\nsigma2 = 0\n", "sigma2 must be positive, got 0.0"),
        ("family = gaussian\np0 = -1\n", "p0 must be positive, got -1.0"),
        ("family = gaussian\nk = 0\n",
         "vanishing-moment count must be a positive integer, got 0"),
        ("family = gaussian\nk = 30\n", _filter_message(30)),
        ("family = sas\nalpha = 3\n", "alpha must lie in (0, 2), got 3.0"),
        ("family = sas\n", "family 'sas' requires key 'alpha'"),
        ("family = compound_poisson\nrate = 1e9\n",
         "memory guard: key 'rate' = 1e+09 jumps per trial exceeds 67108864"),
        ("family = compound_poisson\njump = foo\n", "unknown jump law 'foo'"),
        ("family = compound_poisson\njump_a = 1\n",
         "key 'jump_a' not applicable to jump law 'gaussian'"),
        # zero-size jumps would make the noise identically 0 and every kappa inf
        ("family = compound_poisson\nrate = 5\njump = dirac\njump_c = 0\n",
         "dirac jump size c must be nonzero, got 0.0"),
        # trial_seed keeps 64 bits, so these would alias 2^64 - 1 and 5
        ("family = gaussian\nbase_seed = -1\n", "base_seed must be in [0, 2^64), got -1"),
        (f"family = gaussian\nbase_seed = {2**64 + 5}\n",
         f"base_seed must be in [0, 2^64), got {2**64 + 5}"),
    ],
    ids=["unknown_key", "unknown_family", "unknown_operator", "zero_trials", "no_equals",
         "two_wrong_family_keys", "d3", "J0", "J30", "negative_gamma", "zero_sigma2",
         "negative_p0", "k0", "k30", "alpha3", "missing_alpha", "huge_rate", "unknown_jump_law",
         "jump_key_of_another_law", "zero_dirac_jump", "negative_seed", "seed_past_2_64"],
)
def test_cli_run_bad_config(tmp_path, capsys, text, message):
    # every rejected setting, whichever layer judges it, is a ConfigError
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message
    cfg = _write_config(tmp_path, text)
    assert cli_main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text,key,line",
    [
        ("family = laplace\nJ = 1.5\n", "J", 2),
        ("family = sas\nalpha = x\n", "alpha", 2),
        ("family = laplace\ntolerance = nan\n", "tolerance", 2),
        ("family = compound_poisson\njump = dirac\njump_c = nan\n", "jump_c", 3),
        ("family = gaussian\np0 = inf\n", "p0", 2),
    ],
)
def test_cli_run_bad_value_names_key_and_line(tmp_path, capsys, text, key, line):
    cfg = _write_config(tmp_path, text)
    assert cli_main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"line {line}:" in err and repr(key) in err


def test_cli_compare(tmp_path, capsys):
    base = "J = 10\nk = 2\ntrials = 3\nbase_seed = 7\nfit_lo = 4\nfit_hi = 256\n"
    a = _write_config(tmp_path, "family = gaussian\n" + base, "a.cfg")
    b = _write_config(tmp_path, "family = compound_poisson\nrate = 1.0\n" + base, "b.cfg")
    code = cli_main(["compare", str(a), str(b), "--threads", "2"])
    out = capsys.readouterr().out
    assert "family" in out and "median" in out
    assert code in (0, 1)


def test_cli_compare_exits_1_on_an_inversion(monkeypatch, tmp_path, capsys):
    # every trial's curve is n^-1 and fits kappa = 1, so laplace (infinite)
    # does not measure above gaussian
    monkeypatch.setattr(harness, "_run_stack", lambda config, indices, threads=1:
                        _flat_rows(config, indices))
    base = "J = 10\nk = 2\ntrials = 3\nfit_lo = 4\nfit_hi = 256\n"
    a = _write_config(tmp_path, "family = laplace\n" + base, "a.cfg")
    b = _write_config(tmp_path, "family = gaussian\n" + base, "b.cfg")
    assert cli_main(["compare", str(a), str(b), "--threads", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out[1:3]] == ["gaussian", "laplace"]
    assert out[3:] == ["INVERSION: gaussian measured above laplace"]


def test_load_config_from_file(tmp_path):
    path = _write_config(tmp_path, "family = laplace\nJ = 10\nfit_lo = 4\n")
    config = load_config(path)
    assert config.family == "laplace"
    assert config.J == 10


def test_thread_count_explicit_and_default(monkeypatch):
    from levywave.harness import _worker_count

    assert 1 <= _worker_count(None) <= 4
    # the budget is the count asked for, 4 by default, at most the CPUs this
    # process may run on
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    assert _worker_count(5) == 5
    assert _worker_count(1) == 1
    assert _worker_count(None) == 4
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert _worker_count(5) == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert _worker_count(None) == 1


@pytest.mark.parametrize("threads", [3, 8, 1000])
def test_the_pool_takes_at_most_the_usable_cpus(monkeypatch, threads):
    # --threads is outside input: on two usable CPUs, 4000 trials in 32 stacks
    # ask the executor for two workers.  The spy raises before any process starts
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    asked = []

    def spy_pool(max_workers, *args):
        asked.append(max_workers)
        raise RuntimeError("spied")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy_pool)
    with pytest.raises(RuntimeError, match="^spied$"):
        run_experiment(_small_config(trials=4000), threads=threads)
    assert asked == [2]


@pytest.mark.parametrize("threads", [0, -5])
def test_threads_below_one_rejected(monkeypatch, tmp_path, capsys, threads):
    def no_stack(config, indices, threads=1):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_run_stack", no_stack)
    with pytest.raises(ConfigError, match=f"threads must be >= 1, got {threads}"):
        run_experiment(_small_config(), threads=threads)
    cfg = _write_config(tmp_path, SMALL)
    for command in ("run", "compare"):
        assert cli_main([command, str(cfg), "--threads", str(threads)]) == 2
        assert f"error: threads must be >= 1, got {threads}" in capsys.readouterr().err
