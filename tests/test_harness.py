import numpy as np
import pytest

from levywave import FAMILIES, ConfigError, compare_families, emit_outputs, harness, run_experiment
from levywave.cli import main as cli_main
from levywave.harness import (
    exponent_from_params,
    load_config,
    parse_config,
    summary_record,
)

SMALL = """
family = gaussian
sigma2 = 1.0
gamma = 1.0
d = 1
J = 9
k = 2
trials = 4
base_seed = 4242
n_grid = 4,8,16,32,64,128
fit_lo = 4
fit_hi = 128
output = none   # placeholder, overridden in tests
"""


def _small_config(**overrides):
    config = parse_config(SMALL)
    for key, value in overrides.items():
        setattr(config, key, value)
    config.validate()
    return config


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
        "trials = 2\nn_grid = 4,8,16,32,64,128\nfit_lo = 4\nfit_hi = 128\n"
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
        recovered = exponent.params()
        assert set(recovered) <= set(FAMILIES[family].config_keys())
        assert exponent_from_params(family, recovered) == exponent


def test_run_experiment_deterministic():
    config = _small_config()
    r1 = run_experiment(config, threads=1)
    r2 = run_experiment(config, threads=3)
    assert r1.kappa_values == r2.kappa_values
    assert r1.kappa_median == r2.kappa_median
    assert r1.config_hash == r2.config_hash
    for c1, c2 in zip(r1.curves, r2.curves):
        np.testing.assert_array_equal(c1.sigma_values, c2.sigma_values)


def test_run_experiment_report_contents():
    config = _small_config()
    report = run_experiment(config, threads=2)
    assert len(report.curves) == config.trials
    assert len(report.kappa_values) == config.trials
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

    blobs1 = [open(p, "rb").read() for p in paths]
    emit_outputs(report, out_dir=out)
    blobs2 = [open(p, "rb").read() for p in paths]
    assert blobs1 == blobs2


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


def test_compare_families_single_config_trivial():
    report = compare_families([_small_config()], threads=1)
    assert report.ok
    assert len(report.entries) == 1
    assert report.inversions == []


def test_compare_families_two_stable_indices():
    # alpha = 0.8 is predicted (and measured) more compressible than alpha = 1.5
    a = _small_config(family="sas", params={"alpha": 1.5}, J=11, trials=6,
                      n_grid="4,8,16,32,64,128,256,512", fit_lo=8, fit_hi=512)
    b = _small_config(family="sas", params={"alpha": 0.8}, J=11, trials=6,
                      n_grid="4,8,16,32,64,128,256,512", fit_lo=8, fit_hi=512)
    report = compare_families([a, b], threads=2)
    assert report.ok
    labels = [e.label for e in report.entries]
    assert labels == ["sas(alpha=1.5)", "sas(alpha=0.8)"]
    assert report.entries[0].kappa_median < report.entries[1].kappa_median


def test_trial_failure_is_diagnosed():
    config = _small_config(trials=3)
    config.fit_lo, config.fit_hi = 3, 5  # window with too few points
    with pytest.raises((RuntimeError, ValueError), match="at least 5|trial"):
        run_experiment(config, threads=2)


@pytest.mark.parametrize("threads", [1, 2])
def test_trial_exception_is_the_same_at_any_thread_count(monkeypatch, tmp_path, capsys, threads):
    def failing_trial(config, index):
        raise ValueError(f"trial {index} cannot fit")

    monkeypatch.setattr(harness, "_run_trial", failing_trial)
    with pytest.raises(ValueError, match="trial 0 cannot fit") as info:
        run_experiment(_small_config(trials=3), threads=threads)
    assert type(info.value) is ValueError
    cfg = _write_config(tmp_path, SMALL.replace("output = none", ""))
    assert cli_main(["run", str(cfg), "--threads", str(threads)]) == 2
    assert "error: trial 0 cannot fit" in capsys.readouterr().err


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
    assert cli_main(["predict", "gaussian", "1.0", "1"]) == 0
    assert "exact 0.5" in capsys.readouterr().out
    assert cli_main(["predict", "sas", "1.0", "1", "--alpha", "1.0"]) == 0
    assert "bounds [1, 1]" in capsys.readouterr().out
    assert cli_main(["predict", "compound_poisson", "1.0", "1"]) == 0
    assert "infinite" in capsys.readouterr().out


def test_cli_predict_missing_alpha(capsys):
    assert cli_main(["predict", "sas", "1.0", "1"]) == 2
    assert "alpha" in capsys.readouterr().err


def test_cli_predict_alpha_not_applicable(capsys):
    assert cli_main(["predict", "gaussian", "1.0", "1", "--alpha", "1.0"]) == 2
    assert "not applicable" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_run_narrow_fit_window_exits_before_trials(monkeypatch, tmp_path, capsys, threads):
    def no_trial(config, index):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_run_trial", no_trial)
    cfg = _write_config(
        tmp_path, "family = gaussian\nJ = 10\ntrials = 2\nfit_lo = 3\nfit_hi = 5\n"
    )
    assert cli_main(["run", str(cfg), "--threads", threads]) == 2
    err = capsys.readouterr().err
    assert "fit window [3, 5]" in err and "at least 5" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("index", [2, 4, 5])  # gamma, p0, tau0
def test_cli_predict_rejects_non_finite(capsys, value, index):
    argv = ["predict", "gaussian", "1.0", "1", "2.0", "0.0"]
    argv[index] = value
    with pytest.raises(SystemExit) as info:
        cli_main(argv)
    assert info.value.code == 2
    assert "finite" in capsys.readouterr().err


def test_cli_run_small(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "family = gaussian\nJ = 9\nk = 2\ntrials = 4\nbase_seed = 4242\n"
        "n_grid = 4,8,16,32,64,128\nfit_lo = 4\nfit_hi = 128\n",
    )
    code = cli_main(["run", str(cfg), "--output", str(tmp_path / "out"), "--threads", "1"])
    out = capsys.readouterr().out
    assert "kappa median" in out and "verdict" in out
    assert code in (0, 1)
    assert (tmp_path / "out" / "summary.json").exists()


def test_cli_run_bad_config(tmp_path, capsys):
    cfg = _write_config(tmp_path, "family = gaussian\nnonsense = 1\n")
    assert cli_main(["run", str(cfg)]) == 2
    assert "error" in capsys.readouterr().err


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
    base = "J = 10\nk = 2\ntrials = 3\nbase_seed = 7\nn_grid = 4,8,16,32,64,128,256\nfit_lo = 4\nfit_hi = 256\n"
    a = _write_config(tmp_path, "family = gaussian\n" + base, "a.cfg")
    b = _write_config(tmp_path, "family = compound_poisson\nrate = 1.0\n" + base, "b.cfg")
    code = cli_main(["compare", str(a), str(b), "--threads", "2"])
    out = capsys.readouterr().out
    assert "family" in out and "median" in out
    assert code in (0, 1)


def test_load_config_from_file(tmp_path):
    path = _write_config(tmp_path, "family = laplace\nJ = 10\nfit_lo = 4\n")
    config = load_config(path)
    assert config.family == "laplace"
    assert config.J == 10


def test_thread_count_env_override(monkeypatch):
    from levywave.harness import THREADS_ENV_VAR, _thread_count

    monkeypatch.setenv(THREADS_ENV_VAR, "2")
    assert _thread_count(None) == 2
    assert _thread_count(5) == 5  # explicit argument wins
    monkeypatch.delenv(THREADS_ENV_VAR)
    assert _thread_count(None) >= 1
