"""Trials run as stacks along a leading trial axis: every row of a stack is
bit for bit the trial run alone (tests/oracles.py's trial_alone)."""

import dataclasses
import pathlib

import numpy as np
import pytest

from levywave import (
    BesovParams,
    FractionalLaplacian,
    GridSpec,
    Laplace,
    OPERATORS,
    WaveletSpec,
    dwt_periodic,
    harness,
    make_rng,
    run_experiment,
    run_sweep,
    sigma_curve,
    synthesize_process,
    weighted_magnitudes,
)
from levywave.harness import load_config, parse_config, summary_record
from oracles import trial_alone

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
SAMPLE_CONFIGS = sorted(CONFIGS.glob("*.cfg"))


def _alone(config) -> bytes:
    return np.array([trial_alone(config, index) for index in range(config.trials)]).tobytes()


def _stack_sizes(*configs) -> list:
    return [len(indices) for _, indices in harness._stacks(list(configs))]


@pytest.mark.parametrize(
    "keys",
    [{"k": 1}, {}, {"k": 6}, {"operator": "matern"}, {"tau0": 0.25}],
    ids=["k=1", "k=4", "k=6", "matern", "tau0=0.25"],
)
def test_stacked_rows_equal_trials_run_alone(keys):
    # seven trials at d=1 J=14: a stack of four, then a ragged one of three
    for path in SAMPLE_CONFIGS:
        config = dataclasses.replace(load_config(path), trials=7, **keys)
        config.validate()
        assert _stack_sizes(config) == [4, 3]
        assert run_experiment(config, threads=1).sigma.tobytes() == _alone(config), path.stem


@pytest.mark.parametrize(
    "d, J, sizes",
    [(1, 14, [4, 1]), (1, 15, [2, 2, 1]), (1, 16, [1] * 5), (2, 7, [4, 1]), (2, 8, [1] * 5)],
)
def test_the_stack_budget_counts_cells(d, J, sizes):
    # 2^16 cells a stack: a trial of 2^16 cells or more is a stack of one
    config = parse_config(f"family = laplace\ngamma = 1.5\nd = {d}\nJ = {J}\ntrials = 5\n")
    assert _stack_sizes(config) == sizes
    assert run_experiment(config, threads=1).sigma.tobytes() == _alone(config)


def test_a_chunk_spans_two_configs(pool_cpus):
    # one stack of a, then two of b: the first chunk of a one-worker map holds a's and b's first
    base = "gamma = 1.0\nJ = 14\nbase_seed = 5\n"
    a = parse_config(f"family = sas\nalpha = 1.5\ntrials = 4\n{base}")
    b = parse_config(f"family = compound_poisson\nrate = 20\ntrials = 7\n{base}")
    first = harness._chunks(harness._stacks([a, b]), 1)[0]
    assert [(config, list(indices)) for config, indices in first] == [(a, [0, 1, 2, 3]),
                                                                       (b, [0, 1, 2, 3])]
    rows = np.array(harness._run_chunk(first))
    assert rows.tobytes() == np.array([trial_alone(c, i) for c in (a, b) for i in range(4)]).tobytes()
    # the whole map on two worker processes
    reports = run_sweep([a, b], 2)
    assert [report.sigma.tobytes() for report in reports] == [_alone(a), _alone(b)]


@pytest.mark.parametrize("threads", [1, 2])
def test_a_mixed_sweep_reproduces_each_config_run_alone(threads, pool_cpus):
    # gaussian as it is; sas alpha = 1.5 in stacks of two, the last one
    # ragged; laplace in d=2 stacks of four; a lone d=2 inverse_gaussian trial
    variants = {
        "gaussian": {},
        "sas15": {"J": 15, "k": 2, "trials": 7},
        "laplace": {"d": 2, "J": 7, "gamma": 1.5},
        "inverse_gaussian": {"d": 2, "J": 9, "gamma": 1.5, "trials": 1, "operator": "matern"},
    }
    configs = [dataclasses.replace(load_config(CONFIGS / f"{name}.cfg"), **keys)
               for name, keys in variants.items()]
    # each config's stacks are cut from its own grid
    assert _stack_sizes(*configs) == [4] * 5 + [2, 2, 2, 1] + [4] * 5 + [1]
    reports = run_sweep(configs, threads)
    assert [report.config for report in reports] == configs
    for config, report in zip(configs, reports):
        alone = run_experiment(config, threads)
        assert report.sigma.tobytes() == alone.sigma.tobytes(), config.family
        assert summary_record(report) == summary_record(alone), config.family


def test_chunks_shrink_toward_the_end_of_the_map():
    # the sample configs' 150 trials form 38 stacks: 13 of cauchy's 50, then 5 per config
    configs = [load_config(path) for path in SAMPLE_CONFIGS]
    stacks = harness._stacks(configs)
    assert len(stacks) == 38
    chunks = harness._chunks(stacks, 2)
    assert [len(chunk) for chunk in chunks] == [10, 7, 6, 4, 3, 2, 2, 1, 1, 1, 1]
    assert [stack for chunk in chunks for stack in chunk] == stacks
    assert [len(chunk) for chunk in harness._chunks(stacks[:3], 4)] == [1, 1, 1]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("d, J", [(1, 12), (2, 6)])
def test_a_stack_of_seeds_synthesizes_each_seed_alone(d, J, threads):
    grid, symbol = GridSpec(d=d, J=J), FractionalLaplacian(1.5)
    seeds = [11, 12, 13]
    stack = synthesize_process(Laplace(), grid, symbol, seeds, threads=threads)
    assert stack.shape == (3,) + grid.shape
    alone = [synthesize_process(Laplace(), grid, symbol, seed) for seed in seeds]
    assert stack.tobytes() == np.array(alone).tobytes()


@pytest.mark.parametrize("operator", sorted(OPERATORS))
@pytest.mark.parametrize("d, J", [(1, 14), (1, 15), (2, 7)])
def test_a_stack_evaluates_its_operators_symbol_once(monkeypatch, d, J, operator):
    # a grid that stacks has its whole half spectrum in one block of
    # apply_inverse_operator, so the symbol's cost does not grow with the stack
    grid, symbol = GridSpec(d=d, J=J), OPERATORS[operator](1.5)
    assert 1 < harness._STACK_CELLS // grid.size
    evaluate, calls = type(symbol).evaluate, []

    def counted(self, *args):
        calls.append(args)
        return evaluate(self, *args)

    monkeypatch.setattr(type(symbol), "evaluate", counted)
    synthesize_process(Laplace(), grid, symbol, [11, 12, 13, 14])
    assert len(calls) == 1


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("d, J, k", [(1, 10, 1), (1, 12, 4), (1, 17, 2), (2, 6, 6), (2, 7, 4)])
def test_stage_calls_on_a_stack_equal_calls_on_each_row(d, J, k, threads):
    # d=1 J=17 has 2^17 magnitudes a row, which sigma_curve at threads=2 ranks in two parts
    spec, params = WaveletSpec(k=k), BesovParams(tau=0.5, p=1.0)
    fields = make_rng(J).standard_cauchy((3,) + (1 << J,) * d)
    stack = dwt_periodic(fields.copy(), spec, threads=threads, d=d)
    alone = [dwt_periodic(field.copy(), spec, threads=threads) for field in fields]
    assert stack.data.shape == (3, 1 << (J * d))
    assert stack.data.tobytes() == np.array([c.data for c in alone]).tobytes()
    for j, g, band in stack.bands():
        assert np.shares_memory(band, stack.data)
        assert band.tobytes() == np.array([c.levels[j][g] for c in alone]).tobytes()
    magnitudes = weighted_magnitudes(stack, params)
    assert magnitudes.tobytes() == np.array([weighted_magnitudes(c, params) for c in alone]).tobytes()
    n_grid = 2 ** np.arange(J * d + 1)
    curves = sigma_curve(stack, params, n_grid, threads=threads)
    assert curves.shape == (3, n_grid.size)
    assert curves.tobytes() == np.array([sigma_curve(c, params, n_grid) for c in alone]).tobytes()


def test_a_stack_must_be_told_its_grids_dimension():
    # an (m, n) stack of d=1 grids has the shape of one d=2 grid
    fields = make_rng(3).standard_normal((4, 64))
    assert dwt_periodic(fields, WaveletSpec(k=2), d=1).data.shape == (4, 64)
    with pytest.raises(ValueError, match="square"):
        dwt_periodic(fields, WaveletSpec(k=2))
