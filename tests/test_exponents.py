import math
import sys
import threading
import time

import numpy as np
import pytest

from levywave import (
    CompoundPoisson,
    ConfigError,
    DiracJump,
    FAMILIES,
    Gaussian,
    GaussianJump,
    InverseGaussian,
    KappaPrediction,
    Laplace,
    SAlphaS,
    UniformJump,
    make_rng,
    theoretical_kappa,
)
from levywave.exponents import _in_parts

ALL_FAMILIES = [
    Gaussian(1.0),
    Gaussian(2.5),
    SAlphaS(0.6),
    SAlphaS(1.0),
    SAlphaS(1.5),
    CompoundPoisson(3.0, GaussianJump(1.0)),
    CompoundPoisson(1.0, UniformJump(-1.0, 2.0)),
    CompoundPoisson(2.0, DiracJump(0.7)),
    Laplace(),
    InverseGaussian(1.0, 1.0),
    InverseGaussian(0.5, 2.0),
]


def test_psi_gaussian_value():
    assert Gaussian(1.0).psi(1.0) == pytest.approx(-0.5, abs=1e-15)


def test_psi_cauchy_value():
    assert SAlphaS(1.0).psi(2.0) == pytest.approx(-2.0, abs=1e-15)


def test_psi_laplace_value():
    assert Laplace().psi(1.0) == pytest.approx(-math.log(2.0), abs=1e-15)


def test_psi_inverse_gaussian_principal_root():
    val = InverseGaussian(1.0, 1.0).psi(1.0)
    expected = 1.0 - complex(1.0, -2.0) ** 0.5  # principal sqrt of gamma^2 - 2i xi
    assert val == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("exponent", ALL_FAMILIES, ids=repr)
def test_psi_vanishes_at_origin(exponent):
    assert exponent.psi(0.0) == 0


@pytest.mark.parametrize("exponent", ALL_FAMILIES, ids=repr)
def test_psi_conjugation_symmetry(exponent):
    xi = np.linspace(-50.0, 50.0, 201)
    np.testing.assert_allclose(exponent.psi(-xi), np.conj(exponent.psi(xi)), atol=1e-12)


@pytest.mark.parametrize("exponent", ALL_FAMILIES, ids=repr)
def test_psi_real_part_nonpositive(exponent):
    xi = np.linspace(-100.0, 100.0, 4001)
    assert exponent.psi(xi).real.max() <= 1e-12


@pytest.mark.parametrize(
    "exponent,beta",
    [
        (Gaussian(1.0), 2.0),
        (SAlphaS(1.0), 1.0),
        (SAlphaS(0.3), 0.3),
        (CompoundPoisson(3.0, GaussianJump()), 0.0),
        (Laplace(), 0.0),
        (InverseGaussian(1.0, 1.0), 0.5),
    ],
)
def test_bg_indices_table(exponent, beta):
    idx = exponent.indices()
    assert idx.beta == beta
    assert idx.beta_prime == beta


@pytest.mark.parametrize("exponent", ALL_FAMILIES, ids=repr)
def test_bg_indices_ordering(exponent):
    idx = exponent.indices()
    assert 0.0 <= idx.beta_prime <= idx.beta <= 2.0


def test_all_families_holds_every_family():
    # then the tests over ALL_FAMILIES, the index ordering among them, cover a new family too
    assert {type(exponent) for exponent in ALL_FAMILIES} == set(FAMILIES.values())


def test_sas_growth_index_limits():
    # |psi(xi)| / |xi|^(alpha + eps) must fall and / |xi|^(alpha - eps) must grow
    alpha, eps = 1.3, 0.1
    exponent = SAlphaS(alpha)
    ks = np.arange(1, 31)
    xi = 2.0**ks
    mags = np.abs(exponent.psi(xi))
    upper = mags / xi ** (alpha + eps)
    lower = mags / xi ** (alpha - eps)
    assert np.all(np.diff(upper) < 0) and upper[-1] < 0.2
    assert np.all(np.diff(lower) > 0) and lower[-1] > 5.0


# ---------------------------------------------------------------------------
# parameter validation


@pytest.mark.parametrize(
    "make",
    [
        lambda: Gaussian(0.0),
        lambda: Gaussian(-1.0),
        lambda: SAlphaS(0.0),
        lambda: SAlphaS(2.0),
        lambda: SAlphaS(2.5),
        lambda: CompoundPoisson(0.0),
        lambda: CompoundPoisson(-2.0),
        lambda: InverseGaussian(0.0, 1.0),
        lambda: InverseGaussian(1.0, -1.0),
        lambda: GaussianJump(0.0),
        lambda: UniformJump(1.0, 1.0),
        lambda: UniformJump(2.0, -1.0),
        lambda: DiracJump(0.0),
        lambda: KappaPrediction("bogus"),
        lambda: KappaPrediction("bounds", lower=2.0, upper=1.0),
    ],
)
def test_invalid_parameters_rejected(make):
    with pytest.raises(ConfigError):
        make()


@pytest.mark.parametrize(
    "jumps",
    [GaussianJump(0.8), UniformJump(-1.0, 2.0), DiracJump(0.7)],
    ids=repr,
)
def test_jump_law_sampling_matches_char_fn(jumps):
    rng = make_rng(314159)
    draws = jumps.sample(rng, 2**15)
    for xi in (0.5, 1.0, 3.0):
        ecf = np.mean(np.exp(1j * xi * draws))
        assert abs(ecf - complex(jumps.char_fn(xi))) < 4.0 / math.sqrt(draws.size)


# ---------------------------------------------------------------------------
# kappa predictions


def test_kappa_gaussian_exact():
    pred = theoretical_kappa(Gaussian(1.0), gamma=1.0, d=1, p0=2.0, tau0=0.0)
    assert pred.kind == "exact"
    assert pred.value == pytest.approx(0.5)
    assert pred.condition_satisfied


def test_kappa_compound_poisson_infinite():
    pred = theoretical_kappa(CompoundPoisson(1.0), gamma=1.0, d=1, p0=2.0, tau0=0.0)
    assert pred.kind == "infinite"
    assert pred.sort_key() == math.inf


def test_kappa_cauchy_bounds():
    pred = theoretical_kappa(SAlphaS(1.0), gamma=1.0, d=1, p0=2.0, tau0=0.0)
    assert pred.kind == "bounds"
    assert pred.lower == pytest.approx(1.0)
    assert pred.upper == pytest.approx(1.0)


def test_kappa_condition_failure_carries_no_value():
    # gaussian condition gamma > tau0 + d/2 fails at gamma = 0.4
    pred = theoretical_kappa(Gaussian(1.0), gamma=0.4, d=1, p0=2.0, tau0=0.0)
    assert pred.kind is None
    assert not pred.condition_satisfied
    assert pred.value is None and pred.lower is None and pred.upper is None

    sparse = theoretical_kappa(SAlphaS(1.0), gamma=0.4, d=1, p0=2.0, tau0=0.0)
    assert sparse.kind is None and not sparse.condition_satisfied


def test_kappa_p0_infinite_convention():
    # 1/p0 = 0: sparse condition becomes gamma > tau0 + d
    pred = theoretical_kappa(SAlphaS(1.0), gamma=1.5, d=1, p0=math.inf, tau0=0.0)
    assert pred.kind == "bounds"
    assert pred.lower == pytest.approx(1.5)
    pred2 = theoretical_kappa(SAlphaS(1.0), gamma=0.9, d=1, p0=math.inf, tau0=0.0)
    assert not pred2.condition_satisfied


def test_kappa_invalid_arguments():
    with pytest.raises(ConfigError):
        theoretical_kappa(Gaussian(1.0), gamma=-1.0, d=1)
    with pytest.raises(ConfigError):
        theoretical_kappa(Gaussian(1.0), gamma=1.0, d=1, p0=0.0)


def test_kappa_monotone_in_beta():
    # smaller beta means a faster predicted rate, gaussian slowest of all
    gamma, d, p0, tau0 = 1.0, 1, 2.0, 0.0
    pairs = [(SAlphaS(0.5), SAlphaS(1.5)), (InverseGaussian(1.0, 1.0), SAlphaS(1.2))]
    for sparser, rougher in pairs:
        lo1 = theoretical_kappa(sparser, gamma, d, p0, tau0).lower
        lo2 = theoretical_kappa(rougher, gamma, d, p0, tau0).lower
        assert lo1 > lo2
    gauss = theoretical_kappa(Gaussian(1.0), gamma, d, p0, tau0).value
    for sparse in (SAlphaS(0.5), SAlphaS(1.9), InverseGaussian(1.0, 1.0)):
        assert theoretical_kappa(sparse, gamma, d, p0, tau0).lower > gauss


def _up(x):
    return float(np.nextafter(x, math.inf))


def _down(x):
    return float(np.nextafter(x, -math.inf))


# an admissible infinite prediction whose floor, (0.1 - 0.5) + 0.5, is not 0.1
SPARSE_FLOOR = theoretical_kappa(CompoundPoisson(1.0), gamma=0.1, d=1, p0=1.0)
EXACT = theoretical_kappa(Gaussian(1.0), gamma=1.0, d=1)  # 0.5
BOUNDS = KappaPrediction("bounds", lower=1.0, upper=1.5)
TOL = 0.125  # dyadic, so each edge is met exactly


@pytest.mark.parametrize(
    "prediction, median, verdict",
    [
        (EXACT, 0.5 + TOL, "pass"),
        (EXACT, 0.5 - TOL, "pass"),
        (EXACT, _up(0.5 + TOL), "fail"),
        (EXACT, _down(0.5 - TOL), "fail"),
        (BOUNDS, 1.0 - TOL, "pass"),
        (BOUNDS, 1.5 + TOL, "pass"),
        (BOUNDS, _down(1.0 - TOL), "fail"),
        (BOUNDS, _up(1.5 + TOL), "fail"),
        (theoretical_kappa(SAlphaS(0.5), gamma=1.0, d=1), 2.0 - TOL, "pass"),
        (theoretical_kappa(Laplace(), gamma=1.0, d=1), 1.0, "pass"),
        (theoretical_kappa(Laplace(), gamma=1.0, d=1), _down(1.0), "fail"),
        (SPARSE_FLOOR, 0.09999999999999998, "pass"),
        (SPARSE_FLOOR, _down(0.09999999999999998), "fail"),
        (theoretical_kappa(Gaussian(1.0), gamma=0.4, d=1), 0.5, "unchecked"),
        (theoretical_kappa(Gaussian(1.0), gamma=0.4, d=1), math.nan, "unchecked"),
    ],
)
def test_verdict_rule_at_its_edges(prediction, median, verdict):
    assert prediction.verdict(median, TOL) == verdict


@pytest.mark.parametrize(
    "prediction, describe, sort_key, record",
    [
        (EXACT, "exact 0.5", 0.5, {"kind": "exact", "condition_satisfied": True, "value": 0.5}),
        (BOUNDS, "bounds [1, 1.5]", 1.0,
         {"kind": "bounds", "condition_satisfied": True, "lower": 1.0, "upper": 1.5}),
        (SPARSE_FLOOR, "infinite (faster than any polynomial)", math.inf,
         {"kind": "infinite", "condition_satisfied": True}),
        (theoretical_kappa(Gaussian(1.0), gamma=0.4, d=1),
         "no prediction (admissibility condition not met)", math.nan,
         {"kind": None, "condition_satisfied": False}),
    ],
    ids=["exact", "bounds", "infinite", "none"],
)
def test_prediction_describe_sort_key_and_record(prediction, describe, sort_key, record):
    assert prediction.describe() == describe
    np.testing.assert_equal(prediction.sort_key(), sort_key)
    assert prediction.record() == record


def _call_in_parts(work, n, parts, ended):
    # _in_parts called from a daemon thread, with the interpreter switching
    # threads as often as it can; a part that never ends fails the test
    # instead of hanging it.  Returns the calling thread and, for what it
    # raised, the message and how many parts had ended by then
    before, raised = threading.enumerate(), []

    def call():
        try:
            _in_parts(work, n, parts)
        except RuntimeError as exc:
            raised.append((str(exc), len(ended)))

    caller = threading.Thread(target=call, daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller.start()
        caller.join(timeout=20)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive(), "a part never ends"
    assert threading.enumerate() == before
    return caller, raised


def test_in_parts_covers_the_range_once_and_raises_the_lowest_part():
    # 16 parts on more threads than cores: every index is worked on once,
    # part 0 on the calling thread and the others off it
    n, parts = 1000, 16
    edges = [n * i // parts for i in range(parts + 1)]
    seen, ran_on, ended = [], {}, []

    def work(lo, hi):
        ran_on[edges.index(lo)] = threading.current_thread()
        for i in range(lo, hi):
            seen.append(i)

    caller, raised = _call_in_parts(work, n, parts, ended)
    assert raised == []
    assert sorted(seen) == list(range(n))
    assert sorted(ran_on) == list(range(parts))
    assert ran_on[0] is caller
    assert caller not in [ran_on[part] for part in range(1, parts)]

    # part 7 raises at once and part 3 soon after, while the parts above 3
    # still run; part 3's exception reaches the caller, and only once every
    # part ended
    def failing_work(lo, hi):
        part = edges.index(lo)
        try:
            if part == 7:
                raise RuntimeError("part 7 failed")
            if part == 3:
                time.sleep(0.02)
                raise RuntimeError("part 3 failed")
            if part > 3:
                time.sleep(0.2)
            work(lo, hi)
        finally:
            ended.append(part)

    _, raised = _call_in_parts(failing_work, n, parts, ended)
    assert raised == [("part 3 failed", parts)]
