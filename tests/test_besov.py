import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levywave import (
    BesovParams,
    Gaussian,
    GridSpec,
    WaveletCoeffs,
    WaveletSpec,
    dwt_periodic,
    estimate_kappa,
    generate_noise,
    make_rng,
    sigma_curve,
    trial_seed,
    weighted_magnitudes,
)
from levywave import besov
from oracles import (best_n_term, empirical_regularity_scan, exhaustive_min_residual,
                     fsum_sigma_curve, zero_pyramid)


def _single(j, gender, index, value, d=1, zeta=0, j_max=4):
    coeffs = zero_pyramid(d=d, zeta=zeta, j_max=j_max)
    coeffs.levels[j][gender][index] = value
    return coeffs


def test_norm_single_coefficient_weighted():
    # weight 2^(j(tau - d/p)) = 2^(2 * 1/2) = 2
    coeffs = _single(2, 1, (1,), 1.0)
    params = BesovParams(tau=1.0, p=2.0)
    mags = weighted_magnitudes(coeffs, params)
    assert mags.max() == pytest.approx(2.0, abs=1e-14)
    assert np.count_nonzero(mags) == 1


def test_level_weights_use_the_coefficients_dimension():
    # d = 2: weight 2^(j(tau - d/p)) = 2^(2 * (1 - 2/2)) = 1, where d = 1 would give 2
    coeffs = _single(2, 3, (1, 1), 1.0, d=2, j_max=2)
    mags = weighted_magnitudes(coeffs, BesovParams(tau=1.0, p=2.0))
    assert mags.max() == 1.0
    assert np.count_nonzero(mags) == 1


@pytest.mark.parametrize("p", [math.inf, math.nan, 0.0])
def test_params_reject_non_finite_or_nonpositive_p(p):
    with pytest.raises(ValueError, match="p must be"):
        BesovParams(tau=0.0, p=p)


def test_best_n_term_weighted_magnitudes_oracle():
    # weighted magnitudes {3, 2, 1}; keeping the largest leaves sqrt(2^2 + 1^2)
    coeffs = zero_pyramid(d=1, zeta=0, j_max=2)
    coeffs.levels[0][1][0] = 3.0
    coeffs.levels[1][1][1] = 2.0
    coeffs.levels[2][1][0] = 1.0
    params = BesovParams(tau=0.5, p=2.0)  # weight 1 at every level
    kept, residual = best_n_term(coeffs, params, 1)
    assert kept == [(0, 1, (0,))]
    assert residual == pytest.approx(math.sqrt(5.0), abs=1e-14)


def test_best_n_term_edge_cases():
    rng = make_rng(4)
    coeffs = dwt_periodic(rng.normal(size=64), WaveletSpec(k=1))
    params = BesovParams(tau=0.0, p=2.0)
    _, full = best_n_term(coeffs, params, 0)
    expected = math.sqrt(float(np.sum(weighted_magnitudes(coeffs, params) ** 2)))
    assert full == pytest.approx(expected, rel=1e-12)
    kept, none_left = best_n_term(coeffs, params, coeffs.total_count())
    assert none_left == 0.0
    assert len(kept) == coeffs.total_count()
    with pytest.raises(ValueError):
        best_n_term(coeffs, params, -1)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_greedy_matches_exhaustive_search(p):
    # small containers, including tied integer magnitudes, exact equality
    rng = make_rng(int(p * 1000))
    for case in range(60):
        j_max = int(rng.integers(1, 4))
        coeffs = zero_pyramid(d=1, zeta=0, j_max=j_max)
        for _, _, arr in coeffs.bands():
            picks = rng.integers(0, 2, size=arr.shape).astype(bool)
            if case % 2 == 0:
                arr[picks] = rng.integers(0, 5, size=int(picks.sum())).astype(float)
            else:
                arr[picks] = rng.normal(size=int(picks.sum()))
        if coeffs.total_count() > 12:
            continue
        tau = 0.0 if case % 2 else 1.0  # weights 2^(-j) or 1 (both exact dyadics)
        params = BesovParams(tau=tau, p=p)
        mags = weighted_magnitudes(coeffs, params)
        n = int(rng.integers(0, mags.size + 1))
        _, greedy = best_n_term(coeffs, params, n)
        assert greedy == exhaustive_min_residual(mags, n, p)


def test_sigma_curve_monotone_and_exhausts():
    rng = make_rng(9)
    coeffs = dwt_periodic(rng.normal(size=128), WaveletSpec(k=2))
    params = BesovParams(tau=0.0, p=2.0)
    total = coeffs.total_count()
    sigma = sigma_curve(coeffs, params, np.arange(1, total + 1))
    assert np.all(np.diff(sigma) <= 0)
    assert sigma[-1] == 0.0


@pytest.mark.parametrize("n_grid", [[], [4, 4], [8, 4]], ids=["empty", "repeated", "descending"])
def test_sigma_curve_rejects_a_grid_that_does_not_ascend(n_grid):
    coeffs = zero_pyramid(d=1, zeta=0, j_max=3)
    with pytest.raises(ValueError, match="^n grid must be non-empty and strictly ascending$"):
        sigma_curve(coeffs, BesovParams(tau=0.5, p=2.0), n_grid)


def test_sigma_curve_rejects_a_negative_n():
    coeffs = zero_pyramid(d=1, zeta=0, j_max=3)
    with pytest.raises(ValueError, match=r"^n grid must be non-negative, got \[-1, 4\]$"):
        sigma_curve(coeffs, BesovParams(tau=0.5, p=2.0), [-1, 4])


@pytest.mark.parametrize("n_grid, shown", [([4.5, 8], r"\[4\.5, 8\.0\]"), ([4, 1e30], r"\[4\.0, 1e\+30\]"),
                                            ([1, float("nan")], r"\[1\.0, nan\]")])
def test_sigma_curve_rejects_an_n_that_is_not_an_integer(n_grid, shown):
    # 4.5 once came back as the n=4 error, and 1e30 raised OverflowError
    coeffs = zero_pyramid(d=1, zeta=0, j_max=3)
    with pytest.raises(ValueError, match=rf"^n grid must hold integers, got {shown}$"):
        sigma_curve(coeffs, BesovParams(tau=0.5, p=2.0), n_grid)


def test_sigma_curve_takes_integral_floats():
    coeffs = zero_pyramid(d=1, zeta=0, j_max=3)
    coeffs.data[:] = np.arange(16.0)
    params = BesovParams(tau=0.5, p=2.0)
    assert np.array_equal(sigma_curve(coeffs, params, [4.0, 8.0]), sigma_curve(coeffs, params, [4, 8]))


def _content(kind: str, size: int, rng) -> np.ndarray:
    values = rng.standard_cauchy(size)
    if kind == "ties":
        return np.round(values) / 2.0  # a few distinct values, zero among them
    if kind == "zeros":
        values[rng.random(size) < 0.5] = 0.0
    elif kind == "all zero":
        values[:] = 0.0
    elif kind == "non-finite":
        values[rng.integers(0, size, 8)] = [np.nan, np.inf, -np.inf, np.nan, 0.0, np.inf, 1.0, -0.0]
    return values


def _tail_bound(size: int, grid_size: int, p: float) -> float:
    """Largest relative distance of a finite sigma_curve value from
    fsum_sigma_curve's, for `size` values a row and a grid of `grid_size` n.

    numpy's pairwise sum of a segment of m values (np.add.reduceat adds its
    first value to the pairwise sum of the rest) takes each value through at
    most ceil(log2 m) + 18 roundings, and the running sum over the segments
    through at most grid_size - 1 more.  With D = ceil(log2 size) + 18 +
    grid_size, a tail sum of non-negative values is within D u of the exact
    one (u = 2^-53, Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 4), and the oracle's within 2u.  The p-th root scales that by 1/p;
    each side's pow adds less than an ulp, 2u, and one more u covers
    second-order terms.
    """
    u = np.finfo(float).eps / 2
    depth = math.ceil(math.log2(size)) + 18 + grid_size
    return ((depth + 2) / p + 5) * u


def _check_against_fsum(curve: np.ndarray, exact: np.ndarray, bound: float) -> None:
    # non-finite errors are the oracle's; finite ones lie within the bound of it
    finite = np.isfinite(exact)
    assert np.array_equal(curve[~finite], exact[~finite], equal_nan=True)
    assert np.all(np.abs(curve[finite] - exact[finite]) <= bound * exact[finite])


# 2^16 values make one magnitude piece, 2^17 two and 2^18 four, so threads
# 2-4 split the magnitude pass into different parts
@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from([(1, 16), (1, 17), (1, 18), (2, 8), (2, 9)]),
    p=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
    tau=st.floats(-1.0, 1.0),
    kind=st.sampled_from(["cauchy", "ties", "zeros", "all zero", "non-finite"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sigma_curve_is_bit_identical_at_any_thread_count(shape, p, tau, kind, seed):
    # the split magnitude pass and the one selection give the threads=1 curve
    # bit for bit, leave the coefficients as they were, and stay within the
    # bound of the exact tail sums
    d, J = shape
    coeffs = zero_pyramid(d=d, zeta=3, j_max=J - 4)
    coeffs.data[:] = _content(kind, coeffs.data.size, make_rng(seed))
    before = coeffs.data.tobytes()
    params = BesovParams(tau=tau, p=p)
    n_grid = np.concatenate([[0], 2 ** np.arange(J * d + 1)])
    curve = sigma_curve(coeffs, params, n_grid)
    for threads in (2, 3, 4):
        assert sigma_curve(coeffs, params, n_grid, threads=threads).tobytes() == curve.tobytes(), threads
    assert coeffs.data.tobytes() == before
    exact = fsum_sigma_curve(coeffs, params, n_grid)
    _check_against_fsum(curve, exact, _tail_bound(coeffs.data.size, n_grid.size, p))


def test_sigma_curve_is_near_the_exact_tail_sums_of_2_20_heavy_tailed_values():
    # 2^20 Cauchy values at p = 0.5 on the dyadic grid: within the bound, where
    # one running sum over all the sorted p-th powers strays past it
    coeffs = zero_pyramid(d=1, zeta=3, j_max=16)
    size = coeffs.data.size
    coeffs.data[:] = make_rng(20).standard_cauchy(size)
    params = BesovParams(tau=1.0, p=0.5)
    n_grid = np.concatenate([[0], 2 ** np.arange(21)])
    bound = _tail_bound(size, n_grid.size, params.p)
    exact = fsum_sigma_curve(coeffs, params, n_grid)
    _check_against_fsum(sigma_curve(coeffs, params, n_grid, threads=2), exact, bound)
    running = np.cumsum(np.sort(weighted_magnitudes(coeffs, params) ** params.p))
    inside = n_grid < size
    recursive = running[size - 1 - n_grid[inside]] ** (1.0 / params.p)
    assert np.max(np.abs(recursive - exact[inside]) / exact[inside]) > 2 * bound


@pytest.mark.parametrize("p", [0.5, 2.0])
@pytest.mark.parametrize("kind", ["cauchy", "ties", "non-finite"])
def test_sigma_curve_on_every_n_of_a_small_pyramid(kind, p):
    # a segment of one value between every two ranks: the running sum carries
    # the whole tail, and the errors never increase
    coeffs = zero_pyramid(d=2, zeta=1, j_max=3)
    coeffs.data[:] = _content(kind, coeffs.data.size, make_rng(7))
    params = BesovParams(tau=0.25, p=p)
    n_grid = np.arange(coeffs.data.size + 1)
    curve = sigma_curve(coeffs, params, n_grid)
    _check_against_fsum(curve, fsum_sigma_curve(coeffs, params, n_grid),
                        _tail_bound(coeffs.data.size, n_grid.size, p))
    finite = curve[np.isfinite(curve)]
    assert np.all(np.diff(finite) <= 0) and curve[-1] == 0.0


def _messages_raised_by_sigma_curve(threads):
    # on 2^18 values, four magnitude pieces; the call runs on a thread of its
    # own, so a part that never ends fails the test instead of hanging it, and
    # every thread is joined before it returns
    coeffs = zero_pyramid(d=1, zeta=0, j_max=17)
    coeffs.data[:] = make_rng(3).standard_normal(coeffs.data.size)
    before, raised = threading.enumerate(), []

    def call():
        try:
            sigma_curve(coeffs, BesovParams(tau=0.0, p=2.0), [1, 4], threads=threads)
        except FloatingPointError as exc:
            raised.append(str(exc))

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=20)
    assert not caller.is_alive(), "a part of sigma_curve never ends"
    assert threading.enumerate() == before
    return raised


@pytest.mark.parametrize("threads, failing", [(2, {0}), (3, {0}), (3, {1}), (3, {2}), (3, {1, 2})])
def test_a_failing_part_of_sigma_curve_releases_the_parts_above_it(monkeypatch, threads, failing):
    # a part of the magnitude pass that raises, on the calling thread or on
    # its own, still ends the call: the parts above it run to their end and
    # are joined, and the lowest failing part's exception reaches the caller
    starts = [4 * i // threads * besov._PIECE for i in range(threads)]  # each part's first piece
    weigh = besov._weigh

    def failing_weigh(out, coeffs, params, lo, hi, power=1.0):
        if starts.index(lo) in failing:
            raise FloatingPointError(f"part {starts.index(lo)} failed")
        weigh(out, coeffs, params, lo, hi, power)

    monkeypatch.setattr(besov, "_weigh", failing_weigh)
    assert _messages_raised_by_sigma_curve(threads) == [f"part {min(failing)} failed"]


@pytest.mark.parametrize("threads", [1, 3])
def test_a_failing_selection_of_sigma_curve_ends_the_call(fail_selection, threads):
    fail_selection()
    assert _messages_raised_by_sigma_curve(threads) == ["the selection failed"]


def test_sigma_curve_five_nonzeros():
    coeffs = zero_pyramid(d=1, zeta=0, j_max=3)
    coeffs.levels[3][1][:5] = [5.0, 4.0, 3.0, 2.0, 1.0]
    params = BesovParams(tau=0.5, p=2.0)
    sigma = sigma_curve(coeffs, params, np.arange(1, 9))
    assert np.all(sigma[4:] == 0.0)
    assert sigma[3] > 0


def test_sigma_curve_tail_sum_oracle():
    # magnitudes i^(-1) for i = 1..1024: sigma_n^2 = sum_{i>n} i^(-2)
    size = 1024
    coeffs = zero_pyramid(d=1, zeta=0, j_max=9)
    values = 1.0 / np.arange(1.0, size + 1.0)
    pos = 0
    for _, _, arr in coeffs.bands():
        arr.ravel()[:] = values[pos : pos + arr.size]
        pos += arr.size
    assert pos == size
    params = BesovParams(tau=0.5, p=2.0)  # unit weights
    n_grid = np.array([1, 2, 4, 10, 100, 500, 1000])
    sigma = sigma_curve(coeffs, params, n_grid)
    for n, value in zip(n_grid, sigma):
        oracle = math.sqrt(math.fsum(1.0 / i**2 for i in range(n + 1, size + 1)))
        assert value == pytest.approx(oracle, rel=np.finfo(float).eps)
    # tail sums of non-negative values, read from the top: never increasing
    assert np.all(np.diff(sigma) <= 0)


def test_estimate_kappa_pure_power_law():
    n = 2 ** np.arange(1, 12)
    kappa, stderr = estimate_kappa(n, n.astype(float) ** -2.0, (n[0], n[-1]))
    assert kappa == pytest.approx(2.0, abs=1e-10)
    assert stderr < 1e-10


def test_estimate_kappa_constant_curve():
    n = 2 ** np.arange(1, 10)
    kappa, _ = estimate_kappa(n, np.full(n.size, 0.7), (n[0], n[-1]))
    assert kappa == pytest.approx(0.0, abs=1e-12)


def test_estimate_kappa_perturbed_power_law():
    n = 2 ** np.arange(1, 12)
    wobble = 1.0 + 0.05 * (-1.0) ** np.arange(n.size)
    kappa, _ = estimate_kappa(n, wobble / n, (n[0], n[-1]))
    assert 0.9 <= kappa <= 1.1


def test_estimate_kappa_window_and_errors():
    n = 2 ** np.arange(1, 12)
    sigma = n.astype(float) ** -1.5
    kappa, _ = estimate_kappa(n, sigma, fit_range=(4, 256))
    assert kappa == pytest.approx(1.5, abs=1e-10)
    with pytest.raises(ValueError, match="at least 5"):
        estimate_kappa(n, sigma, fit_range=(4, 16))
    with pytest.raises(ValueError, match="inside fit range"):
        estimate_kappa(n, sigma, fit_range=(5000, 6000))


def test_estimate_kappa_all_zero_sentinel():
    n = np.array([1, 2, 4, 8, 16])
    kappa, _ = estimate_kappa(n, np.zeros(5), (n[0], n[-1]))
    assert math.isinf(kappa)


def test_estimate_kappa_scale_invariance():
    rng = make_rng(21)
    coeffs = dwt_periodic(rng.normal(size=2048), WaveletSpec(k=2))
    params = BesovParams(tau=0.0, p=2.0)
    grid_n = 2 ** np.arange(1, 11)
    scaled = WaveletCoeffs(d=coeffs.d, zeta=coeffs.zeta, data=37.5 * coeffs.data)
    kappa1, _ = estimate_kappa(grid_n, sigma_curve(coeffs, params, grid_n), (4, 512))
    kappa2, _ = estimate_kappa(grid_n, sigma_curve(scaled, params, grid_n), (4, 512))
    assert kappa2 == pytest.approx(kappa1, abs=1e-10)


def test_regularity_scan_decaying_levels():
    # one coefficient 2^(-j) per level: weighted level norm 2^(-3j/2)
    coeffs = zero_pyramid(d=1, zeta=0, j_max=6)
    for j in range(7):
        coeffs.levels[j][1][0] = 2.0**-j
    scores = empirical_regularity_scan(coeffs, [2.0], [0.0])
    assert scores[0, 0] == pytest.approx(-1.5, abs=1e-12)


def test_regularity_scan_growing_levels():
    coeffs = zero_pyramid(d=1, zeta=0, j_max=6)
    for j in range(7):
        coeffs.levels[j][1][0] = 2.0**j
    scores = empirical_regularity_scan(coeffs, [2.0], [0.0])
    assert scores[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_regularity_scan_depth_precondition():
    coeffs = zero_pyramid(d=1, zeta=0, j_max=3)
    with pytest.raises(ValueError, match="depth"):
        empirical_regularity_scan(coeffs, [2.0], [0.0])


def test_regularity_scan_gaussian_noise_criticality():
    # the score changes sign near tau = -1/2 for white gaussian noise
    taus = np.linspace(-1.0, 0.0, 21)
    spec = WaveletSpec(k=4)
    grid = GridSpec(d=1, J=11)
    rows = []
    for t in range(10):
        noise = generate_noise(Gaussian(1.0), grid, trial_seed(88, t))
        rows.append(empirical_regularity_scan(dwt_periodic(noise, spec), [2.0], taus)[0])
    med = np.median(rows, axis=0)
    crossing = np.interp(0.0, med, taus)  # med is increasing in tau
    assert abs(crossing - (-0.5)) <= 0.15


def test_rate_recovery_for_synthetic_space_member():
    # a sequence lying in the smoother space with 1/p1 = dtau/d + 1/p0 must
    # show a fitted decay exponent of at least dtau/d (minus tolerance)
    d, p0, tau0, dtau = 1, 2.0, 0.0, 0.75
    p1 = 1.0 / (dtau / d + 1.0 / p0)
    size_levels = 12
    coeffs = zero_pyramid(d=1, zeta=0, j_max=size_levels)
    total = coeffs.total_count()
    # weighted magnitudes i^(-(1+eps)/p1) lie strictly inside the space
    mags = np.arange(1.0, total + 1.0) ** (-1.01 / p1)
    pos = 0
    params0 = BesovParams(tau=tau0, p=p0)
    params1 = BesovParams(tau=tau0 + dtau, p=p1)
    for j, _, arr in coeffs.bands():
        arr.ravel()[:] = mags[pos : pos + arr.size] / params0.weight(j, d)
        pos += arr.size
    assert math.isfinite(float(np.sum(weighted_magnitudes(coeffs, params1) ** p1)))
    n_grid = 2 ** np.arange(2, size_levels)
    sigma = sigma_curve(coeffs, params0, n_grid)
    kappa, _ = estimate_kappa(n_grid, sigma, (16, 2 ** (size_levels - 2)))
    assert kappa >= dtau / d - 0.1
