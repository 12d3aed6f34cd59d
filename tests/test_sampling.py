import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import exp1

from levywave import (
    BesovParams,
    CompoundPoisson,
    ConfigError,
    DiracJump,
    Gaussian,
    GaussianJump,
    GridSpec,
    InverseGaussian,
    Laplace,
    SAlphaS,
    UniformJump,
    WaveletSpec,
    apply_inverse_operator,
    dwt_periodic,
    forward_fft,
    generate_noise,
    inverse_fft,
    make_rng,
    sigma_curve,
    trial_seed,
)
from levywave.spectral import FractionalLaplacian
from oracles import sas_sample_unblocked

FAMILIES = [
    Gaussian(1.0),
    SAlphaS(0.7),
    SAlphaS(1.0),
    SAlphaS(1.5),
    CompoundPoisson(1.0, GaussianJump(1.0)),
    CompoundPoisson(2.0, UniformJump(-1.0, 2.0)),
    Laplace(),
    InverseGaussian(1.0, 1.0),
]


def test_grid_spec_properties():
    grid = GridSpec(d=2, J=5)
    assert grid.n == 32
    assert grid.shape == (32, 32)
    assert grid.size == 1024
    assert grid.cell_volume == pytest.approx(2.0**-10)


def test_grid_memory_guard():
    with pytest.raises(ValueError, match="memory guard"):
        GridSpec(d=2, J=14)


def test_grid_invalid_parameters():
    with pytest.raises(ConfigError):
        GridSpec(d=3, J=4)
    with pytest.raises(ConfigError):
        GridSpec(d=1, J=0)


def test_compound_poisson_zero_fraction():
    # draws are exactly zero iff the cell saw no jumps: probability e^{-rate*h}
    rng = make_rng(7)
    h, m = 0.5, 40000
    draws = CompoundPoisson(1.0, GaussianJump(1.0)).sample(h, rng, m)
    frac = np.mean(draws == 0.0)
    p = math.exp(-h)
    assert abs(frac - p) <= 4.0 * math.sqrt(p * (1.0 - p) / m)


def test_gaussian_variance_scales_with_volume():
    rng = make_rng(8)
    h, m = 0.25, 50000
    draws = Gaussian(1.0).sample(h, rng, m)
    assert abs(np.var(draws) - h) <= 4.0 * h * math.sqrt(2.0 / m)


@pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5])
def test_sas_stability_property(alpha):
    # draws at volume h must match h^(1/alpha) times volume-1 draws in law
    rng = make_rng(hash(alpha) & 0xFFFF)
    h, m = 0.125, 2**13
    a = SAlphaS(alpha).sample(h, rng, m)
    b = h ** (1.0 / alpha) * SAlphaS(alpha).sample(1.0, rng, m)
    stat = stats.ks_2samp(a, b).statistic
    critical = 1.628 * math.sqrt((m + m) / (m * m))  # 1% level
    assert stat < critical


@pytest.mark.parametrize("exponent", FAMILIES, ids=repr)
def test_empirical_characteristic_function(exponent):
    grid = GridSpec(d=1, J=14)
    rng = make_rng(2718)
    h = grid.cell_volume
    draws = exponent.sample(h, rng, grid.size)
    for xi in (1.0, 2.0, 5.0):
        ecf = np.mean(np.exp(1j * xi * draws))
        target = np.exp(h * exponent.psi(xi))
        assert abs(ecf - target) <= 4.0 / math.sqrt(grid.size)


def test_generate_noise_deterministic():
    grid = GridSpec(d=1, J=10)
    a = generate_noise(SAlphaS(1.2), grid, 12345)
    b = generate_noise(SAlphaS(1.2), grid, 12345)
    assert np.array_equal(a, b)
    c = generate_noise(SAlphaS(1.2), grid, 12346)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("exponent", FAMILIES, ids=repr)
def test_generate_noise_zero_mean(exponent):
    grid = GridSpec(d=1, J=12)
    field = generate_noise(exponent, grid, 99)
    scale = field.std()
    assert abs(field.mean()) <= 1e-12 * max(scale, 1e-30)
    assert abs(field.sum() * grid.cell_volume) <= 1e-9 * max(scale, 1e-30)


def test_generate_noise_2d_shape():
    grid = GridSpec(d=2, J=5)
    field = generate_noise(Laplace(), grid, 5)
    assert field.shape == (32, 32)


def test_white_noise_variance_scaling():
    # cell-average variance doubles per refinement level in d = 1
    trials = 20
    var_by_level = {}
    for J in (8, 9):
        grid = GridSpec(d=1, J=J)
        values = [
            generate_noise(Gaussian(1.0), grid, trial_seed(404, 100 * J + t)).var()
            for t in range(trials)
        ]
        var_by_level[J] = np.mean(values)
    ratio = var_by_level[9] / var_by_level[8]
    assert abs(ratio - 2.0) <= 0.2


def test_compound_poisson_total_jump_count_is_poisson():
    # with unit jumps the increments count the jumps; totals follow Poisson(rate)
    rng = make_rng(606)
    grid = GridSpec(d=1, J=7)
    exponent = CompoundPoisson(1.0, DiracJump(1.0))
    trials = 2000
    draws = exponent.sample(grid.cell_volume, rng, (trials, grid.size))
    totals = draws.sum(axis=1)
    edges = [0, 1, 2, 3]
    observed = np.array(
        [np.sum(totals == 0), np.sum(totals == 1), np.sum(totals == 2), np.sum(totals >= 3)]
    )
    pmf = [math.exp(-1.0), math.exp(-1.0), math.exp(-1.0) / 2.0]
    probs = np.array(pmf + [1.0 - sum(pmf)])
    expected = trials * probs
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2 < stats.chi2.ppf(0.99, df=len(edges) - 1)


def test_laplace_tail_counts_match_levy_measure():
    # For small h the increments are single jumps of the Levy measure
    # e^{-|x|}/|x|, so P(|X| > t) = 2 h E1(t) to first order in h.  At the
    # criterion-6 cell volume the ECF differs from 1 by about 1e-4, below the
    # ECF tests' 4/sqrt(M) noise, so the jump counts check what they cannot.
    rng = make_rng(0)
    h, m = 2.0**-14, 2**20
    draws = Laplace().sample(h, rng, m)
    # t = 1e-12 checks that the program keeps the small jumps down to there
    for t in (1e-12, 0.01, 0.1, 1.0):
        expected = 2.0 * m * h * exp1(t)
        above, below = np.count_nonzero(draws > t), np.count_nonzero(draws < -t)
        observed = above + below
        assert abs(observed - expected) <= 4.0 * math.sqrt(expected), (t, observed, expected)
        # the measure is symmetric, so each sign holds half the jumps
        assert abs(above - below) <= 4.0 * math.sqrt(observed), (t, above, below)


def _gamma_difference_increments(h, rng, size):
    """Laplace increments as the difference of two Gamma(h) draws, whose
    characteristic function (1 + xi^2)^(-h) is exact: an oracle that shares
    no code with the program's Levy-Ito jump sampler."""
    out = rng.gamma(h, 1.0, size)
    out -= rng.gamma(h, 1.0, size)
    return out


def test_laplace_sigma_law_matches_gamma_difference_sampler():
    # Criterion 6's laplace errors at d=1, J=14 must come out the same for the
    # program's jump sampler (jumps above 1e-15 only) and for the exact
    # gamma-difference law: same solve, DWT and n-term selection, two-sample
    # KS at n = 64 and n = 256.
    grid = GridSpec(d=1, J=14)
    h = grid.cell_volume
    params = BesovParams(tau=0.0, p=2.0)
    spec, symbol = WaveletSpec(k=4), FractionalLaplacian(1.0)
    n_values = np.array([64, 256])

    def sigmas(raw):
        values = raw / h
        spectrum = forward_fft(values - values.mean(), grid)
        field = inverse_fft(apply_inverse_operator(spectrum, symbol, grid), grid)
        return sigma_curve(dwt_periodic(field, spec), params, n_values)

    trials = 200
    rng_program, rng_gamma = make_rng(61), make_rng(62)
    program = np.array([sigmas(Laplace().sample(h, rng_program, grid.n)) for _ in range(trials)])
    gamma = np.array(
        [sigmas(_gamma_difference_increments(h, rng_gamma, grid.n)) for _ in range(trials)]
    )
    for column, n in enumerate(n_values):
        a, b = program[:, column], gamma[:, column]
        pvalue = stats.ks_2samp(a, b).pvalue
        assert pvalue > 0.01, (n, pvalue, np.median(a), np.median(b))


@settings(max_examples=60, deadline=None)
@given(
    shape=st.one_of(
        st.tuples(st.integers(1, 256)), st.tuples(st.integers(1, 16), st.integers(1, 16))
    ),
    volume=st.floats(min_value=1e-6, max_value=1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_jump_path_is_shape_blind_and_counts_unit_jumps(shape, volume, seed):
    # the jumps are binned into the flattened cells, so a 2-d field is the
    # 1-d field of the same draws reshaped; unit jumps make every cell a count
    size = math.prod(shape)
    unit = CompoundPoisson(2.0, DiracJump(1.0))
    for exponent in (Laplace(), unit):
        field = exponent.sample(volume, make_rng(seed), shape)
        flat = exponent.sample(volume, make_rng(seed), (size,))
        assert np.array_equal(field, flat.reshape(shape))
    counts = unit.sample(volume, make_rng(seed), shape)
    assert counts.sum() == math.floor(counts.sum())
    assert np.all(counts >= 0.0) and np.array_equal(counts, np.floor(counts))


def test_inverse_gaussian_moments():
    # mean delta*h/gamma and variance delta*h/gamma^3 for the subordinator marginal
    rng = make_rng(909)
    delta, g, h, m = 1.5, 2.0, 0.8, 200000
    draws = InverseGaussian(delta, g).sample(h, rng, m)
    assert np.all(draws > 0)
    mu = delta * h / g
    var = delta * h / g**3
    assert abs(draws.mean() - mu) <= 5.0 * math.sqrt(var / m)
    assert abs(draws.var() - var) <= 0.05 * var


def test_trial_seed_derivation():
    assert trial_seed(123, 0) == trial_seed(123, 0)
    seeds = {trial_seed(123, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert trial_seed(123, 7) != trial_seed(124, 7)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5])
@pytest.mark.parametrize("size", [2**10, 2**14, 2**17, (2**7, 2**7)], ids=str)
def test_blocked_sas_sampler_matches_the_unblocked_formula(alpha, size):
    # all of u is drawn first, then w block by block: the stream of one whole-field draw
    volume = 2.0**-10
    got = SAlphaS(alpha).sample(volume, make_rng(99), size)
    want = sas_sample_unblocked(alpha, volume, make_rng(99), size)
    assert got.shape == want.shape == ((size,) if isinstance(size, int) else size)
    assert got.tobytes() == want.tobytes()
