import numpy as np
import pytest

from levywave import (
    AdmissibilityError,
    Derivative1d,
    FractionalLaplacian,
    Gaussian,
    GridSpec,
    Laplace,
    Matern,
    ParameterError,
    SpectralField,
    apply_forward_operator,
    apply_inverse_operator,
    forward_fft,
    inverse_fft,
    make_rng,
    generate_noise,
    synthesize_process,
    trial_seed,
)
from levywave import spectral


def _half_shape(grid):
    # rfftn layout: the last axis keeps the frequencies 0 .. n/2
    return grid.shape[:-1] + (grid.n // 2 + 1,)


def _delta_spectrum(grid, index):
    coeffs = np.zeros(_half_shape(grid), dtype=complex)
    coeffs[index] = 1.0
    return SpectralField(grid=grid, coeffs=coeffs)


def test_constant_field_has_zero_spectrum():
    grid = GridSpec(d=1, J=6)
    sf = forward_fft(np.full(grid.shape, 3.7), grid)
    assert np.abs(sf.coeffs).max() == 0.0


def test_single_cosine_mode():
    grid = GridSpec(d=1, J=8)
    x = np.arange(grid.n) / grid.n
    sf = forward_fft(np.cos(2.0 * np.pi * x), grid)
    # the m = -1 partner is the conjugate of m = 1 and is not stored
    assert sf.coeffs.shape == (grid.n // 2 + 1,)
    assert sf.coeffs[1] == pytest.approx(0.5, abs=1e-12)
    rest = sf.coeffs.copy()
    rest[1] = 0.0
    assert np.abs(rest).max() < 1e-12


def test_parseval_identity():
    grid = GridSpec(d=2, J=5)
    rng = make_rng(10)
    x = rng.normal(size=grid.shape)
    x -= x.mean()
    sf = forward_fft(x, grid)
    # last-axis bins other than 0 and n/2 stand for themselves and their conjugates
    weight = np.full(sf.coeffs.shape[-1], 2.0)
    weight[[0, -1]] = 1.0
    lhs = float(np.sum(weight * np.abs(sf.coeffs) ** 2))
    rhs = grid.cell_volume * float(np.sum(x**2))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_fft_round_trip():
    grid = GridSpec(d=2, J=5)
    rng = make_rng(11)
    x = rng.normal(size=grid.shape)
    x -= x.mean()
    back = inverse_fft(forward_fft(x, grid))
    np.testing.assert_allclose(back, x, atol=1e-12 * np.abs(x).max())


def test_inverse_operator_single_mode_1d():
    grid = GridSpec(d=1, J=5)
    out = apply_inverse_operator(_delta_spectrum(grid, 1), FractionalLaplacian(1.0))
    assert out.coeffs[1] == pytest.approx(1.0, abs=1e-15)


def test_inverse_operator_single_mode_2d():
    grid = GridSpec(d=2, J=5)
    out = apply_inverse_operator(_delta_spectrum(grid, (3, 4)), FractionalLaplacian(2.0))
    assert out.coeffs[3, 4] == pytest.approx(1.0 / 25.0, abs=1e-15)


def test_forward_operator_examples():
    grid = GridSpec(d=2, J=4)
    out = apply_forward_operator(_delta_spectrum(grid, (1, 0)), Matern(2.0))
    assert out.coeffs[1, 0] == pytest.approx(2.0, abs=1e-14)

    grid1 = GridSpec(d=1, J=4)
    out1 = apply_forward_operator(_delta_spectrum(grid1, 2), FractionalLaplacian(0.5))
    assert out1.coeffs[2] == pytest.approx(2.0**0.5, abs=1e-14)

    zero = SpectralField(grid1, np.zeros(_half_shape(grid1), dtype=complex))
    assert np.abs(apply_forward_operator(zero, Matern(1.0)).coeffs).max() == 0.0


@pytest.mark.parametrize("symbol", [FractionalLaplacian(1.3), Matern(0.8)], ids=repr)
def test_forward_inverse_identity(symbol):
    grid = GridSpec(d=1, J=8)
    rng = make_rng(12)
    x = rng.normal(size=grid.shape)
    x -= x.mean()
    sf = forward_fft(x, grid)
    back = apply_forward_operator(apply_inverse_operator(sf, symbol), symbol)
    np.testing.assert_allclose(back.coeffs, sf.coeffs, atol=1e-12 * np.abs(sf.coeffs).max())


def test_nyquist_frequency_uses_signed_representative():
    grid = GridSpec(d=2, J=3)
    lhat = FractionalLaplacian(2.0).evaluate(grid)
    # row N/2 is the frequency -N/2 = -4
    assert lhat[4, 0] == pytest.approx(16.0)
    assert lhat[4, 4] == pytest.approx(32.0)


def test_derivative_symbol_values():
    grid = GridSpec(d=1, J=4)
    lhat = Derivative1d(order=1).evaluate(grid)
    assert lhat[1] == pytest.approx(2j * np.pi, abs=1e-14)
    # m = -1 is not stored (it is the conjugate of m = 1); the last stored
    # bin is the Nyquist frequency, taken as +n/2
    assert lhat[-1] == pytest.approx(2j * np.pi * (grid.n // 2), abs=1e-14)
    lhat2 = Derivative1d(order=2, lower_coeffs=(1.0,)).evaluate(grid)
    assert lhat2[2] == pytest.approx(1.0 - 16.0 * np.pi**2, abs=1e-10)


def test_derivative_vanishing_symbol_is_refused():
    # order-2 symbol with root exactly at m = +-1
    grid = GridSpec(d=1, J=4)
    symbol = Derivative1d(order=2, lower_coeffs=(4.0 * np.pi**2,))
    sf = _delta_spectrum(grid, 2)
    with pytest.raises(AdmissibilityError, match="m="):
        apply_inverse_operator(sf, symbol)


def test_derivative_requires_one_dimension():
    grid = GridSpec(d=2, J=3)
    with pytest.raises(ParameterError):
        Derivative1d(order=1).evaluate(grid)


def test_derivative_process_is_real():
    grid = GridSpec(d=1, J=7)
    field = synthesize_process(Gaussian(1.0), grid, Derivative1d(order=1, lower_coeffs=(1.0,)), 5)
    assert field.dtype == float
    assert field.shape == grid.shape


def test_operator_orders_must_be_positive():
    with pytest.raises(ParameterError):
        FractionalLaplacian(0.0)
    with pytest.raises(ParameterError):
        Matern(-1.0)
    with pytest.raises(ParameterError):
        Derivative1d(order=0)


def test_synthesize_deterministic_and_zero_mean():
    grid = GridSpec(d=1, J=10)
    sym = FractionalLaplacian(1.0)
    a = synthesize_process(Gaussian(1.0), grid, sym, 2023)
    b = synthesize_process(Gaussian(1.0), grid, sym, 2023)
    np.testing.assert_array_equal(a, b)
    assert abs(a.mean()) <= 1e-12 * a.std()


def test_synthesize_2d():
    grid = GridSpec(d=2, J=5)
    field = synthesize_process(Gaussian(1.0), grid, FractionalLaplacian(1.5), 77)
    assert field.shape == grid.shape
    assert abs(field.mean()) <= 1e-12 * field.std()


@pytest.mark.parametrize("gamma", [0.75, 1.0, 1.5])
def test_gaussian_process_spectral_slope(gamma):
    # mean power spectrum of the solved field follows |m|^(-2 gamma)
    grid = GridSpec(d=1, J=10)
    sym = FractionalLaplacian(gamma)
    power = np.zeros(grid.n // 2 + 1)  # half spectrum, m = 0 .. n/2
    trials = 30
    for t in range(trials):
        field = synthesize_process(Gaussian(1.0), grid, sym, trial_seed(55, t))
        power += np.abs(forward_fft(field, grid).coeffs) ** 2
    power /= trials
    m = np.arange(1, grid.n // 2)
    sel = (m >= 2) & (m <= grid.n // 8)
    slope = np.polyfit(np.log(m[sel].astype(float)), np.log(power[1 : grid.n // 2][sel]), 1)[0]
    assert abs(slope - (-2.0 * gamma)) < 0.1


def _full_lattice(grid):
    m = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    return (m,) * grid.d


def _reference_synthesize(exponent, grid, symbol, seed, monkeypatch):
    # the earlier complex solve: full fftn spectrum, division by the symbol on
    # the full lattice, self-conjugate bins set to their real part, ifftn
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "frequency_lattice", _full_lattice)
        lhat = symbol.evaluate(grid)
    noise = generate_noise(exponent, grid, seed).values
    coeffs = np.fft.fftn(noise, axes=tuple(range(grid.d))) / grid.size
    dc = (0,) * grid.d
    lhat[dc] = 1.0
    out = coeffs / lhat
    out[dc] = 0.0
    half = grid.n // 2
    for index in np.ndindex((2,) * grid.d):
        bin_ = tuple(half * i for i in index)
        out[bin_] = out[bin_].real
    back = np.fft.ifftn(out, axes=tuple(range(grid.d))) * grid.size
    return back.real, lhat


@pytest.mark.parametrize(
    "symbol,d,J",
    [
        (FractionalLaplacian(1.3), 1, 10),
        (FractionalLaplacian(1.5), 2, 6),
        (Matern(0.8), 1, 10),
        (Matern(1.2), 2, 6),
        (Derivative1d(order=1, lower_coeffs=(1.0,)), 1, 10),
    ],
    ids=repr,
)
def test_real_fft_solve_matches_complex_reference(symbol, d, J, monkeypatch):
    grid = GridSpec(d=d, J=J)
    for seed in (1, 2, 3):
        reference, lhat = _reference_synthesize(Laplace(), grid, symbol, seed, monkeypatch)
        if isinstance(symbol, Derivative1d):
            assert lhat[grid.n // 2].imag != 0.0  # the Nyquist bin takes its real part
        field = synthesize_process(Laplace(), grid, symbol, seed)
        assert np.abs(field - reference).max() <= 1e-12 * np.abs(reference).max()
