import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levywave import (
    ConfigError,
    FractionalLaplacian,
    Gaussian,
    GridSpec,
    Laplace,
    Matern,
    OPERATORS,
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
    return coeffs


def test_constant_field_has_zero_spectrum():
    grid = GridSpec(d=1, J=6)
    sf = forward_fft(np.full(grid.shape, 3.7), grid)
    assert np.abs(sf).max() == 0.0


def test_single_cosine_mode():
    grid = GridSpec(d=1, J=8)
    x = np.arange(grid.n) / grid.n
    sf = forward_fft(np.cos(2.0 * np.pi * x), grid)
    # the m = -1 partner is the conjugate of m = 1 and is not stored
    assert sf.shape == (grid.n // 2 + 1,)
    assert sf[1] == pytest.approx(0.5, abs=1e-12)
    rest = sf.copy()
    rest[1] = 0.0
    assert np.abs(rest).max() < 1e-12


def test_parseval_identity():
    grid = GridSpec(d=2, J=5)
    rng = make_rng(10)
    x = rng.normal(size=grid.shape)
    x -= x.mean()
    sf = forward_fft(x, grid)
    # last-axis bins other than 0 and n/2 stand for themselves and their conjugates
    weight = np.full(sf.shape[-1], 2.0)
    weight[[0, -1]] = 1.0
    lhs = float(np.sum(weight * np.abs(sf) ** 2))
    rhs = grid.cell_volume * float(np.sum(x**2))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_fft_round_trip():
    grid = GridSpec(d=2, J=5)
    rng = make_rng(11)
    x = rng.normal(size=grid.shape)
    x -= x.mean()
    back = inverse_fft(forward_fft(x, grid), grid)
    np.testing.assert_allclose(back, x, atol=1e-12 * np.abs(x).max())


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2]), J=st.integers(3, 9), threads=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_in_place_passes_equal_numpy_nd_transforms(d, J, threads, seed):
    # the leading-axis passes run in place, and every pass splits its rows or
    # columns across threads, yet every value is bit-for-bit rfftn's / irfftn's
    grid = GridSpec(d=d, J=J)
    axes = tuple(range(d))
    x = make_rng(seed).standard_cauchy(size=grid.shape)
    expected = np.fft.rfftn(x, axes=axes, norm="forward")
    expected[(0,) * d] = 0.0
    sf = forward_fft(x, grid, threads=threads)
    assert np.array_equal(sf, expected)
    back = np.fft.irfftn(sf.copy(), s=grid.shape, axes=axes, norm="forward")
    assert np.array_equal(inverse_fft(sf, grid, threads=threads), back)


@pytest.mark.parametrize("d", [1, 2])
def test_apply_inverse_operator_divides_in_place(d):
    # at d=2 J=9 the symbol is evaluated and divided in 3 row blocks, which
    # split across threads
    for J, threads in ((5, 1), (9, 1), (9, 3)):
        grid = GridSpec(d=d, J=J)
        sf = forward_fft(make_rng(5).normal(size=grid.shape), grid)
        lhat = Matern(1.5).evaluate(grid)
        expected = sf / lhat
        out = apply_inverse_operator(sf, Matern(1.5), grid, threads=threads)
        assert out is sf
        assert np.array_equal(out, expected)


def test_inverse_operator_single_mode_1d():
    grid = GridSpec(d=1, J=5)
    out = apply_inverse_operator(_delta_spectrum(grid, 1), FractionalLaplacian(1.0), grid)
    assert out[1] == pytest.approx(1.0, abs=1e-15)


def test_inverse_operator_single_mode_2d():
    grid = GridSpec(d=2, J=5)
    out = apply_inverse_operator(_delta_spectrum(grid, (3, 4)), FractionalLaplacian(2.0), grid)
    assert out[3, 4] == pytest.approx(1.0 / 25.0, abs=1e-15)


def test_forward_fft_rejects_a_field_off_the_grid():
    grid = GridSpec(d=1, J=5)
    with pytest.raises(ValueError, match="does not match grid"):
        forward_fft(np.zeros(grid.n // 2), grid)
    # leading axes hold a stack of fields, each of which must match the grid
    with pytest.raises(ValueError, match="does not match grid"):
        forward_fft(np.zeros((grid.n, grid.n // 2)), grid)
    with pytest.raises(ValueError, match="does not match grid"):
        forward_fft(np.zeros(grid.n), GridSpec(d=2, J=5))


def test_inverse_stages_reject_a_spectrum_off_the_grid():
    # (8, 5) is the half spectrum of a d=2 J=3 grid; a d=1 J=3 grid's has 5
    # bins, a stack of (16, 8) spectra misses one bin of each
    cases = [(GridSpec(d=2, J=4), (8, 5)), (GridSpec(d=1, J=4), (5,)),
             (GridSpec(d=2, J=4), (9,)), (GridSpec(d=2, J=4), (3, 16, 8))]
    for grid, shape in cases:
        with pytest.raises(ValueError, match="does not match grid"):
            inverse_fft(np.zeros(shape, dtype=complex), grid)
        with pytest.raises(ValueError, match="does not match grid"):
            apply_inverse_operator(np.zeros(shape, dtype=complex), Matern(1.0), grid)


@pytest.mark.parametrize("threads", [1, 2])
def test_spectral_stages_loop_over_any_dimension(threads):
    # configs admit d = 1 and 2 only, so a stand-in grid runs d = 3: each
    # leading axis is one more in-place pass and one more broadcast table
    grid = SimpleNamespace(d=3, J=3, n=8, shape=(8, 8, 8))
    x = make_rng(4).standard_cauchy(size=(2,) + grid.shape)
    axes = (1, 2, 3)
    expected = np.fft.rfftn(x, axes=axes, norm="forward")
    expected[:, 0, 0, 0] = 0.0
    sf = forward_fft(x, grid, threads=threads)
    assert np.array_equal(sf, expected)
    m = np.fft.fftfreq(8, d=1.0 / 8)
    m2 = m[:, None, None] ** 2 + m[None, :, None] ** 2 + np.arange(5.0)[None, None, :] ** 2
    lhat = FractionalLaplacian(1.5).evaluate(grid)
    assert np.array_equal(lhat, m2 ** 0.75)
    assert np.array_equal(Matern(1.5).evaluate(grid, slice(2, 5)), (m2[2:5] + 1.0) ** 0.75)
    lhat[0, 0, 0] = 1.0
    expected /= lhat
    expected[:, 0, 0, 0] = 0.0
    assert np.array_equal(apply_inverse_operator(sf, FractionalLaplacian(1.5), grid), expected)
    back = np.fft.irfftn(sf.copy(), s=grid.shape, axes=axes, norm="forward")
    assert np.array_equal(inverse_fft(sf, grid, threads=threads), back)


def test_forward_operator_examples():
    grid = GridSpec(d=2, J=4)
    # (1 + |(1, 0)|^2)^(2/2) = 2
    assert Matern(2.0).evaluate(grid)[1, 0] == pytest.approx(2.0, abs=1e-14)
    # |(3, 4)|^1 = 5
    assert FractionalLaplacian(1.0).evaluate(grid)[3, 4] == pytest.approx(5.0, abs=1e-14)

    grid1 = GridSpec(d=1, J=4)
    assert FractionalLaplacian(0.5).evaluate(grid1)[2] == pytest.approx(2.0**0.5, abs=1e-14)
    assert Matern(1.0).evaluate(grid1)[3] == pytest.approx(10.0**0.5, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(OPERATORS.values())),
    gamma=st.floats(min_value=0.0, max_value=8.0, exclude_min=True),
    d=st.sampled_from([1, 2]),
    J=st.integers(min_value=1, max_value=6),
)
def test_symbol_is_positive_off_the_zero_frequency(kind, gamma, d, J):
    # |m|^gamma >= 1 and (1 + |m|^2)^(gamma/2) >= 1 at every nonzero lattice
    # point, so the spectral solve never divides by zero
    grid = GridSpec(d=d, J=J)
    lhat = kind(gamma).evaluate(grid)
    off_dc = np.ones(lhat.shape, dtype=bool)
    off_dc[(0,) * d] = False
    assert np.all(lhat[off_dc] > 0.0)


@pytest.mark.parametrize("symbol", [FractionalLaplacian(1.3), Matern(0.8)], ids=repr)
def test_forward_inverse_identity(symbol):
    grid = GridSpec(d=1, J=8)
    rng = make_rng(12)
    x = rng.normal(size=grid.shape)
    x -= x.mean()
    sf = forward_fft(x, grid)
    back = apply_inverse_operator(sf.copy(), symbol, grid) * symbol.evaluate(grid)
    np.testing.assert_allclose(back, sf, atol=1e-12 * np.abs(sf).max())


def test_nyquist_frequency_uses_signed_representative():
    grid = GridSpec(d=2, J=3)
    lhat = FractionalLaplacian(2.0).evaluate(grid)
    # row N/2 is the frequency -N/2 = -4
    assert lhat[4, 0] == pytest.approx(16.0)
    assert lhat[4, 4] == pytest.approx(32.0)


@pytest.mark.parametrize("kind", list(OPERATORS.values()), ids=lambda kind: kind.__name__)
@pytest.mark.parametrize("d,J", [(1, 1), (1, 12), (2, 1), (2, 9)])
@pytest.mark.parametrize("gamma", [0.3, 1.5, 3.7])
def test_symbol_equals_its_integer_lattice_formula(kind, d, J, gamma):
    # the squared norms are integers, so any order of summation gives the same
    # floats and the symbol is exactly the power of their table
    n = 1 << J
    m2 = np.arange(n // 2 + 1) ** 2 + int(kind.shift)
    if d == 2:
        signed = np.concatenate([np.arange(n // 2), np.arange(-n // 2, 0)])
        m2 = signed[:, None] ** 2 + m2[None, :]
    expected = m2.astype(float) ** (gamma / 2.0)
    assert np.array_equal(kind(gamma).evaluate(GridSpec(d=d, J=J)), expected)


def test_symbol_allocates_little_beside_its_result():
    # at d = 1 no table of the absent leading axis is built
    tracemalloc.start()
    try:
        lhat = FractionalLaplacian(1.5).evaluate(GridSpec(d=1, J=20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * lhat.nbytes


def test_operator_orders_must_be_positive():
    with pytest.raises(ConfigError):
        FractionalLaplacian(0.0)
    with pytest.raises(ConfigError):
        Matern(-1.0)


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
        power += np.abs(forward_fft(field, grid)) ** 2
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
    noise = generate_noise(exponent, grid, seed)
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
    return back.real


@pytest.mark.parametrize(
    "symbol,d,J",
    [
        (FractionalLaplacian(1.3), 1, 10),
        (FractionalLaplacian(1.5), 2, 6),
        (Matern(0.8), 1, 10),
        (Matern(1.2), 2, 6),
    ],
    ids=repr,
)
def test_real_fft_solve_matches_complex_reference(symbol, d, J, monkeypatch):
    grid = GridSpec(d=d, J=J)
    for seed in (1, 2, 3):
        reference = _reference_synthesize(Laplace(), grid, symbol, seed, monkeypatch)
        field = synthesize_process(Laplace(), grid, symbol, seed)
        assert np.abs(field - reference).max() <= 1e-12 * np.abs(reference).max()
