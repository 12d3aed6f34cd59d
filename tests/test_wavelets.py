import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levywave import (
    BesovParams,
    WaveletCoeffs,
    WaveletSpec,
    best_n_term,
    daubechies_lowpass,
    dwt_periodic,
    idwt_periodic,
    make_rng,
    quadrature_mirror_highpass,
    weighted_magnitudes,
)
from levywave import wavelets

DB4_PUBLISHED = np.array([
    0.230377813308896, 0.714846570552915, 0.630880767929859, -0.027983769416859,
    -0.187034811719093, 0.030841381835560, 0.032883011666885, -0.010597401785069,
])


def test_haar_filter():
    np.testing.assert_allclose(daubechies_lowpass(1), [1 / math.sqrt(2)] * 2, atol=1e-15)


def test_db2_closed_form():
    s3 = math.sqrt(3.0)
    s2 = 4.0 * math.sqrt(2.0)
    expected = np.array([(1 + s3) / s2, (3 + s3) / s2, (3 - s3) / s2, (1 - s3) / s2])
    np.testing.assert_allclose(daubechies_lowpass(2), expected, atol=1e-14)


def test_db4_published_values():
    np.testing.assert_allclose(daubechies_lowpass(4), DB4_PUBLISHED, atol=1e-12)


@pytest.mark.parametrize("k", range(1, 9))
def test_quadrature_mirror_identities(k):
    h = daubechies_lowpass(k)
    g = quadrature_mirror_highpass(h)
    assert h.size == 2 * k
    assert abs(h.sum() - math.sqrt(2.0)) < 1e-12
    assert abs(g.sum()) < 1e-12
    assert abs(np.dot(h, h) - 1.0) < 1e-12
    assert abs(np.dot(g, g) - 1.0) < 1e-12
    for t in range(1, k):
        assert abs(np.dot(h[: -2 * t], h[2 * t :])) < 1e-12
        assert abs(np.dot(g[: -2 * t], g[2 * t :])) < 1e-12
    for t in range(-k + 1, k):
        lo = max(0, 2 * t)
        hi = min(2 * k, 2 * k + 2 * t)
        assert abs(sum(h[i] * g[i - 2 * t] for i in range(lo, hi))) < 1e-12


@pytest.mark.parametrize("k,zeta", [(1, 0), (2, 2), (3, 3), (4, 3), (5, 4), (8, 4)])
def test_base_shift(k, zeta):
    spec = WaveletSpec(k=k)
    assert spec.zeta == zeta
    assert 2**zeta >= 2 * k - 1
    assert zeta == 0 or 2 ** (zeta - 1) < 2 * k - 1


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("d,J", [(1, 8), (2, 6)])
def test_perfect_reconstruction(k, d, J):
    spec = WaveletSpec(k=k)
    rng = make_rng(17 * k + d + J)
    x = rng.normal(size=(2**J,) * d)
    coeffs = dwt_periodic(x, spec)
    back = idwt_periodic(coeffs, spec)
    assert np.abs(back - x).max() <= 1e-10 * np.abs(x).max()


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("d,J", [(1, 8), (2, 5)])
def test_parseval(k, d, J):
    # stored values relate to orthonormal-basis coefficients by 2^((j+zeta)d/2)
    spec = WaveletSpec(k=k)
    rng = make_rng(23 * k + d)
    x = rng.normal(size=(2**J,) * d)
    x -= x.mean()
    coeffs = dwt_periodic(x, spec)
    energy = sum(
        float(np.sum((arr / 2.0 ** ((j + coeffs.zeta) * d / 2.0)) ** 2))
        for j, bands in coeffs.levels.items()
        for arr in bands.values()
    )
    target = float(np.sum(x**2)) * 2.0 ** (-J * d)
    assert abs(energy - target) <= 1e-10 * target


def test_zero_field_gives_zero_coefficients():
    coeffs = dwt_periodic(np.zeros(64), WaveletSpec(k=2))
    assert all(
        np.abs(arr).max() == 0.0 for bands in coeffs.levels.values() for arr in bands.values()
    )


@pytest.mark.parametrize("d", [1, 2])
def test_unit_coefficient_is_orthonormal_basis_function(d):
    # synthesizing lambda = 1 gives 2^(-(j+zeta)d/2) Psi; analysis recovers it
    spec = WaveletSpec(k=4)
    J = 8 if d == 1 else 6
    base = dwt_periodic(np.zeros((2**J,) * d), spec)
    j, gender = 2, 1
    index = (3,) * d
    base.levels[j][gender][index] = 1.0
    f = idwt_periodic(base, spec)
    norm = math.sqrt(float(np.sum(f**2)) * 2.0 ** (-J * d))
    assert norm * 2.0 ** ((j + spec.zeta) * d / 2.0) == pytest.approx(1.0, abs=1e-10)
    again = dwt_periodic(f, spec)
    for lvl, bands in again.levels.items():
        for gen, arr in bands.items():
            expected = np.zeros_like(arr)
            if (lvl, gen) == (j, gender):
                expected[index] = 1.0
            assert np.abs(arr - expected).max() <= 1e-10


def test_coarse_scaling_coefficient_unit_norm():
    spec = WaveletSpec(k=2)
    base = dwt_periodic(np.zeros(128), spec)
    j0 = base.j_coarse
    base.levels[j0][0][0] = 1.0
    f = idwt_periodic(base, spec)
    norm = math.sqrt(float(np.sum(f**2)) / 128.0)
    assert norm * 2.0 ** ((j0 + spec.zeta) / 2.0) == pytest.approx(1.0, abs=1e-10)


def test_idwt_linearity():
    spec = WaveletSpec(k=2)
    rng = make_rng(31)
    c1 = dwt_periodic(rng.normal(size=64), spec)
    c2 = dwt_periodic(rng.normal(size=64), spec)
    combo = WaveletCoeffs(d=1, zeta=c1.zeta, j_coarse=c1.j_coarse, data=2.5 * c1.data + c2.data)
    lhs = idwt_periodic(combo, spec)
    rhs = 2.5 * idwt_periodic(c1, spec) + idwt_periodic(c2, spec)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_full_decomposition_counts_1d():
    # Haar on 8 samples: 1+1 at the coarsest level, then 2 and 4 details
    coeffs = dwt_periodic(np.arange(8.0), WaveletSpec(k=1))
    assert coeffs.total_count() == 8
    layout = {j: {g: arr.size for g, arr in bands.items()} for j, bands in coeffs.levels.items()}
    assert layout == {0: {0: 1, 1: 1}, 1: {1: 2}, 2: {1: 4}}


def test_single_level_counts_2d():
    coeffs = dwt_periodic(np.arange(16.0).reshape(4, 4), WaveletSpec(k=1), levels=1)
    sizes = {g: arr.size for g, arr in coeffs.levels[coeffs.j_coarse].items()}
    assert sizes == {0: 4, 1: 4, 2: 4, 3: 4}
    scaling = sum(arr.size for g, arr in coeffs.levels[coeffs.j_coarse].items() if g == 0)
    detail = coeffs.total_count() - scaling
    assert (scaling, detail) == (4, 12)


def test_gender_cardinalities_2d():
    coeffs = dwt_periodic(make_rng(5).normal(size=(64, 64)), WaveletSpec(k=2))
    for j in sorted(coeffs.levels):
        bands = coeffs.levels[j]
        if j == coeffs.j_coarse:
            assert sorted(bands) == [0, 1, 2, 3]
        else:
            assert sorted(bands) == [1, 2, 3]
        for arr in bands.values():
            assert arr.shape == (2 ** (j + coeffs.zeta),) * 2


def test_coeff_iter_order_and_stability():
    # bands() fixes the canonical coefficient order: levels ascend, then genders
    coeffs = dwt_periodic(make_rng(6).normal(size=(16, 16)), WaveletSpec(k=1))
    bands = coeffs.bands()
    assert [(j, g) for j, g, _ in bands] == [
        (0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3),
        (3, 1), (3, 2), (3, 3),
    ]
    assert all(arr is coeffs.levels[j][g] for j, g, arr in bands)
    assert [(j, g) for j, g, _ in coeffs.bands()] == [(j, g) for j, g, _ in bands]
    assert sum(arr.size for _, _, arr in bands) == coeffs.total_count() == 256


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 4),
    d=st.sampled_from([1, 2]),
    extra=st.integers(0, 2),
    partial=st.booleans(),
    tau=st.sampled_from([0.0, 0.5, 1.5]),
    p=st.sampled_from([1.0, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_buffer_layout(k, d, extra, partial, tau, p, seed):
    spec = WaveletSpec(k=k)
    J = spec.zeta + 1 + extra
    steps = J - spec.zeta
    if partial:
        steps = 1 + seed % steps
    coeffs = dwt_periodic(make_rng(seed).standard_cauchy(size=(2**J,) * d), spec, levels=steps)
    data = coeffs.data
    assert data.shape == (2 ** (J * d),)
    bands = coeffs.bands()
    assert all(np.shares_memory(arr, data) for _, _, arr in bands)
    np.testing.assert_array_equal(np.concatenate([arr.ravel() for _, _, arr in bands]), data)

    params = BesovParams(tau=tau, p=p, q=p, d=d)
    mags = weighted_magnitudes(coeffs, params)
    per_band = [params.weight(j) * np.abs(arr).ravel() for j, _, arr in bands]
    np.testing.assert_array_equal(mags, np.concatenate(per_band))

    n = seed % (data.size + 1)
    kept, _ = best_n_term(coeffs, params, n)
    assert len(set(kept)) == len(kept) == n
    chosen = [params.weight(j) * abs(coeffs.levels[j][g][m]) for j, g, m in kept]
    np.testing.assert_array_equal(np.sort(chosen), np.sort(mags)[data.size - n:])

    scaling_only = np.zeros(coeffs.levels[coeffs.j_coarse][0].size)
    wrong = [data[:-1], scaling_only, data.reshape(2, -1)] + [np.zeros(2 * data.size)] * (d == 2)
    for buffer in wrong:
        with pytest.raises(ValueError, match="does not fill"):
            WaveletCoeffs(d=d, zeta=coeffs.zeta, j_coarse=coeffs.j_coarse, data=buffer)


def test_dwt_input_validation():
    spec = WaveletSpec(k=4)
    with pytest.raises(ValueError, match="power of two"):
        dwt_periodic(np.zeros(24), spec)
    with pytest.raises(ValueError, match="square"):
        dwt_periodic(np.zeros((8, 16)), spec)
    with pytest.raises(ValueError, match="too coarse"):
        dwt_periodic(np.zeros(8), spec)  # needs J >= zeta + 1 = 4
    with pytest.raises(ValueError, match="levels"):
        dwt_periodic(np.zeros(64), WaveletSpec(k=1), levels=7)


def test_replacing_a_band_raises():
    # bands are views into one buffer: values can be written, bands cannot be swapped
    coeffs = dwt_periodic(np.arange(16.0), WaveletSpec(k=1))
    coeffs.levels[2][1][0] = 7.0
    assert coeffs.data[4] == 7.0
    with pytest.raises(TypeError):
        coeffs.levels[2][1] = coeffs.levels[2][1][:2]
    with pytest.raises(TypeError):
        coeffs.levels[2] = {}


@pytest.mark.parametrize("k", [2, 4])
def test_vanishing_moments_on_polynomial_samples(k):
    # degree < k polynomial samples produce zero details away from wrap-around
    spec = WaveletSpec(k=k)
    n = 4096
    t = np.arange(n) / n
    coeffs_poly = np.arange(1, k + 1, dtype=float)
    x = sum(c * t**q for q, c in enumerate(coeffs_poly))
    coeffs = dwt_periodic(x, spec)
    taps = 2 * k
    clean = n  # clean prefix length of the current scaling band
    scale_ref = max(
        np.abs(arr).max() for bands in coeffs.levels.values() for arr in bands.values()
    )
    checked = 0
    for j in sorted(coeffs.levels, reverse=True):  # fine to coarse order of creation
        if j == coeffs.j_coarse:
            break
        n_clean_out = (clean - taps) // 2 + 1
        if n_clean_out >= 1:
            detail = coeffs.levels[j][1][:n_clean_out]
            assert np.abs(detail).max() <= 1e-8 * max(1.0, scale_ref)
            checked += 1
        clean = n_clean_out
    assert checked >= 4


def _reference_analyze_axis(x, h, g, axis):
    # the earlier gather-window form: an (n/2, taps, ...) window, then tensordot
    x = np.moveaxis(x, axis, 0)
    n = x.shape[0]
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(h.size)[None, :]) % n
    win = x[idx]
    lo = np.tensordot(win, h, axes=(1, 0))
    hi = np.tensordot(win, g, axes=(1, 0))
    return np.moveaxis(lo, 0, axis), np.moveaxis(hi, 0, axis)


def _reference_dwt(x, spec, steps):
    # the earlier pyramid: samples scaled by 2^(-J d/2), bands by 2^((j+zeta) d/2)
    d, n = x.ndim, x.shape[0]
    J = n.bit_length() - 1
    c = x * 2.0 ** (-J * d / 2.0)
    levels = {}
    for _ in range(steps):
        parts = {0: c}
        for axis in range(d):
            grown = {}
            for mask, arr in parts.items():
                lo, hi = _reference_analyze_axis(arr, spec.lowpass, spec.highpass, axis)
                grown[mask] = lo
                grown[mask | (1 << axis)] = hi
            parts = grown
        c = parts[0]
        j = c.shape[0].bit_length() - 1 - spec.zeta
        levels[j] = {mask: parts[mask] for mask in range(1, 1 << d)}
    levels[j][0] = c
    return {
        j: {mask: arr * 2.0 ** ((j + spec.zeta) * d / 2.0) for mask, arr in bands.items()}
        for j, bands in levels.items()
    }


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 6),
    d=st.sampled_from([1, 2]),
    extra=st.integers(0, 4),
    partial=st.booleans(),
    block=st.sampled_from([1, 3, 64, wavelets._BLOCK]),
    seed=st.integers(0, 2**32 - 1),
)
def test_polyphase_dwt_matches_gather_window_reference(k, d, extra, partial, block, seed):
    # grids from n = 2^(zeta+1), the coarsest a full decomposition reaches, upward;
    # small analysis blocks make these grids span several blocks, as large ones do
    spec = WaveletSpec(k=k)
    J = spec.zeta + 1 + (extra if d == 1 else min(extra, 3))
    steps = J - spec.zeta
    if partial:
        steps = 1 + seed % steps
    x = make_rng(seed).standard_cauchy(size=(2**J,) * d)
    with mock.patch.object(wavelets, "_BLOCK", block):
        coeffs = dwt_periodic(x, spec, levels=steps)
    reference = _reference_dwt(x, spec, steps)
    assert sorted(coeffs.levels) == sorted(reference)
    scale = max(np.abs(arr).max() for bands in reference.values() for arr in bands.values())
    for j, bands in reference.items():
        assert sorted(coeffs.levels[j]) == sorted(bands)
        for mask, arr in bands.items():
            assert coeffs.levels[j][mask].shape == arr.shape
            assert np.abs(coeffs.levels[j][mask] - arr).max() <= 1e-13 * scale
