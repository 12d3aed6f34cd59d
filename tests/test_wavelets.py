import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levywave import (
    BesovParams,
    WaveletCoeffs,
    WaveletSpec,
    daubechies_lowpass,
    dwt_periodic,
    make_rng,
    quadrature_mirror_highpass,
    weighted_magnitudes,
)
from levywave import wavelets
from oracles import analyze_axis, best_n_term, dwt_taps, idwt_periodic

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


def test_filter_orthonormality_bound():
    # the spectral factorization keeps sum_n h[n] h[n + 2m] = delta_m within
    # 1e-10 up to k = 23; beyond, the filter is rejected rather than used
    h = daubechies_lowpass(23)
    assert abs(np.dot(h, h) - 1.0) < 1e-10
    for k in (24, 40, 60):
        with pytest.raises(ValueError, match=f"k={k} too large"):
            WaveletSpec(k=k)


@pytest.mark.parametrize("k,zeta", [(1, 0), (2, 2), (3, 3), (4, 3), (5, 4), (8, 4)])
def test_base_shift(k, zeta):
    spec = WaveletSpec(k=k)
    assert spec.zeta == zeta
    assert 2**zeta >= 2 * k - 1
    assert zeta == 0 or 2 ** (zeta - 1) < 2 * k - 1


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("d,J", [(1, 8), (2, 6), (3, None)])
def test_perfect_reconstruction(k, d, J):
    spec = WaveletSpec(k=k)
    J = J or spec.zeta + 1  # None: the coarsest grid a full decomposition reaches
    rng = make_rng(17 * k + d + J)
    x = rng.normal(size=(2**J,) * d)
    coeffs = dwt_periodic(x, spec)
    back = idwt_periodic(coeffs, spec)
    assert np.abs(back - x).max() <= 1e-10 * np.abs(x).max()


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("d,J", [(1, 8), (2, 5), (3, None)])
def test_parseval(k, d, J):
    # stored values relate to orthonormal-basis coefficients by 2^((j+zeta)d/2)
    spec = WaveletSpec(k=k)
    J = J or spec.zeta + 1  # None: the coarsest grid a full decomposition reaches
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
    base.levels[0][0][0] = 1.0
    f = idwt_periodic(base, spec)
    norm = math.sqrt(float(np.sum(f**2)) / 128.0)
    assert norm * 2.0 ** (spec.zeta / 2.0) == pytest.approx(1.0, abs=1e-10)


def test_idwt_linearity():
    spec = WaveletSpec(k=2)
    rng = make_rng(31)
    c1 = dwt_periodic(rng.normal(size=64), spec)
    c2 = dwt_periodic(rng.normal(size=64), spec)
    combo = WaveletCoeffs(d=1, zeta=c1.zeta, data=2.5 * c1.data + c2.data)
    lhs = idwt_periodic(combo, spec)
    rhs = 2.5 * idwt_periodic(c1, spec) + idwt_periodic(c2, spec)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_full_decomposition_counts_1d():
    # Haar on 8 samples: 1+1 at the coarsest level, then 2 and 4 details
    coeffs = dwt_periodic(np.arange(8.0), WaveletSpec(k=1))
    assert coeffs.total_count() == 8
    layout = {j: {g: arr.size for g, arr in bands.items()} for j, bands in coeffs.levels.items()}
    assert layout == {0: {0: 1, 1: 1}, 1: {1: 2}, 2: {1: 4}}


def test_gender_cardinalities_2d():
    coeffs = dwt_periodic(make_rng(5).normal(size=(64, 64)), WaveletSpec(k=2))
    for j in sorted(coeffs.levels):
        bands = coeffs.levels[j]
        if j == 0:
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
    tau=st.sampled_from([0.0, 0.5, 1.5]),
    p=st.sampled_from([1.0, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_buffer_layout(k, d, extra, tau, p, seed):
    spec = WaveletSpec(k=k)
    J = spec.zeta + 1 + extra
    coeffs = dwt_periodic(make_rng(seed).standard_cauchy(size=(2**J,) * d), spec)
    data = coeffs.data
    assert data.shape == (2 ** (J * d),)
    bands = coeffs.bands()
    assert all(np.shares_memory(arr, data) for _, _, arr in bands)
    np.testing.assert_array_equal(np.concatenate([arr.ravel() for _, _, arr in bands]), data)

    params = BesovParams(tau=tau, p=p)
    mags = weighted_magnitudes(coeffs, params)
    per_band = [params.weight(j, d) * np.abs(arr).ravel() for j, _, arr in bands]
    np.testing.assert_array_equal(mags, np.concatenate(per_band))

    n = seed % (data.size + 1)
    kept, _ = best_n_term(coeffs, params, n)
    assert len(set(kept)) == len(kept) == n
    chosen = [params.weight(j, d) * abs(coeffs.levels[j][g][m]) for j, g, m in kept]
    np.testing.assert_array_equal(np.sort(chosen), np.sort(mags)[data.size - n:])

    scaling_only = np.zeros(coeffs.levels[0][0].size)
    # leading axes hold a stack of pyramids, each of which must fill one
    wrong = [data[:-1], scaling_only, np.stack([data[:-1]] * 2)]
    wrong += [np.zeros(2 * data.size)] * (d == 2)
    for buffer in wrong:
        with pytest.raises(ValueError, match="does not fill"):
            WaveletCoeffs(d=d, zeta=coeffs.zeta, data=buffer)


def test_dwt_input_validation():
    spec = WaveletSpec(k=4)
    with pytest.raises(ValueError, match="power of two"):
        dwt_periodic(np.zeros(24), spec)
    with pytest.raises(ValueError, match="square"):
        dwt_periodic(np.zeros((8, 16)), spec)
    with pytest.raises(ValueError, match="too coarse"):
        dwt_periodic(np.zeros(8), spec)  # needs J >= zeta + 1 = 4
    for d in (0, 2):  # a grid has at least one axis, and no more than its array
        with pytest.raises(ValueError, match="d must be from 1"):
            dwt_periodic(np.zeros(16), spec, d=d)


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
        if j == 0:
            break
        n_clean_out = (clean - taps) // 2 + 1
        if n_clean_out >= 1:
            detail = coeffs.levels[j][1][:n_clean_out]
            assert np.abs(detail).max() <= 1e-8 * max(1.0, scale_ref)
            checked += 1
        clean = n_clean_out
    assert checked >= 4


def _reference_dwt(x, spec):
    # the earlier pyramid: samples scaled by 2^(-J d/2), bands by 2^((j+zeta) d/2)
    d, n = x.ndim, x.shape[0]
    J = n.bit_length() - 1
    c = x * 2.0 ** (-J * d / 2.0)
    levels = {}
    for _ in range(J - spec.zeta):
        parts = {0: c}
        for axis in range(d):
            grown = {}
            for mask, arr in parts.items():
                lo, hi = analyze_axis(arr, spec.lowpass, spec.highpass, axis)
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
    d=st.sampled_from([1, 2, 3]),
    extra=st.integers(0, 4),
    block=st.sampled_from([1, 3, 64, wavelets._BLOCK]),
    threads=st.integers(1, 3),
    stack=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_polyphase_dwt_matches_gather_window_reference(k, d, extra, block, threads, stack, seed):
    # grids from n = 2^(zeta+1), the coarsest a full decomposition reaches, upward;
    # small analysis blocks make these grids span several blocks, as large ones do,
    # and a block of a stack spans its grids, whose last block wraps in each
    spec = WaveletSpec(k=k)
    J = spec.zeta + 1 + min(extra, {1: 4, 2: 3, 3: 1}[d])
    x = make_rng(seed).standard_cauchy(size=(stack,) + (2**J,) * d)
    with mock.patch.object(wavelets, "_BLOCK", block):
        coeffs = dwt_periodic(x, spec, threads=threads, d=d)
    # blocks, their split across threads, and the wrap padding of the blocks
    # that run past the end, move no bit
    assert np.array_equal(coeffs.data, dwt_periodic(x, spec, d=d).data)
    for i, grid in enumerate(x):
        # nor do the one-row parts and the fused per-axis passes: every coefficient gets
        # the tap-by-tap products and sums of whole-level passes
        assert np.array_equal(coeffs.data[i], dwt_taps(grid, spec))
        reference = _reference_dwt(grid, spec)
        assert sorted(coeffs.levels) == sorted(reference)
        scale = max(np.abs(arr).max() for bands in reference.values() for arr in bands.values())
        for j, bands in reference.items():
            assert sorted(coeffs.levels[j]) == sorted(bands)
            for mask, arr in bands.items():
                assert coeffs.levels[j][mask][i].shape == arr.shape
                assert np.abs(coeffs.levels[j][mask][i] - arr).max() <= 1e-13 * scale


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 4, 6])
def test_dwt_reads_no_buffer_before_writing_it(k, d, threads):
    # every buffer the analysis allocates starts as NaN, so a read before the
    # first write would show in the coefficients; runs of exact 0.0 and -0.0
    # check that the first tap's write, in place of an add to 0.0, moves at
    # most the sign of a zero, which |lambda| drops
    spec = WaveletSpec(k=k)
    J = spec.zeta + {1: 5, 2: 3, 3: 2}[d]
    n = 2**J
    x = make_rng(100 * k + d).standard_cauchy(size=(n,) * d)
    if d == 1:
        x[n // 4:n // 2], x[n // 2:3 * n // 4] = 0.0, -0.0
    else:
        x[:n // 2, :n // 2], x[n // 2:, n // 2:] = 0.0, -0.0
    real_empty, calls = np.empty, []

    def nan_empty(*args, **kwargs):
        out = real_empty(*args, **kwargs)
        out.fill(np.nan)
        calls.append(out.size)
        return out

    # small blocks make several blocks per level, the last of them wrapping
    with mock.patch.object(wavelets, "_BLOCK", 16), mock.patch.object(np, "empty", nan_empty):
        coeffs = dwt_periodic(x, spec, threads=threads)
    assert x.size in calls  # the coefficient buffer came from the patched np.empty
    want = dwt_taps(x, spec)
    assert not np.isnan(coeffs.data).any()
    assert np.abs(coeffs.data).tobytes() == np.abs(want).tobytes()
    assert (coeffs.data == 0.0).any()


@pytest.mark.parametrize("threads", [1, 2])
def test_a_d3_analysis_holds_block_sized_scratch(threads):
    # beside the caller's grid, an analysis holds the coefficient buffer, the
    # eighth-size coarse part and per thread 8.5 blocks of scratch plus the
    # row phases' 2 wrapped rows (k=2): here 10.5 rows of 2^14 samples, since a
    # d=3 J=7 block is one row.  A whole-size part would cross the bound
    spec, x = WaveletSpec(k=2), make_rng(5).standard_normal((128,) * 3)
    dwt_periodic(x[:16, :16, :16].copy(), spec)  # first-call allocations are not the step's
    with mock.patch.object(wavelets, "_BLOCK", 1 << 12):  # threaded blocks of one row
        tracemalloc.start()
        try:
            dwt_periodic(x, spec, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= (1 + 1 / 8 + threads * 12 / 128) * x.nbytes
