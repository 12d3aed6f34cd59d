"""Reference implementations the tests check the program against.

None of these runs in the pipeline: each is the plain form of a quantity
the program computes another way, or a tool for building test inputs.
"""

import itertools
import math
from dataclasses import replace

import numpy as np

from levywave import (
    BesovParams,
    WaveletCoeffs,
    WaveletSpec,
    apply_inverse_operator,
    dwt_periodic,
    forward_fft,
    generate_noise,
    inverse_fft,
    sigma_curve,
    trial_seed,
    weighted_magnitudes,
)


def trial_alone(config, index: int) -> np.ndarray:
    """The n-term errors of trial `index` of config run by itself, one field
    with no trial axis through each stage: the row its stack must give."""
    grid = config.grid()
    field = generate_noise(config.exponent(), grid, trial_seed(config.base_seed, index))
    spectrum = apply_inverse_operator(forward_fft(field, grid), config.symbol(), grid)
    coeffs = dwt_periodic(inverse_fft(spectrum, grid), config.wavelet_spec())
    return sigma_curve(coeffs, BesovParams(tau=config.tau0, p=config.p0), config.n_values())


def sas_sample_unblocked(alpha: float, volume: float, rng, shape) -> np.ndarray:
    """SAlphaS(alpha).sample as one whole-field pass: all of u, then all of w,
    then the Chambers-Mallows-Stuck arithmetic on whole arrays."""
    u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, shape)
    if alpha == 1.0:
        return np.tan(u) * volume ** (1.0 / alpha)
    w = rng.exponential(1.0, shape)
    tail = (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    x = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha) * tail
    return x * volume ** (1.0 / alpha)


def zero_pyramid(d: int, zeta: int, j_max: int) -> WaveletCoeffs:
    """Empty pyramid with the standard gender layout, for building test inputs."""
    return WaveletCoeffs(d=d, zeta=zeta, data=np.zeros(1 << ((j_max + 1 + zeta) * d)))


def _window(n: int, taps: int) -> np.ndarray:
    """(n/2, taps) indices (2i + t) mod n of the samples output i reads with tap t."""
    return (2 * np.arange(n // 2)[:, None] + np.arange(taps)[None, :]) % n


def analyze_axis(x, h, g, axis):
    """Periodic filter bank in gather-window form: lo[i] = sum_t h[t] x[(2i + t) mod n]."""
    x = np.moveaxis(x, axis, 0)
    win = x[_window(x.shape[0], h.size)]
    lo = np.tensordot(win, h, axes=(1, 0))
    hi = np.tensordot(win, g, axes=(1, 0))
    return np.moveaxis(lo, 0, axis), np.moveaxis(hi, 0, axis)


def dwt_taps(x: np.ndarray, spec: WaveletSpec) -> np.ndarray:
    """dwt_periodic's flat buffer from whole-level gather-window passes, tap by tap.

    Each level filters the whole coarse part along axis 0, then each half
    along axis 1, with lo[i] += x[(2i + t) mod n] * h[t] for t in order and
    the package's h/sqrt(2), g/sqrt(2): the products and sums of the
    polyphase blocks, so the result should match bit for bit.  Bands go to
    the canonical flat layout, band (j, G) at offset G * 2^((j+zeta)d).
    """
    h, g = spec.lowpass / math.sqrt(2.0), spec.highpass / math.sqrt(2.0)
    data, c = np.empty(x.size), x
    while c.shape[0] > 1 << spec.zeta:
        parts = {0: c}
        for axis in range(x.ndim):
            grown = {}
            for mask, arr in parts.items():
                arr = np.moveaxis(arr, axis, 0)
                win = _window(arr.shape[0], h.size)
                shape = (arr.shape[0] // 2,) + arr.shape[1:]
                lo, hi = np.zeros(shape), np.zeros(shape)
                for t in range(h.size):
                    lo += arr[win[:, t]] * h[t]
                    hi += arr[win[:, t]] * g[t]
                grown[mask] = np.moveaxis(lo, 0, axis)
                grown[mask | 1 << axis] = np.moveaxis(hi, 0, axis)
            parts = grown
        c, size = parts[0], parts[0].size
        for mask in range(1, 1 << x.ndim):
            data[mask * size:(mask + 1) * size] = parts[mask].ravel()
    data[:c.size] = c.ravel()
    return data


def synthesize_axis(lo, hi, h, g, axis):
    """Transpose of analyze_axis: x[(2i + t) mod n] += h[t] lo[i] + g[t] hi[i]."""
    lo, hi = np.moveaxis(lo, axis, 0), np.moveaxis(hi, axis, 0)
    idx = _window(2 * lo.shape[0], h.size)
    x = np.zeros((2 * lo.shape[0],) + lo.shape[1:])
    for t in range(h.size):
        x[idx[:, t]] += h[t] * lo + g[t] * hi  # one tap writes each sample once
    return np.moveaxis(x, 0, axis)


def idwt_periodic(coeffs: WaveletCoeffs, spec: WaveletSpec) -> np.ndarray:
    """Inverse of dwt_periodic: the orthonormal filter bank's transpose, with
    sqrt(2) h and sqrt(2) g undoing the stored scaling of 1/sqrt(2) per axis and step."""
    h, g = spec.lowpass * math.sqrt(2.0), spec.highpass * math.sqrt(2.0)
    c = coeffs.levels[0][0]
    for bands in coeffs.levels.values():
        parts = {**bands, 0: c}
        for axis in reversed(range(coeffs.d)):
            bit = 1 << axis
            parts = {m: synthesize_axis(parts[m], parts[m | bit], h, g, axis)
                     for m in parts if not m & bit}
        c = parts[0]
    return c


def best_n_term(coeffs: WaveletCoeffs, params: BesovParams, n: int):
    """Greedy best n-term approximation in the (tau, p) quasi-norm.

    Keeps the n indices of largest weighted magnitude (ties broken by the
    canonical iteration order) and returns them with the residual norm of
    everything discarded.  Greedy is optimal here because the p-th power of
    the norm is additive over coefficients.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    mags = weighted_magnitudes(coeffs, params)
    order = np.argsort(-mags, kind="stable")
    tail = np.cumsum(np.sort(mags[order[n:]] ** params.p))  # smallest first, for stability
    residual = float(tail[-1] if tail.size else 0.0) ** (1.0 / params.p)

    # the kept positions, laid out as a pyramid of flags
    chosen = np.zeros(mags.size, dtype=bool)
    chosen[order[:n]] = True
    kept = [
        (j, g, m)
        for j, g, arr in replace(coeffs, data=chosen).bands()
        for m in zip(*(axis.tolist() for axis in np.nonzero(arr)))
    ]
    return kept, residual


def fsum_sigma_curve(coeffs: WaveletCoeffs, params: BesovParams, n_grid) -> np.ndarray:
    """sigma_curve from math.fsum: for each n, the p-th root of the sum of all
    but the n largest p-th powers of the weighted magnitudes, ranked as
    np.sort ranks them (inf, then NaN, above every finite value), and 0 once
    n reaches the size.

    Each tail is the fsum of the fsums of the ranks between consecutive n, so
    its every term is summed once and it lies within 2u (u = 2^-53) of the
    exact sum of its non-negative values.
    """
    powers = weighted_magnitudes(coeffs, params) ** params.p
    size = powers.shape[-1]
    ends = sorted(size - int(n) for n in n_grid if n < size)  # the tail of n sums ranks below size - n
    curves = []
    for row in np.sort(powers, axis=-1).reshape(-1, size).tolist():
        segments = [math.fsum(row[lo:hi]) for lo, hi in zip([0] + ends, ends)]
        tails = [math.fsum(segments[:i + 1]) for i in range(len(ends))]
        curves.append(tails[::-1] + [0.0] * (len(n_grid) - len(ends)))
    return np.array(curves).reshape(powers.shape[:-1] + (len(n_grid),)) ** (1.0 / params.p)


def exhaustive_min_residual(mags, n: int, p: float) -> float:
    """Smallest residual norm over every choice of n kept magnitudes."""
    best = math.inf
    for kept in itertools.combinations(range(mags.size), n):
        disc = sorted(float(mags[i]) ** p for i in range(mags.size) if i not in kept)
        acc = 0.0
        for v in disc:
            acc += v
        best = min(best, acc ** (1.0 / p))
    return best


def empirical_regularity_scan(coeffs: WaveletCoeffs, p_grid, tau_grid) -> np.ndarray:
    """Level-norm slopes as a membership proxy, one row per p, one column per tau.

    For each (p, tau) the detail-level partial norms
    2^(j(tau - d/p)) (sum_m |lambda|^p)^(1/p) are fitted against j in log2
    scale; a negative slope indicates a convergent tail (membership).
    """
    if len(coeffs.levels) < 6:
        raise ValueError(f"need decomposition depth >= 6, got {len(coeffs.levels)}")
    p_grid = np.atleast_1d(np.asarray(p_grid, dtype=float))
    tau_grid = np.atleast_1d(np.asarray(tau_grid, dtype=float))
    js = np.array(sorted(coeffs.levels), dtype=float)

    scores = np.empty((p_grid.size, tau_grid.size))
    for i, p in enumerate(p_grid):
        level_p = []
        for j in sorted(coeffs.levels):
            detail = [arr for g, arr in coeffs.levels[j].items() if g != 0]
            total = sum(float(np.sum(np.abs(arr) ** p)) for arr in detail)
            level_p.append(total ** (1.0 / p))
        level_p = np.array(level_p)
        for t, tau in enumerate(tau_grid):
            b = 2.0 ** (js * (tau - coeffs.d / p)) * level_p
            ok = b > 0.0
            if ok.sum() < 2:
                scores[i, t] = -math.inf
                continue
            scores[i, t] = np.polyfit(js[ok], np.log2(b[ok]), 1)[0]
    return scores


def median_sigma_at(report, n: int) -> float:
    """Median over the trials of a run of the n-term error at n."""
    where = np.nonzero(report.config.n_values() == n)[0]
    if where.size == 0:
        raise ValueError(f"n={n} is not on the curve grid")
    return float(np.median(report.sigma[:, where[0]]))
