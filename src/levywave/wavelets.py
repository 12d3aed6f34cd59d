"""Periodized Daubechies wavelet analysis and synthesis on the d-torus.

Coefficients are indexed by (level j, gender G, shift m).  At the coarsest
level of a full decomposition there are 2^d genders per shift (the pure
scaling combination included); every finer level has 2^d - 1 detail
genders.  A gender is stored as a bitmask: bit r set means high-pass along
axis r.  Level j holds 2^(j + zeta) shifts per axis, where the base shift
zeta is the smallest integer with 2^zeta >= 2k - 1, so that the coarsest
basis functions fit inside the unit cube.

Stored coefficient values carry the normalization
lambda = 2^((j + zeta) d / 2) * <f, Psi>, with <f, Psi> the coefficient
against the L2-normalized basis function.  Grid samples are identified
with fine-scale scaling coefficients (standard pyramid initialization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "daubechies_lowpass",
    "quadrature_mirror_highpass",
    "WaveletSpec",
    "WaveletCoeffs",
    "dwt_periodic",
    "idwt_periodic",
]


@lru_cache(maxsize=None)
def _lowpass_cached(k: int) -> tuple:
    if k == 1:
        c = 1.0 / math.sqrt(2.0)
        return (c, c)
    # autocorrelation polynomial P(y) = sum_{j<k} C(k-1+j, j) y^j
    pcoef = [math.comb(k - 1 + j, j) for j in range(k)]
    yroots = np.roots(pcoef[::-1])
    zroots = []
    for y in yroots:
        # y = (2 - z - 1/z)/4  <=>  z^2 + (4y - 2) z + 1 = 0
        b = 4.0 * y - 2.0
        disc = np.sqrt(b * b - 4.0 + 0j)
        r1 = 0.5 * (-b + disc)
        r2 = 0.5 * (-b - disc)
        zroots.append(r1 if abs(r1) <= 1.0 else r2)
    poly = np.array([1.0 + 0j])
    for z in zroots:
        poly = np.convolve(poly, [-z, 1.0])
    for _ in range(k):
        poly = np.convolve(poly, [0.5, 0.5])
    h = poly.real
    h = h * (math.sqrt(2.0) / h.sum())
    if abs(h[0]) < abs(h[-1]):  # canonical front-loaded orientation
        h = h[::-1]
    return tuple(float(v) for v in h)


def daubechies_lowpass(k: int) -> np.ndarray:
    """Length-2k orthonormal low-pass filter with k vanishing moments."""
    if not (isinstance(k, int) and k >= 1):
        raise ValueError(f"vanishing-moment count must be a positive integer, got {k}")
    return np.array(_lowpass_cached(k))


def quadrature_mirror_highpass(h: np.ndarray) -> np.ndarray:
    """High-pass mate g[n] = (-1)^n h[L-1-n]."""
    h = np.asarray(h, dtype=float)
    signs = (-1.0) ** np.arange(h.size)
    return signs * h[::-1]


@dataclass(frozen=True)
class WaveletSpec:
    """Daubechies-k analysis parameters."""

    k: int

    def __post_init__(self):
        if not (isinstance(self.k, int) and self.k >= 1):
            raise ValueError(f"k must be a positive integer, got {self.k}")

    @property
    def zeta(self) -> int:
        """Smallest integer with 2^zeta >= 2k - 1 (support fits the unit cube)."""
        z = 0
        while (1 << z) < 2 * self.k - 1:
            z += 1
        return z

    @property
    def lowpass(self) -> np.ndarray:
        return daubechies_lowpass(self.k)

    @property
    def highpass(self) -> np.ndarray:
        return quadrature_mirror_highpass(self.lowpass)

    def max_level(self, J: int) -> int:
        """Finest coefficient level available on a 2^J-per-axis grid."""
        return J - self.zeta - 1


@dataclass
class WaveletCoeffs:
    """Coefficient pyramid: levels[j][gender] -> shift array of shape (2^(j+zeta),)^d."""

    d: int
    zeta: int
    j_coarse: int
    levels: dict

    @property
    def j_max(self) -> int:
        return max(self.levels)

    @property
    def depth(self) -> int:
        return self.j_max - self.j_coarse + 1

    def total_count(self) -> int:
        return sum(arr.size for bands in self.levels.values() for arr in bands.values())

    def bands(self) -> list:
        """(j, gender, array) in canonical order: levels ascend, then genders."""
        return [(j, g, bands[g]) for j, bands in sorted(self.levels.items()) for g in sorted(bands)]

    def scaled(self, a: float) -> "WaveletCoeffs":
        levels = {
            j: {g: a * arr for g, arr in bands.items()}
            for j, bands in self.levels.items()
        }
        return WaveletCoeffs(d=self.d, zeta=self.zeta, j_coarse=self.j_coarse, levels=levels)

    @classmethod
    def zeros(cls, d: int, zeta: int, j_coarse: int, j_max: int) -> "WaveletCoeffs":
        """Empty pyramid with the standard gender layout, for building test inputs."""
        levels = {}
        for j in range(j_coarse, j_max + 1):
            shape = (1 << (j + zeta),) * d
            bands = {g: np.zeros(shape) for g in range(1, 1 << d)}
            if j == j_coarse:
                bands[0] = np.zeros(shape)
            levels[j] = bands
        return cls(d=d, zeta=zeta, j_coarse=j_coarse, levels=levels)


# ---------------------------------------------------------------------------
# single-axis periodic filter-bank steps


_BLOCK = 1 << 14  # output samples per analysis block (128 KiB per buffer)


def _along(axis: int, sl: slice) -> tuple:
    return (slice(None),) * axis + (sl,)


def _analyze_axis(x: np.ndarray, h: np.ndarray, g: np.ndarray, axis: int):
    """Periodic filter-and-downsample: lo[i] = sum_t h[t] x[(2i + t) mod n].

    Polyphase form: the input gets a periodic pad of taps - 2 samples, and
    each tap adds one stride-2 slice of it into preallocated outputs, block
    by block of leading-axis output rows so that the block stays in cache.
    """
    n = x.shape[axis]
    xp = np.concatenate([x, x[_along(axis, slice(0, h.size - 2))]], axis=axis)
    shape = x.shape[:axis] + (n // 2,) + x.shape[axis + 1:]
    lo, hi = np.zeros(shape), np.zeros(shape)
    rows = max(1, _BLOCK // math.prod(shape[1:]))
    tmp = np.empty((min(rows, shape[0]),) + shape[1:])
    for r0 in range(0, shape[0], rows):
        r1 = min(r0 + rows, shape[0])
        # along axis 0, output rows r0 .. r1-1 read input rows 2 r0 .. 2 r1 + taps - 3
        src, m = (xp[2 * r0:], 2 * (r1 - r0)) if axis == 0 else (xp[r0:r1], n)
        pairs = ((lo[r0:r1], h), (hi[r0:r1], g))
        for t in range(h.size):
            phase = src[_along(axis, slice(t, t + m, 2))]
            for acc, f in pairs:
                acc += np.multiply(phase, f[t], out=tmp[: r1 - r0])
    return lo, hi


def _synthesize_axis(lo: np.ndarray, hi: np.ndarray, h: np.ndarray, g: np.ndarray, axis: int):
    """Adjoint of _analyze_axis: out[2r + e] = sum_s h[2s + e] lo[r - s] + g[2s + e] hi[r - s].

    Polyphase form over a periodic pad of k - 1 samples in front of each band.
    """
    half, pad = lo.shape[axis], h.size // 2 - 1
    front = _along(axis, slice(half - pad, half))
    pairs = [(np.concatenate([band[front], band], axis=axis), f) for band, f in ((lo, h), (hi, g))]
    out = np.zeros(lo.shape[:axis] + (2 * half,) + lo.shape[axis + 1:])
    tmp = np.empty(lo.shape)
    for e in (0, 1):
        acc = out[_along(axis, slice(e, None, 2))]
        for s in range(pad + 1):
            shift = _along(axis, slice(pad - s, pad - s + half))
            for padded, f in pairs:
                acc += np.multiply(padded[shift], f[2 * s + e], out=tmp)
    return out


def _analyze_step(c: np.ndarray, h: np.ndarray, g: np.ndarray) -> dict:
    parts = {0: c}
    for axis in range(c.ndim):
        grown = {}
        for mask in list(parts):
            grown[mask], grown[mask | (1 << axis)] = _analyze_axis(parts.pop(mask), h, g, axis)
        parts = grown
    return parts


def _synthesize_step(parts: dict, h: np.ndarray, g: np.ndarray, d: int) -> np.ndarray:
    current = dict(parts)
    for axis in reversed(range(d)):
        bit = 1 << axis
        merged = {}
        for mask in current:
            if mask & bit:
                continue
            merged[mask] = _synthesize_axis(current[mask], current[mask | bit], h, g, axis)
        current = merged
    return current[0]


# ---------------------------------------------------------------------------
# multilevel transforms


def dwt_periodic(values, spec: WaveletSpec, levels: int | None = None) -> WaveletCoeffs:
    """Orthonormal periodic analysis of a square dyadic grid.

    Args:
        values: real grid samples, shape (2^J,) or (2^J, 2^J).
        spec: filter family.
        levels: number of splitting steps; defaults to the maximum
            J - zeta, which decomposes down to level 0.
    """
    x = np.asarray(values, dtype=float)
    d = x.ndim
    if d not in (1, 2):
        raise ValueError(f"only 1-d and 2-d grids are supported, got ndim={d}")
    n = x.shape[0]
    if any(s != n for s in x.shape):
        raise ValueError(f"grid must be square, got shape {x.shape}")
    J = n.bit_length() - 1
    if (1 << J) != n:
        raise ValueError(f"grid length must be a power of two, got {n}")
    zeta = spec.zeta
    max_steps = J - zeta
    if max_steps < 1:
        raise ValueError(f"grid level {J} too coarse for k={spec.k}: needs J >= {zeta + 1}")
    steps = max_steps if levels is None else int(levels)
    if not 1 <= steps <= max_steps:
        raise ValueError(f"levels must lie in [1, {max_steps}], got {levels}")

    # A band of 2^(j+zeta) shifts per axis stores 2^((j+zeta)d/2) times the
    # orthonormal coefficient, so the samples themselves are the stored
    # fine-scale values and each step filters with h/sqrt(2), g/sqrt(2).
    h = spec.lowpass / math.sqrt(2.0)
    g = spec.highpass / math.sqrt(2.0)
    c = x
    pyramid = {}
    for j in range(J - zeta - 1, J - zeta - 1 - steps, -1):
        parts = _analyze_step(c, h, g)
        pyramid[j] = {mask: parts[mask] for mask in range(1, 1 << d)}
        c = parts[0]
    pyramid[j][0] = c
    return WaveletCoeffs(d=d, zeta=zeta, j_coarse=j, levels=pyramid)


def idwt_periodic(coeffs: WaveletCoeffs, spec: WaveletSpec) -> np.ndarray:
    """Exact inverse of dwt_periodic."""
    if spec.zeta != coeffs.zeta:
        raise ValueError(
            f"filter base shift {spec.zeta} does not match coefficients ({coeffs.zeta})"
        )
    d = coeffs.d
    js = sorted(coeffs.levels)
    if js[0] != coeffs.j_coarse or 0 not in coeffs.levels[js[0]]:
        raise ValueError("coefficient pyramid is missing its coarse scaling band")
    # stored values are scaled as in dwt_periodic, hence sqrt(2) h, sqrt(2) g
    h = spec.lowpass * math.sqrt(2.0)
    g = spec.highpass * math.sqrt(2.0)

    c = coeffs.levels[js[0]][0]
    for j in js:
        parts = {}
        for mask in range(1, 1 << d):
            if mask not in coeffs.levels[j]:
                raise ValueError(f"level {j} is missing gender {mask}")
            band = coeffs.levels[j][mask]
            if band.shape != c.shape:
                raise ValueError(
                    f"level {j} gender {mask} has shape {band.shape}, expected {c.shape}"
                )
            parts[mask] = band
        parts[0] = c
        c = _synthesize_step(parts, h, g, d)
    return c

