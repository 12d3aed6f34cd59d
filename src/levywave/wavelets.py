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
from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

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


@dataclass(frozen=True, eq=False)
class WaveletCoeffs:
    """Coefficient pyramid in one flat buffer; levels[j][G] is a read-only mapping of views.

    Band (j, G) holds 2^((j+zeta)d) values at offset G * 2^((j+zeta)d): levels
    ascend, then genders, coarse scaling band first.  So a pyramid up to j_max
    fills 2^((j_max+1+zeta)d) values, the size of its grid, and the buffer
    size fixes j_max.
    """

    d: int
    zeta: int
    j_coarse: int
    data: np.ndarray
    levels: Mapping = field(init=False, repr=False)

    def __post_init__(self):
        d, zeta, size = self.d, self.zeta, self.data.size
        top = (size.bit_length() - 1) // d  # 2^top values per axis on the grid
        if self.data.ndim != 1 or top <= self.j_coarse + zeta or size != 1 << (top * d):
            raise ValueError(
                f"a buffer of shape {self.data.shape} does not fill a d={d} pyramid "
                f"from level {self.j_coarse} (zeta={zeta})"
            )
        levels = {}
        for j in range(self.j_coarse, top - zeta):
            n = 1 << ((j + zeta) * d)
            shape = (1 << (j + zeta),) * d
            genders = range(0 if j == self.j_coarse else 1, 1 << d)
            levels[j] = MappingProxyType(
                {g: self.data[g * n:(g + 1) * n].reshape(shape) for g in genders}
            )
        object.__setattr__(self, "levels", MappingProxyType(levels))

    @property
    def j_max(self) -> int:
        return max(self.levels)

    @property
    def depth(self) -> int:
        return self.j_max - self.j_coarse + 1

    def total_count(self) -> int:
        return self.data.size

    def bands(self) -> list:
        """(j, gender, view) in canonical order: levels ascend, then genders."""
        return [(j, g, arr) for j, bands in self.levels.items() for g, arr in bands.items()]

    def scaled(self, a: float) -> "WaveletCoeffs":
        return replace(self, data=a * self.data)

    @classmethod
    def zeros(cls, d: int, zeta: int, j_coarse: int, j_max: int) -> "WaveletCoeffs":
        """Empty pyramid with the standard gender layout, for building test inputs."""
        return cls(d=d, zeta=zeta, j_coarse=j_coarse, data=np.zeros(1 << ((j_max + 1 + zeta) * d)))


# ---------------------------------------------------------------------------
# single-axis periodic filter-bank steps


_BLOCK = 1 << 14  # output samples per analysis block (128 KiB per buffer)


def _along(axis: int, sl: slice) -> tuple:
    return (slice(None),) * axis + (sl,)


def _analyze_axis(x: np.ndarray, h: np.ndarray, g: np.ndarray, axis: int, lo, hi) -> None:
    """Periodic filter-and-downsample into zeroed lo, hi: lo[i] += sum_t h[t] x[(2i + t) mod n].

    Polyphase form: the input gets a periodic pad of taps - 2 samples, and
    each tap adds one stride-2 slice of it into the outputs, block by block
    of leading-axis output rows so that the block stays in cache.
    """
    n, shape = x.shape[axis], lo.shape
    xp = np.concatenate([x, x[_along(axis, slice(0, h.size - 2))]], axis=axis)
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


def _analyze_step(c: np.ndarray, h: np.ndarray, g: np.ndarray, bands: Mapping) -> np.ndarray:
    """Split c once and return its low-pass part; the last axis pass writes
    straight into the views in bands (the scaling band too, at the coarsest level)."""
    parts = {0: c}
    for axis in range(c.ndim):
        bit, last = 1 << axis, axis == c.ndim - 1
        grown = {}
        for mask in list(parts):
            x = parts.pop(mask)
            shape = x.shape[:axis] + (x.shape[axis] // 2,) + x.shape[axis + 1:]
            for out in (mask, mask | bit):
                grown[out] = bands[out] if last and out in bands else np.zeros(shape)
            _analyze_axis(x, h, g, axis, grown[mask], grown[mask | bit])
        parts = grown
    return parts[0]


def _synthesize_step(parts: Mapping, h: np.ndarray, g: np.ndarray, d: int) -> np.ndarray:
    for axis in reversed(range(d)):
        bit = 1 << axis
        parts = {
            mask: _synthesize_axis(parts[mask], parts[mask | bit], h, g, axis)
            for mask in parts
            if not mask & bit
        }
    return parts[0]


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
    coeffs = WaveletCoeffs(d=d, zeta=zeta, j_coarse=J - zeta - steps, data=np.zeros(x.size))
    c = x
    for bands in reversed(coeffs.levels.values()):
        c = _analyze_step(c, h, g, bands)
    return coeffs


def idwt_periodic(coeffs: WaveletCoeffs, spec: WaveletSpec) -> np.ndarray:
    """Exact inverse of dwt_periodic."""
    if spec.zeta != coeffs.zeta:
        raise ValueError(
            f"filter base shift {spec.zeta} does not match coefficients ({coeffs.zeta})"
        )
    # stored values are scaled as in dwt_periodic, hence sqrt(2) h, sqrt(2) g
    h = spec.lowpass * math.sqrt(2.0)
    g = spec.highpass * math.sqrt(2.0)
    c = coeffs.levels[coeffs.j_coarse][0]
    for bands in coeffs.levels.values():
        c = _synthesize_step({**bands, 0: c}, h, g, coeffs.d)
    return c
