"""Periodized Daubechies wavelet analysis on the d-torus.

Coefficients are indexed by (level j, gender G, shift m).  The analysis
always runs down to level 0, which holds 2^d genders per shift (the pure
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
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .exponents import _in_parts

__all__ = [
    "daubechies_lowpass",
    "quadrature_mirror_highpass",
    "WaveletSpec",
    "WaveletCoeffs",
    "dwt_periodic",
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
    # the root finding loses accuracy as k grows: past k = 23 the identities
    # sum_n h[n] h[n + 2m] = delta_m miss by more than 1e-10
    miss = np.abs(np.correlate(h, h, "full")[h.size - 1::2] - np.eye(1, k)[0]).max()
    if miss > 1e-10:
        raise ValueError(f"k={k} too large: its filter misses orthonormality by {miss:.1e}")
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
        daubechies_lowpass(self.k)  # rejects a k whose filter cannot be built

    @property
    def zeta(self) -> int:
        """Smallest integer with 2^zeta >= 2k - 1 (support fits the unit cube)."""
        return (2 * self.k - 2).bit_length()

    @property
    def lowpass(self) -> np.ndarray:
        return daubechies_lowpass(self.k)

    @property
    def highpass(self) -> np.ndarray:
        return quadrature_mirror_highpass(self.lowpass)


@dataclass(frozen=True, eq=False)
class WaveletCoeffs:
    """Coefficient pyramid in one flat buffer, or a stack of them along the
    leading axes of data (shape (..., N)); levels[j][G] is a read-only
    mapping of views, with data's leading axes first.

    Band (j, G) holds 2^((j+zeta)d) values at offset G * 2^((j+zeta)d): levels
    ascend from 0, then genders, coarse scaling band first.  So a pyramid up
    to j_max fills 2^((j_max+1+zeta)d) values, the size of its grid, and the
    buffer size fixes j_max.
    """

    d: int
    zeta: int
    data: np.ndarray
    levels: Mapping = field(init=False, repr=False)

    def __post_init__(self):
        d, zeta = self.d, self.zeta
        size = self.data.shape[-1] if self.data.ndim else 0
        top = (size.bit_length() - 1) // d  # 2^top values per axis on the grid
        if top <= zeta or size != 1 << (top * d):
            raise ValueError(f"a buffer of shape {self.data.shape} does not fill a d={d} pyramid")
        lead = self.data.shape[:-1]
        levels = {}
        for j in range(top - zeta):
            n = 1 << ((j + zeta) * d)
            shape = lead + (1 << (j + zeta),) * d
            genders = range(0 if j == 0 else 1, 1 << d)
            levels[j] = MappingProxyType(
                {g: self.data[..., g * n:(g + 1) * n].reshape(shape) for g in genders}
            )
        object.__setattr__(self, "levels", MappingProxyType(levels))

    def total_count(self) -> int:
        return self.data.size

    def bands(self) -> list:
        """(j, gender, view) in canonical order: levels ascend, then genders."""
        return [(j, g, arr) for j, bands in self.levels.items() for g, arr in bands.items()]


# ---------------------------------------------------------------------------
# single-axis periodic filter-bank steps


_BLOCK = 1 << 14  # output samples per analysis block (128 KiB per buffer)


def _analyze_axis(phases, h: np.ndarray, g: np.ndarray, axis: int, lo, hi, tmp) -> None:
    """Periodic filter-and-downsample of one block into lo, hi:
    lo[i] = sum_t h[t] x[2i + t], added in tap order, from the two phases of x
    along axis, phases[p][i] = x[2i + p], each holding taps/2 - 1 wrapped
    samples past lo.shape[axis].  Tap t reads phase t & 1 at offset t >> 1,
    a contiguous run.  The first tap writes its products into lo and hi, so
    they need no zeroing, and each later tap adds its products, made in the
    head of the flat buffer tmp.  Against adding the first products to 0.0,
    only the sign of an exact zero can differ."""
    b, tmp = lo.shape[axis], tmp[:lo.size].reshape(lo.shape)
    for t in range(h.size):
        phase = phases[t & 1][(slice(None),) * axis + (slice(t >> 1, (t >> 1) + b),)]
        for acc, f in ((lo, h), (hi, g)):
            if t == 0:
                np.multiply(phase, f[0], out=acc)
            else:
                acc += np.multiply(phase, f[t], out=tmp)


def _phases(x: np.ndarray, axis: int, r0: int, out: np.ndarray) -> None:
    """out[p][i] = x[2 (r0 + i) + p] along axis, for both phases p: a run from
    2 r0, no further than the end of x, then the wrapped rest from its start."""
    n, b, lead = x.shape[axis], out.shape[axis + 1], (slice(None),) * axis
    head = min(b, n // 2 - r0)
    for p in (0, 1):
        out[(p, *lead, slice(head))] = x[(*lead, slice(2 * r0 + p, 2 * (r0 + head), 2))]
        out[(p, *lead, slice(head, b))] = x[(*lead, slice(p, 2 * (b - head), 2))]


def _analyze_step(c: np.ndarray, h: np.ndarray, g: np.ndarray, bands: Mapping,
                  block: int, threads: int) -> np.ndarray:
    """Split each grid of the stack c (grids along its leading axis) once and
    return their low-pass parts (the scaling band itself at the coarsest level).

    One loop runs over blocks of output rows along the grids' first axis,
    across the whole stack, about `block` output samples each, small enough
    to stay in cache.  A block copies its input rows into a buffer of their
    two phases, the wrapped ones from the start of each grid, and filters
    them along the first axis into two parts; each further axis splits each
    part the same way, and the last writes straight into the bands or the
    coarse part.  No whole-size intermediate is made, and every coefficient
    gets the products, in the order, of whole-level passes axis by axis.
    The blocks split across `threads` threads, each with its own scratch: per
    axis one phase buffer and, but for the last, one of parts.  Blocks write
    disjoint rows.
    """
    m, n, d, wrap = c.shape[0], c.shape[1], c.ndim - 1, h.size // 2 - 1  # wrap: per phase
    out = [bands[q] if q in bands else np.empty((m,) + (n // 2,) * d) for q in range(1 << d)]
    rows = min(n // 2, max(1, block // (c.size // n)))
    starts = range(0, n // 2, rows)

    def analyze(lo, hi):
        # one allocation for the products (its head) and both row phases
        scratch = np.empty(c.size // n * (3 * rows + 2 * wrap))
        phases = [scratch[rows * c.size // n:].reshape((2, m, rows + wrap) + c.shape[2:])]
        parts = []  # the 2^axis parts of axis 1 .. d-1, halved along the axes before
        for axis in range(2, d + 1):
            done = (m, rows) + (n // 2,) * (axis - 2)
            parts.append(np.empty((1 << (axis - 1),) + done + (n,) * (d + 1 - axis)))
            phases.append(np.empty((2,) + done + (n // 2 + wrap,) + (n,) * (d - axis)))
        for r0 in starts[lo:hi]:
            b = min(rows, n // 2 - r0)
            # output rows r0 .. r0+b-1 read input rows 2 r0 .. 2 (r0+b) + taps - 3
            todo, first, extent = [c], r0, b + wrap
            for axis, buffer in enumerate(phases, 1):
                bit, ph = 1 << (axis - 1), buffer[:, :, :extent]
                made = parts[axis - 1][:, :, :b] if axis < d else [q[:, r0:r0 + b] for q in out]
                for mask, x in enumerate(todo):
                    _phases(x, axis, first, ph)
                    _analyze_axis(ph, h, g, axis, made[mask], made[mask | bit], scratch)
                todo, first, extent = made, 0, b

    _in_parts(analyze, len(starts), threads)
    return out[0]


# ---------------------------------------------------------------------------
# multilevel transforms


def dwt_periodic(values, spec: WaveletSpec, threads: int = 1, d=None) -> WaveletCoeffs:
    """Orthonormal periodic analysis of a square dyadic d-grid, shape
    (2^J,) * d for any d >= 1, or of each grid of a stack along leading axes,
    in J - zeta splitting steps down to level 0; the steps split their
    blocks across `threads` threads.  d defaults to values.ndim, one grid;
    a stack must be given its grids' d, since an (m, n) stack has the shape
    of a d=2 grid.  The coefficients' data has values' leading axes and one
    flat pyramid per grid.

    Only the finest step reads values: a float array that the caller holds
    no other reference to is freed once that step is done.  An analysis
    then holds at most the grid, the coefficient buffer, a 2^-d-size coarse
    part and, per thread, a few cache-sized phase buffers and parts.  The
    coefficient buffer, the coarse parts and the parts are allocated empty,
    not zeroed: each band's first tap writes every value of it."""
    x = np.asarray(values, dtype=float)
    d = x.ndim if d is None else d
    if not 1 <= d <= x.ndim:
        raise ValueError(f"d must be from 1 to the values' ndim, got d={d} and ndim={x.ndim}")
    lead, shape = x.shape[:x.ndim - d], x.shape[x.ndim - d:]
    n = shape[0]
    if any(s != n for s in shape):
        raise ValueError(f"grid must be square, got shape {shape}")
    J = n.bit_length() - 1
    if (1 << J) != n:
        raise ValueError(f"grid length must be a power of two, got {n}")
    zeta = spec.zeta
    if J <= zeta:
        raise ValueError(f"grid level {J} too coarse for k={spec.k}: needs J >= {zeta + 1}")

    # A band of 2^(j+zeta) shifts per axis stores 2^((j+zeta)d/2) times the
    # orthonormal coefficient, so the samples themselves are the stored
    # fine-scale values and each step filters with h/sqrt(2), g/sqrt(2).
    h = spec.lowpass / math.sqrt(2.0)
    g = spec.highpass / math.sqrt(2.0)
    coeffs = WaveletCoeffs(d=d, zeta=zeta, data=np.empty(lead + (n**d,)))
    # the steps see one leading stack axis, and write through these views of the buffer
    stack = WaveletCoeffs(d=d, zeta=zeta, data=coeffs.data.reshape(-1, n**d))
    # blocks of up to 2^16 keep the threads' scratch (6 blocks each at d <= 2)
    # within 1/8 of the grid, 8.5/48 at d = 3
    block = min(_BLOCK << 2, x.size // (48 * threads)) if threads > 1 else _BLOCK
    # this function's only name for its input from here on; a view keeps its array
    c = x if len(lead) == 1 else x.reshape((-1,) + shape)
    del values, x
    for bands in reversed(stack.levels.values()):
        c = _analyze_step(c, h, g, bands, block, threads)
    return coeffs
