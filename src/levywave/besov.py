"""Sequence-space quasi-norms, n-term errors, and decay-rate fitting.

The (tau, p) quasi-norm, with fine index equal to p, weights level-j
coefficients by 2^(j(tau - d/p)).  It is a weighted l_p norm over all
coefficients, so the best n-term approximation is the greedy one: keep the
n largest weighted magnitudes, and the error is the l_p norm of the rest.
A grid of such errors needs only a selection below its largest n, not a
full sort, and pairwise sums of the ranks between its n.  The decay
exponent of the resulting error curve is recovered by log-log regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import ConfigError, _in_parts
from .wavelets import WaveletCoeffs

__all__ = [
    "BesovParams",
    "sigma_curve",
    "estimate_kappa",
]


@dataclass(frozen=True)
class BesovParams:
    """Smoothness tau and integrability p (also the fine index); the
    dimension d is the coefficients' own."""

    tau: float
    p: float

    def __post_init__(self):
        if not (self.p > 0 and math.isfinite(self.p)):
            raise ConfigError(f"p must be positive and finite, got {self.p}")

    def weight(self, j: int, d: int) -> float:
        return 2.0 ** (j * (self.tau - d / self.p))


_PIECE = 1 << 16  # values per magnitude piece, small enough to stay in cache


def _weigh(out: np.ndarray, coeffs: WaveletCoeffs, params: BesovParams, lo: int, hi: int) -> None:
    """out[..., lo:hi] = (2^(j(tau - d/p)) |lambda|)^p over those flat
    positions of every pyramid of the stack, in pieces of at most _PIECE
    positions, small enough to stay in cache."""
    d, zeta = coeffs.d, coeffs.zeta
    for start in range(lo, hi, _PIECE):
        stop = min(start + _PIECE, hi)
        piece = out[..., start:stop]
        np.abs(coeffs.data[..., start:stop], out=piece)
        # level j fills positions 2^((j+zeta)d) .. 2^((j+1+zeta)d) - 1, level 0 from 0
        j = max(0, (start.bit_length() - 1) // d - zeta)
        while start < stop:
            end = min(stop, 1 << ((j + 1 + zeta) * d))
            out[..., start:end] *= params.weight(j, d)
            start, j = end, j + 1
        piece **= params.p


def _n_grid(n_grid) -> np.ndarray:
    """n_grid as an int64 array, checked to be non-empty, strictly ascending,
    non-negative integers."""
    grid = np.asarray(n_grid)
    if grid.dtype.kind not in "iu":
        values = grid.astype(float)
        if not np.all((values == np.floor(values)) & (np.abs(values) < 2.0**63)):
            raise ValueError(f"n grid must hold integers, got {grid.tolist()}")
    grid = grid.astype(np.int64)
    if grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("n grid must be non-empty and strictly ascending")
    if grid[0] < 0:
        raise ValueError(f"n grid must be non-negative, got {grid.tolist()}")
    return grid


def sigma_curve(coeffs: WaveletCoeffs, params: BesovParams, n_grid, threads: int = 1) -> np.ndarray:
    """Best n-term error for every n in the ascending grid, via one selection:
    of shape (..., len(n_grid)), one row per pyramid of a stack in coeffs.data.

    The error of n is the p-th root of the sum of all but the n largest
    p-th powers of the weighted magnitudes.  The magnitude pass writes those
    powers into one buffer, its pieces split across `threads` threads.  Then,
    on the calling thread, one partition per row moves the size - n_max
    smallest to the front, n_max the largest n of the grid below size, and
    only the n_max above them are sorted.  Pairwise sums of the front and of
    the ranks between consecutive n, added up from the smallest, give every
    tail, so the errors never increase along the grid and are 0 once n
    reaches size.  The calls do not depend on `threads`, and neither do the
    bits.
    """
    n_grid = _n_grid(n_grid)
    p, size = params.p, coeffs.data.shape[-1]
    acc = np.empty(coeffs.data.shape)
    _in_parts(lambda lo, hi: _weigh(acc, coeffs, params, lo * _PIECE, min(hi * _PIECE, size)),
              -(-size // _PIECE), threads)
    inside = n_grid[n_grid < size]
    ends = size - inside[::-1]  # ascending: the tail of n sums ranks 0 .. size - n - 1
    if inside.size and inside[-1] > 0:
        acc.partition(ends[0], axis=-1)
        acc[..., ends[0]:].sort(axis=-1)
    # segments from 0 and from each end below size; the one from the last such
    # end runs past every tail unless n = 0 closes it, and is dropped
    sums = np.add.reduceat(acc, np.concatenate([[0], ends[ends < size]]), axis=-1)
    tail = np.zeros(acc.shape[:-1] + n_grid.shape)
    tail[..., :inside.size] = np.cumsum(sums[..., :inside.size], axis=-1)[..., ::-1]
    return tail ** (1.0 / p)


def estimate_kappa(n_values, sigma, fit_range: tuple) -> tuple:
    """(kappa, stderr): least-squares slope of -log sigma(n) against log n
    over the fit window, and its standard error.

    All-zero sigma over the window yields the infinite-decay sentinel.
    Raises when fewer than five positive-sigma points are available.
    """
    n_values = np.asarray(n_values)
    sigma = np.asarray(sigma, dtype=float)
    lo, hi = int(fit_range[0]), int(fit_range[1])
    in_window = (n_values >= lo) & (n_values <= hi)
    if not in_window.any():
        raise ValueError(f"no curve points inside fit range [{lo}, {hi}]")
    if np.all(sigma[in_window] == 0.0):
        return math.inf, 0.0
    positive = in_window & (sigma > 0.0)
    if positive.sum() < 5:
        raise ValueError(
            f"need at least 5 positive-sigma points in [{lo}, {hi}], "
            f"got {int(positive.sum())}"
        )
    x = np.log(n_values[positive].astype(float))
    y = -np.log(sigma[positive])
    xbar = x.mean()
    ybar = y.mean()
    sxx = float(((x - xbar) ** 2).sum())
    slope = float(((x - xbar) * (y - ybar)).sum()) / sxx
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    return slope, math.sqrt(float((resid**2).sum()) / (x.size - 2) / sxx)
