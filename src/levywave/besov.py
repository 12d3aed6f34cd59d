"""Sequence-space quasi-norms, n-term errors, and decay-rate fitting.

The (tau, p) quasi-norm, with fine index equal to p, weights level-j
coefficients by 2^(j(tau - d/p)).  It is a weighted l_p norm over all
coefficients, so the best n-term approximation is the greedy one: keep the
n largest weighted magnitudes, and the error is the l_p norm of the rest.
The decay exponent of the resulting error curve is recovered by log-log
regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .wavelets import WaveletCoeffs

__all__ = [
    "BesovParams",
    "weighted_magnitudes",
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
            raise ValueError(f"p must be positive and finite, got {self.p}")

    def weight(self, j: int, d: int) -> float:
        return 2.0 ** (j * (self.tau - d / self.p))


def weighted_magnitudes(coeffs: WaveletCoeffs, params: BesovParams) -> np.ndarray:
    """Flat array of 2^(j(tau - d/p)) |lambda| in canonical iteration order."""
    out = replace(coeffs, data=np.abs(coeffs.data))
    for j, _, arr in out.bands():
        arr *= params.weight(j, coeffs.d)
    return out.data


def sigma_curve(coeffs: WaveletCoeffs, params: BesovParams, n_grid) -> np.ndarray:
    """Best n-term error for every n in the ascending grid, via one sort.

    The errors are tail sums of non-negative values, so they never increase
    along the grid."""
    n_grid = np.asarray(n_grid, dtype=int)
    if n_grid.size == 0 or np.any(np.diff(n_grid) <= 0):
        raise ValueError("n grid must be non-empty and strictly ascending")
    if n_grid[0] < 0:
        raise ValueError(f"n grid must be non-negative, got {n_grid.tolist()}")
    p = params.p
    acc = weighted_magnitudes(coeffs, params)
    acc.sort()
    acc **= p
    np.cumsum(acc, out=acc)
    # the n largest are discarded: tail[n] = acc[size - 1 - n], accumulated
    # smallest-first, and 0 once n reaches size
    tail = np.zeros(n_grid.size)
    inside = n_grid < acc.size
    tail[inside] = acc[acc.size - 1 - n_grid[inside]]
    return tail ** (1.0 / p)


def _fit_line(x: np.ndarray, y: np.ndarray):
    xbar = x.mean()
    ybar = y.mean()
    sxx = float(((x - xbar) ** 2).sum())
    slope = float(((x - xbar) * (y - ybar)).sum()) / sxx
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    dof = x.size - 2
    stderr = math.sqrt(float((resid**2).sum()) / dof / sxx) if dof > 0 else 0.0
    return slope, intercept, stderr


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
    slope, _, stderr = _fit_line(x, y)
    return slope, stderr
