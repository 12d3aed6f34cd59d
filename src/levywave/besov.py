"""Sequence-space quasi-norms, n-term thresholding, and decay-rate fitting.

The (tau, p, q) quasi-norm weights level-j coefficients by 2^(j(tau - d/p)).
For q = p the norm is a weighted l_p norm over all coefficients, so the best
n-term approximation is the greedy one: keep the n largest weighted
magnitudes.  The decay exponent of the resulting error curve is recovered by
log-log regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .wavelets import WaveletCoeffs

__all__ = [
    "BesovParams",
    "KappaFit",
    "DecayCurve",
    "weighted_magnitudes",
    "besov_seq_norm",
    "best_n_term",
    "sigma_curve",
    "estimate_kappa",
    "empirical_regularity_scan",
]


@dataclass(frozen=True)
class BesovParams:
    """Smoothness tau, integrability p, fine index q, dimension d."""

    tau: float
    p: float
    q: float
    d: int

    def __post_init__(self):
        if not (self.p > 0 and math.isfinite(self.p)):
            raise ValueError(f"p must be positive and finite, got {self.p}")
        if not self.q > 0:
            raise ValueError(f"q must be positive, got {self.q}")
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.d}")

    def weight(self, j: int) -> float:
        return 2.0 ** (j * (self.tau - self.d / self.p))


@dataclass(frozen=True)
class KappaFit:
    kappa_hat: float
    stderr: float
    fit_range: tuple


@dataclass
class DecayCurve:
    """Best n-term error sigma(n) on an ascending n grid, plus an optional fit."""

    n_values: np.ndarray
    sigma_values: np.ndarray
    params: BesovParams
    fit: Optional[KappaFit] = None

    def __post_init__(self):
        self.n_values = np.asarray(self.n_values, dtype=int)
        self.sigma_values = np.asarray(self.sigma_values, dtype=float)
        if np.any(np.diff(self.n_values) <= 0):
            raise ValueError("n grid must be strictly ascending")
        if np.any(np.diff(self.sigma_values) > 0):
            raise ValueError("sigma values must be non-increasing")


def weighted_magnitudes(coeffs: WaveletCoeffs, params: BesovParams) -> np.ndarray:
    """Flat array of 2^(j(tau - d/p)) |lambda| in canonical iteration order."""
    out = replace(coeffs, data=np.abs(coeffs.data))
    for j, _, arr in out.bands():
        arr *= params.weight(j)
    return out.data


def besov_seq_norm(coeffs: WaveletCoeffs, params: BesovParams) -> float:
    """(sum_j 2^(j(tau-d/p)q) sum_G (sum_m |lambda|^p)^(q/p))^(1/q).

    For q = inf the outer sums become a max over (j, G).
    """
    p = params.p
    if math.isinf(params.q):
        best = 0.0
        for j, _, arr in coeffs.bands():
            best = max(best, params.weight(j) * float(np.sum(np.abs(arr) ** p)) ** (1.0 / p))
        return best
    q = params.q
    total = 0.0
    for j, _, arr in coeffs.bands():
        total += params.weight(j) ** q * float(np.sum(np.abs(arr) ** p)) ** (q / p)
    return total ** (1.0 / q)


def best_n_term(coeffs: WaveletCoeffs, params: BesovParams, n: int):
    """Greedy best n-term approximation in the q = p quasi-norm.

    Keeps the n indices of largest weighted magnitude (ties broken by the
    canonical iteration order) and returns them with the residual norm of
    everything discarded.  Greedy is optimal here because the p-th power of
    the norm is additive over coefficients.
    """
    if params.q != params.p:
        raise ValueError("n-term selection is defined for q = p only")
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


def sigma_curve(coeffs: WaveletCoeffs, params: BesovParams, n_grid) -> DecayCurve:
    """Best n-term error for every n in the ascending grid, via one sort."""
    if params.q != params.p:
        raise ValueError("n-term selection is defined for q = p only")
    n_grid = np.asarray(n_grid, dtype=int)
    if n_grid.size == 0 or np.any(np.diff(n_grid) <= 0):
        raise ValueError("n grid must be non-empty and strictly ascending")
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
    sigma = tail ** (1.0 / p)
    return DecayCurve(n_values=n_grid, sigma_values=sigma, params=params)


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


def estimate_kappa(curve: DecayCurve, fit_range: tuple | None = None) -> KappaFit:
    """Least-squares slope of -log sigma(n) against log n over the fit window.

    All-zero sigma over the window yields the infinite-decay sentinel.
    Raises when fewer than five positive-sigma points are available.
    """
    if fit_range is None:
        lo, hi = int(curve.n_values[0]), int(curve.n_values[-1])
    else:
        lo, hi = int(fit_range[0]), int(fit_range[1])
    in_window = (curve.n_values >= lo) & (curve.n_values <= hi)
    if not in_window.any():
        raise ValueError(f"no curve points inside fit range [{lo}, {hi}]")
    sig = curve.sigma_values[in_window]
    if np.all(sig == 0.0):
        return KappaFit(kappa_hat=math.inf, stderr=0.0, fit_range=(lo, hi))
    positive = in_window & (curve.sigma_values > 0.0)
    if positive.sum() < 5:
        raise ValueError(
            f"need at least 5 positive-sigma points in [{lo}, {hi}], "
            f"got {int(positive.sum())}"
        )
    x = np.log(curve.n_values[positive].astype(float))
    y = -np.log(curve.sigma_values[positive])
    slope, _, stderr = _fit_line(x, y)
    return KappaFit(kappa_hat=slope, stderr=stderr, fit_range=(lo, hi))


def empirical_regularity_scan(
    coeffs: WaveletCoeffs,
    p_grid,
    tau_grid,
) -> np.ndarray:
    """Level-norm slopes as a membership proxy, one row per p, one column per tau.

    For each (p, tau) the detail-level partial norms
    2^(j(tau - d/p)) (sum_m |lambda|^p)^(1/p) are fitted against j in log2
    scale; a negative slope indicates a convergent tail (membership).
    """
    if coeffs.depth < 6:
        raise ValueError(f"need decomposition depth >= 6, got {coeffs.depth}")
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
            slope, _, _ = _fit_line(js[ok], np.log2(b[ok]))
            scores[i, t] = slope
    return scores
