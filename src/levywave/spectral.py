"""Fourier-multiplier operators on the discrete torus and the spectral solve.

Fields are real, so only the half spectrum of `numpy.fft.rfftn` is stored:
leading axes carry the signed integer frequencies in [-N/2, N/2), the last
axis the non-negative ones 0 .. N/2.  The zero frequency is always dropped
(zero-mean convention), which is what makes the operators invertible.  Grid
index i stands for the point i/N of the unit fundamental domain; since the
noises are stationary, this choice over the centered representation is
immaterial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .exponents import ConfigError, GridSpec, LevyExponent, _in_parts, generate_noise

__all__ = [
    "FractionalLaplacian",
    "Matern",
    "OPERATORS",
    "frequency_lattice",
    "forward_fft",
    "inverse_fft",
    "apply_inverse_operator",
    "synthesize_process",
]


def frequency_lattice(grid: GridSpec):
    """Integer frequencies per axis, in rfftn layout (half spectrum on the last axis)."""
    lead = tuple(np.fft.fftfreq(grid.n, d=1.0 / grid.n) for _ in range(grid.d - 1))
    return lead + (np.fft.rfftfreq(grid.n, d=1.0 / grid.n),)


@dataclass(frozen=True)
class _RadialSymbol:
    """Symbol (shift + |m|^2)^(gamma/2); order gamma > 0.  A subclass sets its
    config name operator_name and its shift, 0 or 1."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ConfigError(f"order gamma must be positive, got {self.gamma}")

    def evaluate(self, grid: GridSpec, rows: slice = slice(None)) -> np.ndarray:
        """The symbol on the half spectrum; on its first leading axis's `rows` only, if any."""
        # the shift joins the 1-D last-axis table before the broadcast: every
        # term is an integer below 2^53, so each sum is exact in any order
        *lead, last = frequency_lattice(grid)
        m2 = last ** 2
        m2 += self.shift
        lead[:1] = [m[rows] for m in lead[:1]]
        for m in reversed(lead):  # each leading axis broadcasts in front
            m2 = np.add.outer(m ** 2, m2)
        m2 **= self.gamma / 2.0
        return m2


class FractionalLaplacian(_RadialSymbol):
    """Symbol |m|^gamma; order gamma > 0."""

    operator_name: ClassVar[str] = "fractional_laplacian"
    shift: ClassVar[float] = 0.0


class Matern(_RadialSymbol):
    """Symbol (1 + |m|^2)^(gamma/2); order gamma > 0."""

    operator_name: ClassVar[str] = "matern"
    shift: ClassVar[float] = 1.0


OPERATORS = {cls.operator_name: cls for cls in (FractionalLaplacian, Matern)}


_BLOCK = 1 << 16  # symbol values per block of apply_inverse_operator (512 KiB)


def _half_shape(coeffs: np.ndarray, grid: GridSpec) -> tuple:
    """The half spectrum's shape on grid; raises unless coeffs' shape ends in it."""
    half = grid.shape[:-1] + (grid.n // 2 + 1,)
    if coeffs.shape[-grid.d:] != half:
        raise ValueError(f"spectrum shape {coeffs.shape} does not match grid {grid.shape}")
    return half


def _rows(a: np.ndarray) -> np.ndarray:
    # every 1-d transform of a stack is one row, so every d runs the same row passes
    return a.reshape(-1, a.shape[-1])


def forward_fft(values: np.ndarray, grid: GridSpec, threads: int = 1) -> np.ndarray:
    """Half spectrum (rfftn layout) of a real field, or of each field of a
    stack along leading axes, normalized so coefficients approximate
    continuous Fourier coefficients.

    The zero-frequency coefficient is forced to zero.  The passes of rfftn,
    rows, then each leading axis from -2 down to -d, each split across
    `threads` threads; the leading-axis passes transform in place rather than
    into a second array.
    """
    if values.shape[-grid.d:] != grid.shape:
        raise ValueError(f"field shape {values.shape} does not match grid {grid.shape}")
    half = np.empty(values.shape[:-1] + (grid.n // 2 + 1,), dtype=complex)
    rows, out = _rows(values), _rows(half)
    _in_parts(lambda lo, hi: np.fft.rfft(rows[lo:hi], norm="forward", out=out[lo:hi]),
              len(rows), threads)
    for axis in range(-2, -grid.d - 1, -1):  # each pass ends before the next begins
        _in_parts(lambda lo, hi: np.fft.fft(half[..., lo:hi], axis=axis, norm="forward",
                                            out=half[..., lo:hi]), half.shape[-1], threads)
    half[(Ellipsis,) + (0,) * grid.d] = 0.0
    return half


def inverse_fft(coeffs: np.ndarray, grid: GridSpec, threads: int = 1) -> np.ndarray:
    """Back from a half spectrum, or a stack of them along leading axes, to
    the real grid field; consumes coeffs.

    Same passes as irfftn, each split across `threads` threads, but the
    leading axes, -d up to -2, are transformed in place.  The symbols are real, so
    dividing by one keeps the Hermitian symmetry of a real field's spectrum;
    irfft drops only the round-off imaginary parts of the self-conjugate
    bins (2m = 0 mod N).
    """
    _half_shape(coeffs, grid)
    for axis in range(-grid.d, -1):
        _in_parts(lambda lo, hi: np.fft.ifft(coeffs[..., lo:hi], axis=axis, norm="forward",
                                             out=coeffs[..., lo:hi]), coeffs.shape[-1], threads)
    rows = _rows(coeffs)
    field = np.empty((len(rows), grid.n))
    _in_parts(lambda lo, hi: np.fft.irfft(rows[lo:hi], n=grid.n, norm="forward",
                                          out=field[lo:hi]), len(rows), threads)
    return field.reshape(coeffs.shape[:-1] + (grid.n,))


def apply_inverse_operator(
    coeffs: np.ndarray, symbol: _RadialSymbol, grid: GridSpec, threads: int = 1
) -> np.ndarray:
    """Divide a half spectrum, or each of a stack along leading axes, by the
    symbol off the zero frequency: s_hat(m) = w_hat(m)/L_hat(m), in place;
    returns coeffs.  The symbol is evaluated for a block of a field's rows at
    a time and divides those rows of every field of the stack; the blocks
    split across `threads` threads.  A grid small enough to be stacked has its
    whole half spectrum in one block, so a stack evaluates the symbol once."""
    # (stack axes, first grid axis (one row at d=1), the rest): a view for d <= 2
    half = _half_shape(coeffs, grid)
    rows = coeffs.reshape(coeffs.shape[:-grid.d] + (np.prod(half[:-1][:1], dtype=int), -1))
    block = max(1, _BLOCK // rows.shape[-1])
    starts = range(0, rows.shape[-2], block)

    def divide(lo, hi):
        for r0 in starts[lo:hi]:
            lhat = symbol.evaluate(grid, slice(r0, r0 + block))
            if r0 == 0:
                lhat.flat[0] = 1.0  # the zero frequency, set to 0 below
            rows[..., r0:r0 + block, :] /= lhat.reshape(-1, rows.shape[-1])

    _in_parts(divide, len(starts), threads)
    coeffs[(Ellipsis,) + (0,) * grid.d] = 0.0
    return coeffs


def synthesize_process(
    exponent: LevyExponent,
    grid: GridSpec,
    symbol: _RadialSymbol,
    seed,
    threads: int = 1,
) -> np.ndarray:
    """A realization of the process solving (operator) s = noise, zero mean,
    for an integer seed; for a sequence of seeds, one per seed stacked along
    a leading axis.  Each draws its own noise; the spectral stages take the
    whole stack and split across `threads` threads."""
    stacked = np.ndim(seed) > 0
    noises = [generate_noise(exponent, grid, s) for s in (seed if stacked else [seed])]
    # a stack of one is a view of its noise, so a lone trial copies no field
    field = np.stack(noises) if len(noises) > 1 else noises[0][None]
    # one name for every stage frees each full-size array once the next returns
    del noises
    field = forward_fft(field, grid, threads=threads)
    field = apply_inverse_operator(field, symbol, grid, threads=threads)
    field = inverse_fft(field, grid, threads=threads)
    return field if stacked else field[0]
