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

import numpy as np

from .exponents import LevyExponent, ParameterError
from .sampling import GridSpec, NoiseField, generate_noise

__all__ = [
    "AdmissibilityError",
    "FractionalLaplacian",
    "Matern",
    "Derivative1d",
    "OperatorSymbol",
    "SpectralField",
    "frequency_lattice",
    "forward_fft",
    "inverse_fft",
    "apply_inverse_operator",
    "apply_forward_operator",
    "synthesize_process",
]


class AdmissibilityError(ValueError):
    """The operator symbol vanishes somewhere on the nonzero lattice."""


def frequency_lattice(grid: GridSpec):
    """Integer frequencies per axis, in rfftn layout (half spectrum on the last axis)."""
    full = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    half = np.fft.rfftfreq(grid.n, d=1.0 / grid.n)
    return (full,) * (grid.d - 1) + (half,)


def _squared_norms(grid: GridSpec) -> np.ndarray:
    axes = frequency_lattice(grid)
    if grid.d == 1:
        return axes[0] ** 2
    return axes[0][:, None] ** 2 + axes[1][None, :] ** 2


@dataclass(frozen=True)
class FractionalLaplacian:
    """Symbol |m|^gamma; order gamma > 0."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ParameterError(f"order gamma must be positive, got {self.gamma}")

    @property
    def order(self) -> float:
        return self.gamma

    def evaluate(self, grid: GridSpec) -> np.ndarray:
        m2 = _squared_norms(grid)
        with np.errstate(divide="ignore"):
            return m2 ** (self.gamma / 2.0)


@dataclass(frozen=True)
class Matern:
    """Symbol (1 + |m|^2)^(gamma/2); order gamma > 0."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ParameterError(f"order gamma must be positive, got {self.gamma}")

    @property
    def order(self) -> float:
        return self.gamma

    def evaluate(self, grid: GridSpec) -> np.ndarray:
        return (1.0 + _squared_norms(grid)) ** (self.gamma / 2.0)


@dataclass(frozen=True)
class Derivative1d:
    """Integer-order derivative with lower-order terms, one dimension only.

    Symbol (2*pi*i*m)^order + sum_k a_k (2*pi*i*m)^k with a_k given for
    k = 0 .. order-1.  Lattice points where the terms cancel are flagged as
    vanishing so the solve can refuse them.
    """

    order: int
    lower_coeffs: tuple = ()

    def __post_init__(self):
        if not (isinstance(self.order, int) and self.order >= 1):
            raise ParameterError(f"derivative order must be a positive integer, got {self.order}")
        if len(self.lower_coeffs) > self.order:
            raise ParameterError(
                f"expected at most {self.order} lower coefficients, got {len(self.lower_coeffs)}"
            )

    def evaluate(self, grid: GridSpec) -> np.ndarray:
        if grid.d != 1:
            raise ParameterError("derivative operator is one-dimensional only")
        m = frequency_lattice(grid)[0]
        z = 2j * np.pi * m
        val = z**self.order
        scale = np.abs(z) ** self.order
        for k, a in enumerate(self.lower_coeffs):
            val = val + a * z**k
            scale = scale + abs(a) * np.abs(z) ** k
        # near-total cancellation counts as a vanishing symbol
        val = np.where(np.abs(val) <= 1e-10 * scale, 0.0, val)
        return val


OperatorSymbol = FractionalLaplacian | Matern | Derivative1d


@dataclass(frozen=True)
class SpectralField:
    """Half spectrum of a real zero-mean field, rfftn layout, DC = 0."""

    grid: GridSpec
    coeffs: np.ndarray


def _unpack(field, grid=None):
    if isinstance(field, NoiseField):
        return field.values, field.grid
    values = np.asarray(field, dtype=float)
    if grid is None:
        d = values.ndim
        n = values.shape[0]
        J = n.bit_length() - 1
        if d not in (1, 2) or any(s != n for s in values.shape) or (1 << J) != n:
            raise ValueError("field must be a square dyadic grid or carry a GridSpec")
        grid = GridSpec(d=d, J=J)
    elif values.shape != grid.shape:
        raise ValueError(f"field shape {values.shape} does not match grid {grid.shape}")
    return values, grid


def forward_fft(field, grid: GridSpec | None = None) -> SpectralField:
    """DFT normalized so coefficients approximate continuous Fourier coefficients.

    The zero-frequency coefficient is forced to zero.
    """
    values, grid = _unpack(field, grid)
    coeffs = np.fft.rfftn(values, axes=tuple(range(grid.d)), norm="forward")
    coeffs[(0,) * grid.d] = 0.0
    return SpectralField(grid=grid, coeffs=coeffs)


def inverse_fft(field: SpectralField) -> np.ndarray:
    """Back to the real grid field.

    The imaginary parts of the self-conjugate bins (2m = 0 mod N) are
    dropped, which keeps the grid-sampled real action of a complex symbol
    on those modes.
    """
    grid = field.grid
    return np.fft.irfftn(field.coeffs, s=grid.shape, axes=tuple(range(grid.d)), norm="forward")


def _check_symbol(lhat: np.ndarray, grid: GridSpec) -> None:
    mask = lhat == 0.0
    mask[(0,) * grid.d] = False
    if mask.any():
        axes = frequency_lattice(grid)
        where = np.argwhere(mask)[0]
        if grid.d == 1:
            m = int(axes[0][where[0]])
        else:
            m = (int(axes[0][where[0]]), int(axes[1][where[1]]))
        raise AdmissibilityError(f"operator symbol vanishes at lattice point m={m}")


def apply_inverse_operator(field: SpectralField, symbol: OperatorSymbol) -> SpectralField:
    """Divide by the symbol off the zero frequency: s_hat(m) = w_hat(m)/L_hat(m)."""
    lhat = symbol.evaluate(field.grid)
    _check_symbol(lhat, field.grid)
    dc = (0,) * field.grid.d
    lhat[dc] = 1.0
    out = field.coeffs / lhat
    out[dc] = 0.0
    return SpectralField(grid=field.grid, coeffs=out)


def apply_forward_operator(field: SpectralField, symbol: OperatorSymbol) -> SpectralField:
    """Multiply by the symbol off the zero frequency."""
    lhat = symbol.evaluate(field.grid)
    _check_symbol(lhat, field.grid)
    out = field.coeffs * lhat
    out[(0,) * field.grid.d] = 0.0
    return SpectralField(grid=field.grid, coeffs=out)


def synthesize_process(
    exponent: LevyExponent,
    grid: GridSpec,
    symbol: OperatorSymbol,
    seed: int,
) -> np.ndarray:
    """One realization of the process solving (operator) s = noise, zero mean."""
    # one name for every stage frees each full-size array once the next returns
    field = generate_noise(exponent, grid, seed)
    field = forward_fft(field)
    field = apply_inverse_operator(field, symbol)
    return inverse_fft(field)
