"""Discrete realizations of periodic Levy white noises.

The torus [-1/2, 1/2)^d is split into 2^J cells per axis.  One draw per cell
with characteristic function exp(volume * psi(xi)) gives the law of the noise
paired with the cell indicator: exactly for every family but laplace, whose
jumps below 1e-15 are dropped (their l2 mass is below the FFT's round-off).
Dividing by the cell volume and removing the mean produces the zero-mean
resolution-J noise field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import LevyExponent, ParameterError

__all__ = [
    "GridSpec",
    "make_rng",
    "trial_seed",
    "generate_noise",
]

_MASK64 = (1 << 64) - 1
# memory guard on the total cell count: a trial's resident peak (VmHWM above
# the interpreter's) is 16 bytes per cell in d=2 (laplace J=12, two fields, set
# equally by the two FFT stages, the DWT's finest level and sigma_curve) to 36 in
# d=1 (J=20, any family), so 2^26 cells need up to 2.4 GB; the jump families
# draw 16 bytes per jump, so exponents._MAX_JUMPS bounds a trial's jumps the same
_MAX_CELLS = 1 << 26


@dataclass(frozen=True)
class GridSpec:
    """Dyadic grid on the d-torus with 2^J cells per axis."""

    d: int
    J: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ParameterError(f"dimension must be 1 or 2, got {self.d}")
        if self.J < 1:
            raise ParameterError(f"grid level J must be >= 1, got {self.J}")
        if self.size > _MAX_CELLS:
            raise ValueError(
                f"memory guard: 2^({self.J}*{self.d}) cells exceeds {_MAX_CELLS}"
            )

    @property
    def n(self) -> int:
        """Cells per axis."""
        return 1 << self.J

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def size(self) -> int:
        return 1 << (self.J * self.d)

    @property
    def cell_volume(self) -> float:
        return 2.0 ** (-self.J * self.d)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so draws are reproducible across thread counts."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def trial_seed(base_seed: int, trial_index: int) -> int:
    """Derived per-trial seed: base_seed XOR a 64-bit mix of the trial index."""
    return (base_seed ^ _splitmix64(trial_index)) & _MASK64


def generate_noise(exponent: LevyExponent, grid: GridSpec, seed: int) -> np.ndarray:
    """Zero-mean noise field at resolution J, deterministic in (exponent, grid, seed).

    The values are the cell averages <w, 1_cell>/vol.
    """
    rng = make_rng(seed)
    values = exponent.sample(grid.cell_volume, rng, grid.shape)
    values /= grid.cell_volume
    values -= values.mean()
    return values
