"""Discrete realizations of periodic Levy white noises.

The torus [-1/2, 1/2)^d is split into 2^J cells per axis.  One draw per cell
with characteristic function exp(volume * psi(xi)) gives the exact law of
the noise paired with the cell indicator; dividing by the cell volume and
removing the mean produces the zero-mean resolution-J noise field.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .exponents import (
    CompoundPoisson,
    Gaussian,
    InverseGaussian,
    Laplace,
    LevyExponent,
    ParameterError,
    SAlphaS,
)

__all__ = [
    "GridSpec",
    "NoiseField",
    "make_rng",
    "trial_seed",
    "sample_id_increment",
    "generate_noise",
    "write_field_dump",
    "read_field_dump",
]

_MASK64 = (1 << 64) - 1
# memory guard on the total cell count: a trial peaks at 24 bytes per cell (laplace,
# d=2 J=12) to 43 (sas sampler temporaries, d=1 J=20), so 2^26 cells need up to 3 GB
_MAX_CELLS = 1 << 26
_DUMP_MAGIC = b"LVNF"
_DUMP_HEADER = struct.Struct("<4sIIQ12x")  # magic, d, J, seed; 32 bytes total


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


@dataclass(frozen=True)
class NoiseField:
    """Zero-mean noise realization; values are cell averages <w, 1_cell>/vol."""

    grid: GridSpec
    values: np.ndarray
    seed: int
    exponent_tag: str = ""


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


# ---------------------------------------------------------------------------
# per-family samplers; each returns draws whose characteristic function is
# exp(volume * psi(xi))


def _sample_sas(alpha: float, volume: float, rng, shape):
    """Chambers-Mallows-Stuck transform, symmetric case."""
    u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, shape)
    if alpha == 1.0:
        x = np.tan(u)
    else:
        w = rng.exponential(1.0, shape)
        x = (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)) * (
            np.cos((1.0 - alpha) * u) / w
        ) ** ((1.0 - alpha) / alpha)
    return volume ** (1.0 / alpha) * x


def _sample_compound_poisson(exponent: CompoundPoisson, volume: float, rng, shape):
    counts = rng.poisson(exponent.rate * volume, shape)
    total = int(counts.sum())
    out = np.zeros(shape, dtype=float)
    if total > 0:
        jumps = exponent.jumps.sample(rng, total)
        cell = np.repeat(np.arange(counts.size), counts.ravel())
        flat = out.ravel()
        np.add.at(flat, cell, jumps)
        out = flat.reshape(shape)
    return out


def _sample_inverse_gaussian(mu: float, lam: float, rng, shape):
    """Michael-Schucany-Haas transform for the inverse Gaussian law."""
    y = rng.normal(size=shape) ** 2
    t = mu * y / lam
    # smaller root of the defining quadratic, written without cancellation
    root = np.sqrt(t + 4.0)
    x1 = mu * (root - np.sqrt(t)) / (root + np.sqrt(t))
    u = rng.uniform(size=shape)
    return np.where(u <= mu / (mu + x1), x1, mu * mu / x1)


def sample_id_increment(exponent: LevyExponent, volume: float, rng, size=None):
    """Draw increments with characteristic function exp(volume * psi(xi)).

    Args:
        exponent: noise family.
        volume: cell volume, must be positive.
        rng: numpy Generator.
        size: None for a single float, else an output shape.
    """
    if not volume > 0:
        raise ParameterError(f"volume must be positive, got {volume}")
    shape = (1,) if size is None else size

    if isinstance(exponent, Gaussian):
        out = rng.normal(0.0, np.sqrt(exponent.sigma2 * volume), shape)
    elif isinstance(exponent, SAlphaS):
        out = _sample_sas(exponent.alpha, volume, rng, shape)
    elif isinstance(exponent, CompoundPoisson):
        out = _sample_compound_poisson(exponent, volume, rng, shape)
    elif isinstance(exponent, Laplace):
        out = rng.gamma(volume, 1.0, shape)
        out -= rng.gamma(volume, 1.0, shape)
    elif isinstance(exponent, InverseGaussian):
        mu = exponent.delta * volume / exponent.ig_gamma
        lam = (exponent.delta * volume) ** 2
        out = _sample_inverse_gaussian(mu, lam, rng, shape)
    else:
        raise ParameterError(f"unsupported exponent {exponent!r}")

    if size is None:
        return float(out[0])
    return out


def generate_noise(exponent: LevyExponent, grid: GridSpec, seed: int) -> NoiseField:
    """Zero-mean noise field at resolution J, deterministic in (exponent, grid, seed)."""
    rng = make_rng(seed)
    values = sample_id_increment(exponent, grid.cell_volume, rng, size=grid.shape)
    values /= grid.cell_volume
    values -= values.mean()
    return NoiseField(grid=grid, values=values, seed=seed, exponent_tag=repr(exponent))


# ---------------------------------------------------------------------------
# binary field dump, used for cross-implementation golden tests


def write_field_dump(path, values: np.ndarray, grid: GridSpec, seed: int) -> None:
    """Little-endian float64 row-major dump with a 32-byte header."""
    header = _DUMP_HEADER.pack(_DUMP_MAGIC, grid.d, grid.J, seed & _MASK64)
    data = np.ascontiguousarray(values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def read_field_dump(path) -> NoiseField:
    with open(path, "rb") as fh:
        header = fh.read(_DUMP_HEADER.size)
        magic, d, J, seed = _DUMP_HEADER.unpack(header)
        if magic != _DUMP_MAGIC:
            raise ValueError(f"bad field dump magic {magic!r} in {path}")
        grid = GridSpec(d=d, J=J)
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != grid.size:
        raise ValueError(
            f"field dump {path} holds {data.size} values, expected {grid.size}"
        )
    values = data.astype(float).reshape(grid.shape)
    return NoiseField(grid=grid, values=values, seed=seed)
