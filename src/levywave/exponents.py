"""Periodic Levy white noises: their families, their sampling on a dyadic
grid and their compressibility predictions.

Each supported white-noise family is described by its log-characteristic
function psi (the Levy exponent of the underlying infinitely divisible
marginal law) together with its growth indices (beta, beta'), which govern
how fast the n-term wavelet approximation error of a driven process decays.
A family subclasses LevyExponent and carries its sampler and config keys.  A
family is added as its class, its FAMILIES entry (the registry of config
names) and its __all__ name; a jump law likewise, with _JUMP_LAWS.  Every
noise setting is judged here, and a rejected one raises ConfigError.

The torus [-1/2, 1/2)^d is split into 2^J cells per axis.  One draw per cell
with characteristic function exp(volume * psi(xi)) gives the law of the noise
paired with the cell indicator: exactly for every family but laplace, whose
jumps below 1e-15 are dropped (their l2 mass is below the FFT's round-off).
Dividing by the cell volume and removing the mean produces the zero-mean
resolution-J noise field of cell averages <w, 1_cell>/vol.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import ClassVar, NamedTuple, Union

import numpy as np

__all__ = [
    "ConfigError",
    "GridSpec",
    "make_rng",
    "trial_seed",
    "generate_noise",
    "GaussianJump",
    "UniformJump",
    "DiracJump",
    "JumpDistribution",
    "Gaussian",
    "SAlphaS",
    "CompoundPoisson",
    "Laplace",
    "InverseGaussian",
    "LevyExponent",
    "FAMILIES",
    "exponent_from_params",
    "BGIndices",
    "KappaPrediction",
    "admissibility",
    "theoretical_kappa",
]


class ConfigError(ValueError):
    """A malformed or inadmissible setting, or a parameter outside its domain."""


# ---------------------------------------------------------------------------
# the dyadic grid, seeds and noise fields

_MASK64 = (1 << 64) - 1
# memory guard on the total cell count: a trial's resident peak (VmHWM above
# the interpreter's) is 16 bytes per cell in d=2 (laplace J=12, two fields, set
# equally by the two FFT stages, the DWT's finest level and sigma_curve) to 36 in
# d=1 (J=20, any family), so 2^26 cells need up to 2.4 GB; each thread of a
# lone large trial adds its DWT block scratch, up to 3 MiB (all of them at
# most 1/8 of the grid); the jump families draw 16 bytes per jump, so the same
# bound caps a trial's jumps.  The cap on the trials in flight weighs each
# stack (harness._STACK_CELLS) by its cells or one trial's jumps, if more
_MAX_CELLS = 1 << 26


@dataclass(frozen=True)
class GridSpec:
    """Dyadic grid on the d-torus with 2^J cells per axis."""

    d: int
    J: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ConfigError(f"dimension must be 1 or 2, got {self.d}")
        if self.J < 1:
            raise ConfigError(f"grid level J must be >= 1, got {self.J}")
        if self.size > _MAX_CELLS:
            raise ConfigError(
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


def _in_parts(work, n: int, threads: int) -> None:
    """Call work(lo, hi) on min(threads, n) consecutive ranges that cover
    range(n), the first on the calling thread and the others on a thread pool.

    Threads pay only where work is large numpy calls, which release the GIL.
    The pool is shut down before this returns, also when a part raises, and
    the exception of the lowest part that raised reaches the caller.
    """
    parts = max(1, min(threads, n))
    if parts == 1:
        work(0, n)
        return
    from concurrent.futures import ThreadPoolExecutor
    edges = [n * i // parts for i in range(parts + 1)]
    with ThreadPoolExecutor(parts - 1) as pool:
        futures = [pool.submit(work, edges[i], edges[i + 1]) for i in range(1, parts)]
        work(edges[0], edges[1])
    for future in futures:
        future.result()


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so draws are reproducible across worker counts."""
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
    """Zero-mean noise field at resolution J, deterministic in (exponent, grid, seed)."""
    rng = make_rng(seed)
    values = exponent.sample(grid.cell_volume, rng, grid.shape)
    values /= grid.cell_volume
    values -= values.mean()
    return values


# ---------------------------------------------------------------------------
# jump laws for compound Poisson noise


@dataclass(frozen=True)
class GaussianJump:
    """Centered normal jump with standard deviation sigma."""

    sigma: float = 1.0
    law_name: ClassVar[str] = "gaussian"

    def __post_init__(self):
        if not self.sigma > 0:
            raise ConfigError(f"jump sigma must be positive, got {self.sigma}")

    def char_fn(self, xi):
        xi = np.asarray(xi, dtype=float)
        return np.exp(-0.5 * (self.sigma * xi) ** 2).astype(complex)

    def sample(self, rng, n):
        return rng.normal(0.0, self.sigma, n)


@dataclass(frozen=True)
class UniformJump:
    """Uniform jump on the interval [a, b]."""

    a: float = -1.0
    b: float = 1.0
    law_name: ClassVar[str] = "uniform"

    def __post_init__(self):
        if not self.a < self.b:
            raise ConfigError(f"uniform jump needs a < b, got [{self.a}, {self.b}]")

    def char_fn(self, xi):
        xi = np.asarray(xi, dtype=float)
        mid = 0.5 * (self.a + self.b)
        half = 0.5 * (self.b - self.a)
        # sin(half*xi)/(half*xi) with the removable singularity at 0
        return np.exp(1j * mid * xi) * np.sinc(half * xi / np.pi)

    def sample(self, rng, n):
        return rng.uniform(self.a, self.b, n)


@dataclass(frozen=True)
class DiracJump:
    """Deterministic jump of size c."""

    c: float = 1.0
    law_name: ClassVar[str] = "dirac"

    def __post_init__(self):
        # a Levy measure puts no mass at 0: zero-size jumps would leave the noise 0
        if self.c == 0:
            raise ConfigError(f"dirac jump size c must be nonzero, got {self.c}")

    def char_fn(self, xi):
        xi = np.asarray(xi, dtype=float)
        return np.exp(1j * self.c * xi)

    def sample(self, rng, n):
        return np.full(n, float(self.c))


_JUMP_LAWS = {law.law_name: law for law in (GaussianJump, UniformJump, DiracJump)}
JumpDistribution = Union[tuple(_JUMP_LAWS.values())]


# ---------------------------------------------------------------------------
# index pair and noise families


class BGIndices(NamedTuple):
    """Growth indices of |psi| at infinity, 0 <= beta_prime <= beta <= 2."""

    beta: float
    beta_prime: float


class LevyExponent:
    """Base class of the noise families: frozen dataclasses with a family_name,
    psi(xi), indices() and sample(volume, rng, shape), which draws one value per
    cell of the given volume, with the law the module docstring states.

    Each dataclass field is one float config key, required when the field has
    no default.  CompoundPoisson overrides both methods to flatten its jump
    law into the keys jump and jump_<field>.
    """

    jump_rate = 0.0  # the mean number of jumps sample draws per unit volume

    @classmethod
    def config_keys(cls) -> dict:
        """Config key -> value type."""
        return {f.name: float for f in fields(cls)}

    @classmethod
    def from_params(cls, params: dict):
        """Build from config parameters; absent keys take the field defaults."""
        for f in fields(cls):
            if f.default is MISSING and f.name not in params:
                raise ConfigError(f"family {cls.family_name!r} requires key {f.name!r}")
        return cls(**params)


def _bin_jumps(cell_rate: float, draw_sizes, rng, shape):
    """Poisson(cell_rate * cells) jumps in uniform cells, sizes from draw_sizes(rng,
    count), summed per cell: in law, independent compound Poisson draws per cell."""
    out = np.zeros(shape)
    cells = rng.integers(0, out.size, rng.poisson(cell_rate * out.size))
    np.add.at(out.reshape(-1), cells, draw_sizes(rng, cells.size))
    return out


# Laplace keeps the 2 E1(eps) = 68 jumps per unit volume above eps.  The dropped
# ones have l2 mass about eps on the unit torus, below the FFT's round-off,
# while the kept ones carry about 1.4.  Candidates per unit volume and side:
# the dominating measure 1/x on (eps, 1) plus e^{-x} on [1, inf).
_LAPLACE_EPS = 1e-15
_LAPLACE_SMALL, _LAPLACE_LARGE = -math.log(_LAPLACE_EPS), math.exp(-1.0)


def _laplace_jumps(rng, count):
    """Candidates from the dominating measure, thinned to e^{-|x|}/|x|
    (Asmussen and Rosinski, J. Appl. Probab. 2001); rejected ones are 0."""
    small = rng.uniform(size=count) < _LAPLACE_SMALL / (_LAPLACE_SMALL + _LAPLACE_LARGE)
    x = np.where(small, _LAPLACE_EPS ** rng.uniform(size=count), 1 + rng.exponential(size=count))
    keep = rng.uniform(size=count) < np.where(small, np.exp(-x), 1.0 / x)
    return np.where(keep, x, 0.0) * rng.choice([-1.0, 1.0], size=count)


@dataclass(frozen=True)
class Gaussian(LevyExponent):
    """Gaussian white noise, psi(xi) = -sigma2 * xi^2 / 2."""

    sigma2: float = 1.0
    family_name: ClassVar[str] = "gaussian"

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ConfigError(f"sigma2 must be positive, got {self.sigma2}")

    def psi(self, xi):
        xi = np.asarray(xi, dtype=float)
        return (-0.5 * self.sigma2 * xi**2).astype(complex)

    def indices(self):
        return BGIndices(2.0, 2.0)

    def sample(self, volume: float, rng, shape):
        return rng.normal(0.0, np.sqrt(self.sigma2 * volume), shape)


_SAMPLE_BLOCK = 1 << 14  # values per block of the stable sampler (128 KiB per buffer)


@dataclass(frozen=True)
class SAlphaS(LevyExponent):
    """Symmetric alpha-stable noise, psi(xi) = -|xi|^alpha, 0 < alpha < 2."""

    alpha: float
    family_name: ClassVar[str] = "sas"

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ConfigError(f"alpha must lie in (0, 2), got {self.alpha}")

    def psi(self, xi):
        xi = np.asarray(xi, dtype=float)
        return (-np.abs(xi) ** self.alpha).astype(complex)

    def indices(self):
        return BGIndices(self.alpha, self.alpha)

    def sample(self, volume: float, rng, shape):
        """Chambers-Mallows-Stuck transform, symmetric case:

        x = sin(alpha u) / cos(u)^(1/alpha) * (cos((1 - alpha) u) / w)^((1 - alpha)/alpha),

        u uniform on (-pi/2, pi/2) and w standard exponential.  All of u is
        drawn first.  For alpha != 1 the arithmetic then runs in blocks of
        _SAMPLE_BLOCK values, small enough to stay in cache, each drawing its
        w in turn, which gives the stream of one whole-field draw; x
        overwrites u, so the field is the one field-size buffer.
        """
        alpha = self.alpha
        scale = volume ** (1.0 / alpha)
        u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, shape)
        if alpha == 1.0:
            x = np.tan(u, out=u)
            x *= scale
            return x
        flat = u.reshape(-1)
        w, tail, x = (np.empty(min(_SAMPLE_BLOCK, flat.size)) for _ in range(3))
        for start in range(0, flat.size, _SAMPLE_BLOCK):
            ub = flat[start:start + _SAMPLE_BLOCK]
            wb, tb, xb = w[:ub.size], tail[:ub.size], x[:ub.size]
            rng.standard_exponential(out=wb)
            np.multiply(ub, 1.0 - alpha, out=tb)
            np.cos(tb, out=tb)
            tb /= wb
            tb **= (1.0 - alpha) / alpha
            np.multiply(ub, alpha, out=xb)
            np.sin(xb, out=xb)
            np.cos(ub, out=wb)
            wb **= 1.0 / alpha
            xb /= wb
            np.multiply(xb, tb, out=ub)
            ub *= scale
        return u


@dataclass(frozen=True)
class CompoundPoisson(LevyExponent):
    """Compound Poisson noise with jump rate per unit volume and a jump law.

    psi(xi) = rate * (jump characteristic function(xi) - 1).
    """

    rate: float = 1.0
    jumps: JumpDistribution = GaussianJump()
    family_name: ClassVar[str] = "compound_poisson"

    def __post_init__(self):
        if not self.rate > 0:
            raise ConfigError(f"rate must be positive, got {self.rate}")
        # about `rate` jumps per trial, on the torus of volume 1
        if self.rate > _MAX_CELLS:
            raise ConfigError(
                f"memory guard: key 'rate' = {self.rate:g} jumps per trial exceeds {_MAX_CELLS}"
            )

    @classmethod
    def config_keys(cls) -> dict:
        keys = {"rate": float, "jump": str}
        for law in _JUMP_LAWS.values():
            keys.update({f"jump_{f.name}": float for f in fields(law)})
        return keys

    @classmethod
    def from_params(cls, params: dict) -> CompoundPoisson:
        kind = params.get("jump", cls.jumps.law_name)
        if kind not in _JUMP_LAWS:
            raise ConfigError(f"unknown jump law {kind!r}")
        law = _JUMP_LAWS[kind]
        given = {key[len("jump_"):]: v for key, v in params.items() if key.startswith("jump_")}
        for name in sorted(set(given) - {f.name for f in fields(law)}):
            raise ConfigError(f"key 'jump_{name}' not applicable to jump law {kind!r}")
        return cls(rate=params.get("rate", cls.rate), jumps=law(**given))

    def psi(self, xi):
        return self.rate * (self.jumps.char_fn(xi) - 1.0)

    def indices(self):
        return BGIndices(0.0, 0.0)

    jump_rate = property(lambda self: self.rate)

    def sample(self, volume: float, rng, shape):
        return _bin_jumps(self.jump_rate * volume, self.jumps.sample, rng, shape)


@dataclass(frozen=True)
class Laplace(LevyExponent):
    """Laplace noise, psi(xi) = -log(1 + xi^2)."""

    family_name: ClassVar[str] = "laplace"
    jump_rate: ClassVar[float] = 2.0 * (_LAPLACE_SMALL + _LAPLACE_LARGE)

    def psi(self, xi):
        xi = np.asarray(xi, dtype=float)
        return (-np.log1p(xi**2)).astype(complex)

    def indices(self):
        return BGIndices(0.0, 0.0)

    def sample(self, volume: float, rng, shape):
        """The jumps above _LAPLACE_EPS of the Levy measure e^{-|x|}/|x|."""
        return _bin_jumps(self.jump_rate * volume, _laplace_jumps, rng, shape)


@dataclass(frozen=True)
class InverseGaussian(LevyExponent):
    """Inverse Gaussian subordinator noise.

    psi(xi) = delta * (ig_gamma - sqrt(ig_gamma^2 - 2i*xi)) with the
    principal square root; |psi| grows like sqrt(|xi|).
    """

    delta: float = 1.0
    ig_gamma: float = 1.0
    family_name: ClassVar[str] = "inverse_gaussian"

    def __post_init__(self):
        if not (self.delta > 0 and self.ig_gamma > 0):
            raise ConfigError(
                f"delta and ig_gamma must be positive, got "
                f"delta={self.delta}, ig_gamma={self.ig_gamma}"
            )

    def psi(self, xi):
        xi = np.asarray(xi, dtype=float)
        g = self.ig_gamma
        val = self.delta * (g - np.sqrt(g * g - 2j * xi))
        # force the defining identity psi(0) = 0 against sqrt round-off
        return np.where(xi == 0.0, 0.0 + 0.0j, val)

    def indices(self):
        return BGIndices(0.5, 0.5)

    def sample(self, volume: float, rng, shape):
        """Michael-Schucany-Haas transform for the inverse Gaussian law of mean
        mu = delta volume / ig_gamma and shape lam = (delta volume)^2, in place."""
        mu = self.delta * volume / self.ig_gamma
        lam = (self.delta * volume) ** 2
        t = rng.normal(size=shape)
        t **= 2
        t *= mu
        t /= lam
        # smaller root of the defining quadratic, written without cancellation:
        # x1 = mu (sqrt(t + 4) - sqrt(t)) / (sqrt(t + 4) + sqrt(t))
        root = t + 4.0
        np.sqrt(root, out=root)
        np.sqrt(t, out=t)
        x1 = root - t
        root += t
        del t
        x1 *= mu
        x1 /= root
        del root
        u = rng.uniform(size=shape)
        # keep x1 with probability mu / (mu + x1), else take mu^2 / x1
        keep = np.add(x1, mu)
        np.divide(mu, keep, out=keep)
        keep = np.less_equal(u, keep)
        np.divide(mu * mu, x1, out=u)
        np.copyto(u, x1, where=keep)
        return u


FAMILIES = {
    cls.family_name: cls for cls in (Gaussian, SAlphaS, CompoundPoisson, Laplace, InverseGaussian)
}


def exponent_from_params(family: str, params: dict) -> LevyExponent:
    """Build a noise family from its config-file name and parameters.

    The one judge of family keys: it names the first key, in the order of
    params, that the family does not take."""
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}")
    keys = FAMILIES[family].config_keys()
    for key in params:
        if key in keys:
            continue
        if any(key in cls.config_keys() for cls in FAMILIES.values()):
            raise ConfigError(f"key {key!r} not applicable to family {family!r}")
        raise ConfigError(f"unknown key {key!r}")
    return FAMILIES[family].from_params(params)


# ---------------------------------------------------------------------------
# compressibility predictions


@dataclass(frozen=True)
class KappaPrediction:
    """Predicted n-term decay exponent for a driven process, and the rule
    that judges a measured median against it.

    kind is "exact" (value), "bounds" ([lower, upper]) or "infinite", whose
    lower is the floor a median must reach; it is None when the
    admissibility inequality for the prediction does not hold, in which
    case no value is attached.
    """

    kind: str | None
    value: float | None = None
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self):
        if self.kind not in ("exact", "bounds", "infinite", None):
            raise ConfigError(f"unknown prediction kind {self.kind!r}")
        if self.kind == "bounds" and not self.lower <= self.upper:
            raise ConfigError(
                f"bounds must be ordered, got [{self.lower}, {self.upper}]"
            )

    @property
    def condition_satisfied(self) -> bool:
        return self.kind is not None

    def sort_key(self) -> float:
        """Scalar usable to order families by predicted compressibility."""
        if self.kind == "exact":
            return self.value
        if self.kind == "bounds":
            return self.lower
        if self.kind == "infinite":
            return math.inf
        return math.nan

    def verdict(self, median: float, tolerance: float) -> str:
        """Verdict on a measured median: "pass", "fail", or "unchecked" with no prediction.

        Two-sided within tolerance of an exact value, one-sided against each
        bound, and with no tolerance at the floor of an infinite prediction."""
        if self.kind is None:
            return "unchecked"
        if self.kind == "exact":
            ok = abs(median - self.value) <= tolerance
        elif self.kind == "bounds":
            ok = self.lower - tolerance <= median <= self.upper + tolerance
        else:
            ok = median >= self.lower
        return "pass" if ok else "fail"

    def record(self) -> dict:
        """The summary's theory entry: the kind and its values, the floor left out."""
        record = {"kind": self.kind, "condition_satisfied": self.condition_satisfied}
        if self.kind == "exact":
            record["value"] = self.value
        elif self.kind == "bounds":
            record.update(lower=self.lower, upper=self.upper)
        return record

    def describe(self) -> str:
        if self.kind == "exact":
            return f"exact {self.value:.6g}"
        if self.kind == "bounds":
            return f"bounds [{self.lower:.6g}, {self.upper:.6g}]"
        if self.kind == "infinite":
            return "infinite (faster than any polynomial)"
        return "no prediction (admissibility condition not met)"


def admissibility(exponent: LevyExponent, d: int, p0: float = 2.0, tau0: float = 0.0) -> tuple:
    """The inequality gamma must satisfy for a prediction to hold: (formula, bound).

    Gaussian noise needs gamma > tau0 + d/2; any other family needs
    gamma > tau0 + d - d/p0.
    """
    if d < 1:
        raise ConfigError(f"dimension must be >= 1, got {d}")
    if not p0 > 0:
        raise ConfigError(f"p0 must be positive, got {p0}")
    if isinstance(exponent, Gaussian):
        return "gamma > tau0 + d/2", tau0 + d / 2.0
    return "gamma > tau0 + d - d/p0", tau0 + d - d / p0


def theoretical_kappa(
    exponent: LevyExponent,
    gamma: float,
    d: int,
    p0: float = 2.0,
    tau0: float = 0.0,
) -> KappaPrediction:
    """Predicted decay exponent of the n-term error for s solving Ls = w.

    Gaussian noise: exact value (gamma - tau0)/d - 1/2, valid when
    gamma > tau0 + d/2.  Non-Gaussian noise with indices (beta, beta'):
    valid when gamma > tau0 + d - d/p0; infinite when beta = 0, otherwise
    bounded between (gamma - tau0)/d + 1/beta - 1 and the same with beta'.
    p0 may be math.inf, meaning 1/p0 = 0 in the condition.
    """
    if not gamma > 0:
        raise ConfigError(f"gamma must be positive, got {gamma}")
    if not gamma > admissibility(exponent, d, p0, tau0)[1]:
        return KappaPrediction(kind=None)
    gaussian_rate = (gamma - tau0) / d - 0.5
    if isinstance(exponent, Gaussian):
        return KappaPrediction("exact", value=gaussian_rate)
    idx = exponent.indices()
    if idx.beta == 0.0:
        # no finite target exists; require a clear margin over the matching
        # Gaussian-noise rate, which every family of this kind must beat
        return KappaPrediction("infinite", lower=gaussian_rate + 0.5)
    return KappaPrediction(
        "bounds",
        lower=(gamma - tau0) / d + 1.0 / idx.beta - 1.0,
        upper=(gamma - tau0) / d + 1.0 / idx.beta_prime - 1.0,
    )
