"""Periodic Levy noise simulation and wavelet n-term compressibility measurement."""

__version__ = "0.1.0"

from .exponents import (
    BGIndices,
    CompoundPoisson,
    DiracJump,
    Gaussian,
    GaussianJump,
    InverseGaussian,
    KappaPrediction,
    Laplace,
    FAMILIES,
    ParameterError,
    SAlphaS,
    UniformJump,
    admissibility,
    theoretical_kappa,
)
from .sampling import (
    GridSpec,
    generate_noise,
    make_rng,
    trial_seed,
)
from .spectral import (
    FractionalLaplacian,
    Matern,
    OPERATORS,
    apply_inverse_operator,
    forward_fft,
    inverse_fft,
    synthesize_process,
)
from .wavelets import (
    WaveletCoeffs,
    WaveletSpec,
    daubechies_lowpass,
    dwt_periodic,
    quadrature_mirror_highpass,
)
from .besov import (
    BesovParams,
    estimate_kappa,
    sigma_curve,
    weighted_magnitudes,
)
from .harness import (
    ComparisonReport,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    compare_families,
    emit_outputs,
    load_config,
    parse_config,
    run_experiment,
)
