"""Periodic Levy noise simulation and wavelet n-term compressibility measurement.

The package republishes each module's __all__, the one list of its public names."""

__version__ = "0.1.0"

from .exponents import *
from .spectral import *
from .wavelets import *
from .besov import *
from .harness import *
