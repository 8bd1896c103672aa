"""Simulation and analysis of a strongly driven two-level system.

Exact unitary propagation under a harmonically driven bias, rotating-wave
and transfer-matrix resonance predictors, and the comparison machinery
(spectral extraction, regime classification, parameter scans) to check
them against each other.
"""

__version__ = "1.0.0"

# Each module's __all__ is its public list; the package re-exports them all.
from .analysis import *
from .dynamics import *
from .errors import *
from .rwa import *
from .specfun import *
from .transfer_matrix import *

__all__ = [
    "__version__",
    *analysis.__all__,
    *dynamics.__all__,
    *errors.__all__,
    *rwa.__all__,
    *specfun.__all__,
    *transfer_matrix.__all__,
]
