"""Energy-preserving implicit Runge-Kutta methods on shifted-Legendre bases.

The top level re-exports each module's __all__, so a module's public names
are decided in that module alone.
"""

from . import integrator, legendre, problems, spectral, tableau
from .legendre import *
from .tableau import *
from .spectral import *
from .integrator import *
from .problems import *

__all__ = [*legendre.__all__, *tableau.__all__, *spectral.__all__,
           *integrator.__all__, *problems.__all__]

__version__ = "0.1.0"
