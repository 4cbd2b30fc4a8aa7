"""Geometry of two-qubit gates on the Weyl chamber.

Local invariants, canonical coordinates, KAK decomposition,
perfect-entangler tests and witnesses, Hamiltonian coordinate flows, and
minimal three-pulse circuit synthesis for 4x4 unitaries.

Each module's ``__all__`` is its public surface; the package re-exports
them all, and ``__all__`` here is their concatenation.
"""

from . import cartan, chamber, entangler, errors, hamflow, invariants, kak, linalg, synth
from .cartan import *
from .chamber import *
from .entangler import *
from .errors import *
from .hamflow import *
from .invariants import *
from .kak import *
from .linalg import *
from .synth import *

__version__ = "0.1.0"

__all__ = []
__all__ += cartan.__all__
__all__ += chamber.__all__
__all__ += entangler.__all__
__all__ += errors.__all__
__all__ += hamflow.__all__
__all__ += invariants.__all__
__all__ += kak.__all__
__all__ += linalg.__all__
__all__ += synth.__all__
