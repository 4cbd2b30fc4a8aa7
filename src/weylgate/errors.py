"""Exception types raised across the package.

Input-domain problems (a matrix that is not unitary, a state that is not
normalized, ...) and numerical failures (a verification residual that did
not meet its bound, a search that found nothing) get distinct classes so
callers can tell them apart.

An argument is parsed once, where it enters (``linalg._as_array``): a wrong
shape raises ``InvalidInputError``, and entries that are not finite numbers
(or complex where reals are due) raise the argument's own error class.
"""

__all__ = [
    "ConvergenceError",
    "DegenerateHamiltonianError",
    "InvalidInputError",
    "NotHermitianError",
    "NotLocalError",
    "NotNonlocalError",
    "NotNormalizedError",
    "NotPerfectEntanglerError",
    "NotUnitaryError",
    "VerificationError",
    "WeylgateError",
]


class WeylgateError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(WeylgateError, ValueError):
    """A wrong shape; coordinates, coefficients, times or other scalars that
    are not finite reals; an unknown gate name, Hamiltonian or option; or
    arguments too large to compute with.  A ``ValueError`` too."""


class NotUnitaryError(WeylgateError):
    """A matrix expected to be unitary is not, within tolerance."""


class NotHermitianError(WeylgateError):
    """A matrix expected to be Hermitian is not, within tolerance."""


class NotLocalError(WeylgateError):
    """A gate expected to be a tensor product of single-qubit gates is not."""


class NotNonlocalError(WeylgateError):
    """A Hamiltonian expected to be purely two-body has single-qubit terms."""


class NotNormalizedError(WeylgateError):
    """A state vector does not have unit norm within tolerance."""


class NotPerfectEntanglerError(WeylgateError):
    """A gate required to be a perfect entangler is not one."""


class DegenerateHamiltonianError(WeylgateError):
    """The coupling coefficients make the pulse-time system singular."""


class VerificationError(WeylgateError):
    """A computed result failed its self-verification bound (a residual, or
    a KAK left frame that is not real)."""


class ConvergenceError(WeylgateError):
    """An iterative or scanning procedure did not reach its goal."""
