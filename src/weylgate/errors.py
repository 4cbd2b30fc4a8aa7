"""Exception types raised across the package.

Input-domain problems (a matrix that is not unitary, a state that is not
normalized, ...) and numerical failures (a verification residual that did
not meet its bound, a branch search that found nothing) get distinct
classes so callers can tell them apart.
"""


class WeylgateError(Exception):
    """Base class for all package-specific errors."""


class NotUnitaryError(WeylgateError):
    """A matrix expected to be unitary is not, within tolerance."""


class NotHermitianError(WeylgateError):
    """A matrix expected to be Hermitian is not, within tolerance."""


class NotSymmetricError(WeylgateError):
    """A real matrix expected to be symmetric is not, within tolerance."""


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


class BranchSearchError(WeylgateError):
    """A chosen sign or branch failed its acceptance test (e.g. a KAK frame not real)."""


class VerificationError(WeylgateError):
    """A computed result failed its self-verification residual bound."""


class ConvergenceError(WeylgateError):
    """An iterative or scanning procedure did not reach its goal."""
