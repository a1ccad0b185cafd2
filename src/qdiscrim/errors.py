"""Exception types raised across the library.

Range and argument errors on plain scalars use the builtin ``ValueError``;
the classes here mark failures of the physical or numerical contracts.
"""


class DiscriminationError(Exception):
    """Base class for all library-specific errors."""


class NotHermitianError(DiscriminationError):
    """A matrix required to be Hermitian deviates beyond tolerance."""


class NotTracelessError(DiscriminationError):
    """A matrix required to be traceless has a significant trace."""


class NotOrthogonalError(DiscriminationError):
    """Two states required to be orthogonal have a significant overlap."""


class NotUnitaryError(DiscriminationError):
    """A matrix required to be unitary deviates beyond tolerance."""


class InvalidDensityError(DiscriminationError):
    """A density matrix violates hermiticity, unit trace or positivity."""


class InvalidProtocolError(DiscriminationError):
    """A feed-forward protocol violates its orthonormality constraints."""


class IncompletePOVMError(DiscriminationError):
    """POVM elements do not sum to the identity within tolerance."""


class EmptyCountsError(DiscriminationError):
    """A count record needed for estimation contains no events."""


class ConvergenceFailure(DiscriminationError):
    """A numerical method missed its tolerance or failed a postcondition."""
