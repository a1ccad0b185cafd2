"""Two-qubit entangled-state discrimination with local measurements.

The package builds the polarisation-entangled state families used in
minimum-error discrimination experiments, derives the exact feed-forward
protocol that distinguishes any orthogonal pair, bounds and optimises
measurements without feed-forward, simulates coincidence counting, and
reconstructs states from tomographic records by maximum likelihood.
"""

from .errors import (
    ConvergenceFailure,
    DiscriminationError,
    EmptyCountsError,
    IncompletePOVMError,
    InvalidDensityError,
    InvalidProtocolError,
    NotHermitianError,
    NotOrthogonalError,
    NotTracelessError,
)
from .linalg import HermitianEig, hermitian_eig, kron, trace_norm
from .states import (
    DensityMatrix2Q,
    PureState2Q,
    fidelity_pure,
    phi0,
    phi1,
    psi_pair,
    tangle,
    u_perp_state,
    u_state,
    werner_noise,
)
from .discrimination import (
    EQUAL_PRIORS,
    FeedForwardProtocol,
    OptimizerConfig,
    PriorPair,
    advantage,
    canonical_protocol,
    ff_success_probability,
    helstrom_bound,
    hollow_vector,
    optimize_local_projective,
    walgate_decompose,
)
from .measurement import (
    COINCIDENCE_LABELS,
    CoincidenceCounts,
    DiscriminationEstimate,
    TomographyRecord,
    draw_coincidences,
    estimate,
    protocol_to_povm,
    sample_coincidences,
    simulate_tomography,
)
from .tomography import (
    MLEConfig,
    MLEResult,
    log_likelihood,
    mle_reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "COINCIDENCE_LABELS",
    "CoincidenceCounts",
    "ConvergenceFailure",
    "DensityMatrix2Q",
    "DiscriminationError",
    "DiscriminationEstimate",
    "EQUAL_PRIORS",
    "EmptyCountsError",
    "FeedForwardProtocol",
    "HermitianEig",
    "IncompletePOVMError",
    "InvalidDensityError",
    "InvalidProtocolError",
    "MLEConfig",
    "MLEResult",
    "NotHermitianError",
    "NotOrthogonalError",
    "NotTracelessError",
    "OptimizerConfig",
    "PriorPair",
    "PureState2Q",
    "TomographyRecord",
    "advantage",
    "canonical_protocol",
    "draw_coincidences",
    "estimate",
    "ff_success_probability",
    "fidelity_pure",
    "helstrom_bound",
    "hermitian_eig",
    "hollow_vector",
    "kron",
    "log_likelihood",
    "mle_reconstruct",
    "optimize_local_projective",
    "phi0",
    "phi1",
    "protocol_to_povm",
    "psi_pair",
    "sample_coincidences",
    "simulate_tomography",
    "tangle",
    "trace_norm",
    "u_perp_state",
    "u_state",
    "walgate_decompose",
    "werner_noise",
]
