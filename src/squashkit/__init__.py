"""Squash operators for BB84 threshold detectors.

Core surfaces: dense complex linear algebra (:mod:`squashkit.linalg`),
BB84 measurement sets (:mod:`squashkit.povm`), finite-group symmetry
machinery (:mod:`squashkit.groups`), photon-number-sector detector models
(:mod:`squashkit.fock`), the analytic squash constructor
(:mod:`squashkit.builder`), the feasibility finder, which decides exactly
by the numerical-radius witness and builds the map by a doubling solve
(:mod:`squashkit.finder`), and the symmetrization/no-go lab
(:mod:`squashkit.nogo`).
"""

from .builder import (
    MuDecomposition,
    SquashMap,
    VerificationReport,
    complete_trace_preserving,
    construct_theorem1,
    extract_rank2,
    kraus_core,
    mu_decompose,
    squash_from_kraus,
    verify_squash,
)
from .finder import (
    BlochWitness,
    FeasibilityReport,
    bloch_witness,
    find_squash,
)
from .fock import (
    DetectorModel,
    FockSector,
    build_detector,
    build_u_n,
    enumerate_sectors,
    fock_sector,
    state_nrb,
)
from .groups import (
    C4Symmetry,
    FiniteGroup,
    LabelAction,
    canonical_c4_action,
    check_definition1,
    check_definition2,
    cyclic_group,
    symmetric_group_s3,
)
from .linalg import HermitianEig, hermitian_eig, kron, unitary_from_generator
from .nogo import (
    AttackResult,
    SymmetrizedPovm,
    bbm92_attack,
    counterexample_m0,
    pullback_squash,
    symmetrize,
    verify_trace_identity,
)
from .povm import Bb84Povm, ideal_qubit_povm, make_povm, validate

__version__ = "0.1.0"
