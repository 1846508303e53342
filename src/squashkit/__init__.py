"""Squash operators for BB84 threshold detectors.

Core surfaces: dense complex linear algebra (:mod:`squashkit.linalg`),
BB84 measurement sets (:mod:`squashkit.povm`), finite-group symmetry
machinery (:mod:`squashkit.groups`), photon-number-sector detector models
(:mod:`squashkit.fock`), the squash map record with its verification
(:mod:`squashkit.squashmap`), the analytic squash constructor
(:mod:`squashkit.builder`), the feasibility finder, which decides exactly
by the numerical-radius witness and builds the map by a doubling solve
(:mod:`squashkit.finder`), and the symmetrization/no-go lab
(:mod:`squashkit.nogo`).

``import squashkit`` loads only what deciding a measurement set runs:
``errors``, ``linalg``, ``povm``, ``squashmap`` and ``finder``. ``builder``,
``groups``, ``fock`` and ``nogo``, and the names they export here, load on
first access (PEP 562), so a caller that only decides sets does not compile
the constructor, the group machinery, the detector models or the no-go lab
(each of the other three loads ``groups`` with it). :mod:`squashkit.cli`
imports every module at its top: one process may run many subcommands, and
importing per command would only move the compile time into the first of them.
"""

import importlib

from .finder import BlochWitness, FeasibilityReport, bloch_witness, find_squash
from .linalg import HermitianEig, hermitian_eig, kron, unitary_from_generator
from .povm import Bb84Povm, ideal_qubit_povm, make_povm, validate
from .squashmap import SquashMap, VerificationReport, squash_from_kraus, verify_squash

__version__ = "0.1.0"

#: Public name -> the submodule it is loaded from on first access.
_LAZY = {
    **dict.fromkeys(
        ("MuDecomposition", "complete_trace_preserving", "construct_theorem1", "extract_rank2",
         "kraus_core", "mu_decompose"),
        "builder",
    ),
    **dict.fromkeys(
        ("DetectorModel", "FockSector", "build_detector", "build_u_n", "enumerate_sectors",
         "fock_sector", "state_nrb"),
        "fock",
    ),
    **dict.fromkeys(
        ("C4Symmetry", "FiniteGroup", "LabelAction", "canonical_c4_action", "check_definition1",
         "check_definition2", "cyclic_group", "symmetric_group_s3"),
        "groups",
    ),
    **dict.fromkeys(
        ("AttackResult", "SymmetrizedPovm", "bbm92_attack", "counterexample_m0",
         "pullback_squash", "symmetrize", "verify_trace_identity"),
        "nogo",
    ),
}


def __getattr__(name: str):
    if name in _LAZY.values():  # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
