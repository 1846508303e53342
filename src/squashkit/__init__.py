"""Squash operators for BB84 threshold detectors.

Core surfaces: dense complex linear algebra (:mod:`squashkit.linalg`),
BB84 measurement sets (:mod:`squashkit.povm`), photon-number-sector
detector models with their four-cycle unitary (:mod:`squashkit.fock`), the
squash map record with its verification (:mod:`squashkit.squashmap`), the
analytic squash constructor with its Definition-1 check
(:mod:`squashkit.builder`), the feasibility finder, which decides exactly
by the numerical-radius witness and builds the map by a doubling solve
(:mod:`squashkit.finder`), and the symmetrization/no-go lab with its finite
groups, label actions and Definition-2 check (:mod:`squashkit.nogo`).

``import squashkit`` loads only what deciding a measurement set runs:
``errors``, ``linalg``, ``povm``, ``squashmap`` and ``finder``. ``builder``,
``fock`` and ``nogo``, and the names they export here, load on first access
(PEP 562), so a caller that only decides sets does not compile the
constructor, the detector models or the no-go lab. Validation, both
Definition checks and squash verification return one record,
:class:`~squashkit.linalg.CheckReport`, so ``nogo`` does not load
``builder``. :mod:`squashkit.cli` imports every module at its top: one
process may run many subcommands, and importing per command would only move
the compile time into the first of them.
"""

import importlib

from .finder import BlochWitness, FeasibilityReport, bloch_witness, find_squash
from .linalg import CheckReport, unitary_from_generator
from .povm import Bb84Povm, ideal_qubit_povm, make_povm, validate
from .squashmap import SquashMap, squash_from_kraus, verify_squash

__version__ = "0.1.0"

#: Public name -> the submodule it is loaded from on first access.
_LAZY = {
    **dict.fromkeys(
        ("MuDecomposition", "check_definition1", "complete_trace_preserving",
         "construct_theorem1", "extract_rank2", "kraus_core", "mu_decompose"),
        "builder",
    ),
    **dict.fromkeys(
        ("C4Symmetry", "DetectorModel", "FockSector", "build_detector", "build_u_n",
         "enumerate_sectors", "fock_sector", "state_nrb"),
        "fock",
    ),
    **dict.fromkeys(
        ("AttackResult", "FiniteGroup", "LabelAction", "SymmetrizedPovm", "bbm92_attack",
         "canonical_c4_action", "check_definition2", "counterexample_m0", "cyclic_group",
         "pullback_squash", "symmetric_group_s3", "symmetrize", "verify_trace_identity"),
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
