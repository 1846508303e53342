"""Threshold-detector models on fixed photon-number sectors.

A sector holds only the photon count n_i of each propagation mode i. Its
basis is the Kronecker order of the modes' (n_i + 1)-sized bases, the first
mode slowest: within mode i the j-th vector has n_i - j photons in
polarization z0 and j in z1, so the first basis vector is the state that
always fires the b=0 detector in the z basis and the last the b=1 one.

A sector is the tensor product of its modes, and so are its pieces: each x
click state is the outer product of one amplitude vector per mode, and the
rotation U_N is the Kronecker product of one (n_i + 1)-sized rotation per
mode, a factor of 1 where n_i = 0.

The detector assigns a uniformly random bit to double clicks, which makes
the basis observables rank two: every configuration other than the two
single-click ones cancels in M(r,0) - M(r,1).
"""

from __future__ import annotations

import itertools
import numbers
from functools import reduce
from math import comb, prod, sqrt
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import linalg, povm
from .errors import SelfCheckFailed, SquashkitError


class FockSector(linalg.Checked, NamedTuple("FockSector", [("photons", tuple)])):
    """The photon counts (n_1, ..., n_m), one per mode; built only by :func:`fock_sector`."""

    __slots__ = ()

    def __new__(cls, photons):
        return fock_sector(photons)

    @property
    def dim(self) -> int:
        return prod(n + 1 for n in self.photons)


def fock_sector(photons) -> FockSector:
    """The sector of the given photon counts, one per mode; numpy integers are accepted."""
    try:
        n = tuple(photons)
    except TypeError as exc:
        raise SquashkitError(f"photon counts must be a sequence, got {photons!r}") from exc
    if not all(isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in n):
        raise SquashkitError(f"photon counts must be integers, got {n}")
    n = tuple(int(x) for x in n)
    if len(n) < 1:
        raise SquashkitError("need at least one mode")
    if any(x < 0 for x in n):
        raise SquashkitError("photon counts must be nonnegative")
    if sum(n) < 1:
        raise SquashkitError("vacuum sector has no click statistics to model")
    return tuple.__new__(FockSector, (n,))  # the class call would check it again


def state_nrb(sector: FockSector, r: str, b: int) -> np.ndarray:
    """The n-photon polarization state that fires only detector b of basis r."""
    povm.label(r, b)  # refuses a bad outcome label
    v = np.zeros(sector.dim, dtype=complex)
    if r == "z":  # all photons in z0 (the first basis vector) or all in z1 (the last)
        v[-b] = 1.0
        return v
    # mode amplitude at k photons in z1; int / int division is correctly rounded
    modes = [[(-1.0) ** (b * k) * sqrt(comb(n, k) / 2**n) for k in range(n + 1)]
             for n in sector.photons]
    v[:] = np.ravel(reduce(np.multiply.outer, modes))
    return v / linalg.frob(v)


class C4Symmetry(linalg.Checked, NamedTuple("C4Symmetry", [("u", np.ndarray)])):
    """A unitary cycling the four labels; its global phase is free.

    ``u`` is a read-only complex copy of the matrix passed in.
    """

    __slots__ = ()

    @np.errstate(all="ignore")  # an entry near the float limit gives an inf or NaN, refused below
    def __new__(cls, u):
        m = linalg.as_matrix(u).copy()
        if not linalg.frob(linalg.dagger(m) @ m - np.eye(m.shape[0])) <= linalg.TOL:
            raise SquashkitError(f"U is not unitary within {linalg.TOL}")
        m.flags.writeable = False
        return super().__new__(cls, m)


class DetectorModel(linalg.Checked, NamedTuple("DetectorModel", [
    ("sector", FockSector),
    ("povm", povm.Bb84Povm),
    ("symmetry", C4Symmetry),  # U_N, cycling the outcomes z0 -> x0 -> z1 -> x1
    ("states", MappingProxyType),  # label -> read-only state vector
])):
    """A sector's detector; every field follows from the sector, through :func:`build_detector`."""

    __slots__ = ()

    def __new__(cls, sector, povm, symmetry, states):
        model = build_detector(sector)
        given = tuple.__new__(cls, (model.sector, povm, symmetry, states))
        if _bits(detector_to_json(given)) != _bits(detector_to_json(model)):  # as written
            raise SquashkitError(f"fields differ from the detector of {model.sector.photons}")
        return model

    def __reduce__(self):  # not the class call, which also compares JSON: 8x slower at (200,)
        return build_detector, (self.sector,)


def _bits(tree):
    """A tree with each array as its bytes, so that -0.0 and 0.0 differ, as they do when written."""
    if isinstance(tree, dict):
        return {key: _bits(value) for key, value in tree.items()}
    return tree.tobytes() if isinstance(tree, np.ndarray) else tree


def build_detector(sector: FockSector) -> DetectorModel:
    """Threshold-detector POVM on a sector, double clicks randomized into b."""
    sector = FockSector(*sector)  # rechecked: a tuple forged past the check is refused too
    states = {
        povm.label(r, b): state_nrb(sector, r, b) for r in ("z", "x") for b in (0, 1)
    }
    for vec in states.values():
        vec.flags.writeable = False
    eye = np.eye(sector.dim, dtype=complex)
    elements = {}
    for r in ("z", "x"):
        p0 = np.outer(states[f"{r}0"], states[f"{r}0"].conj())
        p1 = np.outer(states[f"{r}1"], states[f"{r}1"].conj())
        double = 0.5 * (eye - p0 - p1)
        elements[f"{r}0"] = p0 + double
        elements[f"{r}1"] = p1 + double
    p = povm.make_povm(elements)
    if not povm.validate(p).passed:
        raise SelfCheckFailed(f"detector set for sector {sector.photons} fails validation")
    sym = C4Symmetry(u=build_u_n(sector))
    # the class call would build it again
    return tuple.__new__(DetectorModel, (sector, p, sym, MappingProxyType(states)))


def _mode_rotation(n: int) -> np.ndarray:
    """exp(-i pi/4 G) on one mode's n + 1 configurations.

    G = 1j*(a+_z1 a_z0 - a+_z0 a_z1) is the photon-number difference along the
    y polarization axis; in the basis of k = 0..n photons in z1 it hops k -> k + 1
    with amplitude 1j*sqrt((k + 1)(n - k)).
    """
    k = np.arange(n)
    hop = 1j * np.sqrt((k + 1) * (n - k))
    return linalg.unitary_from_generator(np.diag(hop, -1) - np.diag(hop, 1), -np.pi / 4.0)


def build_u_n(sector: FockSector) -> np.ndarray:
    """The 45-degree polarization rotation that cycles the detector outcomes.

    Exponentiates the y-axis photon-number difference with angle -pi/4; the
    sign is fixed by requiring that conjugation sends the z outcomes to the
    x outcomes (the opposite sign sends them to the flipped x outcomes). The
    generator is a sum of commuting per-mode terms, so U_N is the Kronecker
    product of the per-mode rotations.

    U_N^4 is -1 for an odd photon number and +1 for an even one. That global
    phase is free: conjugation ignores it, and the constructor reads it off
    U^4 v.
    """
    rotations = {n: _mode_rotation(n) for n in set(sector.photons) if n}
    return reduce(np.kron, [rotations[n] for n in sector.photons if n])


def enumerate_sectors(max_total: int, max_modes: int = 3) -> list:
    """All sectors with 1..max_modes modes and total photon number <= max_total."""
    out = []
    for m in range(1, max_modes + 1):
        for total in range(1, max_total + 1):
            for cfg in itertools.product(range(total + 1), repeat=m):
                if sum(cfg) == total:
                    out.append(fock_sector(cfg))
    return out


def detector_to_json(model: DetectorModel) -> dict:
    return {
        "N": [int(n) for n in model.sector.photons],
        "dim": int(model.sector.dim),
        "povm": povm.povm_to_json(model.povm),
        "U_N": linalg.matrix_to_json(model.symmetry.u),
        "states": {
            key: linalg.vector_to_json(vec) for key, vec in sorted(model.states.items())
        },
    }
