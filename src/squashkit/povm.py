"""BB84-type measurement sets: validation, observables and the JSON format.

A measurement set has four elements indexed by basis r in {z, x} and bit
b in {0, 1}, each basis pair summing to the identity. The cyclic view
L_0..L_3 orders them as z0, x0, z1, x1. The observable M_r of basis r,
``Bb84Povm.difference(r)``, is the Hermitian part (D + D+)/2 of the
difference D = M(r,0) - M(r,1), so the witness, the constructor and
verification all read one exactly Hermitian matrix. Only :func:`validate`
judges whether the elements are Hermitian; on a set it passes, M_r differs
from D by an anti-Hermitian part it has already bounded. A set is validated
once, by the code that reads or builds it; the engines take it as given.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import SquashkitError

#: Cyclic ordering of the four outcome labels (index c in the L_c view).
LABELS = ("z0", "x0", "z1", "x1")


def label(r: str, b: int) -> str:
    if r not in ("z", "x") or b not in (0, 1):
        raise SquashkitError(f"bad outcome label ({r!r}, {b!r})")
    return f"{r}{b}"


class Bb84Povm(linalg.Checked, NamedTuple("Bb84Povm", [("dim", int),
                                                        ("elements", MappingProxyType)])):
    """Four elements by label, each a read-only complex matrix; built only by :func:`make_povm`."""

    __slots__ = ()

    def __new__(cls, dim, elements):
        p = make_povm(elements)
        if dim != p.dim:
            raise SquashkitError("declared dim disagrees with element matrices")
        return p

    def element(self, r: str, b: int) -> np.ndarray:
        return self.elements[label(r, b)]

    def difference(self, r: str) -> np.ndarray:
        """Observable M_r of basis r: the Hermitian part of M_(r,0) - M_(r,1)."""
        diff = self.element(r, 0) - self.element(r, 1)
        return (diff + linalg.dagger(diff)) / 2

    def l_element(self, c: int) -> np.ndarray:
        """Element at cyclic position c (z0, x0, z1, x1)."""
        return self.elements[LABELS[c % 4]]


def make_povm(elements: dict) -> Bb84Povm:
    """Build a measurement set from a label -> matrix mapping; it holds read-only copies."""
    mats = {}
    dim = None
    for key in LABELS:
        if key not in elements:
            raise SquashkitError(f"missing element {key!r}")
        m = linalg.as_matrix(elements[key]).copy()
        m.flags.writeable = False
        if dim is None:
            dim = m.shape[0]
        elif m.shape[0] != dim:
            raise SquashkitError("POVM elements have inconsistent dimensions")
        mats[key] = m
    # the class call would check it again
    return tuple.__new__(Bb84Povm, (dim, MappingProxyType(mats)))


def ideal_qubit_povm() -> Bb84Povm:
    """Projective qubit measurements of sigma_z and sigma_x."""
    eye = np.eye(2, dtype=complex)
    return make_povm(
        {
            "z0": (eye + linalg.PAULI_Z) / 2,
            "z1": (eye - linalg.PAULI_Z) / 2,
            "x0": (eye + linalg.PAULI_X) / 2,
            "x1": (eye - linalg.PAULI_X) / 2,
        }
    )


@np.errstate(all="ignore")  # an entry near the float limit gives an inf or NaN, which fails
def validate(p: Bb84Povm, tol: float = linalg.TOL) -> linalg.CheckReport:
    """Check positivity of every element and per-basis completeness.

    Residual ``psd.<label>`` is minus the element's least eigenvalue, or inf when it is not
    Hermitian; ``sum.<basis>`` is the Frobenius norm of the basis pair's sum minus the identity.
    """
    stack = np.stack([p.elements[key] for key in LABELS])  # basis r's pair sits at c and c + 2
    psd = (-np.linalg.eigvalsh((stack + stack.conj().swapaxes(1, 2)) / 2)[:, 0]).tolist()
    residuals = {
        f"psd.{key}": psd[c] if linalg.is_hermitian(stack[c]) else np.inf
        for c, key in enumerate(LABELS)
    }
    eye = np.eye(p.dim, dtype=complex)
    for c, r in enumerate("zx"):
        residuals[f"sum.{r}"] = linalg.frob(stack[c] + stack[c + 2] - eye)
    return linalg.CheckReport(residuals, tol)


def povm_to_json(p: Bb84Povm) -> dict:
    return {
        "dim": int(p.dim),
        "elements": {key: linalg.matrix_to_json(p.elements[key]) for key in LABELS},
    }


def povm_from_json(obj: dict) -> Bb84Povm:
    blobs = linalg.json_field(obj, "elements", dict)
    elements = {key: linalg.matrix_from_json(linalg.json_field(blobs, key)) for key in LABELS}
    return Bb84Povm(linalg.json_field(obj, "dim", int), elements)
