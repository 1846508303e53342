"""The squash map record: its checked type, its verification and its JSON form.

A map from dimension d to a qubit is held in the sigma_y output frame as a
row pair (G0, G1), its k-th Kraus operator F_k = |0_y> g0_k + |1_y> g1_k.
The constructor (:mod:`squashkit.builder`), the finder and the no-go
pullback all return one. This module needs neither the constructor nor the
group machinery, so deciding a measurement set loads neither.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg, povm
from .errors import SquashkitError

#: Columns |0_y>, |1_y>, the eigenvectors of sigma_y in the output-qubit z coordinates:
#: the unitary that takes sigma_y-frame rows to z-frame Kraus operators.
Y_FRAME = np.array([[1.0, 1.0], [1.0j, -1.0j]]) / np.sqrt(2.0)


def trace_defect(g0: np.ndarray, g1: np.ndarray) -> float:
    """Frobenius norm of G0+ G0 + G1+ G1 - 1: how far the pair's map is from preserving trace."""
    gram = linalg.dagger(g0) @ g0 + linalg.dagger(g1) @ g1
    return linalg.frob(gram - np.eye(g0.shape[1]))


class SquashMap(linalg.Checked, NamedTuple("SquashMap", [("g0", np.ndarray), ("g1", np.ndarray)])):
    """A trace-preserving map to a qubit, held in the sigma_y output frame.

    Its k-th Kraus operator is F_k = |0_y> g0_k + |1_y> g1_k, where g0_k and
    g1_k are the k-th rows of ``g0`` and ``g1``, both held as read-only
    complex copies of shape (K, d).
    """

    __slots__ = ()

    @np.errstate(all="ignore")  # an entry near the float limit gives an inf or NaN, refused below
    def __new__(cls, g0, g1):
        g0, g1 = np.array(g0, dtype=complex), np.array(g1, dtype=complex)
        g0.flags.writeable = g1.flags.writeable = False
        if g0.ndim != 2 or g0.shape != g1.shape:
            raise SquashkitError(f"rows {g0.shape} and {g1.shape} are not one (K, d) pair")
        if not trace_defect(g0, g1) <= linalg.TOL:  # NaN rows fail too
            raise SquashkitError("Kraus operators do not sum to the identity")
        return super().__new__(cls, g0, g1)

    @property
    def in_dim(self) -> int:
        return self.g0.shape[1]

    @property
    def kraus(self) -> np.ndarray:
        """The z-frame Kraus operators |0_y> g0_k + |1_y> g1_k, a read-only (K, 2, d) array."""
        kraus = Y_FRAME @ np.stack([self.g0, self.g1], axis=1)
        kraus.flags.writeable = False
        return kraus


def squash_from_kraus(in_dim: int, kraus) -> SquashMap:
    """The map of z-frame Kraus operators, any sequence of 2 x ``in_dim`` matrices."""
    if len(kraus) == 0:
        raise SquashkitError("need at least one Kraus operator")
    for f in kraus:
        if np.shape(f) != (2, in_dim):
            raise SquashkitError(f"Kraus operator shape {np.shape(f)} vs expected (2, {in_dim})")
    rows = linalg.dagger(Y_FRAME) @ np.asarray(kraus, dtype=complex)  # [k] = (<0_y|F_k, <1_y|F_k)
    return SquashMap(g0=rows[:, 0], g1=rows[:, 1])


def verify_squash(f: SquashMap, p: povm.Bb84Povm, tol: float = linalg.TOL) -> linalg.CheckReport:
    """Check that the map reproduces both observables and preserves trace.

    With A = G0+ G1 the map pulls sigma_z back to A + A+ and sigma_x to
    i(A+ - A), so the residuals are closed-form. They bound the defining
    equality on every state: Tr(F(rho) sigma_r) - Tr(rho M_r) = Tr(rho D_r)
    with D_r = F+(sigma_r) - M_r, and |Tr(rho D)| <= ||D||_F for any state.
    """
    if f.in_dim != p.dim:
        raise SquashkitError(f"map dim {f.in_dim} vs POVM dim {p.dim}")
    a_f = linalg.dagger(f.g0) @ f.g1
    residuals = {
        "z": linalg.frob(a_f + linalg.dagger(a_f) - p.difference("z")),
        "x": linalg.frob(1j * (linalg.dagger(a_f) - a_f) - p.difference("x")),
        "tp": trace_defect(f.g0, f.g1),
    }
    return linalg.CheckReport(residuals, tol)


def squash_to_json(f: SquashMap) -> dict:
    return {
        "in_dim": int(f.in_dim),
        "kraus": [linalg.matrix_rect_to_json(k) for k in f.kraus],
    }


def squash_from_json(obj: dict) -> SquashMap:
    kraus = tuple(linalg.matrix_rect_from_json(k) for k in linalg.json_field(obj, "kraus", list))
    return squash_from_kraus(linalg.json_field(obj, "in_dim", int), kraus)
