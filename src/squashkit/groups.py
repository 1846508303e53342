"""Finite groups, label actions, and symmetry checkers for measurement sets.

Groups are explicit Cayley tables over element indices 0..order-1. A label
action assigns to every group element a permutation of the four outcome
labels, and must be a homomorphism. The four-cycle checker verifies the
conjugation relations U M(z,b) U+ = M(x,b) and U^2 M(r,b) U+^2 = M(r,1-b);
the general checker verifies V(g) M(r,b) V(g)+ = M at the permuted label for
V(g) given as an index permutation.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from . import linalg, povm
from .errors import SquashkitError


class FiniteGroup(linalg.Checked, NamedTuple("FiniteGroup", [
        ("order", int), ("cayley", np.ndarray), ("identity", int)])):
    """A group as its read-only Cayley table, a*b = cayley[a, b]; built by :func:`make_group`."""

    __slots__ = ()

    def __new__(cls, order, cayley, identity):
        group = make_group(cayley, identity)
        if order != group.order:
            raise SquashkitError("declared order disagrees with the Cayley table")
        return group

    def inverse(self, a: int) -> int:
        row = self.cayley[a]
        hits = np.nonzero(row == self.identity)[0]
        return int(hits[0])


def _integer_array(values, what: str) -> np.ndarray:
    """A read-only integer copy; floats, booleans and strings are refused, not truncated."""
    try:
        arr = np.array(values)
    except ValueError as exc:  # ragged rows
        raise SquashkitError(f"{what} must be rows of equal length") from exc
    if arr.dtype == object:  # None, or a Python int beyond 64 bits: the cast raises "too large"
        try:
            arr = arr.astype(int)
        except (TypeError, ValueError) as exc:
            raise SquashkitError(f"{what} must be integers") from exc
    if arr.dtype.kind not in "iu":
        raise SquashkitError(f"{what} must be integers, got {arr.dtype}")
    arr.flags.writeable = False
    return arr


def make_group(cayley, identity: int | None = None) -> FiniteGroup:
    """Validate a Cayley table (Latin square, associativity, neutral identity)."""
    table = _integer_array(cayley, "Cayley entries")
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise SquashkitError("Cayley table must be square")
    n = table.shape[0]
    if table.min() < 0 or table.max() >= n:
        raise SquashkitError("Cayley entries must be element indices")
    full = np.arange(n)
    rows_ok = (np.sort(table, axis=1) == full).all(axis=1)
    cols_ok = (np.sort(table, axis=0) == full[:, None]).all(axis=0)
    if not (rows_ok.all() and cols_ok.all()):
        i = int(np.argmin(rows_ok & cols_ok))
        raise SquashkitError(f"{'row' if not rows_ok[i] else 'column'} {i} is not a permutation")
    # associativity (a*b)*c == a*(b*c), one n x n gather per a over all (b, c)
    for a in range(n):
        bad = (table[table[a]] != table[a][table]).any(axis=1)
        if bad.any():
            raise SquashkitError(f"associativity fails at pair ({a}, {int(np.argmax(bad))})")
    neutral = np.flatnonzero((table == full).all(axis=1))
    if not len(neutral) or not np.array_equal(table[:, neutral[0]], full):
        raise SquashkitError("no identity element")
    ident = int(neutral[0])
    if identity is not None and identity != ident:
        raise SquashkitError(f"declared identity {identity} but found {ident}")
    return tuple.__new__(FiniteGroup, (n, table, ident))  # the class call would check it again


def cyclic_group(n: int) -> FiniteGroup:
    return make_group((np.arange(n)[:, None] + np.arange(n)) % n)


def symmetric_group_s3() -> FiniteGroup:
    """S3 with elements enumerated as the permutations of (0, 1, 2)."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(a[b[k]] for k in range(3))] for b in perms]
        for a in perms
    ]
    return make_group(table)


class LabelAction(linalg.Checked, NamedTuple("LabelAction", [("perms", np.ndarray)])):
    """Read-only perms[g, c], label c's image under element g; built only by :func:`make_action`."""

    __slots__ = ()

    def __new__(cls, perms):
        return make_action(perms)


def make_action(perms) -> LabelAction:
    arr = _integer_array(perms, "label images")
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise SquashkitError("need one permutation of the four labels per element")
    for row in arr:
        if not np.array_equal(np.sort(row), np.arange(4)):
            raise SquashkitError(f"{row.tolist()} is not a permutation of the labels")
    return tuple.__new__(LabelAction, (arr,))  # the class call would check it again


def validate_action(group: FiniteGroup, action: LabelAction) -> None:
    """Require perm(g*h) = perm(g) o perm(h) and a trivial identity."""
    if action.perms.shape[0] != group.order:
        raise SquashkitError("action size does not match group order")
    if not np.array_equal(action.perms[group.identity], np.arange(4)):
        raise SquashkitError("identity element must act trivially")
    # [g, h] compares perm(g) o perm(h) with perm(g*h)
    bad = (action.perms[:, action.perms] != action.perms[group.cayley]).any(axis=2)
    if bad.any():
        g, h = np.argwhere(bad)[0]
        raise SquashkitError(f"homomorphism fails at pair ({g}, {h})")


def canonical_c4_action() -> LabelAction:
    """The four-cycle z0 -> x0 -> z1 -> x1 generated by a 45-degree rotation."""
    return make_action([[(c + g) % 4 for c in range(4)] for g in range(4)])


def c2_basis_swap_action() -> LabelAction:
    """Order-two action swapping the z and x outcomes bitwise."""
    return make_action([[0, 1, 2, 3], [1, 0, 3, 2]])


class C4Symmetry(linalg.Checked, NamedTuple("C4Symmetry", [("u", np.ndarray)])):
    """A unitary cycling the four labels; its global phase is free.

    ``u`` is a read-only complex copy of the matrix passed in.
    """

    __slots__ = ()

    def __new__(cls, u):
        m = linalg.as_matrix(u).copy()
        if linalg.frob(linalg.dagger(m) @ m - np.eye(m.shape[0])) > linalg.TOL:
            raise SquashkitError(f"U is not unitary within {linalg.TOL}")
        m.flags.writeable = False
        return super().__new__(cls, m)


class SymmetryReport(NamedTuple):
    residuals: dict  # relation name -> Frobenius residual
    max_residual: float
    tol: float
    passed: bool


def check_definition1(
    sym: C4Symmetry, p: povm.Bb84Povm, tol: float = linalg.TOL
) -> SymmetryReport:
    """Residuals of the four-cycle conjugation relations on a measurement set."""
    u = sym.u
    if u.shape[0] != p.dim:
        raise SquashkitError(f"unitary dim {u.shape[0]} vs POVM dim {p.dim}")
    # stack[c] is L_c, in the order z0, x0, z1, x1: U takes it to L_(c+1), U^2 to L_(c+2)
    stack = np.stack([p.l_element(c) for c in range(4)])
    once = u @ stack @ linalg.dagger(u)
    twice = u @ once @ linalg.dagger(u)
    names = povm.LABELS
    residuals = {
        f"U.{names[c]}->{names[c + 1]}": linalg.frob(once[c] - stack[c + 1]) for c in (0, 2)
    }
    for c in (0, 2, 1, 3):  # index c - 2 is c + 2 mod 4
        residuals[f"U2.{names[c]}->{names[c - 2]}"] = linalg.frob(twice[c] - stack[c - 2])
    worst = max(residuals.values())
    return SymmetryReport(
        residuals=residuals, max_residual=worst, tol=tol, passed=worst <= tol
    )


def check_definition2(rep, action: LabelAction, p: povm.Bb84Povm) -> SymmetryReport:
    """Residuals of V(g) M_c V(g)+ = M_{g(c)} for every element and label.

    Row g of ``rep`` is the index permutation of V(g)|k> = |pi_g(k)>, so (V M V+)[pi_g, pi_g]
    = M and the residual, permuted, is ||M_{g(c)}[pi_g, pi_g] - M_c||_F.
    """
    rep = np.asarray(rep)
    if rep.ndim != 2 or rep.shape[1] != p.dim:
        raise SquashkitError(f"representation of shape {rep.shape} vs POVM dim {p.dim}")
    if rep.dtype.kind not in "iu" or (np.sort(rep, axis=1) != np.arange(p.dim)).any():
        raise SquashkitError(f"representation rows must be permutations of range({p.dim})")
    residuals = {}
    for g, pi in enumerate(rep):
        for c in range(4):
            target = p.l_element(action.perms[g, c])[np.ix_(pi, pi)]
            residuals[f"g{g}.{povm.LABELS[c]}"] = linalg.frob(target - p.l_element(c))
    worst = max(residuals.values())
    return SymmetryReport(
        residuals=residuals, max_residual=worst, tol=linalg.TOL, passed=worst <= linalg.TOL
    )


# ---------------------------------------------------------------------------
# JSON formats

def group_to_json(g: FiniteGroup) -> dict:
    return {
        "order": int(g.order),
        "cayley": g.cayley.tolist(),
        "identity": int(g.identity),
    }


def group_from_json(obj: dict) -> FiniteGroup:
    order, identity = linalg.json_int(obj, "order"), linalg.json_int(obj, "identity")
    return FiniteGroup(order, linalg.json_field(obj, "cayley"), identity)


def action_from_json(obj: dict) -> LabelAction:
    labels = obj.get("labels", list(povm.LABELS))
    if list(labels) != list(povm.LABELS):
        raise SquashkitError(f"labels must be {list(povm.LABELS)}")
    index = {name: c for c, name in enumerate(povm.LABELS)}
    rows = linalg.json_field(obj, "perms")
    unknown = [name for row in rows for name in row if name not in index]
    if unknown:
        raise SquashkitError(f"unknown label {unknown[0]!r}")
    return make_action([[index[name] for name in row] for row in rows])
