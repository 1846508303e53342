"""Finite groups, label actions, and symmetry checkers for measurement sets.

Groups are explicit Cayley tables over element indices 0..order-1. A label
action assigns to every group element a permutation of the four outcome
labels, and must be a homomorphism. The four-cycle checker verifies the
conjugation relations U M(z,b) U+ = M(x,b) and U^2 M(r,b) U+^2 = M(r,1-b);
the general checker verifies V(g) M(r,b) V(g)+ = M at the permuted label.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg, povm
from .errors import (
    DimensionMismatch,
    InvalidAction,
    InvalidGroup,
    KNotOne,
    NotUnitary,
)


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    cayley: np.ndarray  # cayley[a, b] = index of a*b
    identity: int

    def mult(self, a: int, b: int) -> int:
        return int(self.cayley[a, b])

    def inverse(self, a: int) -> int:
        row = self.cayley[a]
        hits = np.nonzero(row == self.identity)[0]
        return int(hits[0])


def make_group(cayley, identity: int | None = None) -> FiniteGroup:
    """Validate a Cayley table (Latin square, associativity, neutral identity)."""
    table = np.asarray(cayley, dtype=int)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise InvalidGroup("Cayley table must be square")
    n = table.shape[0]
    if table.min() < 0 or table.max() >= n:
        raise InvalidGroup("Cayley entries must be element indices")
    full = np.arange(n)
    for i in range(n):
        if not np.array_equal(np.sort(table[i]), full):
            raise InvalidGroup(f"row {i} is not a permutation")
        if not np.array_equal(np.sort(table[:, i]), full):
            raise InvalidGroup(f"column {i} is not a permutation")
    # associativity via (a*b)*c == a*(b*c), vectorized over c
    for a in range(n):
        for b in range(n):
            if not np.array_equal(table[table[a, b]], table[a][table[b]]):
                raise InvalidGroup(f"associativity fails at pair ({a}, {b})")
    neutral = [e for e in range(n) if np.array_equal(table[e], full)]
    if not neutral or not np.array_equal(table[:, neutral[0]], full):
        raise InvalidGroup("no identity element")
    ident = neutral[0]
    if identity is not None and identity != ident:
        raise InvalidGroup(f"declared identity {identity} but found {ident}")
    return FiniteGroup(order=n, cayley=table, identity=ident)


def cyclic_group(n: int) -> FiniteGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return make_group(table)


def symmetric_group_s3() -> FiniteGroup:
    """S3 with elements enumerated as the permutations of (0, 1, 2)."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(a[b[k]] for k in range(3))] for b in perms]
        for a in perms
    ]
    return make_group(table)


@dataclass(frozen=True)
class LabelAction:
    """perms[g][c] = image (cyclic index) of label c under group element g."""

    perms: np.ndarray

    def apply(self, g: int, c: int) -> int:
        return int(self.perms[g, c])


def make_action(perms) -> LabelAction:
    arr = np.asarray(perms, dtype=int)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise InvalidAction("need one permutation of the four labels per element")
    for row in arr:
        if not np.array_equal(np.sort(row), np.arange(4)):
            raise InvalidAction(f"{row.tolist()} is not a permutation of the labels")
    return LabelAction(perms=arr)


def validate_action(group: FiniteGroup, action: LabelAction) -> None:
    """Require perm(g*h) = perm(g) o perm(h) and a trivial identity."""
    if action.perms.shape[0] != group.order:
        raise InvalidAction("action size does not match group order")
    if not np.array_equal(action.perms[group.identity], np.arange(4)):
        raise InvalidAction("identity element must act trivially")
    for g in range(group.order):
        for h in range(group.order):
            composed = action.perms[g][action.perms[h]]
            if not np.array_equal(composed, action.perms[group.mult(g, h)]):
                raise InvalidAction(f"homomorphism fails at pair ({g}, {h})")


def canonical_c4_action() -> LabelAction:
    """The four-cycle z0 -> x0 -> z1 -> x1 generated by a 45-degree rotation."""
    return make_action([[(c + g) % 4 for c in range(4)] for g in range(4)])


def c2_basis_swap_action() -> LabelAction:
    """Order-two action swapping the z and x outcomes bitwise."""
    return make_action([[0, 1, 2, 3], [1, 0, 3, 2]])


def regular_representation(group: FiniteGroup) -> dict:
    """Permutation matrices R(g) with R(g)|h> = |gh>, exact 0/1 entries."""
    eye = np.eye(group.order, dtype=complex)
    # column h of R(g) is the basis vector |gh>
    return {g: eye[:, group.cayley[g]] for g in range(group.order)}


@dataclass(frozen=True)
class C4Symmetry:
    """A unitary cycling the four labels; its global phase is free."""

    u: np.ndarray

    def __post_init__(self):
        m = linalg.as_matrix(self.u)
        if linalg.frob(linalg.dagger(m) @ m - np.eye(m.shape[0])) > 1e-9:
            raise NotUnitary("U is not unitary within 1e-9")


@dataclass(frozen=True)
class SymmetryReport:
    residuals: dict  # relation name -> Frobenius residual
    max_residual: float
    tol: float
    passed: bool


def check_definition1(sym: C4Symmetry, p: povm.Bb84Povm, tol: float = 1e-9) -> SymmetryReport:
    """Residuals of the four-cycle conjugation relations on a measurement set."""
    u = sym.u
    if u.shape[0] != p.dim:
        raise DimensionMismatch(f"unitary dim {u.shape[0]} vs POVM dim {p.dim}")
    u2 = u @ u
    residuals = {}
    for b in (0, 1):
        res = linalg.frob(u @ p.element("z", b) @ linalg.dagger(u) - p.element("x", b))
        residuals[f"U.z{b}->x{b}"] = res
    for r in ("z", "x"):
        for b in (0, 1):
            res = linalg.frob(
                u2 @ p.element(r, b) @ linalg.dagger(u2) - p.element(r, 1 - b)
            )
            residuals[f"U2.{r}{b}->{r}{1 - b}"] = res
    worst = max(residuals.values())
    return SymmetryReport(
        residuals=residuals, max_residual=worst, tol=tol, passed=worst <= tol
    )


def phase_normalize(sym: C4Symmetry) -> C4Symmetry:
    """Divide out a global phase so that U^4 = identity whenever U^4 is scalar.

    Conjugation relations are untouched: A -> U A U+ is blind to global
    phases. When U^4 is not scalar the symmetry is returned unchanged.
    Unitarity was checked when ``sym`` was built.
    """
    u = linalg.as_matrix(sym.u)
    d = u.shape[0]
    u4 = np.linalg.matrix_power(u, 4)
    eta = np.trace(u4) / d
    if linalg.frob(u4 - eta * np.eye(d)) > 1e-8:
        return sym
    eta = eta / abs(eta)
    root = np.exp(1j * np.angle(eta) / 4.0)  # principal fourth root
    return C4Symmetry(u=u / root)


def c4_eigenprojectors(sym: C4Symmetry) -> list:
    """Spectral projectors P_c onto the i^c eigenspaces of U, c = 0..3.

    Requires U^4 = identity; run :func:`phase_normalize` first to divide
    out the global phase.
    """
    u = sym.u
    d = u.shape[0]
    if linalg.frob(np.linalg.matrix_power(u, 4) - np.eye(d)) > 1e-8:
        raise KNotOne("U^4 is not the identity; phase normalization required")
    powers = [np.eye(d, dtype=complex)]
    for _ in range(3):
        powers.append(powers[-1] @ u)
    return [
        sum((-1j) ** ((c * j) % 4) * pw for j, pw in enumerate(powers)) / 4.0 for c in range(4)
    ]


def check_definition2(
    rep: dict, action: LabelAction, p: povm.Bb84Povm, tol: float = 1e-9
) -> SymmetryReport:
    """Residuals of V(g) M_c V(g)+ = M_{g(c)} for every element and label."""
    residuals = {}
    for g, v in rep.items():
        vm = linalg.as_matrix(v)
        if vm.shape[0] != p.dim:
            raise DimensionMismatch(
                f"representation dim {vm.shape[0]} vs POVM dim {p.dim}"
            )
        for c in range(4):
            target = p.l_element(action.apply(g, c))
            res = linalg.frob(vm @ p.l_element(c) @ linalg.dagger(vm) - target)
            residuals[f"g{g}.{povm.LABELS[c]}"] = res
    worst = max(residuals.values())
    return SymmetryReport(
        residuals=residuals, max_residual=worst, tol=tol, passed=worst <= tol
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
    g = make_group(obj["cayley"], identity=int(obj["identity"]))
    if g.order != int(obj["order"]):
        raise InvalidGroup("declared order disagrees with the Cayley table")
    return g


def action_to_json(a: LabelAction) -> dict:
    return {
        "labels": list(povm.LABELS),
        "perms": [[povm.LABELS[c] for c in row] for row in a.perms],
    }


def action_from_json(obj: dict) -> LabelAction:
    labels = obj.get("labels", list(povm.LABELS))
    if list(labels) != list(povm.LABELS):
        raise InvalidAction(f"labels must be {list(povm.LABELS)}")
    index = {name: c for c, name in enumerate(povm.LABELS)}
    perms = [[index[name] for name in row] for row in obj["perms"]]
    return make_action(perms)
