"""Group symmetrization, squash pullback, and the zero-error attack demo.

Groups are explicit Cayley tables over element indices 0..order-1. A label
action assigns to every group element a permutation of the four outcome
labels, and must be a homomorphism. The symmetry a symmetrization produces
is checked as V(g) M(r,b) V(g)+ = M at the permuted label, with V(g) an index
permutation read from the Cayley table.

Any measurement set can be made symmetric under a finite group by adjoining
an ancilla register that remembers which group element acted: the block at
ancilla position g carries the elements relabeled by g^-1, and identity x R(g)
(R the regular representation) permutes the blocks by relabelling the kron
indices i*|G| + h to i*|G| + g*h, an index permutation. Measuring the
symmetrized set on rho x |e><e| reproduces the original statistics exactly,
so a squash for the symmetrized set pulls back to one for the original.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from . import linalg, povm
from .errors import SelfCheckFailed, SquashkitError, TildeNotVerified
from .squashmap import SquashMap, verify_squash


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
    if arr.dtype == object:  # None, a list or a Python int beyond 64 bits
        try:
            arr = arr.astype(int)
        except (TypeError, ValueError) as exc:
            raise SquashkitError(f"{what} must be integers") from exc
        except OverflowError as exc:
            raise SquashkitError(f"{what} are too large for 64 bits") from exc
    if arr.dtype.kind not in "iu":
        raise SquashkitError(f"{what} must be integers, got {arr.dtype}")
    # np.array and astype take True among integers as 1; a scan of the Python entries refuses it
    if not isinstance(values, np.ndarray) and bool in set(map(type, np.array(values, object).flat)):
        raise SquashkitError(f"{what} must be integers, not booleans")
    arr.flags.writeable = False
    return arr


def make_group(cayley, identity: int | None = None) -> FiniteGroup:
    """Validate a Cayley table (Latin square, associativity) and find its identity."""
    table = _integer_array(cayley, "Cayley entries")
    if table.ndim != 2 or table.shape[0] != table.shape[1] or not len(table):
        raise SquashkitError("Cayley table must be square, with at least one row")
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
    ident = int(np.argmax((table == full).all(axis=1)))  # an associative Latin square is a group
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
    """Require perm(g*h) = perm(g) o perm(h); at (e, e) this makes the identity act trivially."""
    if action.perms.shape[0] != group.order:
        raise SquashkitError("action size does not match group order")
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


def check_definition2(
    group: FiniteGroup, action: LabelAction, p: povm.Bb84Povm
) -> linalg.CheckReport:
    """Residuals of V(g) M_c V(g)+ = M_{g(c)} for every element and label.

    V(g) = 1 x R(g) acts on the register of |G| positions that ``symmetrize`` adjoins, with R
    read from the Cayley table: V(g)|i*|G| + h> = |i*|G| + g*h>, the index permutation pi_g.
    So (V M V+)[pi_g, pi_g] = M and the residual, permuted, is ||M_{g(c)}[pi_g, pi_g] - M_c||_F.
    """
    n = group.order
    if p.dim % n:
        raise SquashkitError(f"POVM dim {p.dim} is not a multiple of the group order {n}")
    if len(action.perms) != n:
        raise SquashkitError(f"action has {len(action.perms)} rows for a group of order {n}")
    residuals = {}
    for g in range(n):
        pi = _kron_index(np.arange(p.dim // n)[:, None], group.cayley[g], n).ravel()
        for c in range(4):
            target = p.l_element(action.perms[g, c])[np.ix_(pi, pi)]
            residuals[f"g{g}.{povm.LABELS[c]}"] = linalg.frob(target - p.l_element(c))
    return linalg.CheckReport(residuals, linalg.TOL)


def _kron_index(i, g, order: int):
    """Index of |i> x |g> once a set is symmetrized over ``order`` group elements."""
    return i * order + g


class SymmetrizedPovm(NamedTuple):
    base: povm.Bb84Povm
    group: FiniteGroup
    action: LabelAction
    tilde: povm.Bb84Povm

    @property
    def identity_block(self) -> np.ndarray:
        """Indices i*|G| + e of the identity-element block, for ``np.ix_`` or one axis."""
        return _kron_index(np.arange(self.base.dim), self.group.identity, self.group.order)


def symmetrize(p: povm.Bb84Povm, group: FiniteGroup, action: LabelAction) -> SymmetrizedPovm:
    """Adjoin a group register so that the action becomes an exact symmetry.

    The result holds its elements as blocks, and the action keeps basis pairs together, so
    its completeness residuals are at most sqrt(|G|) times those of ``p``.
    """
    validate_action(group, action)
    # the z pair {0, 2} must go to a basis pair, {0, 2} or {1, 3}; then so does {1, 3}
    if (action.perms[:, 0] % 2 != action.perms[:, 2] % 2).any():
        raise SquashkitError("the label action must send each basis pair to a basis pair")
    n, d = group.order, p.dim
    block = _kron_index(np.arange(d), np.arange(n)[:, None], n)  # row g: indices at position g
    inverses = [group.inverse(g) for g in range(n)]
    # sources[c, g] is label g^-1(c) of the base set, placed at position g
    sources = np.stack([p.l_element(c) for c in range(4)])[action.perms[inverses].T]
    total = np.zeros((4, d * n, d * n), dtype=complex)
    total[:, block[:, :, None], block[:, None, :]] = sources
    tilde = povm.make_povm(dict(zip(povm.LABELS, total)))
    report = check_definition2(group, action, tilde)
    if not report.passed:
        raise SelfCheckFailed(
            f"symmetrized set is not group-symmetric, residual {report.max_residual}"
        )
    return SymmetrizedPovm(base=p, group=group, action=action, tilde=tilde)


def verify_trace_identity(s: SymmetrizedPovm) -> float:
    """Largest ||block_e(M~_c) - M_c||_F over the four labels c.

    The symmetrized set measured on rho x |e><e| sees only the identity-element
    block, which should be the original set. The returned value bounds the
    mismatch of every outcome probability on every state, since |Tr(rho D)| <=
    ||D||_F for any state rho.
    """
    e = np.ix_(s.identity_block, s.identity_block)
    return max(
        linalg.frob(s.tilde.l_element(c)[e] - s.base.l_element(c)) for c in range(4)
    )


def pullback_squash(
    s: SymmetrizedPovm, f_tilde: SquashMap, tol: float = linalg.LOOSE_TOL
) -> SquashMap:
    """Restrict a squash of the symmetrized set to the identity-element block."""
    report = verify_squash(f_tilde, s.tilde, tol)
    if not report.passed:
        raise TildeNotVerified(
            f"map fails verification against the symmetrized set at tol={tol}"
        )
    e = s.identity_block
    return SquashMap(g0=f_tilde.g0[:, e], g1=f_tilde.g1[:, e])


def counterexample_m0() -> povm.Bb84Povm:
    """The qubit set whose z and x measurements are both sigma_z."""
    eye = np.eye(2, dtype=complex)
    plus = (eye + linalg.PAULI_Z) / 2
    minus = (eye - linalg.PAULI_Z) / 2
    return povm.make_povm({"z0": plus, "z1": minus, "x0": plus, "x1": minus})


class AttackResult(NamedTuple):
    qber: float
    eve_accuracy: float
    trials: int
    analytic_qber: float
    analytic_eve_accuracy: float

    @property
    def degenerate(self) -> bool:
        return self.trials == 0


def bbm92_attack(p: povm.Bb84Povm, trials: int, seed: int = 0) -> AttackResult:
    """Entangled-pair protocol with Eve as the source, sending |b>|b> pairs.

    Alice measures the ideal qubit set, Bob measures ``p``; only z-basis
    rounds are kept. Alice's ideal z outcome on |b> is b, so the sifted key
    is Eve's bit and her accuracy is 1; an error is a round where Bob's
    outcome differs from b. The error count is drawn, not each round: the
    |1>|1> rounds are binomial(trials, 1/2), and the errors in each half are
    binomial in that half's error probability, which is the same law.
    """
    if p.dim != 2:
        raise SquashkitError(f"attack needs a qubit POVM, got dim {p.dim}")
    if trials < 0 or seed < 0:
        raise SquashkitError(f"trials and seed must be at least 0, got {trials} and {seed}")
    # P(z0 | |b>) is the diagonal entry M_z0[b, b], clamped to [0, 1]
    p_bob0 = np.clip(np.diagonal(p.element("z", 0)).real, 0.0, 1.0)
    analytic_qber = 0.5 * ((1.0 - p_bob0[0]) + p_bob0[1])

    rng = np.random.default_rng(seed)
    ones = int(rng.binomial(trials, 0.5))
    errors = int(rng.binomial([trials - ones, ones], [1.0 - p_bob0[0], p_bob0[1]]).sum())
    return AttackResult(
        qber=errors / trials if trials else 0.0,
        eve_accuracy=1.0,
        trials=trials,
        analytic_qber=float(analytic_qber),
        analytic_eve_accuracy=1.0,
    )


def attack_to_json(result: AttackResult) -> dict:
    return {
        "qber": result.qber,
        "eve_accuracy": result.eve_accuracy,
        "trials": result.trials,
        "analytic": {
            "qber": result.analytic_qber,
            "eve_accuracy": result.analytic_eve_accuracy,
        },
        "degenerate": result.degenerate,
    }


def group_to_json(g: FiniteGroup) -> dict:
    return {
        "order": int(g.order),
        "cayley": g.cayley.tolist(),
        "identity": int(g.identity),
    }


def group_from_json(obj: dict) -> FiniteGroup:
    order, identity = linalg.json_field(obj, "order", int), linalg.json_field(obj, "identity", int)
    return FiniteGroup(order, linalg.json_field(obj, "cayley", list), identity)


def action_from_json(obj: dict) -> LabelAction:
    # a bare label in place of a row makes a ragged table
    rows = [row if type(row) is list else [row] for row in linalg.json_field(obj, "perms", list)]
    if obj.get("labels", list(povm.LABELS)) != list(povm.LABELS):
        raise SquashkitError(f"labels must be {list(povm.LABELS)}")
    unknown = [name for row in rows for name in row if name not in povm.LABELS]
    if unknown:
        raise SquashkitError(f"unknown label {unknown[0]!r}")
    return make_action([[povm.LABELS.index(name) for name in row] for row in rows])
