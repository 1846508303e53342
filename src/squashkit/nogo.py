"""Group symmetrization, squash pullback, and the zero-error attack demo.

Any measurement set can be made symmetric under a finite group by adjoining
an ancilla register that remembers which group element acted: the block at
ancilla position g carries the elements relabeled by g^-1, and identity x R(g)
(R the regular representation) permutes the blocks by relabelling the kron
indices i*|G| + h, so it is held as an index permutation. Measuring the
symmetrized set on rho x |e><e| reproduces the original statistics exactly,
so a squash for the symmetrized set pulls back to one for the original.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import groups, linalg, povm
from .errors import SelfCheckFailed, SquashkitError, TildeNotVerified
from .squashmap import SquashMap, verify_squash


def _kron_index(i, g, order: int):
    """Index of |i> x |g> once a set is symmetrized over ``order`` group elements."""
    return i * order + g


class SymmetrizedPovm(NamedTuple):
    base: povm.Bb84Povm
    group: groups.FiniteGroup
    action: groups.LabelAction
    tilde: povm.Bb84Povm
    rep: np.ndarray  # read-only (|G|, d*|G|); row g sends i*|G| + h to i*|G| + g*h

    @property
    def identity_block(self) -> np.ndarray:
        """Indices i*|G| + e of the identity-element block, for ``np.ix_`` or one axis."""
        return _kron_index(np.arange(self.base.dim), self.group.identity, self.group.order)


def symmetrize(
    p: povm.Bb84Povm, group: groups.FiniteGroup, action: groups.LabelAction, tol: float = linalg.TOL
) -> SymmetrizedPovm:
    """Adjoin a group register so that the action becomes an exact symmetry.

    Only ``p`` is validated, at ``tol``. The result holds its elements as blocks, and the
    action keeps basis pairs together, so its completeness residuals are at most sqrt(|G|)
    times those of ``p``.
    """
    groups.validate_action(group, action)
    # the z pair {0, 2} must go to a basis pair, {0, 2} or {1, 3}; then so does {1, 3}
    if (action.perms[:, 0] % 2 != action.perms[:, 2] % 2).any():
        raise SquashkitError("the label action must send each basis pair to a basis pair")
    if not povm.validate(p, tol).passed:
        raise SquashkitError(f"measurement set fails POVM validation at tol={tol}")
    n, d = group.order, p.dim
    block = _kron_index(np.arange(d), np.arange(n)[:, None], n)  # row g: indices at position g
    inverses = [group.inverse(g) for g in range(n)]
    # sources[c, g] is label g^-1(c) of the base set, placed at position g
    sources = np.stack([p.l_element(c) for c in range(4)])[action.perms[inverses].T]
    total = np.zeros((4, d * n, d * n), dtype=complex)
    total[:, block[:, :, None], block[:, None, :]] = sources
    tilde = povm.make_povm(dict(zip(povm.LABELS, total)))
    rep = _kron_index(np.arange(d)[None, :, None], group.cayley[:, None, :], n).reshape(n, d * n)
    rep.flags.writeable = False
    report = groups.check_definition2(rep, action, tilde)
    if not report.passed:
        raise SelfCheckFailed(
            f"symmetrized set is not group-symmetric, residual {report.max_residual}"
        )
    return SymmetrizedPovm(base=p, group=group, action=action, tilde=tilde, rep=rep)


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


#: Attack rounds drawn per block; a fixed block keeps memory flat in ``trials``.
ATTACK_BLOCK = 1 << 14


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
    rounds are kept. Eve picks each round's bit, so her accuracy is the
    fraction of rounds where the sifted key equals her choice. Rounds are
    sampled as arrays, one block of ``ATTACK_BLOCK`` at a time.
    """
    if p.dim != 2:
        raise SquashkitError(f"attack needs a qubit POVM, got dim {p.dim}")
    if trials < 0 or seed < 0:
        raise SquashkitError(f"trials and seed must be at least 0, got {trials} and {seed}")
    # P(z0 | |b>) is the diagonal entry M_z0[b, b], clamped to [0, 1]
    p_alice0 = np.clip(np.diagonal(povm.ideal_qubit_povm().element("z", 0)).real, 0.0, 1.0)
    p_bob0 = np.clip(np.diagonal(p.element("z", 0)).real, 0.0, 1.0)

    analytic_qber = 0.5 * sum(
        p_alice0[b] * (1.0 - p_bob0[b]) + (1.0 - p_alice0[b]) * p_bob0[b]
        for b in (0, 1)
    )
    analytic_eve = 0.5 * (p_alice0[0] + (1.0 - p_alice0[1]))

    rng = np.random.default_rng(seed)
    errors = 0
    eve_hits = 0
    for start in range(0, trials, ATTACK_BLOCK):
        n = min(ATTACK_BLOCK, trials - start)
        bits = rng.integers(0, 2, size=n)
        # an outcome is 1 (True) where the uniform draw lands at or above P(0)
        a_out = rng.random(n) >= p_alice0[bits]
        b_out = rng.random(n) >= p_bob0[bits]
        errors += int(np.count_nonzero(a_out != b_out))
        eve_hits += int(np.count_nonzero(a_out == bits))
    return AttackResult(
        qber=errors / trials if trials else 0.0,
        eve_accuracy=eve_hits / trials if trials else 1.0,
        trials=trials,
        analytic_qber=float(analytic_qber),
        analytic_eve_accuracy=float(analytic_eve),
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
