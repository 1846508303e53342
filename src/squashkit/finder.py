"""Squash existence decided exactly, and the squash built, in the sigma_y output frame.

Write a map from dimension d to a qubit with its outputs in the sigma_y
eigenbasis, F_k = |0_y> g0_k + |1_y> g1_k, where g0_k and g1_k are the k-th
rows of two d x d matrices G0 and G1. With A = G0+ G1 the map pulls sigma_z
back to A + A+ and sigma_x to i(A+ - A), so it reproduces both observables
exactly when A = (M_z + i M_x) / 2, and it preserves trace when
G0+ G0 + G1+ G1 = 1.

Such a pair exists exactly when [[X, A], [A+, 1 - X]] >= 0 for some X, its
Gram matrix. By Ando's theorem that holds exactly when the numerical radius
w(2A) is at most one, and w(2A) is the Bloch-norm witness: the maximum over
angles of the top eigenvalue of cos(t) M_z + sin(t) M_x. It is found by the
level-set method of Mengi and Overton, which locates the global maximum from
a handful of 2d x 2d pencil eigenproblems. Above one it certifies that no
squash exists; otherwise the maximal solution X of X + A+ X^-1 A = 1 comes
from a structure-preserving doubling iteration, and with X = L L+ the pair
G0 = L+, G1 = L^-1 A is the squash.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg, povm
from .errors import SelfCheckFailed, SquashkitError
from .squashmap import SquashMap, squash_to_json, trace_defect, verify_squash

#: Witness levels sit this far above the best value, relative; closer values are ties.
LEVEL_STEP = 1e-14
#: A witness value above 1 + INFEASIBLE_SLACK, rechecked, certifies that no squash exists.
INFEASIBLE_SLACK = 1e-11
#: A is shrunk by this relative amount, so that w(2A) < 1 on the boundary w(2A) = 1.
DOUBLING_SHRINK = 1e-12
#: The doubling iterate is stationary once a step moves it by this much, relative: tested
#: squared, as |step|^2 <= STATIONARY_STEP^2 |Q|^2 in the Frobenius norm.
STATIONARY_STEP = 64 * np.finfo(float).eps
#: Doubling steps before the solve gives up; it takes at most 24 on the boundary w(2A) = 1.
MAX_DOUBLING_STEPS = 64
#: A FEASIBLE map is rechecked at this loose tolerance: a self-check, not the user's bound.
SELF_CHECK_TOL = 1e-6


# ---------------------------------------------------------------------------
# Bloch-norm witness

class BlochWitness(NamedTuple):
    theta: float
    state: np.ndarray  # pure state as a density matrix
    value: float


def _level_crossings(k: np.ndarray, level: float) -> np.ndarray:
    """Angles t at which ``level`` is an eigenvalue of (e^-it K + e^it K+) / 2.

    They are the arguments of the unimodular eigenvalues z of the pencil A - z B =
    [[0, 1], [-K, 2 level]] - z [[1, 0], [0, K+]]. numpy has no QZ, so it takes
    the eigenvalues mu = 1 / (z - sigma) of (A - sigma B)^-1 B instead.
    """
    d = len(k)
    a, b = np.zeros((2, 2 * d, 2 * d), dtype=complex)
    a[:d, d:] = b[:d, :d] = np.eye(d)
    a[d:, :d] = -k
    a[d:, d:] = 2.0 * level * np.eye(d)
    b[d:, d:] = linalg.dagger(k)
    for sigma in (0.3 + 0.4j, -0.5 + 0.2j, 0.1 - 0.6j):  # shifts off the unit circle
        try:
            mu = np.linalg.eigvals(np.linalg.solve(a - sigma * b, b))
        except np.linalg.LinAlgError:  # sigma is an eigenvalue of the pencil
            continue
        z = sigma + 1.0 / mu[np.abs(mu) > 1e-8]  # mu = 0: infinite eigenvalues of a singular K
        # loose, since an extra angle only adds a midpoint and a lost one could lose a peak
        return np.angle(z[np.abs(np.abs(z) - 1.0) <= 1e-6])
    raise np.linalg.LinAlgError("every shift is an eigenvalue of the level-set pencil")


def bloch_witness(m_z: np.ndarray, m_x: np.ndarray) -> BlochWitness:
    """Maximize the top eigenvalue f(t) of cos(t) M_z + sin(t) M_x over directions.

    Mengi and Overton's level sets (IMA J. Numer. Anal. 25, 648-669, 2005):
    from the best of 16 evenly spaced angles, each round finds every angle at
    which a level just above the best value so far is an eigenvalue, and
    evaluates f between consecutive ones until none rises above the level.
    The earliest evaluated angle in [0, 2 pi) tied with the best (LEVEL_STEP)
    gives the witness; a value above one certifies that no squash exists.
    """
    if not (linalg.is_hermitian(m_z) and linalg.is_hermitian(m_x)):
        raise SquashkitError("the Bloch witness needs Hermitian observables")
    thetas, level, seen = 2.0 * np.pi * np.arange(16) / 16, -np.inf, []
    while thetas.size and len(seen) < 32:  # a handful of rounds settle every set tried
        stack = np.cos(thetas)[:, None, None] * m_z + np.sin(thetas)[:, None, None] * m_x
        values = np.linalg.eigvalsh(stack)[:, -1]
        seen.append(np.stack([np.mod(thetas, 2.0 * np.pi), values]))
        if values.max() <= level:
            break
        level = values.max() + LEVEL_STEP * max(1.0, abs(values.max()))  # regular if f is flat
        crossings = np.sort(_level_crossings(m_z + 1j * m_x, level))
        thetas = (crossings + np.append(crossings[1:], crossings[:1] + 2.0 * np.pi)) / 2.0
    thetas, values = np.concatenate(seen, axis=1)
    theta = thetas[values >= values.max() - LEVEL_STEP * max(1.0, abs(values.max()))].min()
    spectrum, vectors = np.linalg.eigh(np.cos(theta) * m_z + np.sin(theta) * m_x)
    vector = vectors[:, -1]
    return BlochWitness(
        theta=float(theta), state=np.outer(vector, vector.conj()), value=float(spectrum[-1])
    )


# ---------------------------------------------------------------------------
# Feasibility search

class FeasibilityReport(NamedTuple):
    verdict: str  # FEASIBLE | INFEASIBLE | UNDECIDED
    squash: SquashMap | None
    witness: BlochWitness
    gap: float
    iterations: int


def find_squash(p: povm.Bb84Povm, tol: float = linalg.LOOSE_TOL) -> FeasibilityReport:
    """Decide squash existence for a measurement set exactly, then build the map.

    Runs the Bloch-norm witness (the level-set maximum of :func:`bloch_witness`)
    first; a value above 1 + INFEASIBLE_SLACK settles the question as INFEASIBLE.
    At or below one a squash exists by Ando's theorem, and the doubling solves
    for X, one Cholesky, one solve and one Gram product per step, until a step
    no longer moves the iterate: |step|^2 <= STATIONARY_STEP^2 |Q|^2 in squared
    Frobenius norms. Its Cholesky factor gives the row pair (G0, G1), one row
    per input dimension, which reproduces both
    observables by construction; ``gap`` is its trace defect. At most ``tol``
    and the ``linalg.TOL`` a SquashMap accepts gives FEASIBLE, with the map
    verified at SELF_CHECK_TOL. A larger gap, or a breakdown of the doubling (no
    stationary iterate within MAX_DOUBLING_STEPS, or an X that is not positive
    definite, reported with the empty family's defect sqrt(d)), gives UNDECIDED.
    """
    m_z, m_x = p.difference("z"), p.difference("x")
    witness = bloch_witness(m_z, m_x)
    if witness.value > 1.0 + INFEASIBLE_SLACK:
        check = np.trace(
            witness.state @ (np.cos(witness.theta) * m_z + np.sin(witness.theta) * m_x)
        ).real
        if check <= 1.0 + INFEASIBLE_SLACK:
            raise SelfCheckFailed("witness value failed its independent recomputation")
        return FeasibilityReport(
            verdict="INFEASIBLE", squash=None, witness=witness, gap=0.0, iterations=0
        )

    # doubling (Lin & Xu): Q converges to the maximal solution X of X + A+ X^-1 A = 1
    d = p.dim
    a = (m_z + 1j * m_x) / 2.0
    e_both = np.empty((d, 2 * d), dtype=complex)  # [E, E+]: E on the left, its adjoint beside it
    e_both[:, :d] = (1.0 - DOUBLING_SHRINK) * a
    e_both[:, d:] = linalg.dagger(e_both[:, :d])
    q = np.eye(d, dtype=complex)
    s = np.zeros_like(q)
    bound = STATIONARY_STEP**2
    steps, stationary = 0, False
    while steps < MAX_DOUBLING_STEPS and not stationary:
        try:  # W = Q - P stays positive definite unless the doubling disagrees with the witness
            low = np.linalg.cholesky(q - s)
        except np.linalg.LinAlgError:
            break
        # with W = L L+ and B = L^-1 [E, E+], the Gram matrix B+ B holds every update:
        # [[E+ W^-1 E (the step), E+ W^-1 E+ (the new E+)],
        #  [E W^-1 E (the new E), E W^-1 E+ (added to P)]]
        l_both = np.linalg.solve(low, e_both)
        gram = linalg.dagger(l_both) @ l_both
        step = gram[:d, :d]
        q -= step
        s += gram[d:, d:]
        e_both[:, :d], e_both[:, d:] = gram[d:, :d], gram[:d, d:]
        steps += 1
        stationary = np.vdot(step, step).real <= bound * np.vdot(q, q).real

    try:  # X = L L+ gives G0 = L+ and G1 = L^-1 A, so that G0+ G1 = A and G0+ G0 = X
        low = np.linalg.cholesky(q)
        g0, g1 = linalg.dagger(low), np.linalg.solve(low, a)
    except np.linalg.LinAlgError:  # the empty family, whose trace defect sqrt(d) is UNDECIDED
        g0 = g1 = np.zeros((0, p.dim))
    gap = trace_defect(g0, g1)
    if not (stationary and gap <= min(tol, linalg.TOL)):
        return FeasibilityReport(
            verdict="UNDECIDED", squash=None, witness=witness, gap=gap, iterations=steps
        )
    squash = SquashMap(g0=g0, g1=g1)
    if not verify_squash(squash, p, tol=SELF_CHECK_TOL).passed:
        raise SelfCheckFailed("the doubling's factorization produced a map that fails verification")
    return FeasibilityReport(
        verdict="FEASIBLE", squash=squash, witness=witness, gap=gap, iterations=steps
    )


def report_to_json(report: FeasibilityReport) -> dict:
    return {
        "verdict": report.verdict,
        "gap": float(report.gap),
        "iterations": int(report.iterations),
        "witness": {
            "theta": float(report.witness.theta),
            "value": float(report.witness.value),
            "state": linalg.matrix_to_json(report.witness.state),
        },
        "squash": None if report.squash is None else squash_to_json(report.squash),
    }
