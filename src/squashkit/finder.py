"""Squash existence decided exactly, and the squash built, on the Choi matrix.

A channel from dimension d to a qubit is encoded as its Choi matrix
J = sum_c vec(F_c) vec(F_c)+ with column-stacked vec, so J lives on the
composite (input x output) space of dimension 2d. Trace preservation and
the reproduction of both observables pin every 2x2 block's identity,
sigma_z and sigma_x components, which leaves
J = (1^T x 1 + M_z^T x sigma_z + M_x^T x sigma_x + Z x sigma_y) / 2
with only the Hermitian d x d matrix Z free.

Rotating the output qubit turns J >= 0 into [[1+Z, T], [T+, 1-Z]] >= 0
with T = M_z^T - i M_x^T. By Ando's theorem such a Z exists exactly when
the numerical radius w(T) is at most one, and w(T) is the Bloch-norm
witness: the maximum over angles of the top eigenvalue of
cos(t) M_z + sin(t) M_x. It is found by the level-set method of Mengi and
Overton, which locates the global maximum from a handful of 2d x 2d pencil
eigenproblems. Above one it certifies that no squash exists; otherwise
Z = 2X - 1, with X the maximal solution of X + A+ X^-1 A = 1 for A = T / 2,
comes from a structure-preserving doubling iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, povm
from .builder import SquashMap, verify_squash
from .errors import NotHermitian, NotPsd, NotTracePreserving, SelfCheckFailed

#: Witness levels sit this far above the best value, relative; closer values are ties.
LEVEL_STEP = 1e-14
#: A witness value above 1 + INFEASIBLE_SLACK, rechecked, certifies that no squash exists.
INFEASIBLE_SLACK = 1e-11
#: A is shrunk by this relative amount, so that w(2A) < 1 on the boundary w(T) = 1.
DOUBLING_SHRINK = 1e-12
#: The doubling iterate is stationary once a step moves it by this much, relative.
STATIONARY_STEP = 64 * np.finfo(float).eps
#: Doubling steps before the solve gives up; it takes at most 24 on the boundary w(T) = 1.
MAX_DOUBLING_STEPS = 64


def choi_from_squash(f: SquashMap) -> np.ndarray:
    """Choi matrix of a map to a qubit; it lives on dimension 2 * in_dim."""
    # column-stacked vec: entry (a, i) of a 2 x d operator lands at index i*2 + a
    return f.choi().transpose(1, 0, 3, 2).reshape(2 * f.in_dim, 2 * f.in_dim)


def squash_from_choi(j: np.ndarray, psd_tol: float = 1e-8, tp_tol: float = 1e-6) -> SquashMap:
    """Kraus operators from the spectral decomposition of a Choi matrix.

    Eigenvalue clipping can leave the recovered family preserving trace only
    as well as the input marginal does, so when the Kraus sum drifts from
    the identity beyond floating-point dust the family is renormalized by
    the inverse square root of its sum; that keeps trace preservation exact
    and moves the channel by at most the marginal defect.
    """
    d = j.shape[0] // 2  # an odd dimension fails in partial_trace
    eig = linalg.hermitian_eig(j)
    if eig.eigenvalues[0] < -psd_tol:
        raise NotPsd(f"Choi matrix has eigenvalue {eig.eigenvalues[0]}")
    marginal = linalg.partial_trace(j, (d, 2), keep="first")
    if linalg.frob(marginal - np.eye(d)) > tp_tol:
        raise NotTracePreserving("input marginal of the Choi matrix is not the identity")
    keep = eig.eigenvalues >= 1e-10
    # each kept eigenvector, scaled, is the column-stacked vec of one Kraus operator
    vecs = np.sqrt(eig.eigenvalues[keep]) * eig.eigenvectors[:, keep]
    kraus = vecs.T.reshape(-1, d, 2).transpose(0, 2, 1)
    total = sum(linalg.dagger(f) @ f for f in kraus)
    if linalg.frob(total - np.eye(d)) > 1e-10:
        teig = linalg.hermitian_eig(total)
        if teig.eigenvalues[0] <= 0.0:
            raise NotTracePreserving("Kraus sum is singular; cannot renormalize")
        inv_root = (teig.eigenvectors / np.sqrt(teig.eigenvalues)) @ linalg.dagger(
            teig.eigenvectors
        )
        kraus = kraus @ inv_root
    return SquashMap(in_dim=d, kraus=kraus)


# ---------------------------------------------------------------------------
# Affine constraint set

def _affine_pinned(m_z: np.ndarray, m_x: np.ndarray) -> np.ndarray:
    """The pinned part (1^T x 1 + M_z^T x sigma_z + M_x^T x sigma_x) / 2."""
    eye = np.eye(2 * m_z.shape[0], dtype=complex)
    return 0.5 * (eye + linalg.kron(m_z.T, linalg.PAULI_Z) + linalg.kron(m_x.T, linalg.PAULI_X))


# ---------------------------------------------------------------------------
# Bloch-norm witness

@dataclass(frozen=True)
class BlochWitness:
    theta: float
    state: np.ndarray  # pure state as a density matrix
    value: float


def _level_crossings(k: np.ndarray, level: float) -> np.ndarray:
    """Angles t at which ``level`` is an eigenvalue of (e^-it K + e^it K+) / 2.

    They are the arguments of the unimodular eigenvalues z of the pencil A - z B =
    [[0, 1], [-K, 2 level]] - z [[1, 0], [0, K+]]. numpy has no QZ, so it takes
    the eigenvalues mu = 1 / (z - sigma) of (A - sigma B)^-1 B instead.
    """
    eye, zero = np.eye(len(k)), np.zeros_like(k)
    a = np.block([[zero, eye], [-k, 2.0 * level * eye]])
    b = np.block([[eye, zero], [zero, linalg.dagger(k)]])
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
        raise NotHermitian("the Bloch witness needs Hermitian observables")
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
    eig = linalg.hermitian_eig(np.cos(theta) * m_z + np.sin(theta) * m_x)
    value, vector = float(eig.eigenvalues[-1]), eig.eigenvectors[:, -1]
    return BlochWitness(
        theta=float(theta), state=np.outer(vector, vector.conj()), value=value
    )


# ---------------------------------------------------------------------------
# Feasibility search

@dataclass(frozen=True)
class FeasibilityReport:
    verdict: str  # FEASIBLE | INFEASIBLE | UNDECIDED
    squash: SquashMap | None
    witness: BlochWitness | None
    gap: float
    iterations: int


def find_squash(p: povm.Bb84Povm, tol: float = 1e-8) -> FeasibilityReport:
    """Decide squash existence for a measurement set exactly, then build the map.

    Runs the Bloch-norm witness (the level-set maximum of :func:`bloch_witness`)
    first; a value above 1 + INFEASIBLE_SLACK settles the question as INFEASIBLE.
    At or below one a squash exists by Ando's theorem, and the doubling solves
    for its sigma_y part until a step no longer moves the iterate. ``gap`` is the
    resulting Choi matrix's Frobenius distance from the PSD cone; at most
    ``tol`` gives FEASIBLE, with the map extracted and verified at 1e-6. A
    gap above ``tol``, or a breakdown of the doubling (a failed Cholesky
    factor, or no stationary iterate within MAX_DOUBLING_STEPS), gives
    UNDECIDED.
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
    a = (1.0 - DOUBLING_SHRINK) * (m_z.T - 1j * m_x.T) / 2.0
    q = np.eye(p.dim, dtype=complex)
    s = np.zeros_like(q)
    steps, stationary = 0, False
    while steps < MAX_DOUBLING_STEPS and not stationary:
        try:  # W = Q - P stays positive definite unless the doubling disagrees with the witness
            low = np.linalg.cholesky(q - s)
        except np.linalg.LinAlgError:
            break
        # with W = L L+, each update is a product of L^-1 A and L^-1 A+
        l_a, l_ad = np.split(np.linalg.solve(low, np.hstack([a, linalg.dagger(a)])), 2, axis=1)
        step = linalg.dagger(l_a) @ l_a  # A+ W^-1 A
        s = s + linalg.dagger(l_ad) @ l_ad
        a = linalg.dagger(l_ad) @ l_a
        q = q - step
        steps += 1
        stationary = linalg.frob(step) <= STATIONARY_STEP * linalg.frob(q)

    z = 2.0 * q - np.eye(p.dim)
    j = _affine_pinned(m_z, m_x) + 0.5 * linalg.kron((z + linalg.dagger(z)) / 2.0, linalg.PAULI_Y)
    gap = float(np.linalg.norm(np.minimum(np.linalg.eigvalsh(j), 0.0)))
    if not (stationary and gap <= tol):
        return FeasibilityReport(
            verdict="UNDECIDED", squash=None, witness=witness, gap=gap, iterations=steps
        )
    squash = squash_from_choi(j)
    if not verify_squash(squash, p, tol=1e-6).passed:
        raise SelfCheckFailed("doubling-built Choi matrix produced a map that fails verification")
    return FeasibilityReport(
        verdict="FEASIBLE", squash=squash, witness=witness, gap=gap, iterations=steps
    )


def report_to_json(report: FeasibilityReport) -> dict:
    from .builder import squash_to_json

    return {
        "verdict": report.verdict,
        "gap": float(report.gap),
        "iterations": int(report.iterations),
        "witness": None
        if report.witness is None
        else {
            "theta": float(report.witness.theta),
            "value": float(report.witness.value),
            "state": linalg.matrix_to_json(report.witness.state),
        },
        "squash": None if report.squash is None else squash_to_json(report.squash),
    }
