"""Squash existence as convex feasibility over the Choi matrix.

A channel from dimension d to a qubit is encoded as its Choi matrix
J = sum_c vec(F_c) vec(F_c)+ with column-stacked vec, so J lives on the
composite (input x output) space of dimension 2d. Trace preservation and
the reproduction of both observables are affine constraints on J, each of
the form Tr(J * (E_ij x P)) = target with P one of identity, sigma_z,
sigma_x. Feasibility is then the intersection of that affine set with the
positive semidefinite cone, searched by alternating projections.

The constraints pin every 2x2 block's identity, sigma_z and sigma_x components, so
the search builds that pinned part once and each step costs one ``eigh``
plus a copy of it carrying the iterate's free sigma_y components.

A cheap necessary condition runs first: the output Bloch vector of a qubit
has norm at most one, so max over angles of the top eigenvalue of
cos(t) M_z + sin(t) M_x above one certifies that no squash exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, povm
from .builder import SquashMap, verify_squash
from .errors import NotPsd, NotTracePreserving, SelfCheckFailed

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
#: Angles per batched eigensolve in the witness grid scan.
WITNESS_CHUNK = 64


def _vec(f: np.ndarray) -> np.ndarray:
    # column stacking: entry (a, b) of a 2 x d matrix lands at index b*2 + a
    return f.T.reshape(-1)


def _unvec(v: np.ndarray, d: int) -> np.ndarray:
    return v.reshape(d, 2).T


def choi_from_squash(f: SquashMap) -> np.ndarray:
    """Choi matrix of a map to a qubit; it lives on dimension 2 * in_dim."""
    j = np.zeros((2 * f.in_dim, 2 * f.in_dim), dtype=complex)
    for k in f.kraus:
        vk = _vec(k)
        j += np.outer(vk, vk.conj())
    return j


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
    kraus = []
    for lam, u in zip(eig.eigenvalues, eig.eigenvectors.T):
        if lam >= 1e-10:
            kraus.append(np.sqrt(lam) * _unvec(u, d))
    total = sum(linalg.dagger(f) @ f for f in kraus)
    if linalg.frob(total - np.eye(d)) > 1e-10:
        teig = linalg.hermitian_eig(total)
        if teig.eigenvalues[0] <= 0.0:
            raise NotTracePreserving("Kraus sum is singular; cannot renormalize")
        inv_root = (teig.eigenvectors / np.sqrt(teig.eigenvalues)) @ linalg.dagger(
            teig.eigenvectors
        )
        kraus = [f @ inv_root for f in kraus]
    return SquashMap(in_dim=d, kraus=tuple(kraus))


# ---------------------------------------------------------------------------
# Affine constraint set

def _affine_pinned(m_z: np.ndarray, m_x: np.ndarray) -> np.ndarray:
    """The pinned part (1^T x 1 + M_z^T x sigma_z + M_x^T x sigma_x) / 2."""
    eye = np.eye(2 * m_z.shape[0], dtype=complex)
    return 0.5 * (eye + linalg.kron(m_z.T, linalg.PAULI_Z) + linalg.kron(m_x.T, linalg.PAULI_X))


def _with_sigma_y(pinned: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Pinned part plus Y^T x sigma_y / 2, with Y^T[a, b] = Tr(J_ab sigma_y) read off ``j``."""
    y_t = 1j * (j[0::2, 1::2] - j[1::2, 0::2])
    out = pinned.copy()
    out[0::2, 1::2] += -0.5j * y_t
    out[1::2, 0::2] += 0.5j * y_t
    return out


def project_affine(j: np.ndarray, m_z: np.ndarray, m_x: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix, in Frobenius norm, on the affine constraint set.

    A Choi matrix meets the constraints exactly when it has the form
    J = (1^T x 1 + M_z^T x sigma_z + M_x^T x sigma_x + Y^T x sigma_y) / 2
    for a Hermitian d x d matrix Y: the 2x2 block of input pair (a, b) has
    its 1, sigma_z and sigma_x components pinned, and only its sigma_y
    component Tr(J_ab sigma_y) = Y^T[a, b] is free. The projection keeps
    that component and rebuilds the rest.
    """
    return _with_sigma_y(_affine_pinned(m_z, m_x), j)


def project_psd(j: np.ndarray) -> np.ndarray:
    """Nearest positive semidefinite matrix in Frobenius norm."""
    m = linalg.as_matrix(j)
    # (m + m+) / 2 is exactly Hermitian, so it goes to LAPACK unchecked
    values, vectors = np.linalg.eigh((m + linalg.dagger(m)) / 2.0)
    return (vectors * np.clip(values, 0.0, None)) @ linalg.dagger(vectors)


def affine_residual(j: np.ndarray, p: povm.Bb84Povm) -> float:
    """Distance of a Choi matrix from the constraint set of a measurement set."""
    return linalg.frob(project_affine(j, p.difference("z"), p.difference("x")) - j)


# ---------------------------------------------------------------------------
# Bloch-norm witness

@dataclass(frozen=True)
class BlochWitness:
    theta: float
    state: np.ndarray  # pure state as a density matrix
    value: float


def _top_eigenpair(m: np.ndarray):
    eig = linalg.hermitian_eig(m)
    return float(eig.eigenvalues[-1]), eig.eigenvectors[:, -1]


def _grid_tops(mz: np.ndarray, mx: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Top eigenvalue of cos(t) M_z + sin(t) M_x at each angle t, one chunk at a time."""
    d = mz.shape[0]
    pair = np.stack([mz, mx]).reshape(2, -1)
    directions = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    # each (chunk, d, d) stack is a temporary, freed before the next is built
    return np.concatenate([
        np.linalg.eigvalsh(np.dot(directions[k:k + WITNESS_CHUNK], pair).reshape(-1, d, d))[:, -1]
        for k in range(0, len(thetas), WITNESS_CHUNK)
    ])


def bloch_witness(m_z: np.ndarray, m_x: np.ndarray, grid: int = 720) -> BlochWitness:
    """Maximize the top eigenvalue of cos(t) M_z + sin(t) M_x over directions.

    Scans a uniform angle grid, takes the earliest angle attaining the
    maximum (within numerical ties), and polishes it with a golden-section
    refinement. A value above one is a sound certificate that no squash
    reproduces both observables.
    """
    if grid < 8:
        raise ValueError(f"grid must be at least 8, got {grid}")

    def top(theta: float) -> float:
        return _top_eigenpair(np.cos(theta) * m_z + np.sin(theta) * m_x)[0]

    thetas = 2.0 * np.pi * np.arange(grid) / grid
    values = _grid_tops(m_z, m_x, thetas)
    best = values.max()
    # earliest near-tie keeps the reported angle deterministic
    pick = int(np.nonzero(values >= best - 1e-9 * max(1.0, abs(best)))[0][0])
    step = 2.0 * np.pi / grid
    lo, hi = thetas[pick] - step, thetas[pick] + step
    a = hi - GOLDEN * (hi - lo)
    b = lo + GOLDEN * (hi - lo)
    fa, fb = top(a), top(b)
    while hi - lo > 1e-11:
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + GOLDEN * (hi - lo)
            fb = top(b)
        else:
            hi, b, fb = b, a, fa
            a = hi - GOLDEN * (hi - lo)
            fa = top(a)
    theta = (lo + hi) / 2.0
    value, vector = _top_eigenpair(np.cos(theta) * m_z + np.sin(theta) * m_x)
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


def find_squash(
    p: povm.Bb84Povm, max_iter: int = 20000, tol: float = 1e-8
) -> FeasibilityReport:
    """Decide squash existence for a measurement set by alternating projections.

    Runs the Bloch-norm witness first; a value above 1 + 1e-9 settles the
    question as INFEASIBLE. Otherwise alternates projections between the
    affine constraint set and the PSD cone until the gap between the two
    projection iterates drops below ``tol`` (FEASIBLE, with the squash
    extracted from the converged Choi matrix and verified at 1e-6) or the
    iteration budget runs out (UNDECIDED).
    """
    m_z, m_x = p.difference("z"), p.difference("x")
    witness = bloch_witness(m_z, m_x)
    if witness.value > 1.0 + 1e-9:
        check = np.trace(
            witness.state @ (np.cos(witness.theta) * m_z + np.sin(witness.theta) * m_x)
        ).real
        if check <= 1.0 + 1e-9:
            raise SelfCheckFailed("witness value failed its independent recomputation")
        return FeasibilityReport(
            verdict="INFEASIBLE", squash=None, witness=witness, gap=0.0, iterations=0
        )

    pinned = _affine_pinned(m_z, m_x)
    j = _with_sigma_y(pinned, np.eye(2 * p.dim, dtype=complex) / 2.0)
    gap = float("inf")
    for iteration in range(1, max_iter + 1):
        psd = project_psd(j)
        j = _with_sigma_y(pinned, psd)
        gap = linalg.frob(j - psd)
        if gap <= tol:
            squash = squash_from_choi(j)
            report = verify_squash(squash, p, tol=1e-6)
            if not report.passed:
                raise SelfCheckFailed(
                    "converged Choi matrix produced a map that fails verification"
                )
            return FeasibilityReport(
                verdict="FEASIBLE",
                squash=squash,
                witness=witness,
                gap=gap,
                iterations=iteration,
            )
    return FeasibilityReport(
        verdict="UNDECIDED", squash=None, witness=witness, gap=gap, iterations=max_iter
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
