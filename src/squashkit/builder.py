"""Analytic construction of squash maps for four-cycle-symmetric detectors.

Given a measurement set whose z observable has rank two and a unitary U
cycling its four elements, the construction runs: extract the +lambda
eigenvector v of M_z, split v into the four eigencomponents of U, assemble
at most four core Kraus operators from adjacent components, and append
completion operators that restore trace preservation without touching the
reproduced observables (their output lies on the y axis of the qubit, where
both sigma_z and sigma_x have zero expectation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups, linalg, povm
from .errors import (
    ConstructionError,
    DeficiencyNotPsd,
    DimensionMismatch,
    InvalidPovm,
    InvalidSquash,
    RankNotTwo,
    SpectrumAsymmetric,
    SquashkitError,
)

#: Eigenvectors of sigma_y in the output-qubit z coordinates.
KET_0Y = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)
KET_1Y = np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class SquashMap:
    """A trace-preserving map to a qubit in operator-sum form.

    ``kraus`` may be passed as any sequence of 2 x d operators; it is held as
    a read-only copy of their values in one complex array of shape (K, 2, d).
    """

    in_dim: int
    kraus: np.ndarray

    out_dim = 2

    def __post_init__(self):
        if len(self.kraus) == 0:
            raise InvalidSquash("need at least one Kraus operator")
        for f in self.kraus:
            if np.shape(f) != (2, self.in_dim):
                raise InvalidSquash(
                    f"Kraus operator shape {np.shape(f)} vs expected (2, {self.in_dim})"
                )
        object.__setattr__(self, "kraus", np.array(self.kraus, dtype=complex))
        self.kraus.flags.writeable = False
        rows = self.kraus.reshape(-1, self.in_dim)
        if linalg.frob(linalg.dagger(rows) @ rows - np.eye(self.in_dim)) > 1e-9:
            raise InvalidSquash("Kraus operators do not sum to the identity")

    def choi(self) -> np.ndarray:
        """Choi tensor C[a, i, b, j] = sum_k F_k[a, i] conj(F_k[b, j]), shape (2, d, 2, d)."""
        return np.tensordot(self.kraus, self.kraus.conj(), axes=([0], [0]))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Channel action on a d-dimensional operator, yielding a qubit operator."""
        m = linalg.as_matrix(rho)
        if m.shape[0] != self.in_dim:
            raise DimensionMismatch(f"state dim {m.shape[0]} vs map dim {self.in_dim}")
        return np.tensordot(self.choi(), m, axes=([1, 3], [0, 1]))

    def adjoint(self, obs: np.ndarray) -> np.ndarray:
        """Heisenberg-picture pullback of a qubit observable."""
        rows = self.kraus.reshape(-1, self.in_dim)
        return linalg.dagger(rows) @ (obs @ self.kraus).reshape(-1, self.in_dim)


@dataclass(frozen=True)
class MuDecomposition:
    lam: float
    v: np.ndarray
    v_c: tuple  # four vectors; zero vector where the component vanishes
    mu: np.ndarray  # four nonnegative weights


def extract_rank2(m_z: np.ndarray, sym: groups.C4Symmetry, tol: float = 1e-9) -> tuple:
    """Largest eigenvalue and eigenvector of a rank-two +/-lambda observable."""
    rank = linalg.rank_tol(m_z)
    if rank != 2:
        raise RankNotTwo(f"observable rank is {rank}, need 2")
    eig = linalg.hermitian_eig(m_z)
    lam = float(eig.eigenvalues[-1])
    if not 0.0 < lam <= 1.0 + tol:
        raise SpectrumAsymmetric(f"leading eigenvalue {lam} outside (0, 1]")
    if abs(eig.eigenvalues[0] + lam) > tol * max(1.0, lam):
        raise SpectrumAsymmetric(
            f"eigenvalues {eig.eigenvalues[0]} and {lam} are not a +/- pair"
        )
    v = eig.eigenvectors[:, -1]
    u2 = sym.u @ sym.u
    flipped = u2 @ np.outer(v, v.conj()) @ linalg.dagger(u2)
    residual = linalg.frob(m_z - lam * (np.outer(v, v.conj()) - flipped))
    if residual > tol:
        raise SpectrumAsymmetric(
            f"rank-two reconstruction residual {residual} exceeds {tol}"
        )
    return lam, v


def mu_decompose(
    v: np.ndarray, sym: groups.C4Symmetry, lam: float = 1.0, tol: float = 1e-9
) -> MuDecomposition:
    """Split v into the four U eigencomponents, weights gauged nonnegative.

    The split only exists usefully when v and U^2 v are orthogonal, which is
    what forces the paired weights onto circles of radius 1/sqrt(2).
    """
    u2 = sym.u @ sym.u
    overlap = abs(np.vdot(v, u2 @ v))
    if overlap > tol:
        raise SpectrumAsymmetric(
            f"v is not orthogonal to its double rotation (overlap {overlap})"
        )
    projectors = groups.c4_eigenprojectors(sym)
    mu = np.zeros(4)
    components = []
    for c in range(4):
        w = projectors[c] @ v
        weight = float(np.linalg.norm(w))
        if weight > 1e-12:
            mu[c] = weight
            components.append(w / weight)
        else:
            components.append(np.zeros_like(v))
    return MuDecomposition(lam=float(lam), v=v, v_c=tuple(components), mu=mu)


def kraus_core(dec: MuDecomposition) -> list:
    """Core Kraus operators linking adjacent eigencomponents of v."""
    ops = []
    scale = np.sqrt(2.0 * dec.lam)
    for c in range(4):
        c1 = (c + 1) % 4
        if dec.mu[c] * dec.mu[c1] == 0.0:
            continue
        f = scale * (
            dec.mu[c1] * np.outer(KET_0Y, dec.v_c[c].conj())
            + dec.mu[c] * np.outer(KET_1Y, dec.v_c[c1].conj())
        )
        ops.append(f)
    return ops


def complete_trace_preserving(core, d: int) -> SquashMap:
    """Append y-axis Kraus operators until the map preserves trace.

    The deficiency D = identity - sum F+F is diagonalized and each surviving
    eigendirection is routed to the fixed output |0_y>, which contributes
    nothing to the reproduced z and x observables.
    """
    deficiency = np.eye(d, dtype=complex)
    for f in core:
        deficiency = deficiency - linalg.dagger(f) @ f
    eig = linalg.hermitian_eig(deficiency)
    if eig.eigenvalues[0] < -1e-9:
        raise DeficiencyNotPsd(
            f"trace deficiency has negative eigenvalue {eig.eigenvalues[0]}"
        )
    keep = eig.eigenvalues >= 1e-12
    routed = KET_0Y[:, None] * eig.eigenvectors[:, keep].T.conj()[:, None, :]  # |0_y><e_j|
    fill = np.sqrt(eig.eigenvalues[keep])[:, None, None] * routed
    return SquashMap(in_dim=d, kraus=[*core, *fill])


def construct_theorem1(
    p: povm.Bb84Povm, sym: groups.C4Symmetry, tol: float = 1e-9
) -> SquashMap:
    """Full analytic pipeline; raises ConstructionError tagged with the stage."""
    try:
        normalized = groups.phase_normalize(sym)
    except SquashkitError as exc:
        raise ConstructionError("phase-normalize", str(exc)) from exc
    if normalized is sym:  # returned unchanged: U^4 is not scalar
        raise ConstructionError(
            "phase-normalize",
            "U^4 is not scalar, so the order cannot be reduced to one; "
            "use the feasibility finder for this input",
        )
    sym = normalized
    report = groups.check_definition1(sym, p, tol)
    if not report.passed:
        raise ConstructionError(
            "symmetry", f"four-cycle relations fail, max residual {report.max_residual}"
        )
    try:
        if not povm.validate(p, tol).passed:
            raise InvalidPovm(f"measurement set fails validation at tol={tol}")
        lam, v = extract_rank2(p.difference("z"), sym, tol)
        dec = mu_decompose(v, sym, lam, tol)
    except SquashkitError as exc:
        raise ConstructionError("rank-extraction", str(exc)) from exc
    try:
        squash = complete_trace_preserving(kraus_core(dec), p.dim)
    except SquashkitError as exc:
        raise ConstructionError("completion", str(exc)) from exc
    verdict = verify_squash(squash, p, tol)
    if not verdict.passed:
        raise ConstructionError(
            "verification", f"constructed map fails at tol={tol}: {verdict}"
        )
    return squash


@dataclass(frozen=True)
class VerificationReport:
    residual_z: float
    residual_x: float
    residual_tp: float
    max_state_deviation: float
    tol: float
    passed: bool

    @property
    def max_residual(self) -> float:
        return max(self.residual_z, self.residual_x, self.residual_tp)


def verify_squash(
    f: SquashMap, p: povm.Bb84Povm, tol: float = 1e-9, samples: int = 20, seed: int = 1812
) -> VerificationReport:
    """Check that the map reproduces both observables and preserves trace.

    Besides the operator identities, spot-checks the defining equality
    Tr(F(rho) sigma_r) = Tr(rho M_r) on ``samples`` random mixed states, drawn
    in one batch (the same states as successive single draws from ``seed``).
    """
    if f.in_dim != p.dim:
        raise DimensionMismatch(f"map dim {f.in_dim} vs POVM dim {p.dim}")
    m_z, m_x = p.difference("z"), p.difference("x")
    residual_z = linalg.frob(f.adjoint(linalg.PAULI_Z) - m_z)
    residual_x = linalg.frob(f.adjoint(linalg.PAULI_X) - m_x)
    residual_tp = linalg.frob(f.adjoint(np.eye(2, dtype=complex)) - np.eye(p.dim))
    rhos = linalg.random_density_matrices(p.dim, samples, np.random.default_rng(seed))
    outs = np.tensordot(f.choi(), rhos, axes=([1, 3], [1, 2]))  # indexed [a, b, sample]
    # Tr(F(rho) sigma_r) - Tr(rho M_r), indexed [r, sample] for r = z, x
    dev = np.einsum("abn,rba->rn", outs, np.stack([linalg.PAULI_Z, linalg.PAULI_X]))
    dev -= np.einsum("nij,rji->rn", rhos, np.stack([m_z, m_x]))
    worst = float(np.abs(dev.real).max(initial=0.0))
    passed = max(residual_z, residual_x, residual_tp, worst) <= tol
    return VerificationReport(
        residual_z=residual_z,
        residual_x=residual_x,
        residual_tp=residual_tp,
        max_state_deviation=worst,
        tol=tol,
        passed=passed,
    )


def squash_to_json(f: SquashMap) -> dict:
    return {
        "in_dim": int(f.in_dim),
        "kraus": [linalg.matrix_rect_to_json(k) for k in f.kraus],
    }


def squash_from_json(obj: dict) -> SquashMap:
    kraus = tuple(linalg.matrix_rect_from_json(k) for k in obj["kraus"])
    return SquashMap(in_dim=int(obj["in_dim"]), kraus=kraus)
