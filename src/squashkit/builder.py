"""Analytic construction of squash maps for four-cycle-symmetric detectors.

Given a measurement set whose z observable has rank two and a unitary U
cycling its four elements (U M(z,b) U+ = M(x,b) and U^2 M(r,b) U+^2 =
M(r,1-b), checked first by :func:`check_definition1`), the construction
runs: extract the +lambda eigenvector v of M_z, split v into the four
eigencomponents of U, link adjacent components into at most four core rows
of the sigma_y-frame pair (G0, G1), and append completion rows that restore
G0+ G0 + G1+ G1 = 1 without touching G0+ G1 = (M_z + i M_x) / 2 (they route
to |0_y>, where both sigma_z and sigma_x have zero expectation). The map
record, its verification and its JSON form live in :mod:`squashkit.squashmap`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import linalg, povm
from .errors import ConstructionError, SquashkitError
from .squashmap import SquashMap, verify_squash

if TYPE_CHECKING:  # annotations only: constructing does not build detectors
    from .fock import C4Symmetry


def check_definition1(
    sym: C4Symmetry, p: povm.Bb84Povm, tol: float = linalg.TOL
) -> linalg.CheckReport:
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
    return linalg.CheckReport(residuals, tol)


class MuDecomposition(NamedTuple):
    lam: float
    v: np.ndarray
    v_c: tuple  # four vectors; zero vector where the component vanishes
    mu: np.ndarray  # four nonnegative weights


def extract_rank2(m_z: np.ndarray, sym: C4Symmetry, tol: float = linalg.TOL) -> tuple:
    """Largest eigenvalue and eigenvector of a rank-two +/-lambda observable."""
    m_z = linalg.as_matrix(m_z)
    if not linalg.is_hermitian(m_z):
        raise SquashkitError(f"matrix is not Hermitian within tol={linalg.TOL}")
    values, vectors = np.linalg.eigh(m_z)
    rank = np.count_nonzero(np.abs(values) > linalg.TOL * max(1.0, linalg.frob(m_z)))
    if rank != 2:
        raise SquashkitError(f"observable rank is {rank}, need 2")
    lam = float(values[-1])
    if not 0.0 < lam <= 1.0 + tol:
        raise SquashkitError(f"leading eigenvalue {lam} outside (0, 1]")
    if abs(values[0] + lam) > tol * max(1.0, lam):
        raise SquashkitError(f"eigenvalues {values[0]} and {lam} are not a +/- pair")
    v = vectors[:, -1]
    w = sym.u @ (sym.u @ v)  # U^2 v, the -lambda eigenvector
    residual = linalg.frob(m_z - lam * (np.outer(v, v.conj()) - np.outer(w, w.conj())))
    if residual > tol:
        raise SquashkitError(f"rank-two reconstruction residual {residual} exceeds {tol}")
    return lam, v


def mu_decompose(
    v: np.ndarray, sym: C4Symmetry, lam: float = 1.0, tol: float = linalg.TOL
) -> MuDecomposition:
    """Split the unit vector v into the four U eigencomponents, weights gauged nonnegative.

    U^4 v = eta v for a phase eta = <v, U^4 v>, whatever U^4 does elsewhere.
    Its fourth root rho = exp(i (arg(i eta) - pi/2) / 4) has its branch cut at
    eta = i, away from the eta = +/-1 of every detector sector. The component
    P_c v = 1/4 sum_j (rho i^c)^(-j) U^j v takes only the vectors U^j v and
    satisfies U P_c v = rho i^c P_c v. The split only exists usefully when v
    and U^2 v are orthogonal, which is what forces the paired weights onto
    circles of radius 1/sqrt(2).

    Raises
    ------
    SquashkitError : v is not orthogonal to U^2 v within ``tol``, or U^4 v is
        not a multiple of v within ``LOOSE_TOL``, so the parts are not
        eigenvectors of U.
    """
    powers = [v]  # v, Uv, U^2 v, U^3 v, U^4 v
    for _ in range(4):
        powers.append(sym.u @ powers[-1])
    overlap = abs(np.vdot(v, powers[2]))
    if overlap > tol:
        raise SquashkitError(f"v is not orthogonal to its double rotation (overlap {overlap})")
    eta = np.vdot(v, powers[4])
    residual = linalg.frob(powers[4] - eta * v)
    if residual > linalg.LOOSE_TOL:
        raise SquashkitError(f"U^4 v is not a multiple of v (residual {residual})")
    rho = np.exp(1j * (np.angle(1j * eta) - np.pi / 2) / 4.0)
    scaled = [rho ** -j * powers[j] for j in range(4)]  # the orbit of v under U / rho
    mu = np.zeros(4)
    components = []
    for c in range(4):
        w = sum((-1j) ** ((c * j) % 4) * scaled[j] for j in range(4)) / 4.0
        weight = linalg.frob(w)
        if weight > linalg.ZERO:
            mu[c] = weight
            components.append(w / weight)
        else:
            components.append(np.zeros_like(v))
    return MuDecomposition(lam=float(lam), v=v, v_c=tuple(components), mu=mu)


def kraus_core(dec: MuDecomposition) -> tuple:
    """Core rows (G0, G1) linking adjacent eigencomponents of v, one row pair per link."""
    g0, g1 = [], []
    scale = np.sqrt(2.0 * dec.lam)
    for c in range(4):
        c1 = (c + 1) % 4
        if dec.mu[c] * dec.mu[c1] == 0.0:
            continue
        g0.append(scale * dec.mu[c1] * dec.v_c[c].conj())
        g1.append(scale * dec.mu[c] * dec.v_c[c1].conj())
    return tuple(np.array(g, dtype=complex).reshape(-1, len(dec.v)) for g in (g0, g1))


def complete_trace_preserving(core: tuple, d: int) -> SquashMap:
    """Append y-axis rows until the map preserves trace.

    The deficiency D = 1 - G0+ G0 - G1+ G1 of the core rows is diagonalized, and
    each surviving eigendirection e_j is routed to the fixed output |0_y>: a row
    sqrt(lambda_j) e_j+ in G0 beside a zero row in G1, invisible to both observables.
    """
    g0, g1 = core
    deficiency = np.eye(d, dtype=complex) - linalg.dagger(g0) @ g0 - linalg.dagger(g1) @ g1
    values, vectors = np.linalg.eigh((deficiency + linalg.dagger(deficiency)) / 2)
    if values[0] < -linalg.TOL:
        raise SquashkitError(f"trace deficiency has negative eigenvalue {values[0]}")
    keep = values >= linalg.ZERO
    fill = np.sqrt(values[keep])[:, None] * linalg.dagger(vectors[:, keep])
    return SquashMap(g0=np.vstack([g0, fill]), g1=np.vstack([g1, np.zeros_like(fill)]))


def construct_theorem1(
    p: povm.Bb84Povm, sym: C4Symmetry, tol: float = linalg.TOL
) -> SquashMap:
    """Full analytic pipeline; raises ConstructionError tagged with the stage."""
    report = check_definition1(sym, p, tol)
    if not report.passed:
        raise ConstructionError(
            "symmetry", f"four-cycle relations fail, max residual {report.max_residual}"
        )
    try:
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
