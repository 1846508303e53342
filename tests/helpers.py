"""Shared oracles and fixtures for the test suite."""

from __future__ import annotations

import copy
import itertools
import json
import os
import subprocess
import sys
from math import sqrt
from pathlib import Path

import numpy as np

import squashkit
from squashkit import cli, finder, fock, linalg, nogo, povm
from squashkit.errors import SquashkitError
from squashkit.squashmap import SquashMap, trace_defect


def configurations(photons) -> list:
    """The basis order of a sector: configurations (j_1, ..., j_m), all-z0 first.

    j_i counts the photons of mode i in polarization z0 and runs n_i, ..., 0;
    the first mode varies slowest.
    """
    return list(itertools.product(*(range(n, -1, -1) for n in photons)))


def ladder_state_oracle(photons, r: str, b: int) -> np.ndarray:
    """Single-click state built by truncated creation operators on the Fock space.

    Holds the state of the full two-polarization Fock space of every mode
    (each slot truncated at its mode's photon count) as a tensor with one axis
    per slot, applies the creation operators for basis r and bit b to the
    vacuum, each along its own slot axis, normalizes, and reads the amplitudes
    back off in the sector's configuration ordering. Entirely independent of
    the closed-form amplitudes under test.
    """
    n = tuple(photons)
    slot_dims = []
    for ni in n:
        slot_dims.extend([ni + 1, ni + 1])  # z0 and z1 occupation per mode

    def create(state, slot):
        """a+ on one slot: amplitude at occupation k moves to k + 1 with factor sqrt(k + 1)."""
        dim = slot_dims[slot]
        a = np.diag(np.sqrt(np.arange(1, dim)), -1).astype(complex)
        return np.moveaxis(np.tensordot(a, state, axes=([1], [slot])), 0, slot)

    state = np.zeros(slot_dims, dtype=complex)
    state[(0,) * len(slot_dims)] = 1.0
    for i, ni in enumerate(n):
        for _ in range(ni):
            if r == "z":
                state = create(state, 2 * i + b)
            else:
                state = (create(state, 2 * i) + (-1) ** b * create(state, 2 * i + 1)) / sqrt(2)
    state = state / np.linalg.norm(state)

    # read off amplitudes at the sector's configurations
    basis = configurations(n)
    out = np.zeros(len(basis), dtype=complex)
    for idx, cfg in enumerate(basis):
        occupations = []
        for ni, j in zip(n, cfg):
            occupations.extend([j, ni - j])
        out[idx] = state[tuple(occupations)]
    # everything outside the sector must be vacuum-padded zeros
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    return out


def rotation_generator_oracle(sector) -> np.ndarray:
    """The y-axis photon-number difference of a sector, built over all its configurations.

    Equals sum_i 1j*(a+_{i,z1} a_{i,z0} - a+_{i,z0} a_{i,z1}): a Hermitian
    hopping operator that moves one photon of one mode between polarizations,
    written out configuration by configuration in the sector's basis order.
    """
    basis = configurations(sector.photons)
    index = {cfg: i for i, cfg in enumerate(basis)}
    g = np.zeros((len(basis), len(basis)), dtype=complex)
    for cfg in basis:
        col = index[cfg]
        for i, (n, j) in enumerate(zip(sector.photons, cfg)):
            if j >= 1:  # move one photon z0 -> z1
                moved = list(cfg)
                moved[i] = j - 1
                g[index[tuple(moved)], col] += 1j * sqrt(j * (n - j + 1))
            if j <= n - 1:  # move one photon z1 -> z0
                moved = list(cfg)
                moved[i] = j + 1
                g[index[tuple(moved)], col] += -1j * sqrt((j + 1) * (n - j))
    return g


def rotation_oracle(sector) -> np.ndarray:
    """exp(-i pi/4 G) of the configuration-loop generator, by numpy's eigh."""
    values, vectors = np.linalg.eigh(rotation_generator_oracle(sector))
    return (vectors * np.exp(-0.25j * np.pi * values)) @ vectors.conj().T


def qubit_plus_half_block():
    """The ideal qubit set with a 1/2 block beside it (d = 3), and a U cycling it.

    U = exp(-i pi/4 sigma_y) + e^{0.3i} has U^4 = -1 on the qubit and e^{1.2i}
    on the extra level, so U^4 is not a scalar.
    """
    elements = {}
    for key, m in povm.ideal_qubit_povm().elements.items():
        elements[key] = np.zeros((3, 3), dtype=complex)
        elements[key][:2, :2] = m
        elements[key][2, 2] = 0.5
    u = np.zeros((3, 3), dtype=complex)
    u[:2, :2] = linalg.unitary_from_generator(linalg.PAULI_Y, -np.pi / 4)
    u[2, 2] = np.exp(0.3j)
    return povm.make_povm(elements), u


def single_mode_sectors(max_n: int = 6):
    return [fock.fock_sector((n,)) for n in range(1, max_n + 1)]


def multi_mode_sectors(max_total: int = 4, modes=(2, 3)):
    out = []
    for m in modes:
        for total in range(1, max_total + 1):
            for cfg in itertools.product(range(total + 1), repeat=m):
                if sum(cfg) == total:
                    out.append(fock.fock_sector(cfg))
    return out


#: Sectors of four and five modes; the finder's margin is thinnest on (2,2,2,2).
WIDE_SECTORS = ((1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 2, 2), (1, 1, 1, 1, 1))


def acceptance_sectors():
    """Single-mode photon numbers 1..6, all 2- and 3-mode sectors up to 4, and WIDE_SECTORS."""
    return (
        single_mode_sectors(6) + multi_mode_sectors(4)
        + [fock.fock_sector(photons) for photons in WIDE_SECTORS]
    )


#: An anti-Hermitian 2x2 part of Frobenius norm 0.45e-9: added to z0 and taken from z1, it
#: leaves a set that validate passes at 1e-9 and an observable that is exactly Hermitian.
SKEW = 0.45e-9 * np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(2.0)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (x + x.conj().T) / 2


def random_density_matrices(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """A (count, dim, dim) stack equal to ``count`` successive random_density_matrix draws."""
    z = rng.standard_normal((count, 2, dim, dim))
    x = z[:, 0] + 1j * z[:, 1]
    rho = x @ x.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Wishart-distributed full-rank density matrix."""
    return random_density_matrices(dim, 1, rng)[0]


def visibility_set(m_z, m_x, v):
    """The set (1 +/- v M_r) / 2 of the observables M_r at visibility v."""
    eye = np.eye(m_z.shape[0])
    return povm.make_povm({
        f"{r}{b}": (eye + (1 - 2 * b) * v * m) / 2
        for r, m in (("z", m_z), ("x", m_x)) for b in (0, 1)
    })


def kraus_adjoint(f, obs: np.ndarray) -> np.ndarray:
    """Heisenberg-picture pullback of a qubit observable, one Kraus operator at a time."""
    return sum(linalg.dagger(k) @ obs @ k for k in f.kraus)


def kraus_apply(f, rho: np.ndarray) -> np.ndarray:
    """Channel action on a d-dimensional operator, one Kraus operator at a time."""
    return sum(k @ rho @ linalg.dagger(k) for k in f.kraus)


def column_stacked_choi(f) -> np.ndarray:
    """Choi matrix of a map to a qubit on (input x output): entry (a, i) of F lands at i*2 + a."""
    return sum(np.outer(k.T.ravel(), k.T.ravel().conj()) for k in f.kraus)


def einsum_project_affine(j: np.ndarray, m_z: np.ndarray, m_x: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix on the Choi constraint set of observables (m_z, m_x).

    Reads each 2x2 block's sigma_y component with an einsum and rebuilds the
    pinned 1, sigma_z and sigma_x components with three krons.
    """
    d = m_z.shape[0]
    y_t = np.einsum("apbq,qp->ab", j.reshape(d, 2, d, 2), linalg.PAULI_Y)
    return 0.5 * (
        np.eye(2 * d, dtype=complex)
        + np.kron(m_z.T, linalg.PAULI_Z)
        + np.kron(m_x.T, linalg.PAULI_X)
        + np.kron(y_t, linalg.PAULI_Y)
    )


def affine_residual(j: np.ndarray, p) -> float:
    """Distance of a Choi matrix from the constraint set of a measurement set."""
    m_z, m_x = p.difference("z"), p.difference("x")
    return linalg.frob(einsum_project_affine(j, m_z, m_x) - j)


def validate_oracle(p, tol: float = linalg.TOL) -> linalg.CheckReport:
    """povm.validate one element at a time: a Hermitian test and an eigvalsh per element."""
    residuals = {}
    for key in povm.LABELS:
        m = p.elements[key]
        hermitian = linalg.is_hermitian(m)
        least = np.linalg.eigvalsh((m + linalg.dagger(m)) / 2)[0] if hermitian else -np.inf
        residuals[f"psd.{key}"] = -least
    eye = np.eye(p.dim, dtype=complex)
    for r in ("z", "x"):
        residuals[f"sum.{r}"] = linalg.frob(p.element(r, 0) + p.element(r, 1) - eye)
    return linalg.CheckReport(residuals, tol)


def doubling_oracle(p, tol: float = linalg.LOOSE_TOL) -> finder.FeasibilityReport:
    """find_squash with a doubling loop that builds every iterate out of place.

    Each step concatenates [E, E+] afresh from a dagger of E, replaces E, P
    and Q with new arrays and tests stationarity on Frobenius norms. The
    witness, the final factor X = L L+ and the verdict rules are find_squash's,
    except that the FEASIBLE map is not self-checked.
    """
    m_z, m_x = p.difference("z"), p.difference("x")
    witness = finder.bloch_witness(m_z, m_x)
    if witness.value > 1.0 + finder.INFEASIBLE_SLACK:
        return finder.FeasibilityReport("INFEASIBLE", None, witness, 0.0, 0)

    # doubling (Lin & Xu): Q converges to the maximal solution X of X + A+ X^-1 A = 1
    a = (m_z + 1j * m_x) / 2.0
    e = (1.0 - finder.DOUBLING_SHRINK) * a
    q = np.eye(p.dim, dtype=complex)
    s = np.zeros_like(q)
    steps, stationary = 0, False
    while steps < finder.MAX_DOUBLING_STEPS and not stationary:
        try:  # W = Q - P stays positive definite unless the doubling disagrees with the witness
            low = np.linalg.cholesky(q - s)
        except np.linalg.LinAlgError:
            break
        # with W = L L+ and B = L^-1 [E, E+], the Gram matrix B+ B holds every update:
        # [[E+ W^-1 E (the step), E+ W^-1 E+], [E W^-1 E (the new E), E W^-1 E+ (added to P)]]
        l_both = np.linalg.solve(low, np.concatenate([e, linalg.dagger(e)], axis=1))
        gram = linalg.dagger(l_both) @ l_both
        step, e, s = gram[:p.dim, :p.dim], gram[p.dim:, :p.dim], s + gram[p.dim:, p.dim:]
        q = q - step
        steps += 1
        stationary = linalg.frob(step) <= finder.STATIONARY_STEP * linalg.frob(q)

    try:  # X = L L+ gives G0 = L+ and G1 = L^-1 A, so that G0+ G1 = A and G0+ G0 = X
        low = np.linalg.cholesky(q)
        g0, g1 = linalg.dagger(low), np.linalg.solve(low, a)
    except np.linalg.LinAlgError:  # the empty family, whose trace defect sqrt(d) is UNDECIDED
        g0 = g1 = np.zeros((0, p.dim))
    gap = trace_defect(g0, g1)
    if not (stationary and gap <= min(tol, linalg.TOL)):
        return finder.FeasibilityReport("UNDECIDED", None, witness, gap, steps)
    return finder.FeasibilityReport("FEASIBLE", SquashMap(g0=g0, g1=g1), witness, gap, steps)


def haar_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A Haar-random isometry C^cols -> C^rows, the real parts drawn before the imaginary."""
    x = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def isometry_set(rng: np.random.Generator, d: int, visibility: float = 0.8):
    """The ideal qubit set at a visibility after a random isometry C^d -> C^2 (x) C^d.

    The isometry followed by the partial trace is a squash, so the set is feasible
    with a witness below one: the doubling's quadratically convergent regime.
    """
    v = haar_isometry(rng, 2 * d, d)
    return povm.make_povm({
        f"{r}{b}": linalg.dagger(v) @ np.kron((np.eye(2) + (1 - 2 * b) * visibility * sigma) / 2,
                                              np.eye(d)) @ v
        for r, sigma in (("z", linalg.PAULI_Z), ("x", linalg.PAULI_X)) for b in (0, 1)
    })


def projective_set(rng: np.random.Generator, d: int):
    """Two random rank-floor(d/2) projective bases, one per basis z and x."""
    elements = {}
    for r in ("z", "x"):
        u = haar_isometry(rng, d, d)[:, :d // 2]
        elements[f"{r}0"] = u @ linalg.dagger(u)
        elements[f"{r}1"] = np.eye(d) - elements[f"{r}0"]
    return povm.make_povm(elements)


def definition1_oracle(u: np.ndarray, p) -> dict:
    """Definition 1's residuals one relation at a time, conjugating by U and by U^2 = U U."""
    u2 = u @ u
    residuals = {}
    for b in (0, 1):
        res = linalg.frob(u @ p.element("z", b) @ linalg.dagger(u) - p.element("x", b))
        residuals[f"U.z{b}->x{b}"] = res
    for r in ("z", "x"):
        for b in (0, 1):
            res = linalg.frob(u2 @ p.element(r, b) @ linalg.dagger(u2) - p.element(r, 1 - b))
            residuals[f"U2.{r}{b}->{r}{1 - b}"] = res
    return residuals


def _compose(a: tuple, b: tuple) -> tuple:
    """The permutation a o b: first b, then a."""
    return tuple(a[k] for k in b)


def _quaternion_product(p: tuple, q: tuple) -> tuple:
    """Hamilton product of quaternions a + bi + cj + dk held as (a, b, c, d)."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2, a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2, a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def _abelian(*orders):
    """Generators and product of C_n1 x C_n2 x ..., elements as tuples of residues."""
    units = [tuple(int(i == j) % n for j, n in enumerate(orders)) for i in range(len(orders))]
    return units, lambda a, b: tuple((x + y) % n for x, y, n in zip(a, b, orders))


#: The label permutations that keep the basis pairs {z0, z1} and {x0, x1}, labels in
#: povm.LABELS order: the dihedral group D4, generated by the four-cycle and a z <-> x swap.
D4_GENERATORS = ((1, 2, 3, 0), (1, 0, 3, 2))

#: Every group of order at most 8, up to isomorphism: name -> (generators, product).
SMALL_GROUPS = {
    **{f"C{n}": _abelian(n) for n in range(1, 9)},
    "C2xC2": _abelian(2, 2),
    "C4xC2": _abelian(4, 2),
    "C2xC2xC2": _abelian(2, 2, 2),
    "S3": (((1, 0, 2), (1, 2, 0)), _compose),
    "D4": (D4_GENERATORS, _compose),
    "Q8": (((0, 1, 0, 0), (0, 0, 1, 0)), _quaternion_product),
}


def _closure(generators, product) -> list:
    """Every product of the generators, the generators first."""
    elements = list(generators)
    for a in elements:  # the list grows while it is walked, until it is closed
        for g in generators:
            if (c := product(a, g)) not in elements:
                elements.append(c)
    return elements


def generated_group(generators, product) -> tuple:
    """(the checked Cayley table, the generators' element indices) of the group they generate."""
    elements = _closure(generators, product)
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[product(a, b)] for b in elements] for a in elements]
    return nogo.make_group(table), [index[g] for g in generators]


def label_actions(group, generators) -> list:
    """Every homomorphism of ``group`` into D4, by brute force over the generators' images.

    Each assignment of D4 elements to the generators is spread over the group along
    products x*g, and kept when it sends each generator to its image and
    ``nogo.validate_action`` accepts it.
    """
    actions = []
    for images in itertools.product(_closure(D4_GENERATORS, _compose), repeat=len(generators)):
        walk, perms = [group.identity], {group.identity: tuple(range(4))}
        for x in walk:  # grows while walked: every element is some x*g
            for g, image in zip(generators, images):
                if (y := int(group.cayley[x, g])) not in perms:
                    perms[y] = _compose(perms[x], image)
                    walk.append(y)
        if any(perms[g] != image for g, image in zip(generators, images)):
            continue  # a generator that is the identity, sent elsewhere
        action = nogo.make_action([perms[k] for k in range(group.order)])
        try:
            nogo.validate_action(group, action)
        except SquashkitError:
            continue
        actions.append(action)
    return actions


def fresh_python(probe: str) -> str:
    """Standard output of ``python -c probe`` in a new interpreter that imports this squashkit."""
    path = [str(Path(squashkit.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def written(tree):
    """A ``*_to_json`` tree as the command line writes it and a reader loads it back."""
    return json.loads(cli._json_text(tree))


#: What a single-field mutation puts in place of one value; DELETE removes the value instead.
DELETE = object()
MUTATIONS = (None, True, False, 0, 2, -2, 0.5, "z0", "", [], {}, 1e308, 10**30, DELETE)


def json_paths(tree, path=()) -> list:
    """The path of every value in a decoded JSON tree, the whole tree's () first."""
    if isinstance(tree, dict):
        children = tree.items()
    else:
        children = enumerate(tree) if isinstance(tree, list) else ()
    return [path, *(sub for key, value in children for sub in json_paths(value, (*path, key)))]


def mutation_text(tree, path: tuple, value) -> str:
    """JSON text of ``tree`` with the value at ``path`` replaced by ``value``, or deleted by DELETE.

    Deleting the whole tree leaves an empty file.
    """
    if not path:
        return "" if value is DELETE else json.dumps(value)
    tree = copy.deepcopy(tree)
    *parents, last = path
    target = tree
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return json.dumps(tree)
