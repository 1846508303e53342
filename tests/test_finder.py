import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squashkit import builder, cli, finder, fock, linalg, nogo, povm, squashmap
from squashkit.errors import SquashkitError
from squashkit.nogo import counterexample_m0

from helpers import (
    affine_residual,
    column_stacked_choi,
    doubling_oracle,
    einsum_project_affine,
    haar_isometry,
    isometry_set,
    kraus_adjoint,
    projective_set,
    random_hermitian,
    visibility_set,
)


def theorem1_squash(photons):
    model = fock.build_detector(fock.fock_sector(photons))
    return model, builder.construct_theorem1(model.povm, model.symmetry)


def test_theorem1_choi_satisfies_constraints():
    model, squash = theorem1_squash((2,))
    choi = column_stacked_choi(squash)
    assert affine_residual(choi, model.povm) <= 1e-9
    marginal = np.einsum("iaja->ij", choi.reshape(3, 2, 3, 2))  # trace over the output qubit
    assert linalg.frob(marginal - np.eye(3)) <= 1e-9


def test_projections_idempotent():
    rng = np.random.default_rng(21)
    p = povm.ideal_qubit_povm()
    m_z, m_x = p.difference("z"), p.difference("x")
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    herm = (x + x.conj().T) / 2
    once = einsum_project_affine(herm, m_z, m_x)
    assert linalg.frob(einsum_project_affine(once, m_z, m_x) - once) <= 1e-10
    psd_once = _checked_project_psd(herm)
    assert linalg.frob(_checked_project_psd(psd_once) - psd_once) <= 1e-10


def _checked_project_psd(j):
    """PSD projection of the Hermitian part of the iterate, by numpy's eigh."""
    values, vectors = np.linalg.eigh((j + linalg.dagger(j)) / 2.0)
    return (vectors * np.clip(values, 0.0, None)) @ linalg.dagger(vectors)


def _alternating_projections(p, max_iter=20000, tol=1e-8):
    """The search the doubling solve replaced: from J = 1/2, alternate between
    the affine constraint set and the PSD cone until the two iterates meet.
    Returns the verdict and the last affine iterate J."""
    m_z, m_x = p.difference("z"), p.difference("x")
    j = einsum_project_affine(np.eye(2 * p.dim, dtype=complex) / 2.0, m_z, m_x)
    for _ in range(max_iter):
        psd = _checked_project_psd(j)
        j = einsum_project_affine(psd, m_z, m_x)
        if linalg.frob(j - psd) <= tol:
            return "FEASIBLE", j
    return "UNDECIDED", j


def _cross_check_set(name):
    """A detector sector's set, the ideal set, or the (1,) set symmetrized over C2 or C4."""
    if name == "ideal":
        return povm.ideal_qubit_povm()
    if name in ("c2", "c4"):
        base = fock.build_detector(fock.fock_sector((1,))).povm
        group = nogo.cyclic_group(int(name[1]))
        action = nogo.c2_basis_swap_action() if name == "c2" else nogo.canonical_c4_action()
        return nogo.symmetrize(base, group, action).tilde
    return fock.build_detector(fock.fock_sector(name)).povm


@pytest.mark.parametrize("photons", [(1,), (2,), (2, 1), "ideal", "c2", "c4"])
def test_find_squash_iterates_match_reference_loop(photons):
    p = _cross_check_set(photons)
    verdict, j = _alternating_projections(p)
    report = finder.find_squash(p)
    assert report.verdict == verdict == "FEASIBLE"
    assert squashmap.verify_squash(report.squash, p, tol=1e-6).passed
    # the reference's J is a Choi matrix of a squash: PSD, and on the constraint set
    assert np.linalg.eigvalsh(j)[0] >= -1e-8
    assert affine_residual(j, p) <= 1e-8


@pytest.mark.parametrize("photons", [(1,), (2,), (2, 1), (2, 2)])
def test_project_affine_is_orthogonal_projection(photons):
    # the reference projection behind every Choi constraint residual in the suite
    p = fock.build_detector(fock.fock_sector(photons)).povm
    m_z, m_x = p.difference("z"), p.difference("x")
    rng = np.random.default_rng(sum(photons))
    j, k = (random_hermitian(2 * p.dim, rng) for _ in range(2))
    pj = einsum_project_affine(j, m_z, m_x)
    pk = einsum_project_affine(k, m_z, m_x)
    assert affine_residual(pj, p) <= 1e-12
    assert linalg.frob(pj - linalg.dagger(pj)) <= 1e-12
    # the displacement is normal to every direction inside the affine set
    assert abs(np.vdot(j - pj, pk - pj).real) <= 1e-10 * linalg.frob(j) * linalg.frob(k)


def test_witness_on_m0():
    m0 = counterexample_m0()
    obs_z = m0.difference("z")
    obs_x = m0.difference("x")
    witness = finder.bloch_witness(obs_z, obs_x)
    assert witness.value == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert witness.theta == pytest.approx(np.pi / 4, abs=1e-3)
    assert witness.state[0, 0].real == pytest.approx(1.0, abs=1e-9)


def test_witness_on_ideal_set():
    p = povm.ideal_qubit_povm()
    witness = finder.bloch_witness(p.difference("z"), p.difference("x"))
    assert witness.value == pytest.approx(1.0, abs=1e-9)


def test_witness_small_sectors_within_unit_ball():
    for sector in fock.enumerate_sectors(4, max_modes=2):
        model = fock.build_detector(sector)
        witness = finder.bloch_witness(model.povm.difference("z"), model.povm.difference("x"))
        assert witness.value <= 1.0 + 1e-9


def test_witness_memory_is_flat_in_the_grid():
    rng = np.random.default_rng(6)
    obs = [random_hermitian(64, rng) for _ in ("z", "x")]
    tracemalloc.start()
    try:
        finder.bloch_witness(*obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 720-angle stack at d = 64 would be 47 MB
    assert peak < 8e6


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_witness_reaches_the_dense_grid_maximum(d):
    rng = np.random.default_rng(40 + d)
    dense = 2.0 * np.pi * np.arange(2**14) / 2**14
    for _ in range(2):
        mz, mx = random_hermitian(d, rng), random_hermitian(d, rng)
        witness = finder.bloch_witness(mz, mx)
        stack = np.cos(dense)[:, None, None] * mz + np.sin(dense)[:, None, None] * mx
        assert witness.value >= np.linalg.eigvalsh(stack)[:, -1].max() - 1e-12
        direction = np.cos(witness.theta) * mz + np.sin(witness.theta) * mx
        assert witness.value == pytest.approx(np.linalg.eigvalsh(direction)[-1], abs=1e-13)


def test_witness_finds_the_peak_between_two_scan_angles():
    # the taller of two peaks sits midway between two angles of a 720-angle scan,
    # which then zooms on the lower one at t = 0 and reads 0.999999
    a, r2 = 91 * np.pi / 720, 1 + 1e-6
    m_z = np.diag([1 - 1e-6, r2 * np.cos(a)]).astype(complex)
    m_x = np.diag([0.0, r2 * np.sin(a)]).astype(complex)
    p = visibility_set(m_z, m_x, 1.0)
    assert povm.validate(p).passed
    witness = finder.bloch_witness(p.difference("z"), p.difference("x"))
    assert witness.value == pytest.approx(r2, abs=1e-12)
    assert witness.theta == pytest.approx(a, abs=1e-6)
    assert finder.find_squash(p).verdict == "INFEASIBLE"


def _witness_sets():
    """Detector sectors with up to three photons, M0, the ideal set and random pairs."""
    for sector in fock.enumerate_sectors(3):
        p = fock.build_detector(sector).povm
        yield p.difference("z"), p.difference("x")
    for p in (counterexample_m0(), povm.ideal_qubit_povm()):
        yield p.difference("z"), p.difference("x")
    rng = np.random.default_rng(9)
    for d in range(2, 9):
        for _ in range(3):
            yield random_hermitian(d, rng), random_hermitian(d, rng)


def test_witness_needs_few_pencil_solves(monkeypatch):
    # the level-set rounds converge in a handful of 2d x 2d eigenproblems;
    # a slower iteration shows up here as a count, without any timing
    solves = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: solves.append(a.shape) or eigvals(a))
    for m_z, m_x in _witness_sets():
        solves.clear()
        finder.bloch_witness(m_z, m_x)
        assert 1 <= len(solves) <= 8, (m_z.shape, len(solves))
        assert solves[0] == (2 * len(m_z), 2 * len(m_z))


def test_witness_is_never_below_a_dense_scan():
    dense = 2.0 * np.pi * np.arange(2**12) / 2**12
    for m_z, m_x in _witness_sets():
        witness = finder.bloch_witness(m_z, m_x)
        stack = np.cos(dense)[:, None, None] * m_z + np.sin(dense)[:, None, None] * m_x
        top = np.linalg.eigvalsh(stack)[:, -1].max()
        assert witness.value >= top - 1e-14 * max(1.0, abs(top))
        direction = np.cos(witness.theta) * m_z + np.sin(witness.theta) * m_x
        assert witness.value == pytest.approx(np.linalg.eigvalsh(direction)[-1], abs=1e-13)
        assert 0.0 <= witness.theta < 2.0 * np.pi


def test_witness_rejects_a_non_hermitian_set():
    p = povm.ideal_qubit_povm()
    with pytest.raises(SquashkitError, match="^the Bloch witness needs Hermitian observables$"):
        finder.bloch_witness(p.difference("z"), 1j * p.difference("x"))


def test_find_on_ideal_set():
    report = finder.find_squash(povm.ideal_qubit_povm())
    assert report.verdict == "FEASIBLE"
    squash = report.squash
    assert squashmap.verify_squash(squash, povm.ideal_qubit_povm(), tol=1e-6).passed


def test_find_on_m0_is_infeasible():
    report = finder.find_squash(counterexample_m0())
    assert report.verdict == "INFEASIBLE"
    assert report.witness.value > 1.0 + 1e-9
    # independent recomputation of the certificate
    m0 = counterexample_m0()
    m_z = m0.element("z", 0) - m0.element("z", 1)
    m_x = m0.element("x", 0) - m0.element("x", 1)
    direction = np.cos(report.witness.theta) * m_z + np.sin(report.witness.theta) * m_x
    value = np.trace(report.witness.state @ direction).real
    assert value > 1.0 + 1e-9


def test_find_on_two_photon_sector():
    model = fock.build_detector(fock.fock_sector((2,)))
    report = finder.find_squash(model.povm)
    assert report.verdict == "FEASIBLE"
    verdict = squashmap.verify_squash(report.squash, model.povm, tol=1e-6)
    assert verdict.passed


def test_find_never_infeasible_when_a_squash_exists():
    for photons in ((1,), (2,), (3,)):
        model, _ = theorem1_squash(photons)
        report = finder.find_squash(model.povm)
        assert report.verdict != "INFEASIBLE"


def _unit_random_pair(d, rng):
    return tuple(
        h / np.abs(np.linalg.eigvalsh(h)).max() for h in (random_hermitian(d, rng) for _ in "zx")
    )


@pytest.mark.parametrize("d", [2, 3, 5])
def test_verdict_flips_at_inverse_witness(d):
    m_z, m_x = _unit_random_pair(d, np.random.default_rng(d))
    w = finder.bloch_witness(m_z, m_x).value
    for margin, verdict in (
        (-1e-3, "FEASIBLE"), (1e-3, "INFEASIBLE"), (-1e-6, "FEASIBLE"), (1e-6, "INFEASIBLE")
    ):
        p = visibility_set(m_z, m_x, (1 + margin) / w)
        assert povm.validate(p).passed
        report = finder.find_squash(p)
        assert report.verdict == verdict
        if verdict == "FEASIBLE":
            assert squashmap.verify_squash(report.squash, p, tol=1e-6).passed
        else:
            assert report.witness.value == pytest.approx(1 + margin, abs=1e-9)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_verdict_just_above_and_below_one(d):
    # a witness above 1 + 1e-11 is INFEASIBLE; at one and just below, a verified map is found
    rng = np.random.default_rng(100 + d)
    for _ in range(2):
        m_z, m_x = _unit_random_pair(d, rng)
        w = finder.bloch_witness(m_z, m_x).value
        for target in (1 + 5e-10, 1 + 1e-10, 1 + 2e-11, 1.0, 1 - 1e-9):
            p = visibility_set(m_z, m_x, target / w)
            report = finder.find_squash(p)
            if target > 1.0:
                assert report.verdict == "INFEASIBLE", (target, report.gap)
            else:
                assert report.verdict == "FEASIBLE", (target, report.gap)
                assert squashmap.verify_squash(report.squash, p, tol=1e-6).passed


@settings(max_examples=20, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=10**6),
    margin=st.sampled_from([-1e-3, 1e-3, -1e-6, 1e-6, 1e-10]),
)
def test_verdict_flips_at_inverse_witness_on_any_set(d, seed, margin):
    m_z, m_x = _unit_random_pair(d, np.random.default_rng(seed))
    p = visibility_set(m_z, m_x, (1 + margin) / finder.bloch_witness(m_z, m_x).value)
    report = finder.find_squash(p)
    if margin < 0:
        assert report.verdict == "FEASIBLE"
        assert squashmap.verify_squash(report.squash, p, tol=1e-6).passed
    else:
        assert report.verdict == "INFEASIBLE"
        assert report.witness.value == pytest.approx(1 + margin, abs=1e-12)


def test_doubling_steps_stay_few_on_every_small_sector():
    # the doubling converges quadratically, or linearly on the boundary w = 1;
    # losing either shows up here as a step count, without any timing. The
    # counts are pinned: 2 steps at one photon, 3 at two, 24 from three on
    for sector in [*fock.enumerate_sectors(4), fock.fock_sector((4, 4, 4))]:
        report = finder.find_squash(fock.build_detector(sector).povm)
        assert report.verdict == "FEASIBLE"
        expected = {1: 2, 2: 3}.get(sum(sector.photons), 24)
        assert report.iterations == expected, (sector.photons, report.iterations)


def test_doubling_steps_stay_few_off_the_boundary():
    # isometry sets have a witness near 0.8, where the doubling converges
    # quadratically; the counts are pinned for sets drawn in this order
    rng = np.random.default_rng(2009)
    steps = [finder.find_squash(isometry_set(rng, d)).iterations for d in (3, 4, 5, 6, 8)]
    assert steps == [6, 6, 6, 5, 5]


@pytest.mark.parametrize("seed", range(5))
def test_doubling_steps_on_phase_rotated_detector_sets(seed):
    # a random diagonal-phase basis change, as the benchmark applies to these
    # four sectors, keeps the verdict, the step count and a gap within TOL
    rng = np.random.default_rng(seed)
    for photons, steps in (((1,), 2), ((2,), 3), ((3,), 24), ((2, 1), 24)):
        model = fock.build_detector(fock.fock_sector(photons))
        phases = np.exp(2j * np.pi * rng.random(model.povm.dim))
        p = povm.make_povm({
            key: phases[:, None] * m * phases.conj()[None, :]
            for key, m in model.povm.elements.items()
        })
        report = finder.find_squash(p)
        assert (report.verdict, report.iterations) == ("FEASIBLE", steps), photons
        assert report.gap <= linalg.TOL


def test_undecided_on_tiny_budget():
    # the doubling is stationary after 3 steps, with a trace defect of about 2e-12 above tol
    model = fock.build_detector(fock.fock_sector((2,)))
    report = finder.find_squash(model.povm, tol=1e-14)
    assert report.verdict == "UNDECIDED"
    assert report.iterations == 3
    assert report.gap > 0.0


@pytest.mark.parametrize("shrink", [1e-9, 1e-8, 1e-7])
def test_undecided_when_the_gap_is_within_tol_but_above_the_map_check(monkeypatch, shrink):
    # a stationary gap in (linalg.TOL, tol] is UNDECIDED, not a map that fails its own check
    monkeypatch.setattr(finder, "DOUBLING_SHRINK", shrink)
    for photons in ((1,), (2,), (2, 1)):
        report = finder.find_squash(fock.build_detector(fock.fock_sector(photons)).povm, tol=1e-6)
        assert report.verdict == "UNDECIDED" and report.squash is None
        assert linalg.TOL < report.gap <= 1e-6
    assert cli.main(["squash", "find", "--sector", "2", "--tol", "1e-6"]) == 3


@pytest.mark.parametrize("name", [(1,), (2,), (2, 1), "ideal", "c4", "random"])
def test_squash_is_read_off_the_doubling_solution(name):
    # one Kraus operator per input dimension, both observables reproduced to
    # rounding, and gap is exactly the returned map's trace defect
    if name == "random":
        m_z, m_x = _unit_random_pair(5, np.random.default_rng(55))
        p = visibility_set(m_z, m_x, (1 - 1e-9) / finder.bloch_witness(m_z, m_x).value)
    else:
        p = _cross_check_set(name)
    report = finder.find_squash(p)
    assert report.verdict == "FEASIBLE"
    squash = report.squash
    assert len(squash.kraus) == p.dim
    assert linalg.frob(kraus_adjoint(squash, linalg.PAULI_Z) - p.difference("z")) <= 1e-12
    assert linalg.frob(kraus_adjoint(squash, linalg.PAULI_X) - p.difference("x")) <= 1e-12
    defect = linalg.frob(kraus_adjoint(squash, np.eye(2, dtype=complex)) - np.eye(p.dim))
    assert report.gap == pytest.approx(defect, abs=1e-15)


def test_undecided_when_the_doubling_solution_has_no_cholesky_factor(monkeypatch, tmp_path):
    p = fock.build_detector(fock.fock_sector((2,))).povm
    steps = finder.find_squash(p).iterations
    cholesky, calls = np.linalg.cholesky, []

    def failing_after_the_doubling(a):
        calls.append(a.shape)
        if len(calls) % (steps + 1) == 0:  # each search factors once per step, then X
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", failing_after_the_doubling)
    report = finder.find_squash(p)
    assert report.verdict == "UNDECIDED" and report.squash is None
    assert report.iterations == steps
    assert np.isfinite(report.gap)
    cli._json_text(finder.report_to_json(report))  # refuses a NaN or infinity
    out = tmp_path / "report.json"
    assert cli.main(["squash", "find", "--sector", "2", "--out", str(out)]) == 3
    assert json.loads(out.read_text())["verdict"] == "UNDECIDED"


@settings(max_examples=12, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=len(fock.enumerate_sectors(3)) - 1),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_both_engines_succeed_on_a_rotated_detector_set(index, seed):
    # Theorem 1 holds in every basis: a Haar rotation V keeps the four-cycle
    # V U_N V+ and the rank-two observables, and with them the squash
    model = fock.build_detector(fock.enumerate_sectors(3)[index])
    v = haar_isometry(np.random.default_rng(seed), model.povm.dim, model.povm.dim)
    p = povm.make_povm(
        {key: v @ m @ linalg.dagger(v) for key, m in model.povm.elements.items()}
    )
    constructed = builder.construct_theorem1(
        p, fock.C4Symmetry(u=v @ model.symmetry.u @ linalg.dagger(v))
    )
    assert squashmap.verify_squash(constructed, p, tol=1e-8).passed
    report = finder.find_squash(p)
    assert report.verdict == "FEASIBLE"
    assert report.witness.value <= 1.0 + 1e-9
    assert squashmap.verify_squash(report.squash, p, tol=1e-6).passed


@settings(max_examples=15, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
    lam=st.floats(min_value=0.05, max_value=1.0, exclude_min=True),
)
def test_both_engines_succeed_on_any_rank_two_four_cycle_set(d, seed, lam):
    # Theorem 1 on sets that need not come from a detector: U has eigenvalues in
    # {1, i, -1, -i} on a Haar basis, v mixes the +1 and -1 eigenspaces of U^2 equally,
    # M_z = lam (vv+ - U^2 vv+ U^2+) and M_x = U M_z U+
    rng = np.random.default_rng(seed)
    powers = rng.integers(0, 4, size=d)
    powers[0], powers[1] = 2 * rng.integers(0, 2), 2 * rng.integers(0, 2) + 1
    basis = haar_isometry(rng, d, d)
    u = (basis * np.array([1, 1j, -1, -1j])[powers]) @ linalg.dagger(basis)
    halves = []
    for parity in (0, 1):  # U^2 = +1 on even powers, -1 on odd ones
        span = basis[:, powers % 2 == parity]
        h = span @ (rng.standard_normal(span.shape[1]) + 1j * rng.standard_normal(span.shape[1]))
        halves.append(h / np.linalg.norm(h))
    v = (halves[0] + halves[1]) / np.sqrt(2.0)
    flipped = u @ u @ v
    m_z = lam * (np.outer(v, v.conj()) - np.outer(flipped, flipped.conj()))
    m_x = u @ m_z @ linalg.dagger(u)
    p = visibility_set(m_z, m_x, 1.0)
    constructed = builder.construct_theorem1(p, fock.C4Symmetry(u=u))
    assert squashmap.verify_squash(constructed, p, tol=1e-8).passed
    report = finder.find_squash(p)
    assert report.verdict == "FEASIBLE"
    assert report.witness.value <= 1.0 + 1e-9
    assert squashmap.verify_squash(report.squash, p, tol=1e-6).passed


def test_report_json_shape():
    report = finder.find_squash(counterexample_m0())
    blob = finder.report_to_json(report)
    assert blob["verdict"] == "INFEASIBLE"
    assert blob["squash"] is None
    assert blob["witness"]["value"] > 1.4


#: Every sector up to four photons, two large ones, seeded isometry (feasible) and
#: projective (infeasible) sets, and the (2,1) set symmetrized over C2 and C4.
ORACLE_SWEEP = [
    *(("sector", s.photons) for s in fock.enumerate_sectors(4)),
    ("sector", (4, 4, 4)), ("sector", (15, 15)),
    *((kind, d) for kind in ("isometry", "projective") for d in (3, 4, 5, 8, 12)),
    ("c2", (2, 1)), ("c4", (2, 1)),
]


def _oracle_sweep_set(kind, arg):
    if kind == "isometry":
        return isometry_set(np.random.default_rng(arg), arg)
    if kind == "projective":
        return projective_set(np.random.default_rng(arg), arg)
    base = fock.build_detector(fock.fock_sector(arg)).povm
    if kind == "sector":
        return base
    action = nogo.c2_basis_swap_action() if kind == "c2" else nogo.canonical_c4_action()
    return nogo.symmetrize(base, nogo.cyclic_group(int(kind[1])), action).tilde


#: Bound on the Kraus rows' distance from the oracle, 1e-12 unless listed. On the (4,4,4)
#: boundary set each loop's own map moves by 1.5e-11 to 1.7e-11 between one and two BLAS
#: threads, so the two loops may differ by their sum, 3.2e-11.
ORACLE_ROW_BOUND = {("sector", (4, 4, 4)): 5e-11}


@pytest.mark.parametrize("kind, arg", ORACLE_SWEEP,
                         ids=[f"{k}-{a}".replace(" ", "") for k, a in ORACLE_SWEEP])
def test_find_squash_matches_the_doubling_oracle(kind, arg):
    # the in-place loop takes E+ from its Gram block rather than from a dagger of
    # E, so the map may move by rounding; verdict, steps and witness may not
    p = _oracle_sweep_set(kind, arg)
    report, oracle = finder.find_squash(p), doubling_oracle(p)
    assert (report.verdict, report.iterations) == (oracle.verdict, oracle.iterations)
    assert report.witness.value == oracle.witness.value
    assert report.gap == pytest.approx(oracle.gap, abs=1e-12)
    assert (report.squash is None) == (oracle.squash is None)
    if report.squash is not None:
        bound = ORACLE_ROW_BOUND.get((kind, arg), 1e-12)
        assert np.abs(report.squash.kraus - oracle.squash.kraus).max() <= bound


@pytest.mark.parametrize("name", ["detector", "isometry"])
def test_find_squash_leaves_its_input_and_earlier_maps_alone(name):
    # the doubling updates its buffers in place: none of them may be the input or a map
    if name == "detector":
        p = fock.build_detector(fock.fock_sector((2, 1))).povm
    else:
        p = isometry_set(np.random.default_rng(7), 5)
    before = {key: m.copy() for key, m in p.elements.items()}
    first, second = finder.find_squash(p).squash, finder.find_squash(p).squash
    for key, m in p.elements.items():
        assert m.tobytes() == before[key].tobytes() and not m.flags.writeable
    assert np.array_equal(first.g0, second.g0) and np.array_equal(first.g1, second.g1)
    rows = (first.g0, first.g1, second.g0, second.g1)
    assert not any(r.flags.writeable for r in rows)
    for i, r in enumerate(rows):
        assert not any(np.shares_memory(r, other) for other in rows[i + 1:])
