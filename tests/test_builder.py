import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squashkit import builder, finder, fock, linalg, povm, squashmap
from squashkit.errors import ConstructionError, SquashkitError
from squashkit.nogo import counterexample_m0

from helpers import (
    kraus_adjoint,
    kraus_apply,
    qubit_plus_half_block,
    random_density_matrices,
    random_density_matrix,
    written,
)


def detector_with_symmetry(photons):
    model = fock.build_detector(fock.fock_sector(photons))
    return model, model.symmetry


def test_extract_single_photon():
    model, sym = detector_with_symmetry((1,))
    lam, v = builder.extract_rank2(model.povm.difference("z"), sym)
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert abs(v[0]) == pytest.approx(1.0, abs=1e-12)  # all photons in z0


def test_extract_two_photon():
    model, sym = detector_with_symmetry((2,))
    lam, v = builder.extract_rank2(model.povm.difference("z"), sym)
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert abs(v[0]) == pytest.approx(1.0, abs=1e-12)


def test_extract_scaled_observable():
    u = linalg.unitary_from_generator(linalg.PAULI_Y, -np.pi / 4)
    sym = fock.C4Symmetry(u=u)
    obs = 0.7 * linalg.PAULI_Z
    lam, _ = builder.extract_rank2(obs, sym)
    assert lam == pytest.approx(0.7, abs=1e-12)


def test_extract_rejects_wrong_rank():
    sym = fock.C4Symmetry(u=np.eye(4, dtype=complex))
    obs = np.diag([1.0, 0.5, -0.5, -1.0]).astype(complex)
    with pytest.raises(SquashkitError, match="^observable rank is 4, need 2$"):
        builder.extract_rank2(obs, sym)


def test_extract_reads_the_rank_off_one_eigensolve(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.append(a) or eigh(*a))
    shift = fock.C4Symmetry(u=np.roll(np.eye(3), 1, axis=0))  # e_j -> e_j+1, so U^2 e0 = e2
    lam, v = builder.extract_rank2(np.diag([1.0, 1e-12, -1.0]).astype(complex), shift)
    assert lam == pytest.approx(1.0, abs=1e-12) and abs(v[0]) == pytest.approx(1.0)
    assert len(calls) == 1  # an eigenvalue of 1e-12 sits below the rank threshold 1e-9
    with pytest.raises(SquashkitError, match="rank is 0"):
        builder.extract_rank2(np.zeros((3, 3), dtype=complex), shift)


def test_extract_rejects_unpaired_spectrum():
    sym = fock.C4Symmetry(u=np.eye(2, dtype=complex))
    obs = np.diag([1.0, -0.5]).astype(complex)
    with pytest.raises(SquashkitError, match=r"^eigenvalues -0.5 and 1.0 are not a \+/- pair$"):
        builder.extract_rank2(obs, sym)


def test_decompose_rejects_rotation_eigenvector():
    u = np.diag([1.0, 1.0j, -1.0, -1.0j]).astype(complex)
    sym = fock.C4Symmetry(u=u)
    v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(SquashkitError, match="v is not orthogonal to its double rotation"):
        builder.mu_decompose(v, sym)


def test_single_photon_weights():
    model, sym = detector_with_symmetry((1,))
    lam, v = builder.extract_rank2(model.povm.difference("z"), sym)
    dec = builder.mu_decompose(v, sym, lam)
    # two-dimensional space: exactly two adjacent components, each 1/sqrt(2)
    assert np.allclose(sorted(dec.mu), [0.0, 0.0, np.sqrt(0.5), np.sqrt(0.5)], atol=1e-10)
    assert dec.mu[0] ** 2 + dec.mu[2] ** 2 == pytest.approx(0.5, abs=1e-9)
    assert dec.mu[1] ** 2 + dec.mu[3] ** 2 == pytest.approx(0.5, abs=1e-9)


def test_two_photon_weights():
    model, sym = detector_with_symmetry((2,))
    lam, v = builder.extract_rank2(model.povm.difference("z"), sym)
    dec = builder.mu_decompose(v, sym, lam)
    assert dec.mu[0] ** 2 + dec.mu[2] ** 2 == pytest.approx(0.5, abs=1e-10)
    assert dec.mu[1] ** 2 + dec.mu[3] ** 2 == pytest.approx(0.5, abs=1e-10)
    assert np.sum(dec.mu**2) == pytest.approx(1.0, abs=1e-10)


def test_core_with_uniform_weights():
    basis = np.eye(4, dtype=complex)
    dec = builder.MuDecomposition(
        lam=1.0,
        v=basis.sum(axis=1) / 2.0,
        v_c=tuple(basis[:, c] for c in range(4)),
        mu=np.full(4, 0.5),
    )
    g0, g1 = builder.kraus_core(dec)
    assert g0.shape == g1.shape == (4, 4)
    # each row pair is one Kraus operator, of norm sqrt(|g0_k|^2 + |g1_k|^2)
    assert np.allclose(np.linalg.norm(np.hstack([g0, g1]), axis=1), 1.0, atol=1e-12)
    total = linalg.dagger(g0) @ g0 + linalg.dagger(g1) @ g1
    assert np.allclose(total, np.eye(4), atol=1e-12)


def test_core_empty_when_weights_alternate():
    basis = np.eye(4, dtype=complex)
    dec = builder.MuDecomposition(
        lam=1.0,
        v=(basis[:, 0] + basis[:, 2]) / np.sqrt(2),
        v_c=(basis[:, 0], np.zeros(4, dtype=complex), basis[:, 2], np.zeros(4, dtype=complex)),
        mu=np.array([np.sqrt(0.5), 0.0, np.sqrt(0.5), 0.0]),
    )
    core = builder.kraus_core(dec)
    assert [g.shape for g in core] == [(0, 4), (0, 4)]
    # completion alone yields a constant-output channel, which cannot
    # reproduce a nonzero observable pair
    squash = builder.complete_trace_preserving(core, 4)
    target = fock.build_detector(fock.fock_sector((3,))).povm
    assert not squashmap.verify_squash(squash, target).passed


def test_completion_leaves_complete_core_alone():
    model, sym = detector_with_symmetry((1,))
    lam, v = builder.extract_rank2(model.povm.difference("z"), sym)
    core = builder.kraus_core(builder.mu_decompose(v, sym, lam))
    squash = builder.complete_trace_preserving(core, 2)
    assert len(squash.kraus) == len(core[0])


def test_completion_of_empty_core():
    squash = builder.complete_trace_preserving(np.zeros((2, 0, 3)), 3)
    assert len(squash.kraus) == 3
    total = sum(linalg.dagger(f) @ f for f in squash.kraus)
    assert linalg.frob(total - np.eye(3)) <= 1e-9
    for f in squash.kraus:
        # output pinned to the y axis, invisible to both observables
        assert linalg.frob(linalg.dagger(f) @ linalg.PAULI_Z @ f) <= 1e-12
        assert linalg.frob(linalg.dagger(f) @ linalg.PAULI_X @ f) <= 1e-12


def test_completion_does_not_move_observables():
    model, sym = detector_with_symmetry((2,))
    lam, v = builder.extract_rank2(model.povm.difference("z"), sym)
    core = builder.kraus_core(builder.mu_decompose(v, sym, lam))
    completed = builder.complete_trace_preserving(core, 3)
    core_kraus = squashmap.Y_FRAME @ np.stack(core, axis=1)  # |0_y> g0_k + |1_y> g1_k
    for sigma in (linalg.PAULI_Z, linalg.PAULI_X):
        before = sum(linalg.dagger(f) @ sigma @ f for f in core_kraus)
        after = kraus_adjoint(completed, sigma)
        assert linalg.frob(before - after) <= 1e-12


def test_construct_two_photon():
    model, _ = detector_with_symmetry((2,))
    squash = builder.construct_theorem1(model.povm, model.symmetry)
    report = squashmap.verify_squash(squash, model.povm)
    assert report.passed and report.max_residual <= 1e-9


def test_construct_multi_mode():
    model, _ = detector_with_symmetry((2, 1))
    squash = builder.construct_theorem1(model.povm, model.symmetry)
    assert squashmap.verify_squash(squash, model.povm).passed


def test_construct_when_u4_is_not_scalar():
    p, u = qubit_plus_half_block()
    u4 = np.linalg.matrix_power(u, 4)
    assert linalg.frob(u4 - u4[0, 0] * np.eye(3)) > 1.0  # -1 on the qubit, e^{1.2i} beside it
    squash = builder.construct_theorem1(p, fock.C4Symmetry(u=u))
    assert squashmap.verify_squash(squash, p).max_residual <= 1e-12


#: Odd photon numbers, where U_N^4 = -1 and the phase read off U^4 v sits at eta = -1.
ODD_SECTORS = [s.photons for s in fock.enumerate_sectors(4) if sum(s.photons) % 2] + [(7, 7, 3)]


@pytest.mark.parametrize("photons", ODD_SECTORS)
def test_odd_sector_core_rows_are_stable_under_a_tiny_phase(photons):
    model, sym = detector_with_symmetry(photons)
    lam, v = builder.extract_rank2(model.povm.difference("z"), sym)
    links = len(builder.kraus_core(builder.mu_decompose(v, sym, lam))[0])
    base = builder.construct_theorem1(model.povm, sym)
    for sign in (1, -1):
        moved = builder.construct_theorem1(
            model.povm, fock.C4Symmetry(u=np.exp(sign * 1e-15j) * model.symmetry.u)
        )
        assert np.abs(moved.g0[:links] - base.g0[:links]).max() <= 1e-12
        assert np.abs(moved.g1[:links] - base.g1[:links]).max() <= 1e-12


def test_construct_rejects_m0_at_symmetry_stage():
    m0 = counterexample_m0()
    with pytest.raises(ConstructionError) as err:
        builder.construct_theorem1(m0, fock.C4Symmetry(u=np.eye(2, dtype=complex)))
    assert err.value.stage == "symmetry"


def test_construct_rejects_invalid_set_at_rank_extraction():
    # four identities are symmetric under U = 1, but each basis sums to 2 and M_z is 0
    eye = np.eye(2, dtype=complex)
    doubled = povm.make_povm({key: eye for key in povm.LABELS})
    with pytest.raises(ConstructionError, match="observable rank is 0, need 2") as err:
        builder.construct_theorem1(doubled, fock.C4Symmetry(u=eye))
    assert err.value.stage == "rank-extraction"


def test_sector_construction_validates_the_set_once_per_stage(monkeypatch):
    calls = []
    validate = povm.validate
    monkeypatch.setattr(povm, "validate", lambda *a: calls.append(a) or validate(*a))
    model = fock.build_detector(fock.fock_sector((2, 1)))
    assert len(calls) == 1  # the detector's self-check
    builder.construct_theorem1(model.povm, model.symmetry)
    assert len(calls) == 1  # the constructor takes the set as given


def test_verify_identity_map_against_ideal():
    squash = squashmap.squash_from_kraus(2, (np.eye(2, dtype=complex),))
    assert squashmap.verify_squash(squash, povm.ideal_qubit_povm()).passed


def test_verify_identity_map_against_m0():
    squash = squashmap.squash_from_kraus(2, (np.eye(2, dtype=complex),))
    report = squashmap.verify_squash(squash, counterexample_m0())
    assert not report.passed
    assert report.residuals["x"] == pytest.approx(
        linalg.frob(linalg.PAULI_X - linalg.PAULI_Z), abs=1e-12
    )


def test_verify_across_small_sectors():
    for sector in fock.enumerate_sectors(4, max_modes=2):
        model = fock.build_detector(sector)
        squash = builder.construct_theorem1(model.povm, model.symmetry)
        assert squashmap.verify_squash(squash, model.povm).passed


def test_core_reproduces_combined_observables():
    for photons in ((2,), (3,), (2, 1)):
        model, sym = detector_with_symmetry(photons)
        lam, v = builder.extract_rank2(model.povm.difference("z"), sym)
        dec = builder.mu_decompose(v, sym, lam)
        adjacent = 4 * lam * sum(
            dec.mu[c] * dec.mu[(c + 1) % 4] * np.outer(dec.v_c[c], dec.v_c[(c + 1) % 4].conj())
            for c in range(4)
        )
        powers = [np.linalg.matrix_power(sym.u, c) for c in range(4)]
        orbit = lam * sum(
            (1j**c) * powers[c] @ np.outer(v, v.conj()) @ linalg.dagger(powers[c])
            for c in range(4)
        )
        combined = model.povm.difference("z") + 1j * model.povm.difference("x")
        assert linalg.frob(adjacent - orbit) <= 1e-9
        assert linalg.frob(orbit - combined) <= 1e-9


def test_adjoint_from_conjugate_pair():
    model, _ = detector_with_symmetry((2,))
    squash = builder.construct_theorem1(model.povm, model.symmetry)
    combo = kraus_adjoint(squash, linalg.PAULI_Z + 1j * linalg.PAULI_X)
    halved = (combo + linalg.dagger(combo)) / 2.0
    assert linalg.frob(halved - kraus_adjoint(squash, linalg.PAULI_Z)) <= 1e-10


def test_gauge_phase_invariance():
    model, sym = detector_with_symmetry((2,))
    lam, v = builder.extract_rank2(model.povm.difference("z"), sym)
    reference = None
    rng = np.random.default_rng(17)
    for phi in rng.uniform(0, 2 * np.pi, size=10):
        dec = builder.mu_decompose(np.exp(1j * phi) * v, sym, lam)
        squash = builder.complete_trace_preserving(builder.kraus_core(dec), 3)
        report = squashmap.verify_squash(squash, model.povm)
        residuals = list(report.residuals.values())
        if reference is None:
            reference = residuals
        assert np.allclose(residuals, reference, atol=1e-12)


def test_squash_map_validation():
    with pytest.raises(SquashkitError, match="^need at least one Kraus operator$"):
        squashmap.squash_from_kraus(2, ())
    with pytest.raises(SquashkitError, match="^Kraus operators do not sum to the identity$"):
        squashmap.squash_from_kraus(2, (np.eye(2, dtype=complex) * 0.5,))
    with pytest.raises(SquashkitError, match=r"shape \(2, 2\) vs expected \(2, 3\)"):
        squashmap.squash_from_kraus(3, (np.eye(2, dtype=complex),))
    with pytest.raises(SquashkitError, match=r"\(2, 2\) and \(1, 2\) are not one \(K, d\) pair"):
        squashmap.SquashMap(g0=np.eye(2), g1=np.zeros((1, 2)))
    # a NaN row has a NaN trace defect, which no comparison with the tolerance admits; rows
    # near the float limit overflow to one, and are refused without a numpy warning
    for g0 in ([[np.nan, 0.0], [0.0, 1.0]], [[1e200, 1e200], [1e200, -1e200]]):
        with pytest.raises(SquashkitError, match="do not sum to the identity"):
            squashmap.SquashMap(g0=g0, g1=np.zeros((2, 2)))
    squash = squashmap.squash_from_kraus(2, (np.eye(2, dtype=complex),))
    blob = written(squashmap.squash_to_json(squash))
    blob["kraus"][0]["entries"][0] = [float("nan"), 0.0]
    with pytest.raises(SquashkitError, match="do not sum to the identity"):
        squashmap.squash_from_json(json.loads(json.dumps(blob)))


def test_squash_json_round_trip():
    model, _ = detector_with_symmetry((2,))
    squash = builder.construct_theorem1(model.povm, model.symmetry)
    back = squashmap.squash_from_json(written(squashmap.squash_to_json(squash)))
    assert back.in_dim == squash.in_dim
    # the file holds z-frame Kraus operators, so the round trip rounds through the frame change
    assert np.allclose(back.kraus, squash.kraus, rtol=0.0, atol=1e-15)
    assert np.allclose(back.g0, squash.g0, rtol=0.0, atol=1e-15)
    assert np.allclose(back.g1, squash.g1, rtol=0.0, atol=1e-15)


def test_squash_map_holds_one_row_pair():
    rows = [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])]
    squash = squashmap.SquashMap(g0=rows[0], g1=rows[1])
    assert squash.g0.shape == squash.g1.shape == (2, 2) and squash.g0.dtype == complex
    assert squash.in_dim == 2 and squash.kraus.shape == (2, 2, 2)
    assert np.array_equal(squash.g0, rows[0]) and np.array_equal(squash.g1, rows[1])
    rows[0][0, 0] = 5.0  # the map holds a copy
    assert squash.g0[0, 0] == 1.0
    again = squashmap.SquashMap(g0=squash.g0, g1=squash.g1)
    assert np.array_equal(again.kraus, squash.kraus)


def test_squash_map_kraus_is_read_only():
    squash = squashmap.squash_from_kraus(2, [np.eye(2)])
    for rows in (squash.g0, squash.g1, squash.kraus):
        with pytest.raises(ValueError):
            rows[0] *= 2  # would break trace preservation after the check
    assert squashmap.verify_squash(squash, povm.ideal_qubit_povm()).passed
    # a map built from another map's rows holds its own read-only copies
    again = squashmap.SquashMap(g0=squash.g0, g1=squash.g1)
    assert not again.g0.flags.writeable and again.g0 is not squash.g0


def test_pickled_squash_map_stays_read_only():
    model, _ = detector_with_symmetry((2,))
    squash = builder.construct_theorem1(model.povm, model.symmetry)
    back = pickle.loads(pickle.dumps(squash))  # maps travel to worker processes this way
    for rows in (back.g0, back.g1):
        with pytest.raises(ValueError):
            rows[0] *= 2
    assert np.array_equal(back.g0, squash.g0) and np.array_equal(back.g1, squash.g1)
    assert squashmap.verify_squash(back, model.povm).passed


def test_squash_map_validation_messages():
    with pytest.raises(SquashkitError, match="need at least one Kraus operator"):
        squashmap.squash_from_kraus(2, np.zeros((0, 2, 2)))
    with pytest.raises(SquashkitError, match=r"shape \(2, 2\) vs expected \(2, 3\)"):
        squashmap.squash_from_kraus(3, [np.eye(2)])
    with pytest.raises(SquashkitError, match="do not sum to the identity"):
        squashmap.squash_from_kraus(2, [np.eye(2), np.eye(2)])


def _loop_verify(f, p, tol=1e-9, samples=20, seed=1812):
    """verify_squash as it reads one Kraus operator at a time, plus the worst
    deviation Tr(F(rho) sigma_r) - Tr(rho M_r) over ``samples`` random states."""
    m_z, m_x = p.difference("z"), p.difference("x")

    def adjoint(obs):
        return sum(linalg.dagger(k) @ obs @ k for k in f.kraus)

    residual_z = linalg.frob(adjoint(linalg.PAULI_Z) - m_z)
    residual_x = linalg.frob(adjoint(linalg.PAULI_X) - m_x)
    residual_tp = linalg.frob(adjoint(np.eye(2, dtype=complex)) - np.eye(p.dim))
    worst = 0.0
    for rho in random_density_matrices(p.dim, samples, np.random.default_rng(seed)):
        out = sum(k @ rho @ linalg.dagger(k) for k in f.kraus)
        for sigma, m in ((linalg.PAULI_Z, m_z), (linalg.PAULI_X, m_x)):
            worst = max(worst, abs(np.trace(out @ sigma).real - np.trace(rho @ m).real))
    fields = (residual_z, residual_x, residual_tp)
    return fields, max(fields) <= tol, worst


def _assert_matches_loop(f, p, tol=1e-9):
    report = squashmap.verify_squash(f, p, tol)
    fields, passed, worst = _loop_verify(f, p, tol)
    batched = tuple(report.residuals.values())
    assert np.allclose(batched, fields, rtol=0.0, atol=1e-12), (batched, fields)
    assert report.passed == passed
    # |Tr(rho D)| <= ||D||_F on every state, so no sampled state can beat the residuals
    assert worst <= max(report.residuals["z"], report.residuals["x"]) + 1e-12
    return report


def random_squash(d, k, rng):
    """K = k Kraus operators cut from a random (2k x d) isometry; needs 2k >= d."""
    x = rng.standard_normal((2 * k, d)) + 1j * rng.standard_normal((2 * k, d))
    return squashmap.squash_from_kraus(d, np.linalg.qr(x)[0].reshape(k, 2, d))


def induced_set(f):
    """The measurement set that a map reproduces exactly: (1 +/- F+(sigma_r)) / 2."""
    eye = np.eye(f.in_dim)
    return povm.make_povm({
        f"{r}{b}": (eye + (1 - 2 * b) * kraus_adjoint(f, sigma)) / 2
        for r, sigma in (("z", linalg.PAULI_Z), ("x", linalg.PAULI_X)) for b in (0, 1)
    })


def test_batched_verify_matches_loop_on_constructed_maps():
    for sector in fock.enumerate_sectors(3):
        model = fock.build_detector(sector)
        squash = builder.construct_theorem1(model.povm, model.symmetry)
        assert _assert_matches_loop(squash, model.povm).passed


def test_batched_verify_matches_loop_on_found_maps():
    for photons in ((1,), (2,), (2, 1)):
        p = fock.build_detector(fock.fock_sector(photons)).povm
        report = finder.find_squash(p)
        assert _assert_matches_loop(report.squash, p, tol=1e-6).passed


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_batched_verify_and_channel_match_loop_on_random_maps(d):
    rng = np.random.default_rng(d)
    squash = random_squash(d, d + 1, rng)
    assert _assert_matches_loop(squash, induced_set(squash)).passed
    other = fock.build_detector(fock.fock_sector((d - 1,))).povm
    assert not _assert_matches_loop(squash, other).passed
    rho = random_density_matrix(d, rng)
    ket_0y, ket_1y = squashmap.Y_FRAME.T
    for k, f in enumerate(squash.kraus):  # F_k = |0_y> g0_k + |1_y> g1_k
        looped = np.outer(ket_0y, squash.g0[k]) + np.outer(ket_1y, squash.g1[k])
        assert np.allclose(f, looped, rtol=0.0, atol=1e-15)
    # in the y frame the map reads F(rho)[a, b] = Tr(rho G_b+ G_a), and it pulls
    # sigma_y back to G0+ G0 - G1+ G1
    pair = (squash.g0, squash.g1)
    expected = [[np.trace(rho @ linalg.dagger(g_b) @ g_a) for g_b in pair] for g_a in pair]
    out = linalg.dagger(squashmap.Y_FRAME) @ kraus_apply(squash, rho) @ squashmap.Y_FRAME
    assert linalg.frob(out - np.array(expected)) <= 1e-14
    pulled = linalg.dagger(squash.g0) @ squash.g0 - linalg.dagger(squash.g1) @ squash.g1
    assert linalg.frob(kraus_adjoint(squash, linalg.PAULI_Y) - pulled) <= 1e-14


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=6),
    extra=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_json_round_trip_of_any_kraus_family(d, extra, seed):
    rng = np.random.default_rng(seed)
    k = (d + 1) // 2 + extra  # 2k >= d rows of a random isometry
    x = rng.standard_normal((2 * k, d)) + 1j * rng.standard_normal((2 * k, d))
    kraus = np.linalg.qr(x)[0].reshape(k, 2, d)
    squash = squashmap.squash_from_kraus(d, kraus)
    back = squashmap.squash_from_json(written(squashmap.squash_to_json(squash)))
    assert back.in_dim == d and back.kraus.shape == (k, 2, d)
    assert np.allclose(back.kraus, kraus, rtol=0.0, atol=1e-15)
    p = induced_set(squash)
    mine, theirs = squashmap.verify_squash(squash, p), squashmap.verify_squash(back, p)
    assert mine.passed and theirs.passed
    assert list(theirs.residuals) == list(mine.residuals) == ["z", "x", "tp"]
    for name, value in mine.residuals.items():
        # residuals of about 1e-15 are themselves rounding, and move by as much (1.1e-15 seen)
        assert theirs.residuals[name] == pytest.approx(value, abs=1e-14), name


def _verify_peak_bytes(d, k):
    squash = random_squash(d, k, np.random.default_rng(8))
    p = induced_set(squash)
    tracemalloc.start()
    try:
        report = squashmap.verify_squash(squash, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    return peak


def test_verify_memory_is_flat_in_the_kraus_count():
    peak = _verify_peak_bytes(64, 128)
    # the closed-form check holds d x d products and one conjugated (K, d) row
    # block at a time: 0.33 MB here, growing by 0.13 MB per extra 128 Kraus operators
    assert peak <= 1e6
    assert _verify_peak_bytes(64, 512) <= peak + 1e6
