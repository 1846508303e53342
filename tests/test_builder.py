import tracemalloc

import numpy as np
import pytest

from squashkit import builder, finder, fock, groups, linalg, povm
from squashkit.errors import (
    ConstructionError,
    InvalidSquash,
    RankNotTwo,
    SpectrumAsymmetric,
)
from squashkit.nogo import counterexample_m0

from helpers import acceptance_sectors


def detector_with_symmetry(photons):
    model = fock.build_detector(fock.fock_sector(photons))
    return model, groups.phase_normalize(fock.sector_symmetry(model))


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
    sym = groups.phase_normalize(groups.C4Symmetry(u=u))
    obs = 0.7 * linalg.PAULI_Z
    lam, _ = builder.extract_rank2(obs, sym)
    assert lam == pytest.approx(0.7, abs=1e-12)


def test_extract_rejects_wrong_rank():
    sym = groups.C4Symmetry(u=np.eye(4, dtype=complex))
    obs = np.diag([1.0, 0.5, -0.5, -1.0]).astype(complex)
    with pytest.raises(RankNotTwo):
        builder.extract_rank2(obs, sym)


def test_extract_rejects_unpaired_spectrum():
    sym = groups.C4Symmetry(u=np.eye(2, dtype=complex))
    obs = np.diag([1.0, -0.5]).astype(complex)
    with pytest.raises(SpectrumAsymmetric):
        builder.extract_rank2(obs, sym)


def test_decompose_rejects_rotation_eigenvector():
    u = np.diag([1.0, 1.0j, -1.0, -1.0j]).astype(complex)
    sym = groups.C4Symmetry(u=u)
    v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(SpectrumAsymmetric):
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
    core = builder.kraus_core(dec)
    assert len(core) == 4
    for f in core:
        assert linalg.frob(f) == pytest.approx(1.0, abs=1e-12)
    total = sum(linalg.dagger(f) @ f for f in core)
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
    assert core == []
    # completion alone yields a constant-output channel, which cannot
    # reproduce a nonzero observable pair
    squash = builder.complete_trace_preserving(core, 4)
    target = fock.build_detector(fock.fock_sector((3,))).povm
    assert not builder.verify_squash(squash, target).passed


def test_completion_leaves_complete_core_alone():
    model, sym = detector_with_symmetry((1,))
    lam, v = builder.extract_rank2(model.povm.difference("z"), sym)
    core = builder.kraus_core(builder.mu_decompose(v, sym, lam))
    squash = builder.complete_trace_preserving(core, 2)
    assert len(squash.kraus) == len(core)


def test_completion_of_empty_core():
    squash = builder.complete_trace_preserving([], 3)
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
    for sigma in (linalg.PAULI_Z, linalg.PAULI_X):
        before = sum(linalg.dagger(f) @ sigma @ f for f in core)
        after = completed.adjoint(sigma)
        assert linalg.frob(before - after) <= 1e-12


def test_construct_two_photon():
    model, _ = detector_with_symmetry((2,))
    squash = builder.construct_theorem1(model.povm, fock.sector_symmetry(model))
    report = builder.verify_squash(squash, model.povm)
    assert report.passed and report.max_residual <= 1e-9


def test_construct_multi_mode():
    model, _ = detector_with_symmetry((2, 1))
    squash = builder.construct_theorem1(model.povm, fock.sector_symmetry(model))
    assert builder.verify_squash(squash, model.povm).passed


def test_construct_rejects_m0_at_symmetry_stage():
    m0 = counterexample_m0()
    with pytest.raises(ConstructionError) as err:
        builder.construct_theorem1(m0, groups.C4Symmetry(u=np.eye(2, dtype=complex)))
    assert err.value.stage == "symmetry"


def test_construct_rejects_invalid_set_at_rank_extraction():
    # four identities are symmetric under U = 1 but each basis sums to 2
    eye = np.eye(2, dtype=complex)
    doubled = povm.make_povm({key: eye for key in povm.LABELS})
    with pytest.raises(ConstructionError, match="fails validation at tol=1e-09") as err:
        builder.construct_theorem1(doubled, groups.C4Symmetry(u=eye))
    assert err.value.stage == "rank-extraction"


def test_sector_construction_validates_the_set_once_per_stage(monkeypatch):
    calls = []
    validate = povm.validate
    monkeypatch.setattr(povm, "validate", lambda *a: calls.append(a) or validate(*a))
    model = fock.build_detector(fock.fock_sector((2, 1)))
    assert len(calls) == 1  # the detector's self-check
    builder.construct_theorem1(model.povm, fock.sector_symmetry(model))
    assert len(calls) == 2  # plus the constructor's rank-extraction stage


def test_verify_identity_map_against_ideal():
    squash = builder.SquashMap(in_dim=2, kraus=(np.eye(2, dtype=complex),))
    assert builder.verify_squash(squash, povm.ideal_qubit_povm()).passed


def test_verify_identity_map_against_m0():
    squash = builder.SquashMap(in_dim=2, kraus=(np.eye(2, dtype=complex),))
    report = builder.verify_squash(squash, counterexample_m0())
    assert not report.passed
    assert report.residual_x == pytest.approx(
        linalg.frob(linalg.PAULI_X - linalg.PAULI_Z), abs=1e-12
    )


def test_verify_across_small_sectors():
    for sector in fock.enumerate_sectors(4, max_modes=2):
        model = fock.build_detector(sector)
        squash = builder.construct_theorem1(model.povm, fock.sector_symmetry(model))
        assert builder.verify_squash(squash, model.povm).passed


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
    squash = builder.construct_theorem1(model.povm, fock.sector_symmetry(model))
    combo = squash.adjoint(linalg.PAULI_Z + 1j * linalg.PAULI_X)
    halved = (combo + linalg.dagger(combo)) / 2.0
    assert linalg.frob(halved - squash.adjoint(linalg.PAULI_Z)) <= 1e-10


def test_gauge_phase_invariance():
    model, sym = detector_with_symmetry((2,))
    lam, v = builder.extract_rank2(model.povm.difference("z"), sym)
    reference = None
    rng = np.random.default_rng(17)
    for phi in rng.uniform(0, 2 * np.pi, size=10):
        dec = builder.mu_decompose(np.exp(1j * phi) * v, sym, lam)
        squash = builder.complete_trace_preserving(builder.kraus_core(dec), 3)
        report = builder.verify_squash(squash, model.povm)
        residuals = (report.residual_z, report.residual_x, report.residual_tp)
        if reference is None:
            reference = residuals
        assert np.allclose(residuals, reference, atol=1e-12)


def test_squash_map_validation():
    with pytest.raises(InvalidSquash):
        builder.SquashMap(in_dim=2, kraus=())
    with pytest.raises(InvalidSquash):
        builder.SquashMap(in_dim=2, kraus=(np.eye(2, dtype=complex) * 0.5,))
    with pytest.raises(InvalidSquash):
        builder.SquashMap(in_dim=3, kraus=(np.eye(2, dtype=complex),))


def test_squash_json_round_trip():
    model, _ = detector_with_symmetry((2,))
    squash = builder.construct_theorem1(model.povm, fock.sector_symmetry(model))
    back = builder.squash_from_json(builder.squash_to_json(squash))
    assert back.in_dim == squash.in_dim
    for mine, theirs in zip(squash.kraus, back.kraus):
        assert np.array_equal(mine, theirs)


def test_squash_map_holds_one_kraus_array():
    ops = [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])]
    squash = builder.SquashMap(in_dim=2, kraus=ops)
    assert squash.kraus.shape == (2, 2, 2) and squash.kraus.dtype == complex
    assert np.array_equal(squash.kraus, np.stack(ops))
    ops[0][0, 0] = 5.0  # the map holds a copy
    assert squash.kraus[0, 0, 0] == 1.0
    again = builder.SquashMap(in_dim=2, kraus=squash.kraus)
    assert np.array_equal(again.kraus, squash.kraus)


def test_squash_map_kraus_is_read_only():
    squash = builder.SquashMap(in_dim=2, kraus=[np.eye(2)])
    with pytest.raises(ValueError):
        squash.kraus[0] *= 2  # would break trace preservation after the check
    assert builder.verify_squash(squash, povm.ideal_qubit_povm()).passed
    # a map built from another map's array holds its own read-only copy
    again = builder.SquashMap(in_dim=2, kraus=squash.kraus)
    assert not again.kraus.flags.writeable and again.kraus is not squash.kraus


def test_squash_map_validation_messages():
    with pytest.raises(InvalidSquash, match="need at least one Kraus operator"):
        builder.SquashMap(in_dim=2, kraus=np.zeros((0, 2, 2)))
    with pytest.raises(InvalidSquash, match=r"shape \(2, 2\) vs expected \(2, 3\)"):
        builder.SquashMap(in_dim=3, kraus=[np.eye(2)])
    with pytest.raises(InvalidSquash, match="do not sum to the identity"):
        builder.SquashMap(in_dim=2, kraus=[np.eye(2), np.eye(2)])


def _loop_verify(f, p, tol=1e-9, samples=20, seed=1812):
    """verify_squash as it reads one Kraus operator and one state at a time."""
    m_z, m_x = p.difference("z"), p.difference("x")

    def adjoint(obs):
        return sum(linalg.dagger(k) @ obs @ k for k in f.kraus)

    residual_z = linalg.frob(adjoint(linalg.PAULI_Z) - m_z)
    residual_x = linalg.frob(adjoint(linalg.PAULI_X) - m_x)
    residual_tp = linalg.frob(adjoint(np.eye(2, dtype=complex)) - np.eye(p.dim))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = rng.standard_normal((p.dim, p.dim)) + 1j * rng.standard_normal((p.dim, p.dim))
        rho = x @ linalg.dagger(x)
        rho = rho / np.trace(rho).real
        out = sum(k @ rho @ linalg.dagger(k) for k in f.kraus)
        for sigma, m in ((linalg.PAULI_Z, m_z), (linalg.PAULI_X, m_x)):
            worst = max(worst, abs(np.trace(out @ sigma).real - np.trace(rho @ m).real))
    fields = (residual_z, residual_x, residual_tp, worst)
    return fields, max(fields) <= tol


def _assert_matches_loop(f, p, tol=1e-9):
    report = builder.verify_squash(f, p, tol)
    fields, passed = _loop_verify(f, p, tol)
    batched = (report.residual_z, report.residual_x, report.residual_tp,
               report.max_state_deviation)
    assert np.allclose(batched, fields, rtol=0.0, atol=1e-12), (batched, fields)
    assert report.passed == passed
    return report


def random_squash(d, k, rng):
    """K = k Kraus operators cut from a random (2k x d) isometry; needs 2k >= d."""
    x = rng.standard_normal((2 * k, d)) + 1j * rng.standard_normal((2 * k, d))
    return builder.SquashMap(in_dim=d, kraus=np.linalg.qr(x)[0].reshape(k, 2, d))


def induced_set(f):
    """The measurement set that a map reproduces exactly: (1 +/- F+(sigma_r)) / 2."""
    eye = np.eye(f.in_dim)
    return povm.make_povm({
        f"{r}{b}": (eye + (1 - 2 * b) * f.adjoint(sigma)) / 2
        for r, sigma in (("z", linalg.PAULI_Z), ("x", linalg.PAULI_X)) for b in (0, 1)
    })


def test_batched_verify_matches_loop_on_constructed_maps():
    for sector in fock.enumerate_sectors(3):
        model = fock.build_detector(sector)
        squash = builder.construct_theorem1(model.povm, fock.sector_symmetry(model))
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
    rho = linalg.random_density_matrix(d, rng)
    looped = sum(k @ rho @ linalg.dagger(k) for k in squash.kraus)
    assert linalg.frob(squash.apply(rho) - looped) <= 1e-14
    pulled = sum(linalg.dagger(k) @ linalg.PAULI_Y @ k for k in squash.kraus)
    assert linalg.frob(squash.adjoint(linalg.PAULI_Y) - pulled) <= 1e-14


def _verify_peak_bytes(d, k):
    squash = random_squash(d, k, np.random.default_rng(8))
    p = induced_set(squash)
    tracemalloc.start()
    try:
        report = builder.verify_squash(squash, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    return peak


def test_verify_memory_is_flat_in_the_kraus_count():
    peak = _verify_peak_bytes(64, 128)
    # one (20, K, 2, d) batch of operator-state products reaches 7 MB here
    # and grows by 5.7 MB per extra 128 Kraus operators
    assert peak <= 8e6
    assert _verify_peak_bytes(64, 512) <= peak + 1e6
