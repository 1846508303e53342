import pickle
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from squashkit import builder, fock, linalg, povm
from squashkit.errors import SelfCheckFailed, SquashkitError

from helpers import (
    acceptance_sectors,
    configurations,
    ladder_state_oracle,
    rotation_oracle,
    written,
)

#: Multi-mode sectors at the command line's largest dimension, 256.
D256_SECTORS = ((15, 15), (3, 3, 3, 3), (7, 7, 3))


def test_sector_validation():
    with pytest.raises(SquashkitError, match="^need at least one mode$"):
        fock.fock_sector(())
    with pytest.raises(SquashkitError, match="^vacuum sector has no click statistics to model$"):
        fock.fock_sector((0,))
    with pytest.raises(SquashkitError, match="^vacuum sector has no click statistics to model$"):
        fock.fock_sector((0, 0, 0))
    with pytest.raises(SquashkitError, match="^photon counts must be nonnegative$"):
        fock.fock_sector((2, -1))
    with pytest.raises(SquashkitError, match="^photon counts must be a sequence, got 3$"):
        fock.fock_sector(3)


@pytest.mark.parametrize(
    "photons", [(2.7, 1), (2, True), (2.0,), ("2",), (np.float64(1.0),), (np.True_,)]
)
def test_photon_counts_must_be_integers(photons):
    # refused, not truncated: int() made (2.7, True) the sector (2, 1)
    with pytest.raises(SquashkitError, match="^photon counts must be integers, got"):
        fock.fock_sector(photons)
    sector = fock.fock_sector((np.int64(2), np.uint8(1)))  # numpy integers are integers
    assert sector.photons == (2, 1) and all(type(n) is int for n in sector.photons)


def test_detector_arrays_are_read_only():
    model = fock.build_detector(fock.fock_sector((1,)))
    for array in (model.symmetry.u, *model.states.values()):
        with pytest.raises(ValueError):
            array[0] = 7  # would break the unitarity checked at construction, or the states
    with pytest.raises(TypeError):
        model.states["z0"] = model.states["z1"]
    assert builder.check_definition1(model.symmetry, model.povm).max_residual <= 1e-15
    back = pickle.loads(pickle.dumps(model))  # models still travel to worker processes
    assert not back.symmetry.u.flags.writeable and np.array_equal(back.symmetry.u, model.symmetry.u)
    for key, vec in model.states.items():
        assert not back.states[key].flags.writeable and np.array_equal(back.states[key], vec)


def test_a_detector_set_that_fails_validation_is_a_self_check_failure(monkeypatch):
    # the detector's own set, not its input, failed: exit 2 as a program fault
    monkeypatch.setattr(povm, "validate", lambda *args, **kwargs: SimpleNamespace(passed=False))
    with pytest.raises(SelfCheckFailed, match=r"^detector set for sector \(1,\) fails validation$"):
        fock.build_detector(fock.fock_sector((1,)))


def test_basis_ordering_all_z0_first():
    for photons in ((2,), (1, 1), (2, 1, 3)):
        sector = fock.fock_sector(photons)
        assert sector.dim == len(configurations(photons))
        assert np.array_equal(fock.state_nrb(sector, "z", 0), np.eye(sector.dim)[0])
        assert np.array_equal(fock.state_nrb(sector, "z", 1), np.eye(sector.dim)[-1])
    assert configurations((1, 1)) == [(1, 1), (1, 0), (0, 1), (0, 0)]


def test_large_sector_holds_only_its_photon_counts():
    tracemalloc.start()
    try:
        sector = fock.fock_sector((100, 100, 100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sector.dim == 1_030_301
    assert peak < 2**20, peak


def test_z_states_are_basis_vectors():
    sector = fock.fock_sector((1,))
    assert np.allclose(fock.state_nrb(sector, "z", 0), [1.0, 0.0])
    assert np.allclose(fock.state_nrb(sector, "z", 1), [0.0, 1.0])
    with pytest.raises(SquashkitError, match=r"^bad outcome label \('y', 0\)$"):
        fock.state_nrb(sector, "y", 0)


def test_two_photon_x_state():
    sector = fock.fock_sector((2,))
    vec = fock.state_nrb(sector, "x", 0)
    assert np.allclose(vec, [0.5, np.sqrt(0.5), 0.5], atol=1e-12)


def test_two_mode_x_state():
    sector = fock.fock_sector((1, 1))
    vec = fock.state_nrb(sector, "x", 1)
    assert np.allclose(vec, [0.5, -0.5, -0.5, 0.5], atol=1e-12)


def test_states_match_ladder_oracle():
    for sector in fock.enumerate_sectors(6, max_modes=3):
        for r in ("z", "x"):
            for b in (0, 1):
                closed = fock.state_nrb(sector, r, b)
                laddered = ladder_state_oracle(sector.photons, r, b)
                assert np.linalg.norm(closed - laddered) <= 1e-10, (
                    sector.photons,
                    r,
                    b,
                )


def test_click_states_orthogonal():
    for sector in fock.enumerate_sectors(6, max_modes=3):
        for r in ("z", "x"):
            v0 = fock.state_nrb(sector, r, 0)
            v1 = fock.state_nrb(sector, r, 1)
            assert abs(np.vdot(v0, v1)) <= 1e-10


def test_single_photon_detector():
    model = fock.build_detector(fock.fock_sector((1,)))
    assert np.allclose(model.povm.difference("z"), np.diag([1.0, -1.0]))
    assert np.allclose(model.povm.difference("x"), linalg.PAULI_X, atol=1e-12)


def test_two_photon_observable():
    model = fock.build_detector(fock.fock_sector((2,)))
    assert np.allclose(model.povm.difference("z"), np.diag([1.0, 0.0, -1.0]), atol=1e-12)


def test_detector_completeness_exact():
    for photons in ((1,), (2,), (2, 1)):
        model = fock.build_detector(fock.fock_sector(photons))
        for r in ("z", "x"):
            total = model.povm.element(r, 0) + model.povm.element(r, 1)
            assert linalg.frob(total - np.eye(model.sector.dim)) <= 1e-14


def test_observables_built_from_click_states():
    for sector in acceptance_sectors():
        model = fock.build_detector(sector)
        for obs, r in ((model.povm.difference("z"), "z"), (model.povm.difference("x"), "x")):
            v0 = model.states[f"{r}0"]
            v1 = model.states[f"{r}1"]
            direct = np.outer(v0, v0.conj()) - np.outer(v1, v1.conj())
            assert linalg.frob(obs - direct) <= 1e-12
            assert np.count_nonzero(np.abs(np.linalg.eigvalsh(obs)) > 1e-9) == 2


def test_rotation_is_unitary():
    for photons in ((1,), (3,), (2, 1), (1, 1, 1)):
        u = fock.build_u_n(fock.fock_sector(photons))
        d = u.shape[0]
        assert linalg.frob(linalg.dagger(u) @ u - np.eye(d)) <= 1e-10


def test_rotation_matches_configuration_loop_oracle():
    sectors = fock.enumerate_sectors(4) + [fock.fock_sector(n) for n in D256_SECTORS]
    for sector in sectors:
        deviation = np.abs(fock.build_u_n(sector) - rotation_oracle(sector)).max()
        assert deviation <= 1e-12, (sector.photons, deviation)


def test_rotation_fourth_power_parity():
    for sector in acceptance_sectors() + [fock.fock_sector(n) for n in D256_SECTORS]:
        u4 = np.linalg.matrix_power(fock.build_u_n(sector), 4)
        d = u4.shape[0]
        sign = 1.0 if sum(sector.photons) % 2 == 0 else -1.0
        assert linalg.frob(u4 - sign * np.eye(d)) <= 1e-9


def test_rotation_cycles_click_states():
    for photons in ((1,), (2,), (3,), (2, 1)) + D256_SECTORS:
        model = fock.build_detector(fock.fock_sector(photons))
        u = model.symmetry.u
        for b in (0, 1):
            image = u @ model.states[f"z{b}"]
            overlap = np.vdot(model.states[f"x{b}"], image)
            assert abs(abs(overlap) - 1.0) <= 1e-9
            flipped = u @ u @ model.states[f"z{b}"]
            overlap2 = np.vdot(model.states[f"z{1 - b}"], flipped)
            assert abs(abs(overlap2) - 1.0) <= 1e-9


def test_single_photon_rotation_conjugates_observables():
    model = fock.build_detector(fock.fock_sector((1,)))
    u = model.symmetry.u
    rotated = u @ model.povm.difference("z") @ linalg.dagger(u)
    assert linalg.frob(rotated - model.povm.difference("x")) <= 1e-10


def test_sector_symmetry_report():
    for photons in ((1,), (3,), (2, 1)):
        model = fock.build_detector(fock.fock_sector(photons))
        report = builder.check_definition1(model.symmetry, model.povm)
        assert report.passed, (photons, report.max_residual)


def test_enumerate_sectors_counts():
    singles = fock.enumerate_sectors(4, max_modes=1)
    assert [s.photons for s in singles] == [(1,), (2,), (3,), (4,)]
    upto2 = fock.enumerate_sectors(2, max_modes=2)
    assert {s.photons for s in upto2} == {(1,), (2,), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)}


def test_detector_json_shape():
    model = fock.build_detector(fock.fock_sector((2, 1)))
    blob = written(fock.detector_to_json(model))
    assert blob["N"] == [2, 1]
    assert blob["dim"] == 6
    assert set(blob["states"]) == {"z0", "z1", "x0", "x1"}
    back = povm.povm_from_json(blob["povm"])
    assert povm.validate(back).passed


@pytest.mark.parametrize("u", [[[1e200, 1e200], [1e200, -1e200]], np.diag([1e308, 1.0])],
                         ids=["overflow", "huge-diagonal"])
def test_a_matrix_whose_gram_overflows_is_not_unitary(u):
    # U+ U overflows to inf and NaN entries; a NaN defect passed the check `defect > TOL`
    with pytest.raises(SquashkitError, match="^U is not unitary within 1e-09$"):
        fock.C4Symmetry(u=u)
