import pickle

import numpy as np
import pytest

from squashkit import fock, linalg, povm
from squashkit.errors import SquashkitError

from helpers import (
    SKEW,
    WIDE_SECTORS,
    configurations,
    random_density_matrix,
    validate_oracle,
    written,
)


def uniform_povm(dim=2):
    half = np.eye(dim, dtype=complex) / 2
    return povm.make_povm({key: half for key in povm.LABELS})


def test_ideal_qubit_set_validates():
    assert povm.validate(povm.ideal_qubit_povm()).passed


def test_incomplete_set_fails():
    eye = np.eye(2, dtype=complex)
    p = povm.make_povm({"z0": eye, "z1": eye, "x0": eye / 2, "x1": eye / 2})
    report = povm.validate(p)
    assert not report.passed
    assert report.residuals["sum.z"] == pytest.approx(np.sqrt(2.0))


def test_negative_element_fails():
    eye = np.eye(2, dtype=complex)
    p = povm.make_povm(
        {
            "z0": eye + 0.5 * linalg.PAULI_Z,
            "z1": -0.5 * linalg.PAULI_Z,
            "x0": eye / 2,
            "x1": eye / 2,
        }
    )
    report = povm.validate(p)
    assert not report.passed
    assert report.residuals["psd.z1"] > 1e-9


def test_a_set_whose_hermitian_part_overflows_fails():
    # (M + M+)/2 overflows on the x elements, so eigvalsh gives NaN margins for x0 and x1;
    # the builtin min skips a NaN that is not the first item, and this set passed
    z0, z1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    x0, x1 = np.array([[0.5, 1e308], [1e308, 0.5]]), np.array([[0.5, -1e308], [-1e308, 0.5]])
    report = povm.validate(povm.make_povm({"z0": z0, "z1": z1, "x0": x0, "x1": x1}))
    assert not report.passed
    assert report.residuals["psd.z0"] == 0.0 and np.isnan(report.residuals["psd.x0"])


def _validation_cases():
    eye = np.eye(2, dtype=complex)
    skew = np.array([[0.0, 0.3], [0.0, 0.0]], dtype=complex)
    rng = np.random.default_rng(23)
    rho = random_density_matrix(5, rng)
    return {
        "ideal": povm.ideal_qubit_povm(),
        "detector-2-1": fock.build_detector(fock.fock_sector((2, 1))).povm,
        "random-d5": povm.make_povm({"z0": rho, "z1": np.eye(5) - rho, "x0": np.eye(5) / 2,
                                     "x1": np.eye(5) / 2}),
        "non-hermitian": povm.make_povm(
            {"z0": eye / 2 + skew, "z1": eye / 2 - skew, "x0": eye / 2, "x1": eye / 2}
        ),
        "negative": povm.make_povm({"z0": eye + 0.5 * linalg.PAULI_Z, "z1": -0.5 * linalg.PAULI_Z,
                                    "x0": eye / 2, "x1": eye / 2}),
    }


@pytest.mark.parametrize("name", sorted(_validation_cases()))
def test_stacked_validation_equals_the_per_element_reference(name):
    p = _validation_cases()[name]
    for tol in (linalg.TOL, 0.6):
        report = povm.validate(p, tol)
        assert report == validate_oracle(p, tol)
        assert list(report.residuals) == [f"psd.{key}" for key in povm.LABELS] + ["sum.z", "sum.x"]
    residuals = povm.validate(p).residuals
    assert (residuals["psd.z0"] == np.inf) == (name == "non-hermitian")
    assert povm.validate(p).passed == (name in ("ideal", "detector-2-1", "random-d5"))


def test_two_photon_detector_set_validates():
    model = fock.build_detector(fock.fock_sector((2,)))
    assert povm.validate(model.povm).passed


def test_observable_ideal_z():
    assert np.allclose(povm.ideal_qubit_povm().difference("z"), linalg.PAULI_Z)


def test_observable_uniform_set_is_zero():
    assert np.allclose(uniform_povm().difference("x"), 0.0)


def test_observable_two_photon_sector():
    model = fock.build_detector(fock.fock_sector((2,)))
    assert np.allclose(model.povm.difference("z"), np.diag([1.0, 0.0, -1.0]), atol=1e-12)


def test_observable_rejects_invalid_set():
    # the observable itself is not validated; validate() is the one check
    eye = np.eye(2, dtype=complex)
    bad = povm.make_povm({"z0": eye, "z1": eye, "x0": eye / 2, "x1": eye / 2})
    assert np.allclose(bad.difference("z"), 0.0)
    report = povm.validate(bad)
    assert not report.passed
    assert report.residuals["sum.z"] == pytest.approx(np.sqrt(2.0))


def test_observable_matches_completeness_consequence():
    # M_r = 2 M_(r,0) - identity for any complete set
    for p in (povm.ideal_qubit_povm(), fock.build_detector(fock.fock_sector((2, 1))).povm):
        for r in ("z", "x"):
            assert povm.validate(p).passed
            expected = 2 * p.element(r, 0) - np.eye(p.dim)
            assert linalg.frob(p.difference(r) - expected) <= 1e-9


def test_observable_is_the_hermitian_part_of_the_difference():
    # an anti-Hermitian part, opposite in z0 and z1, leaves the observable and validate alone
    elements = dict(povm.ideal_qubit_povm().elements)
    elements["z0"], elements["z1"] = elements["z0"] + SKEW, elements["z1"] - SKEW
    p = povm.make_povm(elements)
    assert povm.validate(p).passed
    m_z = p.difference("z")
    assert np.array_equal(m_z, linalg.PAULI_Z) and np.array_equal(m_z, m_z.conj().T)


@pytest.mark.parametrize("sector", [
    *fock.enumerate_sectors(4), *map(fock.fock_sector, WIDE_SECTORS),
], ids=lambda s: ",".join(map(str, s.photons)))
def test_detector_sets_are_bitwise_hermitian(sector):
    # so each observable equals its Hermitian part exactly and sector outputs keep their bytes
    p = fock.build_detector(sector).povm
    for m in (*p.elements.values(), p.difference("z"), p.difference("x")):
        assert np.array_equal(m, m.conj().T)
    for r in ("z", "x"):
        assert np.array_equal(p.difference(r), p.element(r, 0) - p.element(r, 1))


def test_outcome_probability_z_eigenstate():
    # P((r, b) | |k>) is the diagonal entry M_(r,b)[k, k]
    ideal = povm.ideal_qubit_povm()
    assert ideal.element("z", 0)[0, 0] == pytest.approx(1.0)
    assert ideal.element("x", 0)[0, 0] == pytest.approx(0.5)


def test_outcome_probability_double_click_randomized():
    model = fock.build_detector(fock.fock_sector((2,)))
    idx = configurations((2,)).index((1,))  # one photon in each polarization
    assert model.povm.element("z", 0)[idx, idx] == pytest.approx(0.5)


def test_outcome_probabilities_sum_to_one():
    rng = np.random.default_rng(23)
    model = fock.build_detector(fock.fock_sector((1, 1)))
    for _ in range(20):
        # the eigenvectors of a random state are a random orthonormal basis
        w = np.linalg.eigh(random_density_matrix(model.povm.dim, rng))[1]
        for r in ("z", "x"):
            probs = [np.diagonal(linalg.dagger(w) @ model.povm.element(r, b) @ w).real
                     for b in (0, 1)]
            assert np.all(probs[0] >= -1e-12) and np.all(probs[1] >= -1e-12)
            assert np.allclose(probs[0] + probs[1], 1.0, atol=1e-9)


def test_cyclic_label_view():
    p = povm.ideal_qubit_povm()
    assert np.array_equal(p.l_element(0), p.element("z", 0))
    assert np.array_equal(p.l_element(1), p.element("x", 0))
    assert np.array_equal(p.l_element(2), p.element("z", 1))
    assert np.array_equal(p.l_element(3), p.element("x", 1))


def test_povm_json_round_trip():
    p = fock.build_detector(fock.fock_sector((2,))).povm
    back = povm.povm_from_json(written(povm.povm_to_json(p)))
    assert back.dim == p.dim
    for key in povm.LABELS:
        assert np.array_equal(back.elements[key], p.elements[key])


@pytest.mark.parametrize("drop", ["elements", "x1"])
def test_json_reader_names_a_missing_field(drop):
    obj = written(povm.povm_to_json(povm.ideal_qubit_povm()))
    del (obj if drop == "elements" else obj["elements"])[drop]
    with pytest.raises(SquashkitError, match=f"^missing field '{drop}'$"):
        povm.povm_from_json(obj)


def test_a_set_without_one_of_its_four_elements_is_refused():
    elements = dict(povm.ideal_qubit_povm().elements)
    del elements["x1"]
    with pytest.raises(SquashkitError, match="^missing element 'x1'$"):
        povm.make_povm(elements)


def test_measurement_set_is_immutable():
    source = {key: m.copy() for key, m in povm.ideal_qubit_povm().elements.items()}
    p = povm.make_povm(source)
    with pytest.raises(ValueError):
        p.elements["z0"][0, 0] = 3.0
    with pytest.raises(AttributeError):
        p.elements.pop("x1")
    with pytest.raises(TypeError):
        del p.elements["x1"]
    source["z0"][0, 0] = 3.0  # the set holds its own copies
    assert povm.validate(p).passed
    back = pickle.loads(pickle.dumps(p))  # sets still travel to worker processes
    assert all(np.array_equal(back.elements[k], p.elements[k]) for k in povm.LABELS)
    assert not back.elements["z0"].flags.writeable
