import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squashkit import builder, finder, fock, linalg, povm, squashmap
from squashkit.errors import SquashkitError

from helpers import random_density_matrices, random_density_matrix, random_hermitian, written


def test_eig_diagonal_input():
    u = linalg.unitary_from_generator(np.diag([3.0, 1.0]).astype(complex), 0.5)
    assert np.allclose(u, np.diag(np.exp([1.5j, 0.5j])), atol=1e-15)


def test_eig_pauli_x():
    u = linalg.unitary_from_generator(linalg.PAULI_X, 0.3)
    assert np.allclose(u, np.cos(0.3) * np.eye(2) + 1j * np.sin(0.3) * linalg.PAULI_X, atol=1e-15)


def test_eig_reconstruction_8x8():
    # against the Taylor series of exp(i t A), at a t that keeps its terms small
    a = random_hermitian(8, np.random.default_rng(42))
    t = 0.5 / linalg.frob(a)
    term, series = np.eye(8, dtype=complex), np.eye(8, dtype=complex)
    for k in range(1, 30):
        term = term @ (1j * t * a) / k
        series = series + term
    assert linalg.frob(linalg.unitary_from_generator(a, t) - series) <= 1e-14


def test_eig_zero_matrix():
    # a fully degenerate spectrum: the witness state is still one pure state
    zero = np.zeros((4, 4), dtype=complex)
    witness = finder.bloch_witness(zero, zero)
    assert witness.value == 0.0
    assert np.trace(witness.state).real == pytest.approx(1.0, abs=1e-15)
    assert linalg.frob(witness.state @ witness.state - witness.state) <= 1e-15


def test_eig_rejects_non_hermitian():
    # each function that takes a raw matrix refuses a non-Hermitian one once, before eigh
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(SquashkitError, match="^matrix is not Hermitian within tol=1e-09$"):
        linalg.unitary_from_generator(jordan, 1.0)
    with pytest.raises(SquashkitError, match="^matrix is not Hermitian within tol=1e-09$"):
        builder.extract_rank2(jordan, fock.C4Symmetry(u=np.eye(2, dtype=complex)))
    with pytest.raises(SquashkitError, match="^the Bloch witness needs Hermitian observables$"):
        finder.bloch_witness(jordan, linalg.PAULI_X)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=10**6))
def test_eig_properties(dim, seed):
    rng = np.random.default_rng(seed)
    a, t = random_hermitian(dim, rng), rng.uniform(-np.pi, np.pi)
    u = linalg.unitary_from_generator(a, t)
    assert linalg.frob(linalg.dagger(u) @ u - np.eye(dim)) <= 1e-11
    assert linalg.frob(u @ a - a @ u) <= 1e-11 * max(1.0, linalg.frob(a))
    inverse = linalg.unitary_from_generator(a, -t)
    assert linalg.frob(u @ inverse - np.eye(dim)) <= 1e-11


def test_unitary_from_generator_pauli_z():
    u = linalg.unitary_from_generator(linalg.PAULI_Z, np.pi)
    assert np.allclose(u, -np.eye(2), atol=1e-12)


def test_unitary_from_generator_zero():
    u = linalg.unitary_from_generator(np.zeros((3, 3), dtype=complex), 0.73)
    assert np.allclose(u, np.eye(3), atol=1e-12)


def test_unitary_from_generator_eighth_root():
    u = linalg.unitary_from_generator(linalg.PAULI_Y, np.pi / 4)
    p4 = np.linalg.matrix_power(u, 4)
    p8 = np.linalg.matrix_power(u, 8)
    assert np.allclose(p4, -np.eye(2), atol=1e-10)
    assert np.allclose(p8, np.eye(2), atol=1e-10)
    assert linalg.frob(linalg.dagger(u) @ u - np.eye(2)) <= 1e-10


#: The memory layouts frob must see through: np.linalg.norm ravels in memory order.
_LAYOUTS = {
    "C": lambda a: a,
    "F": np.asfortranarray,
    "transposed": lambda a: a.T,
    "strided": lambda a: a[..., ::2] if a.ndim else a,
    "reversed": lambda a: a[::-1] if a.ndim else a,
}


def test_frob_equals_numpy_norm_on_gaussian_entries_in_every_layout():
    # summing in any order but memory order changes the last bit about a third of the time
    rng = np.random.default_rng(11)
    for _ in range(20):
        real, imag = rng.standard_normal((2, 7, 7))
        for a in (real, real + 1j * imag, rng.integers(-99, 99, (7, 7))):
            for layout in _LAYOUTS.values():
                assert linalg.frob(layout(a)) == float(np.linalg.norm(layout(a)))
    for a in (np.zeros((0, 3)), np.zeros(0, dtype=complex), np.zeros((2, 0), dtype=int)):
        assert linalg.frob(a) == 0.0 == float(np.linalg.norm(a))
    assert linalg.frob([[3, 4j]]) == 5.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_kron_mixed_product(seed):
    rng = np.random.default_rng(seed)
    a, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2))
    b, d = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
    lhs = np.kron(a, b) @ np.kron(c, d)
    rhs = np.kron(a @ c, b @ d)
    assert linalg.frob(lhs - rhs) <= 1e-12 * max(1.0, linalg.frob(lhs))


def test_kron_associativity():
    rng = np.random.default_rng(5)
    a = random_hermitian(2, rng)
    b = random_hermitian(2, rng)
    c = random_hermitian(3, rng)
    lhs = np.kron(np.kron(a, b), c)
    rhs = np.kron(a, np.kron(b, c))
    assert linalg.frob(lhs - rhs) <= 1e-12 * max(1.0, linalg.frob(lhs))


def test_matrix_json_round_trip():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    back = linalg.matrix_from_json(written(linalg.matrix_to_json(a)))
    assert np.array_equal(a, back)


def test_rect_json_round_trip():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    back = linalg.matrix_rect_from_json(written(linalg.matrix_rect_to_json(a)))
    assert np.array_equal(a, back)


def test_json_entries_match_the_elementwise_encoding():
    rng = np.random.default_rng(5)
    values = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    values[:4] = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0)]
    entries = written(linalg.vector_to_json(values))
    reference = [[float(z.real), float(z.imag)] for z in values]
    assert all(type(x) is float for entry in entries for x in entry)
    assert json.dumps(entries) == json.dumps(reference)


def test_an_empty_matrix_is_refused():
    message = r"^expected a nonempty square matrix, got shape \(0, 0\)$"
    with pytest.raises(SquashkitError, match=message):
        linalg.as_matrix(np.zeros((0, 0)))
    # so a measurement set or a cycling unitary of dimension 0 is refused as it is built
    with pytest.raises(SquashkitError, match="nonempty square matrix"):
        povm.make_povm({key: np.zeros((0, 0)) for key in povm.LABELS})
    with pytest.raises(SquashkitError, match="nonempty square matrix"):
        fock.C4Symmetry(np.zeros((0, 0)))


def test_ragged_rows_are_not_a_matrix():
    with pytest.raises(SquashkitError, match="^expected a square matrix of numbers in rows of equal"):
        linalg.as_matrix([[1, 2], [3]])


@pytest.mark.parametrize("obj, key", [({"entries": []}, "dim"), ({"dim": 1}, "entries")])
def test_matrix_json_names_a_missing_field(obj, key):
    with pytest.raises(SquashkitError, match=f"^missing field '{key}'$"):
        linalg.matrix_from_json(obj)


def test_a_matrix_in_any_memory_layout_is_a_matrix():
    a = np.arange(9.0).reshape(3, 3) + 1j
    for view in (a.T, linalg.dagger(a), np.asfortranarray(a), a[::-1, ::-1]):
        assert np.array_equal(linalg.as_matrix(view), view)
    with pytest.raises(SquashkitError, match="^matrix entries must be finite$"):
        linalg.as_matrix(np.array([[1.0, complex(0.0, np.inf)], [0.0, 1.0]]).T)


def test_matrix_json_length_check():
    with pytest.raises(SquashkitError, match="^expected 4 entries for dim 2, got 3$"):
        linalg.matrix_from_json({"dim": 2, "entries": [[1.0, 0.0]] * 3})


def test_json_field_checks_the_container_and_the_type():
    assert linalg.json_field({"dim": 2}, "dim", int) == 2
    assert linalg.json_field({"dim": True}, "dim") is True
    for obj, kind, message in [
        (5, None, "^expected an object holding 'dim', got 5$"),
        (None, int, "^expected an object holding 'dim', got None$"),
        ([["dim", 2]], int, r"^expected an object holding 'dim', got \[\['dim', 2\]\]$"),
        ({"dim": True}, int, "^'dim' must be an integer, got True$"),  # bool is no int
        ({"dim": 2.0}, int, "^'dim' must be an integer, got 2.0$"),
        ({"dim": 2}, list, "^'dim' must be a list, got 2$"),
        ({"dim": []}, dict, r"^'dim' must be an object, got \[\]$"),
    ]:
        with pytest.raises(SquashkitError, match=message):
            linalg.json_field(obj, "dim", kind)
    long = {"entries": list(range(10**4))}  # a long value is shown cut short
    with pytest.raises(SquashkitError, match=r"^'entries' must be an object, got \[0, 1, .*\.\]$"):
        linalg.json_field(long, "entries", dict)


@pytest.mark.parametrize("obj, message", [
    ({"dim": -2, "entries": [[1.0, 0.0]] * 4}, "^dim -2 is not a positive size$"),
    ({"dim": 0, "entries": []}, "^dim 0 is not a positive size$"),
    ({"dim": 1, "entries": [1.0]}, "pairs of numbers"),
    ({"dim": 1, "entries": [[1.0]]}, "pairs of numbers"),
    ({"dim": 1, "entries": [["1", 0.0]]}, "pairs of numbers"),
    ({"dim": 1, "entries": [[None, 0.0]]}, "pairs of numbers"),
    ({"dim": 1, "entries": [[10**400, 0.0]]}, "too large"),
    ({"rows": 2, "cols": 0, "entries": []}, "^2x0 is not a positive size$"),
])
def test_matrix_json_refuses_sizes_and_entries_that_are_no_matrix(obj, message):
    read = linalg.matrix_from_json if "dim" in obj else linalg.matrix_rect_from_json
    with pytest.raises(SquashkitError, match=message):
        read(obj)


@pytest.mark.parametrize("read, obj, shape", [
    (linalg.matrix_from_json, {"dim": 257, "entries": []}, "dim 257"),
    (linalg.matrix_rect_from_json, {"rows": 700, "cols": 4, "entries": []}, "700x4"),
    (linalg.matrix_rect_from_json, {"rows": 2, "cols": 257, "entries": []}, "2x257"),
    (povm.povm_from_json,
     {"dim": 2, "elements": dict.fromkeys(povm.LABELS, {"dim": 257, "entries": []})}, "dim 257"),
    (squashmap.squash_from_json,
     {"in_dim": 4, "kraus": [{"rows": 700, "cols": 4, "entries": []}]}, "700x4"),
])
def test_every_json_reader_refuses_a_side_above_the_bound_before_counting_entries(
    read, obj, shape
):
    # no entries at all: a reader that counted them first would report the count instead
    with pytest.raises(SquashkitError, match=f"^{shape} has a side above the supported 256$"):
        read(obj)


def test_a_side_at_the_bound_is_read():
    assert linalg.MAX_INPUT_DIM == 256
    with pytest.raises(SquashkitError, match="^expected 65536 entries for dim 256, got 0$"):
        linalg.matrix_from_json({"dim": 256, "entries": []})
    a = np.arange(512.0).reshape(2, 256) * 1j
    assert np.array_equal(linalg.matrix_rect_from_json(written(linalg.matrix_rect_to_json(a))), a)


def test_negative_zero_parts_survive_a_json_round_trip():
    a = np.array([[complex(-0.0, -0.0), complex(1.0, -0.0)], [complex(-0.0, 1.0), 0.0]])
    for write, read in ((linalg.matrix_to_json, linalg.matrix_from_json),
                        (linalg.matrix_rect_to_json, linalg.matrix_rect_from_json)):
        text = json.dumps(written(write(a)))
        back = read(json.loads(text))
        assert json.dumps(written(write(back))) == text
        assert np.array_equal(np.signbit(back.real), np.signbit(a.real))
        assert np.array_equal(np.signbit(back.imag), np.signbit(a.imag))


# the suite's state sampler (helpers.random_density_matrices), checked against a plain loop

def _single_draw(dim, rng):
    """One Wishart density matrix, drawn as one real and one imaginary (dim, dim) block."""
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 18, 64])
def test_random_density_matrices_equal_successive_single_draws(dim):
    for count in (1, 5, 20):
        batch_rng, loop_rng = np.random.default_rng(1812), np.random.default_rng(1812)
        batch = random_density_matrices(dim, count, batch_rng)
        assert batch.shape == (count, dim, dim)
        assert np.array_equal(batch, np.stack([_single_draw(dim, loop_rng) for _ in range(count)]))
        # both generators are left in the same state
        assert batch_rng.standard_normal() == loop_rng.standard_normal()
    single = random_density_matrix(dim, np.random.default_rng(7))
    assert np.array_equal(single, _single_draw(dim, np.random.default_rng(7)))


def test_random_density_matrices_are_states():
    rhos = random_density_matrices(5, 10, np.random.default_rng(3))
    assert np.allclose(np.trace(rhos, axis1=1, axis2=2), 1.0, atol=1e-12)
    for rho in rhos:
        assert linalg.is_hermitian(rho) and np.linalg.eigvalsh(rho)[0] > 0.0
    assert random_density_matrices(5, 0, np.random.default_rng(3)).shape == (0, 5, 5)
