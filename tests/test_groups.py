import itertools
import pickle

import numpy as np
import pytest

from squashkit import builder, fock, linalg, nogo, povm
from squashkit.errors import SquashkitError

from helpers import definition1_oracle


def test_cyclic_group_structure():
    g = nogo.cyclic_group(4)
    assert g.order == 4 and g.identity == 0
    assert g.cayley[3, 2] == 1
    assert g.inverse(3) == 1


def test_s3_structure():
    g = nogo.symmetric_group_s3()
    assert g.order == 6
    for a in range(6):
        assert g.cayley[a, g.inverse(a)] == g.identity


def test_rejects_non_latin_table():
    with pytest.raises(SquashkitError, match="^row 0 is not a permutation$"):
        nogo.make_group([[0, 0], [1, 1]])
    with pytest.raises(SquashkitError, match="^column 0 is not a permutation$"):
        nogo.make_group([[0, 1], [0, 1]])
    with pytest.raises(SquashkitError, match="^column 1 is not a permutation$"):
        nogo.make_group([[0, 1, 2], [2, 1, 0], [1, 2, 0]])


def test_rejects_non_associative_quasigroup():
    # subtraction mod 5 is a Latin square but not associative
    table = [[(a - b) % 5 for b in range(5)] for a in range(5)]
    with pytest.raises(SquashkitError, match=r"^associativity fails at pair \(0, 0\)$"):
        nogo.make_group(table)


def latin_squares(n: int):
    """Every Latin square on 0..n-1, one row permutation at a time."""
    rows = list(itertools.permutations(range(n)))

    def extend(square):
        if len(square) == n:
            yield square
            return
        for row in rows:
            if all(row[j] != above[j] for above in square for j in range(n)):
                yield from extend(square + [row])

    return extend([])


def test_every_associative_latin_square_up_to_order_4_has_a_neutral_identity():
    # make_group does not search for a neutral element: an associative Latin square is a group
    squares = [s for n in range(1, 5) for s in latin_squares(n)]
    assert len(squares) == 1 + 2 + 12 + 576
    for square in squares:
        n = len(square)
        if any(square[square[a][b]][c] != square[a][square[b][c]]
               for a in range(n) for b in range(n) for c in range(n)):
            with pytest.raises(SquashkitError, match="^associativity fails"):
                nogo.make_group(square)
            continue
        g = nogo.make_group(square)
        assert all(g.cayley[g.identity, a] == a == g.cayley[a, g.identity] for a in range(n))


@pytest.mark.parametrize("table, perms", [
    ([[0.4, 1.6], [1.2, 0.3]], [[0.2, 1, 2, 3], [1.9, 0, 3, 2]]),
    ([[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 3.0, 2.0]]),
    ([[False, True], [True, False]], [[False, True, True, True]] * 2),
    ([["0", "1"], ["1", "0"]], [["0", "1", "2", "3"], ["1", "0", "3", "2"]]),
])
def test_group_and_action_entries_must_be_integers(table, perms):
    # refused, not truncated or coerced into the C2 table and its basis swap
    with pytest.raises(SquashkitError, match="^Cayley entries must be integers, got"):
        nogo.make_group(table)
    with pytest.raises(SquashkitError, match="^label images must be integers, got"):
        nogo.make_action(perms)


def test_null_entries_are_refused():
    # a JSON null makes an object array, which int() cannot cast
    with pytest.raises(SquashkitError, match="^Cayley entries must be integers$"):
        nogo.make_group([[0, None], [1, 0]])
    with pytest.raises(SquashkitError, match="^label images must be integers$"):
        nogo.make_action([[0, 1, 2, 3], [1, 0, 3, None]])
    with pytest.raises(SquashkitError, match="too large"):  # a Python int beyond 64 bits
        nogo.make_group([[0, 1], [1, 2**64]])


def test_booleans_among_integers_are_refused():
    # np.array reads [[0, True], [True, 0]] as the C2 table
    with pytest.raises(SquashkitError, match="^Cayley entries must be integers, not booleans$"):
        nogo.make_group([[0, True], [True, 0]])
    with pytest.raises(SquashkitError, match="^label images must be integers, not booleans$"):
        nogo.make_action([[0, 1, 2, 3], [True, 0, 3, 2]])


def test_ragged_tables_are_refused():
    with pytest.raises(SquashkitError, match="^Cayley entries must be rows of equal length$"):
        nogo.make_group([[0, 1], [1]])
    with pytest.raises(SquashkitError, match="^label images must be rows of equal length$"):
        nogo.make_action([[0, 1, 2, 3], [1, 0, 3]])


def test_action_must_be_homomorphism():
    g = nogo.cyclic_group(4)
    bad = nogo.make_action(
        [[0, 1, 2, 3], [1, 2, 3, 0], [0, 1, 2, 3], [1, 2, 3, 0]]
    )
    with pytest.raises(SquashkitError, match=r"^homomorphism fails at pair \(1, 1\)$"):
        nogo.validate_action(g, bad)
    nogo.validate_action(g, nogo.canonical_c4_action())
    nogo.validate_action(nogo.cyclic_group(2), nogo.c2_basis_swap_action())


def test_an_action_that_does_not_fit_its_group_is_refused():
    with pytest.raises(SquashkitError, match="^need one permutation of the four labels"):
        nogo.make_action([[0, 1, 2]])
    c2 = nogo.cyclic_group(2)
    with pytest.raises(SquashkitError, match="^action size does not match group order$"):
        nogo.validate_action(c2, nogo.canonical_c4_action())
    # an identity that swaps labels fails the homomorphism test at (e, e): perm(e) o perm(e)
    # is the identity permutation, not perm(e)
    with pytest.raises(SquashkitError):
        nogo.validate_action(c2, nogo.make_action([[1, 0, 3, 2], [0, 1, 2, 3]]))


# check_definition2 reads V(g) = 1 x R(g), R the regular representation, from the Cayley
# table as the index permutation i*|G| + h -> i*|G| + g*h. These tests build V(g) as dense
# matrices and compare ||V M_c V+ - M_{g(c)}||_F with the residuals the check reports.


def regular_v(group, d: int) -> list:
    """V(g) = 1_d x R(g) for each element g, with R(g)|h> = |g*h>."""
    n = group.order
    r = np.zeros((n, n, n))
    for g in range(n):
        r[g, group.cayley[g], np.arange(n)] = 1.0
    return [np.kron(np.eye(d), r[g]) for g in range(n)]


def assert_check_conjugates_by(v, group, action):
    """On a random set and on a symmetrized one, the residuals are those of conjugation by v."""
    n, d = group.order, len(v[0]) // group.order
    rng = np.random.default_rng(n)
    shape = (d * n, d * n)
    random_set = povm.make_povm(
        {key: rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for key in povm.LABELS}
    )
    report = nogo.check_definition2(group, action, random_set)
    for g in range(n):
        for c in range(4):
            conjugated = v[g] @ random_set.l_element(c) @ v[g].T
            dense = np.linalg.norm(conjugated - random_set.l_element(action.perms[g, c]))
            assert report.residuals[f"g{g}.{povm.LABELS[c]}"] == pytest.approx(dense, rel=1e-12)
    base = povm.make_povm({key: m[:d, :d] for key, m in random_set.elements.items()})
    tilde = nogo.symmetrize(base, group, action).tilde
    assert nogo.check_definition2(group, action, tilde).max_residual == 0.0


def test_regular_representation_c2():
    g = nogo.cyclic_group(2)
    v = regular_v(g, 2)
    assert np.array_equal(v[1], np.kron(np.eye(2), [[0, 1], [1, 0]]))  # the swap on each block
    assert_check_conjugates_by(v, g, nogo.c2_basis_swap_action())


def test_regular_representation_c4_generator():
    g = nogo.cyclic_group(4)
    # the generator shifts h -> h + 1 mod 4 inside each kron block
    shift = np.zeros((4, 4))
    for h in range(4):
        shift[(h + 1) % 4, h] = 1.0
    v = regular_v(g, 2)
    assert np.array_equal(v[1], np.kron(np.eye(2), shift))
    assert_check_conjugates_by(v, g, nogo.canonical_c4_action())


def test_regular_representation_s3_homomorphism():
    g = nogo.symmetric_group_s3()
    v = regular_v(g, 2)
    assert np.array_equal(v[g.identity], np.eye(12))
    for a in range(6):
        for b in range(6):
            assert np.array_equal(v[a] @ v[b], v[g.cayley[a, b]])
    sign = [[0, 1, 2, 3] if a in (0, 3, 4) else [1, 0, 3, 2] for a in range(6)]  # odd ones swap
    assert_check_conjugates_by(v, g, nogo.make_action(sign))


def test_c4_symmetry_validation():
    with pytest.raises(SquashkitError, match="^U is not unitary within 1e-09$"):
        fock.C4Symmetry(u=np.diag([1.0, 2.0]).astype(complex))
    # the global phase is free: an order-eight unitary and a phase-shifted one are accepted
    u = linalg.unitary_from_generator(linalg.PAULI_Y, np.pi / 4)
    fock.C4Symmetry(u=u)
    fock.C4Symmetry(u=np.exp(0.3j) * u)


def test_c4_symmetry_holds_a_read_only_complex_copy():
    u = linalg.unitary_from_generator(linalg.PAULI_Y, -np.pi / 4)
    sym = fock.C4Symmetry(u=u)
    u[0, 0] = 2.0  # the symmetry checked and holds its own copy
    assert sym.u[0, 0] != 2.0 and not sym.u.flags.writeable
    with pytest.raises(ValueError):
        sym.u[0, 0] = 2.0
    assert builder.check_definition1(sym, povm.ideal_qubit_povm()).passed
    listed = fock.C4Symmetry(u=[[0, 1], [1, 0]])
    assert listed.u.dtype == complex and not listed.u.flags.writeable
    back = pickle.loads(pickle.dumps(sym))
    assert not back.u.flags.writeable and np.array_equal(back.u, sym.u)


def test_groups_and_actions_hold_read_only_copies():
    table, perms = np.array([[0, 1], [1, 0]]), np.array([[0, 1, 2, 3], [1, 0, 3, 2]])
    group, action = nogo.make_group(table), nogo.make_action(perms)
    table[0, 0], perms[0, 0] = 1, 3  # after this the inputs are no group and no action
    assert group.cayley[0, 0] == 0 and action.perms[0, 0] == 0
    nogo.validate_action(group, action)
    for array in (group.cayley, action.perms):
        with pytest.raises(ValueError):
            array[0, 0] = 1
    back_group, back_action = pickle.loads(pickle.dumps((group, action)))
    assert not back_group.cayley.flags.writeable and not back_action.perms.flags.writeable
    assert np.array_equal(back_group.cayley, group.cayley) and back_group.identity == group.identity
    assert np.array_equal(back_action.perms, action.perms)


def uniform_povm():
    half = np.eye(2, dtype=complex) / 2
    return povm.make_povm({key: half for key in povm.LABELS})


def test_definition1_uniform_set_trivial_unitary():
    sym = fock.C4Symmetry(u=np.eye(2, dtype=complex))
    report = builder.check_definition1(sym, uniform_povm())
    assert report.passed and report.max_residual <= 1e-12


def test_definition1_ideal_set_with_quarter_rotation():
    u = linalg.unitary_from_generator(linalg.PAULI_Y, -np.pi / 4)
    sym = fock.C4Symmetry(u=u)
    report = builder.check_definition1(sym, povm.ideal_qubit_povm())
    assert report.passed, report.residuals


def random_order_eight_unitary(rng):
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    basis = np.linalg.eigh((h + h.conj().T) / 2)[1]
    phases = np.exp(1j * np.pi / 4 * rng.integers(0, 8, size=2))
    return (basis * phases) @ linalg.dagger(basis)


def test_definition1_m0_fails_for_every_candidate():
    # the twin-observable set: no unitary can both fix the elements under
    # conjugation (z to x relation) and flip them (double rotation)
    from squashkit.nogo import counterexample_m0

    m0 = counterexample_m0()
    rng = np.random.default_rng(99)
    candidates = [np.eye(2, dtype=complex), linalg.unitary_from_generator(linalg.PAULI_Y, -np.pi / 4)]
    for theta in (np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi):
        for pauli in (linalg.PAULI_X, linalg.PAULI_Y, linalg.PAULI_Z):
            candidates.append(linalg.unitary_from_generator(pauli, theta))
    for _ in range(50):
        candidates.append(random_order_eight_unitary(rng))
    for u in candidates:
        report = builder.check_definition1(fock.C4Symmetry(u=u), m0)
        assert not report.passed
        assert report.max_residual >= 0.5


def test_definition1_residuals_ignore_global_phase():
    model = fock.build_detector(fock.fock_sector((3,)))
    before = builder.check_definition1(fock.C4Symmetry(u=model.symmetry.u), model.povm)
    for phase in (np.exp(0.25j * np.pi), np.exp(1.7j)):
        after = builder.check_definition1(fock.C4Symmetry(u=phase * model.symmetry.u), model.povm)
        for key in before.residuals:
            assert abs(before.residuals[key] - after.residuals[key]) <= 1e-12


@pytest.mark.parametrize("photons", [s.photons for s in fock.enumerate_sectors(3)])
def test_definition1_equals_the_per_relation_reference(photons):
    model = fock.build_detector(fock.fock_sector(photons))
    u = model.symmetry.u
    for candidate, passes in ((u, True), (np.exp(0.3j) * u, True), (linalg.dagger(u), False)):
        report = builder.check_definition1(fock.C4Symmetry(u=candidate), model.povm)
        reference = definition1_oracle(candidate, model.povm)
        assert list(report.residuals) == list(reference)
        assert report.passed == passes == (max(reference.values()) <= linalg.TOL)
        for key, value in reference.items():
            assert abs(report.residuals[key] - value) <= 1e-14, key


def _eigencomponents(v, u, tol=np.inf):
    """The four parts mu_c v_c that mu_decompose splits v into; ``tol`` gates <v, U^2 v>."""
    dec = builder.mu_decompose(np.asarray(v, dtype=complex), fock.C4Symmetry(u=u), tol=tol)
    return [dec.mu[c] * dec.v_c[c] for c in range(4)]


def test_eigenprojectors_identity():
    v = np.array([0.6, 0.0, 0.8j])
    parts = _eigencomponents(v, np.eye(3, dtype=complex))  # <v, U^2 v> = 1: gate off
    assert np.allclose(parts[0], v)
    for c in (1, 2, 3):
        assert np.allclose(parts[c], 0.0, atol=1e-12)


def test_eigenprojectors_diagonal():
    u = np.diag([1.0, 1.0j, -1.0, -1.0j]).astype(complex)
    parts = _eigencomponents(np.full(4, 0.5), u, tol=1e-12)  # v is orthogonal to U^2 v
    for c in range(4):
        expected = np.zeros(4, dtype=complex)
        expected[c] = 0.5
        assert np.allclose(parts[c], expected, atol=1e-12)


def test_eigenprojector_identities_random_unitary():
    rng = np.random.default_rng(31)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    basis = np.linalg.eigh((h + h.conj().T) / 2)[1]
    phases = np.array([1, 1j, -1, -1j, 1j, -1])
    u = (basis * phases) @ linalg.dagger(basis)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v /= np.linalg.norm(v)
    parts = _eigencomponents(v, u)
    assert np.linalg.norm(sum(parts) - v) <= 1e-9
    for c in range(4):
        assert np.linalg.norm(parts[c]) > 0.1
        assert np.linalg.norm(u @ parts[c] - (1j**c) * parts[c]) <= 1e-9
        for cc in range(c + 1, 4):
            assert abs(np.vdot(parts[c], parts[cc])) <= 1e-9


def test_eigenprojectors_need_order_four():
    u = np.roll(np.eye(5, dtype=complex), 1, axis=0)  # e_j -> e_j+1 mod 5, order five
    v = np.eye(5, dtype=complex)[0]  # U^2 v = e2 is orthogonal to v, but U^4 v = e4
    with pytest.raises(SquashkitError, match="not a multiple of v"):
        builder.mu_decompose(v, fock.C4Symmetry(u=u))


@pytest.mark.parametrize("photons", [(1,), (3,), (2, 1), (1, 1, 1)])
def test_eigencomponents_of_an_odd_sector_carry_its_phase(photons):
    model = fock.build_detector(fock.fock_sector(photons))
    sym = model.symmetry  # U_N^4 = -1, used as it is
    _, v = builder.extract_rank2(model.povm.difference("z"), sym)
    parts = _eigencomponents(v, sym.u)
    rho = np.exp(-0.25j * np.pi)  # the fourth root of -1 that mu_decompose picks
    assert np.linalg.norm(sum(parts) - v) <= 1e-12
    for c in range(4):
        assert np.linalg.norm(sym.u @ parts[c] - rho * 1j**c * parts[c]) <= 1e-12


def test_definition2_trivial_group():
    action = nogo.make_action([[0, 1, 2, 3]])
    report = nogo.check_definition2(nogo.cyclic_group(1), action, povm.ideal_qubit_povm())
    assert report.passed


def test_definition2_identity_rep_cannot_permute():
    # the qubit set times an idle register: every V(g) fixes it, so no label can move
    qubit = povm.ideal_qubit_povm().elements
    p = povm.make_povm({key: np.kron(m, np.eye(4)) for key, m in qubit.items()})
    report = nogo.check_definition2(nogo.cyclic_group(4), nogo.canonical_c4_action(), p)
    assert not report.passed


def test_definition2_needs_the_regular_permutations():
    # the C4-symmetrized set is symmetric under C4's regular representation, not under
    # that of the other group of order four, C2 x C2, with the same label images
    from squashkit.nogo import counterexample_m0, symmetrize

    s = symmetrize(counterexample_m0(), nogo.cyclic_group(4), nogo.canonical_c4_action())
    assert nogo.check_definition2(s.group, s.action, s.tilde).max_residual == 0.0
    klein = nogo.make_group([[a ^ b for b in range(4)] for a in range(4)])
    report = nogo.check_definition2(klein, s.action, s.tilde)
    assert not report.passed and report.residuals["g0.z0"] == 0.0
    assert report.max_residual >= 1.0


def test_definition2_refuses_a_set_or_action_that_does_not_fit_the_group():
    c4, action = nogo.cyclic_group(4), nogo.canonical_c4_action()
    p = povm.ideal_qubit_povm()
    with pytest.raises(SquashkitError, match="^POVM dim 2 is not a multiple of the group order 4$"):
        nogo.check_definition2(c4, action, p)
    tilde = nogo.symmetrize(p, c4, action).tilde
    # one row for each element: more rows have no group element, fewer would check only
    # part of the group
    for rows in (1, 5):
        message = f"^action has {rows} rows for a group of order 4$"
        with pytest.raises(SquashkitError, match=message):
            nogo.check_definition2(c4, nogo.make_action([[0, 1, 2, 3]] * rows), tilde)


def test_a_table_with_no_rows_is_refused():
    message = "^Cayley table must be square, with at least one row$"
    with pytest.raises(SquashkitError, match=message):
        nogo.make_group(np.zeros((0, 0), int))
    with pytest.raises(SquashkitError, match=message):
        nogo.cyclic_group(0)


def test_group_json_round_trip():
    g = nogo.symmetric_group_s3()
    back = nogo.group_from_json(nogo.group_to_json(g))
    assert np.array_equal(back.cayley, g.cayley)


def test_json_readers_name_what_is_missing_or_unknown():
    group = nogo.group_to_json(nogo.cyclic_group(2))
    for key in ("order", "cayley", "identity"):
        with pytest.raises(SquashkitError, match=f"^missing field '{key}'$"):
            nogo.group_from_json({k: v for k, v in group.items() if k != key})
    with pytest.raises(SquashkitError, match="^missing field 'perms'$"):
        nogo.action_from_json({"labels": list(povm.LABELS)})
    with pytest.raises(SquashkitError, match="^unknown label 'z2'$"):
        nogo.action_from_json({"perms": [["z0", "x0", "z2", "x1"]]})


def test_action_from_json():
    blob = {"labels": ["z0", "x0", "z1", "x1"],
            "perms": [["z0", "x0", "z1", "x1"], ["x0", "z1", "x1", "z0"],
                      ["z1", "x1", "z0", "x0"], ["x1", "z0", "x0", "z1"]]}
    back = nogo.action_from_json(blob)
    assert np.array_equal(back.perms, nogo.canonical_c4_action().perms)
