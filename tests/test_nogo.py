import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from squashkit import builder, finder, fock, linalg, nogo, povm, squashmap
from squashkit.errors import SelfCheckFailed, SquashkitError, TildeNotVerified

from helpers import (
    SMALL_GROUPS,
    generated_group,
    kraus_apply,
    label_actions,
    random_density_matrix,
    random_hermitian,
    visibility_set,
)


def c4_setup(p):
    return nogo.symmetrize(p, nogo.cyclic_group(4), nogo.canonical_c4_action())


def qubit_frame_unitary(shift: int) -> np.ndarray:
    """Output rotation matching a cyclic relabeling of the four outcomes."""
    return linalg.unitary_from_generator(linalg.PAULI_Y, shift * np.pi / 4.0)


def blockwise_tilde_squash(
    s: nogo.SymmetrizedPovm, base: squashmap.SquashMap
) -> squashmap.SquashMap:
    """Assemble a squash for the symmetrized set from a base squash, block by
    block: ancilla position g routes through the base map followed by the
    qubit rotation matching the relabeling of g's inverse. Only available
    when every label permutation is a power of the four-cycle."""
    n = s.group.order
    d = s.base.dim
    kraus = []
    for g in range(n):
        perm = s.action.perms[s.group.inverse(g)]
        shift = perm[0]
        assert np.array_equal(perm, (np.arange(4) + shift) % 4), "not a cyclic shift"
        w = qubit_frame_unitary(int(shift))
        for f in base.kraus:
            k = np.zeros((2, d * n), dtype=complex)
            k[:, [i * n + g for i in range(d)]] = w @ f
            kraus.append(k)
    return squashmap.squash_from_kraus(d * n, tuple(kraus))


def test_trivial_group_symmetrization_is_identity():
    p = povm.ideal_qubit_povm()
    s = nogo.symmetrize(p, nogo.cyclic_group(1), nogo.make_action([[0, 1, 2, 3]]))
    assert s.tilde.dim == p.dim
    for key in povm.LABELS:
        assert np.array_equal(s.tilde.elements[key], p.elements[key])


def test_m0_symmetrization():
    s = c4_setup(nogo.counterexample_m0())
    assert s.tilde.dim == 8
    assert povm.validate(s.tilde).passed
    report = nogo.check_definition2(s.group, s.action, s.tilde)
    assert report.passed and report.max_residual <= 1e-9


def test_ideal_with_basis_swap():
    p = povm.ideal_qubit_povm()
    s = nogo.symmetrize(p, nogo.cyclic_group(2), nogo.c2_basis_swap_action())
    assert s.tilde.dim == 4
    report = nogo.check_definition2(s.group, s.action, s.tilde)
    assert report.passed


def test_blocks_are_bit_exact_copies():
    p = fock.build_detector(fock.fock_sector((2,))).povm
    s = c4_setup(p)
    n = s.group.order
    for c in range(4):
        for g in range(n):
            rows = [i * n + g for i in range(p.dim)]
            block = s.tilde.l_element(c)[np.ix_(rows, rows)]
            source = p.l_element(s.action.perms[s.group.inverse(g), c])
            assert np.array_equal(block, source)


#: Order-two S3 action through the sign: odd permutations swap the z and x outcomes.
S3_SIGN_ACTION = nogo.make_action(
    [[0, 1, 2, 3] if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0
     else [1, 0, 3, 2] for p in itertools.permutations(range(3))]
)


def symmetrizations(p):
    """C2, C4 and S3 (where g^-1 != g) symmetrizations of one set."""
    return [
        nogo.symmetrize(p, nogo.cyclic_group(2), nogo.c2_basis_swap_action()),
        c4_setup(p),
        nogo.symmetrize(p, nogo.symmetric_group_s3(), S3_SIGN_ACTION),
    ]


def test_trace_identity_m0():
    for s in symmetrizations(nogo.counterexample_m0()):
        assert nogo.verify_trace_identity(s) == 0.0


def test_trace_identity_two_photon():
    for s in symmetrizations(fock.build_detector(fock.fock_sector((2,))).povm):
        assert nogo.verify_trace_identity(s) == 0.0
        # move one identity-block entry of z0 by delta: the report moves by delta
        delta = 1e-7
        z0 = s.tilde.element("z", 0).copy()
        e = s.group.identity
        z0[e, e] += delta
        moved = s._replace(tilde=povm.make_povm({**s.tilde.elements, "z0": z0}))
        assert nogo.verify_trace_identity(moved) == pytest.approx(delta, abs=1e-15)


def test_symmetrize_at_the_cli_limit():
    # a qubit set over the cyclic group of order 128 is the largest symmetrization the CLI admits
    p = povm.ideal_qubit_povm()
    n = linalg.MAX_INPUT_DIM // p.dim
    four_cycle_powers = nogo.make_action([[(c + g) % 4 for c in range(4)] for g in range(n)])
    s = nogo.symmetrize(p, nogo.cyclic_group(n), four_cycle_powers)
    assert s.tilde.dim == linalg.MAX_INPUT_DIM
    assert nogo.check_definition2(s.group, s.action, s.tilde).max_residual == 0.0
    assert nogo.verify_trace_identity(s) == 0.0
    base = finder.bloch_witness(p.difference("z"), p.difference("x")).value
    tilde = finder.bloch_witness(s.tilde.difference("z"), s.tilde.difference("x")).value
    assert tilde == pytest.approx(base, abs=1e-12)


def lifted_witness_value(s: nogo.SymmetrizedPovm, w: finder.BlochWitness) -> float:
    """The base witness (theta, rho) evaluated on the symmetrized set at rho x |e><e|."""
    lifted = np.zeros((s.tilde.dim, s.tilde.dim), dtype=complex)
    lifted[np.ix_(s.identity_block, s.identity_block)] = w.state
    m_z, m_x = s.tilde.difference("z"), s.tilde.difference("x")
    return np.trace(lifted @ (np.cos(w.theta) * m_z + np.sin(w.theta) * m_x)).real


@pytest.mark.parametrize("name", ["m0", "projective"])
def test_lifted_witness_state_certifies_the_symmetrized_set(name):
    # rho x |e><e| sees only the identity-element block, so the base certificate
    # has the same value on the symmetrized observables: INFEASIBLE carries over
    if name == "m0":
        base = nogo.counterexample_m0()
    else:
        rng = np.random.default_rng(17)
        pair = []
        for _ in "zx":
            vals, vecs = np.linalg.eigh(random_hermitian(4, rng))
            pair.append((vecs * np.sign(vals)) @ linalg.dagger(vecs))
        base = visibility_set(*pair, 1.0)  # witness 1.32
    w = finder.bloch_witness(base.difference("z"), base.difference("x"))
    assert w.value > 1.0 + 1e-3
    assert finder.find_squash(base).verdict == "INFEASIBLE"
    for s in symmetrizations(base):
        assert lifted_witness_value(s, w) == pytest.approx(w.value, abs=1e-12)
        assert finder.find_squash(s.tilde).verdict == "INFEASIBLE"


def test_no_symmetry_of_order_at_most_eight_squashes_m0():
    # every group of order <= 8 with every label action it has: the 282 symmetrizations of
    # M0 keep witness sqrt(2), the lifted base certificate, and an exact Definition 2
    m0 = nogo.counterexample_m0()
    w = finder.find_squash(m0).witness
    cases = 0
    for generators, product in SMALL_GROUPS.values():
        group, gens = generated_group(generators, product)
        for action in label_actions(group, gens):
            s = nogo.symmetrize(m0, group, action)
            report = finder.find_squash(s.tilde)
            assert report.verdict == "INFEASIBLE"
            assert report.witness.value == pytest.approx(np.sqrt(2.0), abs=1e-12)
            assert lifted_witness_value(s, w) > 1.0 + finder.INFEASIBLE_SLACK
            assert nogo.check_definition2(group, action, s.tilde).passed
            cases += 1
    assert cases == 282


def test_pullback_through_trivial_group():
    p = povm.ideal_qubit_povm()
    s = nogo.symmetrize(p, nogo.cyclic_group(1), nogo.make_action([[0, 1, 2, 3]]))
    f = squashmap.squash_from_kraus(2, (np.eye(2, dtype=complex),))
    pulled = nogo.pullback_squash(s, f)
    rng = np.random.default_rng(3)
    for _ in range(5):
        rho = random_density_matrix(2, rng)
        assert linalg.frob(kraus_apply(pulled, rho) - kraus_apply(f, rho)) <= 1e-12


def test_pullback_of_blockwise_squash():
    model = fock.build_detector(fock.fock_sector((2,)))
    base = builder.construct_theorem1(model.povm, model.symmetry)
    s = c4_setup(model.povm)
    tilde_squash = blockwise_tilde_squash(s, base)
    tilde_report = squashmap.verify_squash(tilde_squash, s.tilde, tol=1e-8)
    assert tilde_report.passed
    pulled = nogo.pullback_squash(s, tilde_squash, tol=1e-8)
    report = squashmap.verify_squash(pulled, model.povm, tol=1e-8)
    assert report.passed
    # pulling back cannot worsen the residuals
    assert report.max_residual <= tilde_report.max_residual + 1e-10


def test_pullback_of_found_squash():
    model = fock.build_detector(fock.fock_sector((1,)))
    s = c4_setup(model.povm)
    found = finder.find_squash(s.tilde)
    assert found.verdict == "FEASIBLE"
    pulled = nogo.pullback_squash(s, found.squash, tol=1e-6)
    assert squashmap.verify_squash(pulled, model.povm, tol=1e-6).passed


def test_pullback_rejects_unverified_map():
    s = c4_setup(nogo.counterexample_m0())
    constant = builder.complete_trace_preserving(np.zeros((2, 0, s.tilde.dim)), s.tilde.dim)
    with pytest.raises(TildeNotVerified):
        nogo.pullback_squash(s, constant)


def test_counterexample_observables():
    m0 = nogo.counterexample_m0()
    assert povm.validate(m0).passed
    assert np.allclose(m0.difference("z"), linalg.PAULI_Z)
    assert np.allclose(m0.difference("x"), linalg.PAULI_Z)


def test_attack_on_m0_is_invisible():
    result = nogo.bbm92_attack(nogo.counterexample_m0(), trials=10000, seed=7)
    assert result.qber == 0.0
    assert result.eve_accuracy == 1.0
    assert result.analytic_qber == pytest.approx(0.0, abs=1e-12)
    assert result.analytic_eve_accuracy == pytest.approx(1.0, abs=1e-12)


def test_attack_on_ideal_set():
    result = nogo.bbm92_attack(povm.ideal_qubit_povm(), trials=2000, seed=11)
    assert result.qber == 0.0
    assert result.eve_accuracy == 1.0


def test_attack_zero_trials_degenerate():
    result = nogo.bbm92_attack(nogo.counterexample_m0(), trials=0, seed=0)
    assert result.qber == 0.0
    assert result.eve_accuracy == 1.0
    assert result.degenerate


def test_attack_requires_qubit_povm():
    p = fock.build_detector(fock.fock_sector((2,))).povm
    with pytest.raises(SquashkitError, match="^attack needs a qubit POVM, got dim 3$"):
        nogo.bbm92_attack(p, trials=10, seed=0)


@pytest.mark.parametrize("trials, seed", [(-5, 0), (10, -1)])
def test_attack_refuses_negative_trials_and_seed(trials, seed):
    message = f"^trials and seed must be at least 0, got {trials} and {seed}$"
    with pytest.raises(SquashkitError, match=message):
        nogo.bbm92_attack(povm.ideal_qubit_povm(), trials=trials, seed=seed)


def noisy_qubit_set():
    return povm.make_povm(
        {
            "z0": np.diag([0.9, 0.2]).astype(complex),
            "z1": np.diag([0.1, 0.8]).astype(complex),
            "x0": np.eye(2, dtype=complex) / 2,
            "x1": np.eye(2, dtype=complex) / 2,
        }
    )


def test_attack_is_seed_reproducible():
    noisy = noisy_qubit_set()
    first = nogo.bbm92_attack(noisy, trials=5000, seed=42)
    second = nogo.bbm92_attack(noisy, trials=5000, seed=42)
    assert first == second
    assert first.qber == 0.1438  # 719 errors in 5000 rounds, drawn as two binomial counts


@pytest.mark.parametrize("trials", [1000, 16385, 100000, 10**8])  # 10**8 is cli.MAX_TRIALS
def test_attack_samples_match_analytic_qber(trials):
    result = nogo.bbm92_attack(noisy_qubit_set(), trials=trials, seed=5)
    q = result.analytic_qber
    assert q == pytest.approx(0.15, abs=1e-12)
    assert abs(result.qber - q) <= 5.0 * np.sqrt(q * (1.0 - q) / trials)
    assert result.eve_accuracy == 1.0  # Alice's ideal z measurement always returns Eve's bit


def test_symmetrize_takes_the_base_as_given_and_carries_its_residual():
    elements = dict(povm.ideal_qubit_povm().elements)
    elements["z0"] = (1 + 5e-9) * elements["z0"]  # completeness off by 5e-9
    near = povm.make_povm(elements)
    assert not povm.validate(near).passed  # the reader of a set validates it, not symmetrize
    s = c4_setup(near)
    # the symmetrized residual is sqrt(2) times the base's: two blocks of each basis carry it
    residuals = povm.validate(s.tilde, 1e-8).residuals
    assert max(residuals["sum.z"], residuals["sum.x"]) == pytest.approx(
        np.sqrt(2.0) * 5e-9, rel=1e-6
    )


def test_symmetrize_refuses_an_action_that_splits_a_basis_pair():
    split = nogo.make_action([[0, 1, 2, 3], [0, 2, 1, 3]])  # a homomorphism, swapping x0 and z1
    with pytest.raises(SquashkitError, match="must send each basis pair to a basis pair"):
        nogo.symmetrize(povm.ideal_qubit_povm(), nogo.cyclic_group(2), split)


def test_symmetrize_reports_failed_symmetry_check(monkeypatch):
    monkeypatch.setattr(
        nogo,
        "check_definition2",
        lambda *args, **kwargs: SimpleNamespace(passed=False, max_residual=1.0),
    )
    with pytest.raises(SelfCheckFailed):
        c4_setup(nogo.counterexample_m0())


def test_symmetrize_then_find_then_pull_back():
    # the reduction: a squash for the symmetrized set yields one for the base
    model = fock.build_detector(fock.fock_sector((1,)))
    s = nogo.symmetrize(model.povm, nogo.cyclic_group(2), nogo.c2_basis_swap_action())
    found = finder.find_squash(s.tilde)
    if found.verdict == "FEASIBLE":
        pulled = nogo.pullback_squash(s, found.squash, tol=1e-6)
        assert squashmap.verify_squash(pulled, model.povm, tol=1e-6).passed
    else:
        assert found.verdict == "UNDECIDED"


def test_attack_json_shape():
    blob = nogo.attack_to_json(nogo.bbm92_attack(nogo.counterexample_m0(), 100, seed=1))
    assert blob["qber"] == 0.0
    assert blob["analytic"] == {"qber": 0.0, "eve_accuracy": 1.0}
    assert blob["degenerate"] is False


@settings(max_examples=15, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    seed=st.integers(min_value=0, max_value=10**6),
    value=st.sampled_from([0.5, 0.9, 0.98, 1.02, 1.1, 1.3]),
)
def test_symmetrization_keeps_witness_and_verdict(d, seed, value):
    # the label actions move (M_z, M_x) by swaps and sign flips, which the
    # numerical radius does not see, so symmetry alone never decides a squash
    rng = np.random.default_rng(seed)
    m_z, m_x = random_hermitian(d, rng), random_hermitian(d, rng)
    scale = value / finder.bloch_witness(m_z, m_x).value
    eye = np.eye(d)
    base = povm.make_povm({
        f"{r}{b}": (eye + (1 - 2 * b) * scale * m) / 2
        for r, m in (("z", m_z), ("x", m_x)) for b in (0, 1)
    })
    assume(povm.validate(base).passed)
    witness = finder.bloch_witness(base.difference("z"), base.difference("x")).value
    assert witness == pytest.approx(value, abs=1e-9)
    verdict = finder.find_squash(base).verdict
    assert verdict == ("FEASIBLE" if value < 1.0 else "INFEASIBLE")
    for group, action in (
        (nogo.cyclic_group(2), nogo.c2_basis_swap_action()),
        (nogo.cyclic_group(4), nogo.canonical_c4_action()),
    ):
        tilde = nogo.symmetrize(base, group, action).tilde
        mz, mx = tilde.difference("z"), tilde.difference("x")
        assert finder.bloch_witness(mz, mx).value == pytest.approx(witness, abs=1e-9)
        assert finder.find_squash(tilde).verdict == verdict


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
    projective=st.booleans(),
    twin=st.booleans(),
)
def test_witness_of_any_valid_set_is_at_most_sqrt2(d, seed, projective, twin):
    # -1 <= M_r <= 1 on every valid set, so f(t) <= |cos t| + |sin t| <= sqrt(2);
    # twin sets (M_x = M_z, as in M0) attain the bound
    rng = np.random.default_rng(seed)
    pair = []
    for _ in "zx":
        vals, vecs = np.linalg.eigh(random_hermitian(d, rng))
        vals = np.sign(vals) if projective else vals / np.abs(vals).max()
        pair.append((vecs * vals) @ linalg.dagger(vecs))
    if twin:
        pair[1] = pair[0]
    p = visibility_set(*pair, 1.0)
    assert povm.validate(p).passed
    witness = finder.bloch_witness(p.difference("z"), p.difference("x")).value
    assert witness <= np.sqrt(2.0) + 1e-12
    if twin:
        assert witness == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_m0_attains_sqrt2_and_is_squashable_at_visibility_one_over_sqrt2():
    m0 = nogo.counterexample_m0()
    m_z, m_x = m0.difference("z"), m0.difference("x")
    assert finder.bloch_witness(m_z, m_x).value == pytest.approx(np.sqrt(2.0), abs=1e-15)
    p = visibility_set(m_z, m_x, 1.0 / np.sqrt(2.0))
    report = finder.find_squash(p)
    assert report.verdict == "FEASIBLE"
    assert squashmap.verify_squash(report.squash, p).passed
