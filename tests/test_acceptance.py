"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from squashkit import builder, finder, fock, linalg, nogo, squashmap

from helpers import (
    WIDE_SECTORS,
    acceptance_sectors,
    affine_residual,
    column_stacked_choi,
    random_hermitian,
)
from test_nogo import blockwise_tilde_squash


def report(number: int, description: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_1_constructive_sweep():
    started = time.monotonic()
    worst = 0.0
    for sector in acceptance_sectors():
        model = fock.build_detector(sector)
        squash = builder.construct_theorem1(model.povm, model.symmetry)
        verdict = squashmap.verify_squash(squash, model.povm, tol=1e-9)
        worst = max(worst, verdict.max_residual)
    elapsed = time.monotonic() - started
    report(
        1,
        f"analytic squash on all {len(acceptance_sectors())} sectors, "
        f"worst residual {worst:.2e} <= 1e-9, {elapsed:.1f}s < 60s",
        worst <= 1e-9 and elapsed < 60.0,
    )


def test_criterion_2_decomposition_internals():
    worst_overlap = 0.0
    worst_circle = 0.0
    worst_identity = 0.0
    for sector in acceptance_sectors():
        model = fock.build_detector(sector)
        sym = model.symmetry
        lam, v = builder.extract_rank2(model.povm.difference("z"), sym)
        worst_overlap = max(worst_overlap, abs(np.vdot(v, sym.u @ sym.u @ v)))
        dec = builder.mu_decompose(v, sym, lam)
        worst_circle = max(
            worst_circle,
            abs(dec.mu[0] ** 2 + dec.mu[2] ** 2 - 0.5),
            abs(dec.mu[1] ** 2 + dec.mu[3] ** 2 - 0.5),
        )
        adjacent = 4 * lam * sum(
            dec.mu[c] * dec.mu[(c + 1) % 4]
            * np.outer(dec.v_c[c], dec.v_c[(c + 1) % 4].conj())
            for c in range(4)
        )
        powers = [np.linalg.matrix_power(sym.u, c) for c in range(4)]
        orbit = lam * sum(
            (1j**c) * powers[c] @ np.outer(v, v.conj()) @ linalg.dagger(powers[c])
            for c in range(4)
        )
        combined = model.povm.difference("z") + 1j * model.povm.difference("x")
        worst_identity = max(
            worst_identity,
            linalg.frob(adjacent - orbit),
            linalg.frob(orbit - combined),
        )
    report(
        2,
        f"orthogonality {worst_overlap:.2e}, weight circles {worst_circle:.2e}, "
        f"combination identities {worst_identity:.2e}, all <= 1e-9",
        max(worst_overlap, worst_circle, worst_identity) <= 1e-9,
    )


def test_criterion_3_symmetry_sweep():
    worst = 0.0
    worst_parity = 0.0
    for sector in acceptance_sectors():
        model = fock.build_detector(sector)
        if sum(sector.photons) % 2 == 1:
            u4 = np.linalg.matrix_power(model.symmetry.u, 4)
            worst_parity = max(worst_parity, linalg.frob(u4 + np.eye(sector.dim)))
        verdict = builder.check_definition1(model.symmetry, model.povm, tol=1e-9)
        worst = max(worst, verdict.max_residual)
    report(
        3,
        f"four-cycle relations {worst:.2e} <= 1e-9 on all sectors, "
        f"odd-sector fourth power within {worst_parity:.2e} <= 1e-8 of -identity",
        worst <= 1e-9 and worst_parity <= 1e-8,
    )


def test_criterion_4_counterexample():
    m0 = nogo.counterexample_m0()
    witness = finder.bloch_witness(m0.difference("z"), m0.difference("x"))
    verdict = finder.find_squash(m0)
    ok = (
        abs(witness.value - np.sqrt(2.0)) <= 1e-9
        and abs(witness.theta - np.pi / 4) <= 1e-3
        and verdict.verdict == "INFEASIBLE"
    )
    report(
        4,
        f"witness value {witness.value:.10f} (sqrt2 within 1e-9) at angle "
        f"{witness.theta:.6f} (pi/4 within 1e-3), finder says {verdict.verdict}",
        ok,
    )


def test_criterion_5_cross_validation():
    ok = True
    details = []
    for photons in ((1,), (2,), *WIDE_SECTORS):
        model = fock.build_detector(fock.fock_sector(photons))
        found = finder.find_squash(model.povm)
        verdict = squashmap.verify_squash(found.squash, model.povm, tol=1e-6)
        label = ",".join(map(str, photons))
        details.append(f"n={label}: {found.verdict} in {found.iterations} steps")
        ok = ok and found.verdict == "FEASIBLE" and verdict.passed
    worst_affine = 0.0
    for sector in acceptance_sectors():
        model = fock.build_detector(sector)
        squash = builder.construct_theorem1(model.povm, model.symmetry)
        choi = column_stacked_choi(squash)
        worst_affine = max(worst_affine, affine_residual(choi, model.povm))
    ok = ok and worst_affine <= 1e-8
    report(
        5,
        "; ".join(details)
        + f"; constructed-map Choi constraint residual {worst_affine:.2e} <= 1e-8",
        ok,
    )


def test_criterion_6_symmetrization_reduction():
    model = fock.build_detector(fock.fock_sector((2,)))
    s = nogo.symmetrize(model.povm, nogo.cyclic_group(4), nogo.canonical_c4_action())
    sym_report = nogo.check_definition2(s.group, s.action, s.tilde)  # at linalg.TOL = 1e-9
    embedding = nogo.verify_trace_identity(s)
    base_squash = builder.construct_theorem1(model.povm, model.symmetry)
    tilde_squash = blockwise_tilde_squash(s, base_squash)
    pulled = nogo.pullback_squash(s, tilde_squash, tol=1e-8)
    pulled_report = squashmap.verify_squash(pulled, model.povm, tol=1e-8)
    ok = (
        sym_report.passed
        and embedding <= 1e-10
        and pulled_report.passed
    )
    report(
        6,
        f"group symmetry {sym_report.max_residual:.2e} <= 1e-9, embedding "
        f"deviation {embedding:.2e} <= 1e-10, "
        f"pulled-back squash residual {pulled_report.max_residual:.2e} <= 1e-8",
        ok,
    )


def test_criterion_7_attack():
    result = nogo.bbm92_attack(nogo.counterexample_m0(), trials=10**4, seed=7)
    ok = result.qber == 0.0 and result.eve_accuracy == 1.0
    report(
        7,
        f"10^4 seeded rounds: error rate {result.qber}, eavesdropper accuracy "
        f"{result.eve_accuracy} (analytic {result.analytic_qber}, "
        f"{result.analytic_eve_accuracy})",
        ok,
    )


def test_criterion_8_numerics():
    rng = np.random.default_rng(2024)
    worst_eig = 0.0
    for k in range(500):
        dim = 2 + k % 31
        a = random_hermitian(dim, rng)
        values, vectors = np.linalg.eigh(a)
        rebuilt = (vectors * values) @ linalg.dagger(vectors)
        worst_eig = max(
            worst_eig, linalg.frob(a - rebuilt) / max(1.0, linalg.frob(a))
        )
    worst_tensor = 0.0
    for _ in range(100):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        d = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        prod = np.kron(a, b) @ np.kron(c, d)
        worst_tensor = max(
            worst_tensor,
            linalg.frob(prod - np.kron(a @ c, b @ d))
            / max(1.0, linalg.frob(prod)),
        )
    report(
        8,
        f"eigensolver reconstruction {worst_eig:.2e} <= 1e-11 over 500 matrices; "
        f"tensor identities {worst_tensor:.2e} <= 1e-12 over 100 instances",
        worst_eig <= 1e-11 and worst_tensor <= 1e-12,
    )
