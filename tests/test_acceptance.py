"""Acceptance battery: one test per advertised guarantee, each printing a
single PASS/FAIL line (run with `pytest tests/test_acceptance.py -s`)."""

import json
import time

import numpy as np
from conftest import commutant_nullspace

from hardyops import (
    BoundaryFunction,
    DEFAULT_GRID,
    OperatorMatrix,
    annihilator_defect,
    bezout_solve,
    blaschke_make,
    commutation_residual,
    compressed_matrix,
    compressed_shift,
    corona_delta,
    corona_roundtrip_residual,
    decompose,
    duality_gram,
    adjoint_defect,
    hankel_matrix,
    hankel_structure_check,
    induced_hankel_matrix,
    integral_mean,
    intertwine_defect,
    min_abs_at_zeros,
    monomial,
    project,
    symbol_recover,
    tm_basis,
    toeplitz_apply,
)
from hardyops.cli import main

P = np.polynomial.polynomial

INVERTIBILITY_TOL = 1e-10


def _verdict(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _random_zeros(rng, degree, radius=0.9, min_sep=0.0):
    zeros = []
    while len(zeros) < degree:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) <= radius and all(abs(z - w) >= min_sep for w in zeros):
            zeros.append(z)
    return zeros


def _random_poly(rng, degree):
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    while abs(coeffs[-1]) < 1e-3:
        coeffs[-1] = complex(rng.standard_normal(), rng.standard_normal())
    return coeffs


def _random_analytic(rng, degree):
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return BoundaryFunction.from_poly(DEFAULT_GRID, coeffs)


def test_criterion_1_projection_suite():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        inner = blaschke_make(_random_zeros(rng, int(rng.integers(1, 6))))
        ib = inner.boundary(DEFAULT_GRID)
        f = _random_analytic(rng, int(rng.integers(0, 41)))
        h = _random_analytic(rng, int(rng.integers(0, 41)))
        scale = max(1.0, f.l2_norm(), h.l2_norm())

        pf = project(inner, f)
        worst = max(worst, (project(inner, pf) - pf).l2_norm() / scale)
        worst = max(worst, project(inner, ib * h).l2_norm() / scale)
        for e in tm_basis(inner, 2.0).functions:
            worst = max(worst, (project(inner, e) - e).l2_norm())
        outer_part, model_part = decompose(inner, f)
        worst = max(worst, (outer_part + model_part - f).l2_norm() / scale)
        worst = max(worst, annihilator_defect(inner, f, h) / scale)
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        worst < 1e-8 and elapsed < 30.0,
        f"50 projection instances, max defect {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_2_invertibility_equivalence():
    rng = np.random.default_rng(202)

    agreements = 0
    for i in range(200):
        degree = int(rng.integers(1, 6))
        inner = blaschke_make(_random_zeros(rng, degree, min_sep=0.1))
        if i % 4 == 3:
            quotient = _random_poly(rng, int(rng.integers(0, 4)))
            a = P.polymul([-inner.zeros[0], 1.0], quotient)
        else:
            while True:
                a = _random_poly(rng, int(rng.integers(1, 6)))
                if min_abs_at_zeros(a, inner) >= 1e-4:
                    break
        delta = corona_delta(a, inner)
        bound = min_abs_at_zeros(a, inner)
        basis = tm_basis(inner, 2.0)
        a_bar = BoundaryFunction.from_poly(DEFAULT_GRID, a).conj()
        sigma = compressed_matrix(inner, a_bar, basis).sigma_min()
        verdicts = (delta > 0.0, sigma > INVERTIBILITY_TOL, bound > INVERTIBILITY_TOL)
        agreements += verdicts[0] == verdicts[1] == verdicts[2]

    inverse_max = 0.0
    made = 0
    while made < 20:
        inner = blaschke_make(_random_zeros(rng, int(rng.integers(1, 5)), min_sep=0.1))
        a = _random_poly(rng, int(rng.integers(1, 5)))
        if min_abs_at_zeros(a, inner) < 0.05:
            continue
        cert = bezout_solve(a, inner)
        for p in (1.5, 2.0, 4.0):
            for e in tm_basis(inner, p).functions:
                inverse_max = max(inverse_max, corona_roundtrip_residual(cert, e, p))
        made += 1

    cert = bezout_solve([-0.5, 1.0], blaschke_make([0.0]))
    disc = blaschke_make([0.0])
    a_bar = BoundaryFunction.from_poly(DEFAULT_GRID, [-0.5, 1.0]).conj()
    sigma = compressed_matrix(disc, a_bar, tm_basis(disc, 2.0)).sigma_min()
    anchor = max(
        abs(cert.delta - 0.5),
        abs(cert.u.num[0] + 2.0),
        abs(cert.v.num[0] - 2.0),
        abs(sigma - 0.5),
    )
    _verdict(
        2,
        agreements == 200 and inverse_max < 1e-7 and anchor < 1e-9,
        f"verdict agreement {agreements}/200, max inverse residual "
        f"{inverse_max:.2e}, anchor error {anchor:.2e}",
    )


def test_criterion_3_degeneracy_scaling():
    inner = blaschke_make([0.3, -0.5])
    basis = tm_basis(inner, 2.0)
    ratios = {}
    for eps in (1e-1, 1e-2, 1e-3):
        a_bar = BoundaryFunction.from_poly(DEFAULT_GRID, [-(0.3 + eps), 1.0]).conj()
        ratios[eps] = compressed_matrix(inner, a_bar, basis).sigma_min() / eps
    reference = ratios[1e-1]
    in_band = all(0.5 <= r / reference <= 2.0 for r in ratios.values())
    a_bar = BoundaryFunction.from_poly(DEFAULT_GRID, [-0.3, 1.0]).conj()
    sigma_zero = compressed_matrix(inner, a_bar, basis).sigma_min()
    _verdict(
        3,
        in_band and abs(reference - 0.7356) < 1e-3 and sigma_zero < 1e-10,
        f"sigma_min/eps = {ratios[1e-1]:.4f}/{ratios[1e-2]:.4f}/{ratios[1e-3]:.4f}, "
        f"sigma at eps=0 {sigma_zero:.2e}",
    )


def test_criterion_4_hankel_structure():
    rng = np.random.default_rng(404)
    n = DEFAULT_GRID.n
    worst = 0.0
    for _ in range(30):
        band = int(rng.integers(1, 9))
        coeffs = np.zeros(2 * n + 1, dtype=complex)
        width = 2 * band + 1
        coeffs[n - band : n + band + 1] = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        psi = BoundaryFunction.from_coeffs(DEFAULT_GRID, coeffs)
        H = hankel_matrix(psi, 32, 32)
        structure = hankel_structure_check(H)
        worst = max(worst, structure.defect, intertwine_defect(H))
        for m in range(1, 65):
            worst = max(worst, abs(structure.antidiagonals[m - 1] - psi.coeff(-m)))

    broken = H.entries.copy()
    broken[10, 10] += 2.0
    broken_matrix = OperatorMatrix(broken, H.domain, H.codomain)
    violation = min(
        hankel_structure_check(broken_matrix).defect, intertwine_defect(broken_matrix)
    )
    _verdict(
        4,
        worst < 1e-10 and violation >= 1.0,
        f"30 symbols, max structure defect {worst:.2e}, "
        f"broken-matrix violation {violation:.2f}",
    )


def test_criterion_5_commutant_and_recovery():
    rng = np.random.default_rng(505)
    ok = True
    recovery_max = 0.0
    roundtrip_max = 0.0
    commutation_max = 0.0
    for _ in range(30):
        degree = int(rng.integers(1, 6))
        inner = blaschke_make(_random_zeros(rng, degree, min_sep=0.1))
        basis = tm_basis(inner, 2.0)
        S = compressed_shift(inner, basis)

        mats, _ = commutant_nullspace(S.entries)
        ok = ok and len(mats) == degree
        for X in mats:
            phi, residual, _ = symbol_recover(inner, X)
            recovery_max = max(recovery_max, residual)
            ok = ok and phi.shape == (degree,)

        phi0 = _random_poly(rng, degree - 1)
        M = compressed_matrix(inner, BoundaryFunction.from_poly(DEFAULT_GRID, phi0), basis)
        recovered, _, _ = symbol_recover(inner, M)
        roundtrip_max = max(roundtrip_max, float(np.abs(recovered - phi0).max()))
        commutation_max = max(commutation_max, commutation_residual(M, S))
    _verdict(
        5,
        ok
        and recovery_max < 1e-7
        and roundtrip_max < 1e-8
        and commutation_max < 1e-9,
        f"30 inners: dimension = degree, recovery {recovery_max:.2e}, "
        f"roundtrip {roundtrip_max:.2e}, commutation {commutation_max:.2e}",
    )


def test_criterion_6_commutation_classification():
    rng = np.random.default_rng(606)
    commuting_max = 0.0
    perturbed_min = np.inf
    for _ in range(20):
        degree = int(rng.integers(2, 6))
        inner = blaschke_make(_random_zeros(rng, degree, min_sep=0.1))
        basis = tm_basis(inner, 2.0)
        phi = _random_poly(rng, degree - 1)
        T = compressed_matrix(inner, BoundaryFunction.from_poly(DEFAULT_GRID, phi), basis)
        defect = hankel_structure_check(induced_hankel_matrix(inner, T, basis)).defect
        commuting_max = max(commuting_max, defect)

        noise = rng.standard_normal((degree, degree)) + 1j * rng.standard_normal(
            (degree, degree)
        )
        noise *= 1e-3 / np.linalg.norm(noise)
        perturbed = OperatorMatrix(T.entries + noise, basis, basis)
        defect = hankel_structure_check(
            induced_hankel_matrix(inner, perturbed, basis)
        ).defect
        perturbed_min = min(perturbed_min, defect)
    _verdict(
        6,
        commuting_max < 1e-8 and perturbed_min > 1e-4,
        f"20+20 matrices, commuting defect <= {commuting_max:.2e}, "
        f"perturbed defect >= {perturbed_min:.2e}, zero misclassifications",
    )


def test_criterion_7_adjoint_and_duality():
    rng = np.random.default_rng(707)
    exponents = (1.5, 2.0, 4.0)
    defect_max = 0.0
    tm_cond_max = 0.0
    kernel_cond_max = 0.0
    for i in range(20):
        degree = int(rng.integers(1, 6))
        inner = blaschke_make(_random_zeros(rng, degree, min_sep=0.1))
        phi = _random_poly(rng, int(rng.integers(1, 6)))
        p = exponents[i % 3]
        defect_max = max(defect_max, adjoint_defect(inner, phi))
        sv = duality_gram(inner, p).singular_values()
        tm_cond_max = max(tm_cond_max, float(sv[0] / sv[-1]))
        sv = duality_gram(inner, p, kind="cauchy_kernels").singular_values()
        kernel_cond_max = max(kernel_cond_max, float(sv[0] / sv[-1]))
    _verdict(
        7,
        defect_max < 1e-8 and np.isfinite(tm_cond_max) and np.isfinite(kernel_cond_max),
        f"20 triples, adjoint defect {defect_max:.2e}, Gram condition "
        f"numbers <= {tm_cond_max:.3g} (orthonormal) / {kernel_cond_max:.3g} (kernel)",
    )


def test_criterion_8_kernel_growth():
    radii = (0.5, 0.9, 0.99, 0.999)
    identity_err = 0.0
    products = []
    for r in radii:
        z = r * np.exp(0.3j)
        mean2 = integral_mean(z, 2.0)
        identity_err = max(
            identity_err, abs(mean2 * np.sqrt(1.0 - r * r) - np.sqrt(2.0 * np.pi))
        )
        mean4 = integral_mean(z, 4.0)
        products.append(mean4 * (1.0 - r * r) ** 0.75)
    in_band = all(1.67 <= v <= 1.89 for v in products)
    monotone = all(a < b for a, b in zip(products, products[1:]))
    _verdict(
        8,
        identity_err < 1e-6 and in_band and monotone,
        f"p=2 identity error {identity_err:.2e}, p=4 normalized products "
        + "/".join(f"{v:.4f}" for v in products),
    )


def test_criterion_9_report_determinism(tmp_path):
    config = {
        "inner": {"zeros": [0.3, -0.5, [0.1, 0.6]]},
        "symbol": [[-0.4, 0.1], 0.0, 1.0],
        "p": 2.0,
        "seed": 11,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(["report", "--config", str(path), "--out", str(out1)])
    code2 = main(["report", "--config", str(path), "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    _verdict(
        9,
        code1 == 0 and code2 == 0 and identical,
        f"two report runs, byte-identical = {identical}",
    )
