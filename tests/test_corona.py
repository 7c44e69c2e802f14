"""Corona pairs: the infimum delta, Bezout certificates, explicit inverses,
and near-degenerate probes."""

import numpy as np
import pytest
from conftest import random_blaschke, random_poly, random_zeros

from hardyops import (
    BoundaryFunction,
    CommonZeroError,
    DEFAULT_GRID,
    IllConditionedError,
    NotInModelSpaceError,
    bezout_solve,
    blaschke_eval,
    blaschke_make,
    compressed_matrix,
    corona_delta,
    corona_inverse_apply,
    corona_roundtrip_residual,
    factor_difference,
    grid_for_radius,
    hp_norm,
    min_abs_at_zeros,
    monomial,
    near_degenerate_probe,
    normalized_kernel,
    tm_basis,
    tm_compression,
    tm_eval,
    toeplitz_apply,
)
from hardyops import corona
from hardyops.blaschke import as_poly
from hardyops.model_space import _project_samples

P = np.polynomial.polynomial


def _reference_corona_delta(symbol_coeffs, inner):
    """Independent route for delta, with no prefilter and no broadcast:
    |a| + |I| on the whole 64x256 polar grid plus seeds, then 48 zoom
    steps of 9x9 points shrinking by 0.6, each evaluated factor by factor
    through blaschke_eval."""

    def _objective(poly, inner, z):
        return np.abs(P.polyval(z, poly)) + np.abs(blaschke_eval(inner, z))

    poly = as_poly(symbol_coeffs)
    if len(poly) == 1 and poly[0] == 0.0:
        raise ValueError("symbol polynomial is identically zero")
    if min_abs_at_zeros(poly, inner) <= corona.ZERO_TOL:
        return 0.0

    radii = np.linspace(0.0, 1.0, 64)
    angles = 2.0 * np.pi * np.arange(256) / 256
    z = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    seeds = list(inner.zeros)
    if len(poly) > 1:
        for r in P.polyroots(poly):
            seeds.append(r if abs(r) <= 1.0 else r / abs(r))
    if seeds:
        z = np.concatenate([z, np.array(seeds, dtype=complex)])
    vals = _objective(poly, inner, z)
    best_idx = int(np.argmin(vals))
    center = complex(z[best_idx])
    best = float(vals[best_idx])

    h = 0.06
    offsets = np.linspace(-1.0, 1.0, 9)
    box = (offsets[:, None] + 1j * offsets[None, :]).ravel()
    for _ in range(48):
        local = center + h * box
        r = np.abs(local)
        local = np.where(r > 1.0, local / np.maximum(r, 1e-300), local)
        lv = _objective(poly, inner, local)
        i = int(np.argmin(lv))
        if lv[i] < best:
            best = float(lv[i])
            center = complex(local[i])
        h *= 0.6
    return best


def _delta_pairs(rng, count):
    """(symbol, inner) pairs over the shapes the search has to handle:
    inner degree 0 to 8, repeated zeros, zeros on the circle of radius
    0.985, and symbols that are constant, generic, or have every root
    outside the disc or on the circle."""
    pairs = []
    for k in range(count):
        degree = int(rng.integers(0, 9))
        zeros = list(random_zeros(rng, degree, radius=0.9))
        if degree and k % 3 == 0:
            zeros[0] = 0.985 * np.exp(2j * np.pi * rng.uniform())
        if degree > 1 and k % 4 == 1:
            zeros[-1] = zeros[0]
        inner = blaschke_make(zeros, np.exp(2j * np.pi * rng.uniform()))
        kind = k % 5
        if kind == 0:
            a = random_poly(rng, 0)
        elif kind in (1, 2):
            a = random_poly(rng, int(rng.integers(1, 5)))
        else:
            d = int(rng.integers(1, 4))
            moduli = 1.0 if kind == 3 else rng.uniform(1.05, 2.0, d)
            roots = moduli * np.exp(2j * np.pi * rng.uniform(size=d))
            a = random_poly(rng, 0)[0] * P.polyfromroots(roots)
        pairs.append((a, inner))
    return pairs


def test_delta_matches_reference_route():
    rng = np.random.default_rng(76)
    pairs = _delta_pairs(rng, 1000)
    assert {inner.degree for _, inner in pairs} == set(range(9))
    for a, inner in pairs:
        assert corona_delta(a, inner) == pytest.approx(
            _reference_corona_delta(a, inner), rel=0.0, abs=1e-12
        )


def test_delta_within_tolerance_of_dense_sample():
    # delta is a value of the objective, so it is an upper estimate of the
    # infimum; DELTA_TOL bounds how far above the dense sample it may sit
    rng = np.random.default_rng(77)
    for a, inner in _delta_pairs(rng, 40):
        radius = np.sqrt(rng.uniform(0.0, 1.0, 50_000))
        radius[-5_000:] = 1.0
        z = radius * np.exp(2j * np.pi * rng.uniform(size=50_000))
        f = np.abs(P.polyval(z, a)) + np.abs(blaschke_eval(inner, z))
        assert corona_delta(a, inner) <= f.min() + corona.DELTA_TOL


def test_delta_constant_inner_anchors():
    # |I| is identically 1, so delta is 1 + inf |a|
    assert corona_delta([1.0], blaschke_make([])) == 2.0
    assert corona_delta([0.0, 1.0], blaschke_make([])) == 1.0


def test_delta_evaluates_inner_once_per_call(monkeypatch):
    # one blaschke_eval, on the prefiltered scan; the refinement evaluates
    # I in broadcasts over the factors, not factor by factor
    sizes = []
    real = corona.blaschke_eval

    def counted(inner, z):
        sizes.append(np.size(z))
        return real(inner, z)

    monkeypatch.setattr(corona, "blaschke_eval", counted)
    rng = np.random.default_rng(78)
    for degree in (0, 1, 6, 40):
        inner = blaschke_make(random_zeros(rng, degree, radius=0.95))
        for a in ([2.0], random_poly(rng, 2)):
            sizes.clear()
            corona_delta(a, inner)
            assert len(sizes) <= 1
            if degree and len(a) > 1:
                assert sizes[0] < corona._SCAN_RADII.size * corona._SCAN_CIRCLE.size


def test_non_finite_symbol_rejected():
    inner = blaschke_make([0.0, 0.5])
    for bad in ([np.nan, 1.0], [0.5, np.inf], [complex(0.0, np.nan)]):
        with pytest.raises(ValueError, match="finite"):
            corona_delta(bad, inner)
        with pytest.raises(ValueError, match="finite"):
            min_abs_at_zeros(bad, inner)
        with pytest.raises(ValueError, match="finite"):
            bezout_solve(bad, inner)
        with pytest.raises(ValueError, match="finite"):
            bezout_solve(bad, inner, delta=0.5)
        with pytest.raises(ValueError, match="finite"):
            near_degenerate_probe(inner, bad, [0.2], 2.0)
    with pytest.raises(ValueError, match="finite"):
        min_abs_at_zeros([np.nan, 1.0], blaschke_make([]))


def test_bezout_nan_residual_fails_gate(monkeypatch):
    # a NaN boundary residual must fail the gate, not pass as "not above"
    monkeypatch.setattr(
        corona, "blaschke_eval", lambda inner, z: np.full(np.shape(z), np.nan + 0j)
    )
    with pytest.raises(IllConditionedError):
        bezout_solve([-0.7, 1.0], blaschke_make([0.3, -0.5]), delta=0.5)


def test_delta_anchors():
    # |z - 0.5| + |z| is minimized along [0, 0.5] where it is constant 0.5
    assert corona_delta([-0.5, 1.0], blaschke_make([0.0])) == pytest.approx(
        0.5, abs=1e-6
    )
    assert corona_delta([-0.3, 1.0], blaschke_make([0.3])) == 0.0
    assert corona_delta([1.0], blaschke_make([0.0])) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        corona_delta([0.0], blaschke_make([0.3]))


def test_delta_constant_symbol():
    # |I| vanishes at its zeros, so the infimum is exactly the constant
    rng = np.random.default_rng(70)
    for _ in range(5):
        inner = random_blaschke(rng, max_degree=4)
        c = complex(rng.uniform(0.2, 2.0) * np.exp(2j * np.pi * rng.uniform()))
        assert corona_delta([c], inner) == pytest.approx(abs(c), abs=1e-6)


def test_delta_bounded_by_symbol_at_zeros():
    rng = np.random.default_rng(71)
    for _ in range(10):
        inner = random_blaschke(rng, max_degree=4)
        a = random_poly(rng, int(rng.integers(1, 5)))
        delta = corona_delta(a, inner)
        assert delta <= min_abs_at_zeros(a, inner) + 1e-9


def test_min_abs_at_zeros():
    inner = blaschke_make([0.3, -0.5])
    assert min_abs_at_zeros([-0.3, 1.0], inner) == pytest.approx(0.0, abs=1e-14)
    assert min_abs_at_zeros([1.0], blaschke_make([])) == float("inf")


def test_bezout_anchor():
    cert = bezout_solve([-0.5, 1.0], blaschke_make([0.0]))
    assert cert.delta == pytest.approx(0.5, abs=1e-6)
    assert cert.u.is_polynomial
    np.testing.assert_allclose(cert.u.num, [-2.0], atol=1e-9)
    np.testing.assert_allclose(cert.v.num, [2.0], atol=1e-9)
    assert cert.residual < 1e-12
    assert cert.consistent


def test_bezout_trivial_symbol():
    rng = np.random.default_rng(72)
    inner = random_blaschke(rng, max_degree=4)
    cert = bezout_solve([1.0], inner)
    np.testing.assert_allclose(cert.u.num, [1.0], atol=1e-12)
    np.testing.assert_allclose(cert.v.num, [0.0], atol=1e-12)


def test_bezout_common_zero():
    with pytest.raises(CommonZeroError):
        bezout_solve([-0.3, 1.0], blaschke_make([0.3]))


def test_bezout_identity_random():
    rng = np.random.default_rng(73)
    pts = np.exp(2j * np.pi * np.arange(512) / 512)
    made = 0
    while made < 12:
        inner = random_blaschke(rng, max_degree=5, radius=0.8)
        a = random_poly(rng, int(rng.integers(1, 6)))
        if min_abs_at_zeros(a, inner) < 0.05:
            continue
        cert = bezout_solve(a, inner)
        lhs = (
            P.polyval(pts, np.array(cert.symbol)) * cert.u.evaluate(pts)
            + blaschke_eval(inner, pts) * cert.v.evaluate(pts)
        )
        np.testing.assert_allclose(lhs, 1.0, atol=1e-9)
        assert cert.residual < 1e-9
        assert cert.sup_u > 0.0 and cert.sup_v >= 0.0
        made += 1


def test_bezout_solutions_analytic_in_disc():
    # u picks up the reflected denominator; all its poles stay outside
    cert = bezout_solve([-0.7, 1.0], blaschke_make([0.3, -0.5]))
    for rational in (cert.u, cert.v):
        if len(rational.den) > 1:
            assert np.all(np.abs(P.polyroots(rational.den)) > 1.0)


def test_certificate_serialization():
    cert = bezout_solve([-0.7, 1.0], blaschke_make([0.3, -0.5]))
    doc = cert.to_json_dict()
    assert set(doc) == {
        "symbol",
        "inner",
        "delta",
        "u",
        "v",
        "residual",
        "sup_u",
        "sup_v",
        "consistent",
    }


def test_inverse_apply_anchor():
    inner = blaschke_make([0.0])
    cert = bezout_solve([-0.5, 1.0], inner)
    one = monomial(DEFAULT_GRID, 0)
    a_bar = BoundaryFunction.from_poly(DEFAULT_GRID, [-0.5, 1.0]).conj()
    forward = toeplitz_apply(a_bar, one)
    assert forward.coeff(0) == pytest.approx(-0.5)
    back = corona_inverse_apply(inner, cert, forward)
    assert (back - one).l2_norm() < 1e-10


def test_inverse_apply_identity_symbol():
    inner = blaschke_make([0.3, -0.5])
    cert = bezout_solve([1.0], inner)
    for e in tm_basis(inner, 2.0).functions:
        assert (corona_inverse_apply(inner, cert, e) - e).l2_norm() < 1e-10


def test_inverse_apply_membership_check():
    inner = blaschke_make([0.3, -0.5])
    cert = bezout_solve([-0.7, 1.0], inner)
    with pytest.raises(NotInModelSpaceError):
        corona_inverse_apply(inner, cert, monomial(DEFAULT_GRID, 5))
    with pytest.raises(ValueError):
        corona_inverse_apply(blaschke_make([0.2]), cert, monomial(DEFAULT_GRID, 0))


def test_inverse_matches_matrix_route():
    # 2x2 brute force: invert the compressed matrix and compare columns
    inner = blaschke_make([0.3, -0.5])
    basis = tm_basis(inner, 2.0)
    a_bar = BoundaryFunction.from_poly(DEFAULT_GRID, [-0.7, 1.0]).conj()
    M = compressed_matrix(inner, a_bar, basis)
    Minv = np.linalg.inv(M.entries)
    cert = bezout_solve([-0.7, 1.0], inner)
    for k, e in enumerate(basis.functions):
        direct = corona_inverse_apply(inner, cert, e)
        via_matrix = basis.synthesize(Minv[:, k])
        assert (direct - via_matrix).l2_norm() < 1e-8


def test_roundtrip_residual_all_p():
    rng = np.random.default_rng(74)
    made = 0
    while made < 6:
        inner = random_blaschke(rng, max_degree=4, radius=0.8)
        a = random_poly(rng, int(rng.integers(1, 5)))
        if min_abs_at_zeros(a, inner) < 0.1:
            continue
        cert = bezout_solve(a, inner)
        for p in (1.5, 2.0, 4.0):
            basis = tm_basis(inner, p)
            for e in basis.functions:
                assert corona_roundtrip_residual(cert, e, p) < 1e-7
        made += 1


def test_inverse_norm_bound():
    # the conjugate-u operator realizes the inverse, so the spectral norm of
    # its compression dominates the inverse norm of the compressed symbol
    inner = blaschke_make([0.3, -0.5])
    basis = tm_basis(inner, 2.0)
    a_bar = BoundaryFunction.from_poly(DEFAULT_GRID, [-0.7, 1.0]).conj()
    M = compressed_matrix(inner, a_bar, basis)
    cert = bezout_solve([-0.7, 1.0], inner)
    u_bar = cert.u.boundary(DEFAULT_GRID).conj()
    Mu = compressed_matrix(inner, u_bar, basis)
    inverse_norm = 1.0 / M.sigma_min()
    assert inverse_norm <= Mu.singular_values()[0] * (1.0 + 1e-9)


def test_sigma_min_bounded_by_symbol_at_zeros():
    rng = np.random.default_rng(75)
    for _ in range(8):
        zeros = random_zeros(rng, int(rng.integers(1, 5)), radius=0.8)
        if len(zeros) > 1 and np.min(
            np.abs(zeros[:, None] - zeros[None, :]) + np.eye(len(zeros))
        ) < 1e-3:
            continue
        inner = blaschke_make(zeros)
        a = random_poly(rng, 3)
        basis = tm_basis(inner, 2.0)
        a_bar = BoundaryFunction.from_poly(DEFAULT_GRID, a).conj()
        sigma = compressed_matrix(inner, a_bar, basis).sigma_min()
        assert sigma <= min_abs_at_zeros(a, inner) + 1e-8


def test_probe_report_structure():
    inner = blaschke_make([0.3, -0.5])
    report = near_degenerate_probe(inner, [-0.9, 1.0], [0.2, 0.5 + 0.2j], 2.0)
    assert len(report.rows) == 2
    assert report.p == 2.0
    assert report.sigma_min > 0.0
    assert report.zero_bound == pytest.approx(0.6)
    for row in report.rows:
        assert row.f_norm > 0.0
        assert row.taf_norm >= 0.0
        assert row.corona_value > 0.0
    csv = report.to_csv()
    lines = csv.split("\n")
    assert lines[0] == "z_re,z_im,corona_value,f_norm,Taf_norm,sigma_min,p"
    assert len(lines) == 4 and lines[-1] == ""
    assert all(len(line.split(",")) == 7 for line in lines[1:3])


def test_probe_at_inner_zero_unit_norm():
    # at a zero of I the factor quotient is inner, so the probe keeps the
    # unit kernel norm and needs no projection correction
    inner = blaschke_make([0.3, -0.5])
    report = near_degenerate_probe(inner, [-0.9, 1.0], [0.3], 2.0)
    assert report.rows[0].f_norm == pytest.approx(1.0, abs=1e-9)


def test_probe_ratio_bounded_below_towards_boundary():
    inner = blaschke_make([0.3, -0.5])
    cert = bezout_solve([-0.9, 1.0], inner)
    report = near_degenerate_probe(
        inner, [-0.9, 1.0], [0.9, 0.99, 0.999], 2.0
    )
    floor = 1.0 / cert.sup_u
    for row in report.rows:
        assert row.taf_norm / row.f_norm >= floor * (1.0 - 1e-9)


def test_probe_eigenvalue_linearity():
    # conj-symbol Toeplitz operators scale kernels by conj(a(w)): at the
    # probe point the norm of the image is exactly |a(w)| per unit kernel
    inner = blaschke_make([0.3, -0.5])
    for eps in (1e-1, 1e-2, 1e-3):
        a = np.array([-(0.3 + eps), 1.0])
        a_bar = BoundaryFunction.from_poly(DEFAULT_GRID, a).conj()
        k = normalized_kernel(0.3, 2.0).boundary(DEFAULT_GRID)
        image = toeplitz_apply(a_bar, k)
        assert hp_norm(image, 2.0) == pytest.approx(eps, rel=1e-8)


def test_probe_norms_finite_at_large_p():
    # at p = 200 and r = 0.99 |Taf|**p underflows to 0 on every node, at
    # p = 800 |f|**p does too; both norms are taken relative to the maximum
    inner = blaschke_make([0.3, -0.5])
    a = [-0.7, 1.0]
    adjoint = tm_compression(inner, coanalytic=a)
    nodes = grid_for_radius(0.5).points
    for p in (200.0, 800.0):
        report = near_degenerate_probe(inner, a, [0.9, 0.99], p)
        for z, row in zip((0.9, 0.99), report.rows):
            x = corona._conjugate_kernel_coords(inner, z, p / (p - 1.0))
            logs = p * np.log(np.abs(tm_eval(inner, np.column_stack([x, adjoint.apply(x)]), nodes)))
            ref = np.exp((np.logaddexp.reduce(logs, axis=1) - np.log(len(nodes))) / p)
            assert 0.0 < row.f_norm < np.inf and 0.0 < row.taf_norm < np.inf
            assert [row.f_norm, row.taf_norm] == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_probe_singular_at_common_zero():
    inner = blaschke_make([0.3, -0.5])
    report = near_degenerate_probe(inner, [-0.3, 1.0], [0.2], 2.0)
    assert report.sigma_min < 1e-10
    assert report.zero_bound < 1e-14


def _reference_probe(inner, symbol, probes, p):
    """Independent FFT route for the probe norms: the factor difference
    quotient times the normalized kernel, sampled on
    grid_for_radius(max(|z|, |lambda_k|)), projected by I P_minus(conj(I) f)
    and multiplied by conj(a) through toeplitz_apply.  Returns
    (f_norm, Taf_norm) per probe."""
    grid = grid_for_radius(max([abs(z) for z in probes] + [abs(z) for z in inner.zeros]))
    ib = inner.boundary(grid)
    a_bar = BoundaryFunction.from_poly(grid, as_poly(symbol)).conj()
    norms = []
    for z in probes:
        g = (factor_difference(inner, z) * normalized_kernel(z, p)).boundary(grid)
        f = _project_samples(ib, g)
        norms.append((hp_norm(f, p), hp_norm(toeplitz_apply(a_bar, f), p)))
    return norms


def _seeded_probe_cases():
    """Inners of degree 1..6 within radius 0.95, those of degree 3 and up
    with a repeated zero (a triple one from degree 5), each with a symbol
    and a probe direction."""
    rng = np.random.default_rng(88)
    cases = []
    for degree in range(1, 7):
        zeros = random_zeros(rng, degree, radius=0.95)
        if degree >= 3:
            zeros[1] = zeros[0]
        if degree >= 5:
            zeros[2] = zeros[0]
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        angle = rng.uniform(0.0, 2.0 * np.pi)
        cases.append((blaschke_make(zeros, phase), random_poly(rng, 2), np.exp(1j * angle)))
    return cases


def test_probe_matches_fft_route():
    for inner, a, direction in _seeded_probe_cases():
        probes = [r * direction for r in (0.0, 0.9, 0.999)]
        for p in (1.5, 2.0, 3.0, 4.0, 6.0, 8.0):
            report = near_degenerate_probe(inner, a, probes, p)
            for row, (f_ref, taf_ref) in zip(report.rows, _reference_probe(inner, a, probes, p)):
                assert row.f_norm == pytest.approx(f_ref, rel=1e-9, abs=0.0)
                assert row.taf_norm == pytest.approx(taf_ref, rel=1e-9, abs=0.0)
                if p == 2.0:
                    assert row.taf_norm >= report.sigma_min * row.f_norm * (1.0 - 1e-12)


def test_probe_closed_form_at_p2():
    # ||f||_2^2 = (1-|z|^2) ||k_z||^2 = 1 - |I(z)|^2, and T_conj(a) f has
    # coordinates a(S_I)^* x; 0.99999 would need m = 2^23 on the FFT route
    for inner, a, direction in _seeded_probe_cases():
        probes = [r * direction for r in (0.0, 0.5, 0.99, 0.999, 0.99999)]
        report = near_degenerate_probe(inner, a, probes, 2.0)
        adjoint = tm_compression(inner, coanalytic=a)
        for z, row in zip(probes, report.rows):
            assert abs(row.f_norm - np.sqrt(1.0 - abs(blaschke_eval(inner, z)) ** 2)) <= 1e-12
            x = corona._conjugate_kernel_coords(inner, z, 2.0)
            assert row.taf_norm == pytest.approx(np.linalg.norm(adjoint.apply(x)), rel=1e-12)


def test_probe_node_count_resolves_norms():
    # doubling the nodes moves nothing: at p = 1.5 the grid of
    # max(|z|, |lambda_k|) resolves the branch points, at even p the grid
    # of the inner zeros alone resolves the rational |f|^p
    for inner, a, direction in _seeded_probe_cases():
        probes = [r * direction for r in (0.5, 0.99, 0.999)]
        adjoint = tm_compression(inner, coanalytic=a)
        for p, tol in ((1.5, 1e-10), (2.0, 1e-13), (4.0, 1e-13)):
            radius = max(abs(z) for z in inner.zeros)
            if p == 1.5:
                radius = max(radius, max(abs(z) for z in probes))
            m = 2 * grid_for_radius(radius).m
            nodes = np.exp(2j * np.pi * np.arange(m) / m)
            report = near_degenerate_probe(inner, a, probes, p)
            for z, row in zip(probes, report.rows):
                x = corona._conjugate_kernel_coords(inner, z, p / (p - 1.0))
                values = tm_eval(inner, np.column_stack([x, adjoint.apply(x)]), nodes)
                f_norm, taf_norm = np.mean(np.abs(values) ** p, axis=1) ** (1.0 / p)
                assert row.f_norm == pytest.approx(f_norm, rel=tol, abs=0.0)
                assert row.taf_norm == pytest.approx(taf_norm, rel=tol, abs=0.0)
