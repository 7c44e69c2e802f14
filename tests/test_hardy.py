"""Core circle plumbing: grids, banded functions, pairing, norms, shifts."""

import numpy as np
import pytest
from conftest import quad_mean, random_analytic, random_poly

from hardyops import (
    BoundaryFunction,
    CircleGrid,
    DEFAULT_GRID,
    ExponentError,
    GridMismatchError,
    HardyParams,
    IllConditionedError,
    NotAnalyticError,
    UnitDiscError,
    hp_norm,
    integral_mean,
    monomial,
    pairing,
    riesz_split,
    shifts,
    sup_norm,
)
from hardyops.hardy import require_analytic


def test_params_validation():
    assert HardyParams(2.0).q == 2.0
    assert HardyParams(4.0).q == pytest.approx(4.0 / 3.0)
    assert HardyParams(1.5).q == pytest.approx(3.0)
    assert HardyParams(1.5).conjugate().p == pytest.approx(3.0)
    for bad in (1.0, 0.5, 0.0, -2.0, float("inf"), float("nan")):
        with pytest.raises(ExponentError):
            HardyParams(bad)


def test_grid_validation():
    g = CircleGrid(m=32, n=8)
    assert g.points.shape == (32,)
    np.testing.assert_allclose(np.abs(g.points), 1.0, atol=1e-14)
    with pytest.raises(ValueError):
        CircleGrid(m=16, n=8)
    with pytest.raises(ValueError):
        CircleGrid(m=32, n=0)


def test_coeff_sample_roundtrip():
    rng = np.random.default_rng(11)
    g = CircleGrid(m=64, n=16)
    coeffs = rng.standard_normal(33) + 1j * rng.standard_normal(33)
    f = BoundaryFunction.from_coeffs(g, coeffs)
    back = BoundaryFunction.from_samples(g, f.samples)
    np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-13)
    assert back.tail_mass < 1e-14


def test_from_poly_and_eval():
    rng = np.random.default_rng(12)
    poly = random_poly(rng, 7)
    f = BoundaryFunction.from_poly(DEFAULT_GRID, poly)
    pts = DEFAULT_GRID.points
    np.testing.assert_allclose(
        f.samples, np.polynomial.polynomial.polyval(pts, poly), atol=1e-10
    )
    w = 0.3 - 0.4j
    assert f.eval_disc(w) == pytest.approx(
        complex(np.polynomial.polynomial.polyval(w, poly))
    )
    with pytest.raises(UnitDiscError):
        f.eval_disc(1.0)
    with pytest.raises(ValueError):
        BoundaryFunction.from_poly(CircleGrid(m=16, n=4), np.ones(6))


def test_tail_mass_tracks_band_limiting():
    # kernel at 0.5 has coefficients 0.5**k; band n=8 discards about 0.5**9
    g = CircleGrid(m=64, n=8)
    samples = 1.0 / (1.0 - 0.5 * g.points)
    f = BoundaryFunction.from_samples(g, samples)
    assert 1e-4 < f.tail_mass < 1e-2
    banded = BoundaryFunction.from_samples(g, monomial(g, 3).samples)
    assert banded.tail_mass < 1e-14


def test_conj_reverses_coefficients():
    rng = np.random.default_rng(13)
    f = random_analytic(rng, degree=6)
    fc = f.conj()
    for k in range(-6, 7):
        assert fc.coeff(k) == pytest.approx(np.conj(f.coeff(-k)))
    np.testing.assert_allclose(fc.samples, np.conj(f.samples), atol=1e-12)


def test_arithmetic():
    rng = np.random.default_rng(14)
    f = random_analytic(rng, degree=5)
    g = random_analytic(rng, degree=5)
    np.testing.assert_allclose((f + g).samples, f.samples + g.samples, atol=1e-12)
    np.testing.assert_allclose((f - g).samples, f.samples - g.samples, atol=1e-12)
    np.testing.assert_allclose((2.0 * f).samples, 2.0 * f.samples, atol=1e-12)
    np.testing.assert_allclose((f * g).samples, f.samples * g.samples, atol=1e-10)
    np.testing.assert_allclose((1 + f).samples, 1.0 + f.samples, atol=1e-12)
    np.testing.assert_allclose((1 - f).samples, 1.0 - f.samples, atol=1e-12)
    other = random_analytic(rng, grid=CircleGrid(m=64, n=16))
    with pytest.raises(GridMismatchError):
        f + other


def test_serialization_roundtrip():
    rng = np.random.default_rng(15)
    f = random_analytic(rng, grid=CircleGrid(m=64, n=16), degree=9)
    doc = f.to_json_dict()
    assert doc["grid_m"] == 64 and doc["band_n"] == 16
    back = BoundaryFunction.from_json_dict(doc)
    np.testing.assert_allclose(back.coeffs, f.coeffs, atol=0)


def test_pairing_anchors():
    g = DEFAULT_GRID
    assert pairing(monomial(g, 1), monomial(g, 1)) == pytest.approx(1.0)
    assert pairing(monomial(g, 1), monomial(g, 0)) == pytest.approx(0.0)
    # geometric series: sum 0.25**k = 4/3
    k = BoundaryFunction.from_samples(g, 1.0 / (1.0 - 0.5 * g.points))
    assert pairing(k, k) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_pairing_conjugates_second_argument():
    rng = np.random.default_rng(16)
    f = random_analytic(rng)
    g = random_analytic(rng)
    assert pairing(f, 1j * g) == pytest.approx(-1j * pairing(f, g))
    assert pairing(1j * f, g) == pytest.approx(1j * pairing(f, g))
    assert pairing(g, f) == pytest.approx(np.conj(pairing(f, g)))


def test_hp_norm_anchors():
    g = DEFAULT_GRID
    for p in (1.5, 2.0, 4.0, 7.3):
        assert hp_norm(monomial(g, 5), p) == pytest.approx(1.0)
    one_plus_z = BoundaryFunction.from_poly(g, [1.0, 1.0])
    assert hp_norm(one_plus_z, 2.0) == pytest.approx(np.sqrt(2.0))
    # sum 0.36**k = 1/0.64, so the 2-norm is 1.25
    k = BoundaryFunction.from_samples(g, 1.0 / (1.0 - 0.6 * g.points))
    assert hp_norm(k, 2.0) == pytest.approx(1.25, abs=1e-12)


def test_hp_norm_homogeneous_at_large_p():
    # |3 + z|**700 overflows, and |f|**800 of a small f underflows, unless
    # the mean is taken relative to max |f|
    g = DEFAULT_GRID
    rng = np.random.default_rng(19)
    for f in (BoundaryFunction.from_poly(g, [3.0, 1.0]), random_analytic(rng, degree=8)):
        for p in (2.0, 200.0, 700.0, 800.0):
            norm = hp_norm(f, p)
            assert 0.0 < norm <= sup_norm(f)
            for c in (1e-3, 1e3):
                assert hp_norm(c * f, p) == pytest.approx(c * norm, rel=1e-12, abs=0.0)
    assert hp_norm(BoundaryFunction.zero(g), 800.0) == 0.0


def test_parseval():
    rng = np.random.default_rng(17)
    for _ in range(5):
        f = random_analytic(rng, degree=20)
        assert hp_norm(f, 2.0) ** 2 == pytest.approx(
            pairing(f, f).real, rel=1e-10
        )


def test_hoelder():
    rng = np.random.default_rng(18)
    for p in (1.5, 2.0, 4.0):
        params = HardyParams(p)
        for _ in range(5):
            f = random_analytic(rng, degree=15)
            g = random_analytic(rng, degree=15)
            assert abs(pairing(f, g)) <= hp_norm(f, params.p) * hp_norm(
                g, params.q
            ) * (1.0 + 1e-12)


def test_riesz_split_coefficient_anchor():
    g = DEFAULT_GRID
    f = monomial(g, -1) + 2.0 * monomial(g, 0) + monomial(g, 1)
    plus, minus = riesz_split(f)
    assert plus.coeff(0) == pytest.approx(2.0)
    assert plus.coeff(1) == pytest.approx(1.0)
    assert minus.coeff(-1) == pytest.approx(1.0)
    assert minus.positive_mass() == 0.0


def test_riesz_split_product_anchor():
    # |1+z|**2 expands to conj(z) + 2 + z
    g = DEFAULT_GRID
    f = BoundaryFunction.from_samples(g, np.abs(1.0 + g.points) ** 2)
    plus, minus = riesz_split(f)
    np.testing.assert_allclose(
        plus.samples, 2.0 + g.points, atol=1e-12
    )
    np.testing.assert_allclose(minus.samples, np.conj(g.points), atol=1e-12)


def test_riesz_projection_algebra():
    rng = np.random.default_rng(19)
    coeffs = rng.standard_normal(2 * DEFAULT_GRID.n + 1) + 1j * rng.standard_normal(
        2 * DEFAULT_GRID.n + 1
    )
    f = BoundaryFunction.from_coeffs(DEFAULT_GRID, coeffs)
    plus, minus = riesz_split(f)
    np.testing.assert_allclose(plus.coeffs + minus.coeffs, f.coeffs, atol=0)
    plus2, cross = riesz_split(plus)
    np.testing.assert_allclose(plus2.coeffs, plus.coeffs, atol=0)
    assert cross.l2_norm() == 0.0
    assert riesz_split(random_analytic(rng))[1].l2_norm() == 0.0


def test_riesz_selfadjoint_for_pairing():
    rng = np.random.default_rng(20)
    n = DEFAULT_GRID.n
    f = BoundaryFunction.from_coeffs(
        DEFAULT_GRID, rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
    )
    g = BoundaryFunction.from_coeffs(
        DEFAULT_GRID, rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
    )
    assert pairing(riesz_split(f)[0], g) == pytest.approx(
        pairing(f, riesz_split(g)[0])
    )


def test_shifts_anchors():
    g = DEFAULT_GRID
    fwd, bwd = shifts(monomial(g, 0))
    assert fwd.coeff(1) == pytest.approx(1.0)
    assert bwd.l2_norm() == 0.0
    f = BoundaryFunction.from_poly(g, [1.0, 2.0])
    fwd, bwd = shifts(f)
    np.testing.assert_allclose(fwd.poly_coeffs(2), [0.0, 1.0, 2.0], atol=0)
    np.testing.assert_allclose(bwd.poly_coeffs(1), [2.0, 0.0], atol=0)


def test_shifts_left_inverse_and_adjoint():
    rng = np.random.default_rng(21)
    f = random_analytic(rng, degree=30)
    g = random_analytic(rng, degree=30)
    fwd, _ = shifts(f)
    _, bwd_of_fwd = shifts(fwd)
    np.testing.assert_allclose(bwd_of_fwd.coeffs, f.coeffs, atol=0)
    # forward shift on f pairs like backward shift on g
    _, bwd_g = shifts(g)
    assert pairing(fwd, g) == pytest.approx(pairing(f, bwd_g))
    with pytest.raises(NotAnalyticError):
        shifts(monomial(DEFAULT_GRID, -1))


def test_require_analytic():
    g = DEFAULT_GRID
    require_analytic(monomial(g, 3))
    with pytest.raises(NotAnalyticError):
        require_analytic(monomial(g, -2))


def test_integral_mean_p2_closed_form():
    assert integral_mean(0.0, 2.0) == pytest.approx(np.sqrt(2.0 * np.pi))
    assert integral_mean(0.9, 2.0) == pytest.approx(np.sqrt(2.0 * np.pi / 0.19), rel=1e-8)
    for r in (0.5, 0.9, 0.99, 0.999):
        product = integral_mean(r, 2.0) * np.sqrt(1.0 - r * r)
        assert product == pytest.approx(np.sqrt(2.0 * np.pi), abs=1e-6)
    with pytest.raises(UnitDiscError):
        integral_mean(1.0, 2.0)


def test_integral_mean_growth_bands():
    # products integral_mean(r, p) * (1 - r**2)**(1/q) stay in measured bands
    for r in (0.9, 0.99, 0.999):
        q4 = HardyParams(4.0).q
        prod4 = integral_mean(r, 4.0) * (1.0 - r * r) ** (1.0 / q4)
        assert 1.67 < prod4 < 1.89
        q32 = HardyParams(1.5).q
        prod32 = integral_mean(r, 1.5) * (1.0 - r * r) ** (1.0 / q32)
        assert 3.44 < prod32 < 3.79


def test_integral_mean_p4_closed_form():
    # Parseval on 1/(1-rz)**2 gives integral 2*pi*(1+r**2)/(1-r**2)**3
    for r in (0.5, 0.9, 0.99):
        expected = (2.0 * np.pi * (1.0 + r * r) / (1.0 - r * r) ** 3) ** 0.25
        assert integral_mean(r, 4.0) == pytest.approx(expected, rel=1e-7)


def test_integral_mean_matches_quad():
    # outside even p the mean is a settled sum of Clark points of b_z^k
    for z in (0.5, 0.9 * np.exp(0.3j), 0.999):
        for p in (1.5, 3.0):
            ref = quad_mean(lambda w: 1.0 / abs(1.0 - z / w), p, [np.angle(z)])
            assert integral_mean(z, p) == pytest.approx((2.0 * np.pi) ** (1.0 / p) * ref, rel=1e-9)


def test_monomial_bounds():
    assert monomial(DEFAULT_GRID, -DEFAULT_GRID.n).coeff(-DEFAULT_GRID.n) == 1.0
    with pytest.raises(ValueError):
        monomial(DEFAULT_GRID, DEFAULT_GRID.n + 1)


def test_sup_norm():
    g = DEFAULT_GRID
    f = BoundaryFunction.from_poly(g, [1.0, 1.0])
    assert sup_norm(f) == pytest.approx(2.0, rel=1e-6)
