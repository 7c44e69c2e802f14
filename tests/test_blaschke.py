"""Finite Blaschke products, rational functions, kernels, inner-outer splits."""

import numpy as np
import pytest
from conftest import random_blaschke, random_poly, random_zeros

from hardyops import (
    BlaschkeProduct,
    DEFAULT_GRID,
    IllConditionedError,
    RationalFunction,
    UnitDiscError,
    blaschke_eval,
    blaschke_factor,
    blaschke_make,
    factor_difference,
    hp_norm,
    inner_outer_of_polynomial,
    normalized_kernel,
    pairing,
    unnormalized_kernel,
)
from hardyops.blaschke import _tm_shift, sorted_zeros

P = np.polynomial.polynomial


def test_construction_validation():
    with pytest.raises(UnitDiscError):
        blaschke_make([1.0])
    with pytest.raises(UnitDiscError):
        blaschke_make([0.5], constant=2.0)
    for zero in (float("nan"), complex(0.1, float("nan")), complex(float("inf"), 0.0)):
        with pytest.raises(UnitDiscError):
            blaschke_make([zero])
    for constant in (float("nan"), complex(float("inf"), 1.0)):
        with pytest.raises(UnitDiscError):
            blaschke_make([0.5], constant=constant)
    inner = blaschke_make([0.5, -0.3j], constant=1j)
    assert inner.degree == 2
    assert blaschke_make([]).degree == 0


def test_value_equality_and_hash():
    a = blaschke_make([0.5, -0.3])
    b = blaschke_make([0.5, -0.3])
    c = blaschke_make([0.5, -0.2])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_eval_anchors():
    assert blaschke_eval(blaschke_make([0.0, 0.0]), 0.5) == pytest.approx(0.25)
    assert blaschke_eval(blaschke_make([0.5]), 0.5) == pytest.approx(0.0)
    # product of the two factor values at the origin: (-0.3) * (0.5)
    assert blaschke_eval(blaschke_make([0.3, -0.5]), 0.0) == pytest.approx(-0.15)
    with pytest.raises(UnitDiscError):
        blaschke_eval(blaschke_make([0.5]), 1.1)


def test_unimodular_on_circle():
    rng = np.random.default_rng(31)
    for _ in range(10):
        inner = random_blaschke(rng)
        vals = blaschke_eval(inner, DEFAULT_GRID.points)
        np.testing.assert_allclose(np.abs(vals), 1.0, atol=1e-12)


def test_boundary_matches_rational_form():
    rng = np.random.default_rng(32)
    inner = random_blaschke(rng, max_degree=4, radius=0.8)
    pts = DEFAULT_GRID.points
    num = P.polyval(pts, inner.numerator())
    den = P.polyval(pts, inner.denominator())
    np.testing.assert_allclose(
        inner.boundary(DEFAULT_GRID).samples, num / den, atol=1e-9
    )
    rat = inner.as_rational()
    np.testing.assert_allclose(rat.evaluate(pts), num / den, atol=1e-9)


def test_blaschke_factor():
    b = blaschke_factor(0.5)
    assert b.evaluate(0.5) == pytest.approx(0.0)
    assert abs(b.evaluate(1.0)) == pytest.approx(1.0)


def test_serialization_roundtrip():
    inner = blaschke_make([0.2 + 0.1j, -0.4], constant=np.exp(0.7j))
    back = BlaschkeProduct.from_json_dict(inner.to_json_dict())
    assert back == inner


def test_factor_difference_anchors():
    g1 = factor_difference(blaschke_make([0.0]), 0.0)
    assert g1.is_polynomial
    np.testing.assert_allclose(g1.num, [1.0], atol=1e-14)

    b = blaschke_make([0.3 - 0.2j])
    g2 = factor_difference(b, 0.3 - 0.2j)
    np.testing.assert_allclose(g2.evaluate(np.array([0.1, 0.5j])), 1.0, atol=1e-12)

    # (z**2 - 0.25) / b_{0.5} = (z + 0.5)(1 - 0.5 z)
    g3 = factor_difference([0.0, 0.0, 1.0], 0.5)
    expected = P.polymul([0.5, 1.0], [1.0, -0.5])
    np.testing.assert_allclose(g3.num, expected, atol=1e-12)


def test_factor_difference_identity():
    rng = np.random.default_rng(33)
    pts = np.exp(2j * np.pi * np.arange(128) / 128)
    for _ in range(8):
        inner = random_blaschke(rng, max_degree=4)
        zn = complex(random_zeros(rng, 1, radius=0.85)[0])
        quotient = factor_difference(inner, zn)
        bn = blaschke_factor(zn).evaluate(pts)
        lhs = bn * quotient.evaluate(pts)
        rhs = blaschke_eval(inner, pts) - blaschke_eval(inner, zn)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_factor_difference_polynomial_branch():
    rng = np.random.default_rng(34)
    pts = np.exp(2j * np.pi * np.arange(64) / 64)
    poly = random_poly(rng, 5)
    zn = 0.4 + 0.2j
    quotient = factor_difference(poly, zn)
    bn = blaschke_factor(zn).evaluate(pts)
    lhs = bn * quotient.evaluate(pts)
    rhs = P.polyval(pts, poly) - P.polyval(zn, poly)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_normalized_kernel_anchors():
    for p in (1.5, 2.0, 4.0):
        k0 = normalized_kernel(0.0, p)
        np.testing.assert_allclose(k0.evaluate(np.array([0.3, -0.5j])), 1.0, atol=1e-14)
    k = normalized_kernel(0.6, 2.0)
    np.testing.assert_allclose(k.evaluate(0.0), 0.8, atol=1e-14)
    assert hp_norm(k.boundary(DEFAULT_GRID), 2.0) == pytest.approx(1.0, abs=1e-12)
    k4 = normalized_kernel(0.6, 4.0)
    assert k4.evaluate(0.0) == pytest.approx(0.64 ** 0.75)


def test_kernel_reproduces_point_values():
    rng = np.random.default_rng(35)
    f_coeffs = random_poly(rng, 10)
    from hardyops import BoundaryFunction

    f = BoundaryFunction.from_poly(DEFAULT_GRID, f_coeffs)
    for w in (0.3, -0.5j, 0.4 + 0.4j):
        kw = unnormalized_kernel(w).boundary(DEFAULT_GRID)
        assert pairing(f, kw) == pytest.approx(
            complex(P.polyval(w, f_coeffs)), abs=1e-10
        )
    with pytest.raises(UnitDiscError):
        unnormalized_kernel(1.0)


def test_rational_reduction_and_validation():
    # shared root at 0.5 cancels
    num = P.polymul([1.0, 1.0], [-0.5, 1.0])
    den = P.polymul([1.0], [-0.5, 1.0])
    r = RationalFunction(num, den)
    assert r.is_polynomial
    np.testing.assert_allclose(r.evaluate(0.2), 1.2, atol=1e-10)
    with pytest.raises(UnitDiscError):
        RationalFunction([1.0], [-0.5, 1.0])  # pole at 0.5 inside the disc


def test_rational_solves_each_root_set_once(monkeypatch):
    real = P.polyroots
    calls = []

    def counted(coeffs):
        calls.append(len(coeffs))
        return real(coeffs)

    monkeypatch.setattr(P, "polyroots", counted)
    # no common root: one solve for the numerator, one for the denominator
    RationalFunction(P.polyfromroots([0.2, -0.4j]), P.polyfromroots([2.0, 3.0j, -1.5]))
    assert calls == [4, 3]
    # a common root still cancels, and the disc check reads the roots left
    calls.clear()
    r = RationalFunction(P.polyfromroots([2.0, 0.5]), P.polyfromroots([2.0, -3.0]))
    assert len(calls) == 2
    np.testing.assert_allclose(r.num, [-0.5, 1.0], atol=1e-14)
    np.testing.assert_allclose(r.den, [3.0, 1.0], atol=1e-14)
    # a denominator root inside the disc still raises, cancelled or not
    with pytest.raises(UnitDiscError, match="0.5"):
        RationalFunction(P.polyfromroots([0.1, 0.2]), P.polyfromroots([2.0, 0.5]))
    with pytest.raises(UnitDiscError, match="0.5"):
        RationalFunction(P.polyfromroots([2.0, 0.1]), P.polyfromroots([2.0, 0.5]))


def test_rational_product_and_sup():
    a = RationalFunction([1.0], [1.0, -0.5])
    b = RationalFunction([0.0, 1.0], [1.0])
    ab = a * b
    np.testing.assert_allclose(ab.evaluate(0.3), 0.3 / (1.0 - 0.15), atol=1e-12)
    assert a.sup_on_circle() == pytest.approx(2.0, rel=1e-6)


def test_inner_outer_split():
    # roots at 0.4 (inside) and 2.0 (outside)
    poly = 3.0 * P.polyfromroots([0.4, 2.0])
    inner, outer = inner_outer_of_polynomial(poly)
    assert inner.degree == 1
    np.testing.assert_allclose(inner.zeros, [0.4], atol=1e-12)
    pts = np.exp(2j * np.pi * np.arange(64) / 64)
    recombined = blaschke_eval(inner, pts) * outer.evaluate(pts)
    np.testing.assert_allclose(recombined, P.polyval(pts, poly), atol=1e-10)
    # outer part must not vanish in the closed disc
    inside = np.abs(P.polyroots(outer.num)) if len(outer.num) > 1 else np.array([])
    assert np.all(inside > 1.0)


def test_inner_outer_rejects_circle_roots():
    with pytest.raises(UnitDiscError):
        inner_outer_of_polynomial(P.polyfromroots([1.0]))


def test_inner_outer_constant():
    inner, outer = inner_outer_of_polynomial([2.5])
    assert inner.degree == 0
    np.testing.assert_allclose(outer.num, [2.5], atol=0)


def test_zero_ordering_in_numerator():
    rng = np.random.default_rng(36)
    inner = random_blaschke(rng, max_degree=5, radius=0.8)
    roots = np.sort_complex(P.polyroots(inner.numerator()))
    np.testing.assert_allclose(roots, np.sort_complex(np.array(inner.zeros)), atol=1e-8)


def test_denominator_and_its_roots_in_closed_form():
    # Q = prod (1 - conj(z_k) z) has the coefficients of the P.polymul
    # product to the bit, zero zeros and an underflowing top coefficient
    # included; its roots are 1/conj(z_k) over the nonzero zeros, in the
    # order of P.polyroots
    rng = np.random.default_rng(37)
    cases = [[], [0.0], [0.0, 0.5], [1e-200, 1e-200], [0.3, 0.3, -0.2j, 0.0]]
    cases += [list(random_zeros(rng, int(rng.integers(1, 12)), radius=0.9)) for _ in range(40)]
    for zeros in cases:
        inner = blaschke_make(zeros)
        reference = np.array([1.0 + 0.0j])
        for z in inner.zeros:
            reference = P.polymul(reference, np.array([1.0, -np.conj(z)]))
        np.testing.assert_array_equal(inner.denominator(), reference)
        _, q, roots, _ = inner.sup_data
        nonzero = np.array([z for z in inner.zeros if z], dtype=complex)
        np.testing.assert_array_equal(roots, np.sort(1.0 / np.conj(nonzero)))
        if len(set(inner.zeros)) == len(inner.zeros) and np.all(np.abs(nonzero) > 0.05):
            np.testing.assert_allclose(roots, P.polyroots(q), rtol=1e-8)


def test_per_product_closed_forms_are_read_only_and_per_product():
    zeros = [0.5, -0.3 + 0.4j, 0.1, 0.5]
    a, b = blaschke_make(zeros), blaschke_make(zeros)
    assert a == b and hash(a) == hash(b)
    assert a.ordered_zeros == sorted_zeros(a) == (0.1, 0.5, 0.5, -0.3 + 0.4j)
    for name in ("tm_shift", "tm_kernel"):
        mine, theirs = getattr(a, name), getattr(b, name)
        assert getattr(a, name) is mine  # built once per product
        np.testing.assert_array_equal(mine, theirs)
        assert not np.shares_memory(mine, theirs)  # nothing is keyed by value
        assert not mine.flags.writeable
        with pytest.raises(ValueError):
            mine[0] = 7.0
    np.testing.assert_array_equal(a.tm_shift, _tm_shift(a.ordered_zeros))

