"""Projection onto the model space, its bases, decomposition, duality."""

import numpy as np
import pytest
from conftest import random_analytic, random_blaschke, random_poly, random_zeros

from hardyops import (
    BoundaryFunction,
    CircleGrid,
    DEFAULT_GRID,
    IllConditionedError,
    annihilator_defect,
    blaschke_eval,
    blaschke_make,
    cauchy_basis,
    clark_rule,
    decompose,
    duality_gram,
    expand,
    hp_norm,
    monomial,
    pairing,
    project,
    tm_basis,
    tm_compression,
    tm_eval,
    tm_kernel_at_zero,
    unnormalized_kernel,
)
from hardyops import model_space
from hardyops.model_space import _tm_rows
from hardyops.corona import _conjugate_kernel_coords

P = np.polynomial.polynomial


def test_project_anchors():
    g = DEFAULT_GRID
    z2 = blaschke_make([0.0, 0.0])
    # cube lands in the multiple-of-inner part
    assert project(z2, monomial(g, 3)).l2_norm() < 1e-12
    # constants already lie in the span of {1, z}
    pf = project(z2, monomial(g, 0))
    assert (pf - monomial(g, 0)).l2_norm() < 1e-12
    # orthogonal projection of 1 onto the kernel span at zero 0.5: 0.75 k
    b = blaschke_make([0.5])
    expected = 0.75 * unnormalized_kernel(0.5).boundary(g)
    assert (project(b, monomial(g, 0)) - expected).l2_norm() < 1e-12


def test_project_idempotent_and_kernel():
    rng = np.random.default_rng(41)
    for _ in range(10):
        inner = random_blaschke(rng)
        f = random_analytic(rng, degree=30)
        pf = project(inner, f)
        assert (project(inner, pf) - pf).l2_norm() <= 1e-9 * max(1.0, f.l2_norm())
        g = random_analytic(rng, degree=20)
        multiple = inner.boundary(DEFAULT_GRID) * g
        assert project(inner, multiple).l2_norm() <= 1e-9 * max(1.0, g.l2_norm())


def test_tm_basis_shape_and_orthonormality():
    rng = np.random.default_rng(42)
    for _ in range(6):
        inner = random_blaschke(rng, max_degree=5)
        basis = tm_basis(inner, 2.0)
        assert basis.dimension == inner.degree
        G = np.array(
            [
                [pairing(ek, ej) for ek in basis.functions]
                for ej in basis.functions
            ]
        )
        np.testing.assert_allclose(G, np.eye(inner.degree), atol=1e-10)


def test_tm_basis_monomials_for_power_of_z():
    basis = tm_basis(blaschke_make([0.0, 0.0, 0.0]), 2.0)
    for k, e in enumerate(basis.functions):
        assert (e - monomial(DEFAULT_GRID, k)).l2_norm() < 1e-12


def test_tm_basis_fixed_by_projection_all_p():
    rng = np.random.default_rng(43)
    inner = random_blaschke(rng, max_degree=4)
    for p in (1.5, 2.0, 4.0):
        basis = tm_basis(inner, p)
        for e in basis.functions:
            assert (project(inner, e) - e).l2_norm() < 1e-9


def test_tm_basis_multiplicity_safe():
    inner = blaschke_make([0.4, 0.4, 0.4])
    basis = tm_basis(inner, 2.0)
    G = np.array(
        [[pairing(ek, ej) for ek in basis.functions] for ej in basis.functions]
    )
    np.testing.assert_allclose(G, np.eye(3), atol=1e-10)


def test_tm_eval_matches_basis_synthesis():
    rng = np.random.default_rng(31)
    for degree in (1, 3, 6):
        zeros = 0.9 * np.sqrt(rng.uniform(size=degree)) * np.exp(2j * np.pi * rng.uniform(size=degree))
        zeros[degree // 2:] = zeros[0]  # repeated zeros
        inner = blaschke_make(zeros)
        basis = tm_basis(inner, 2.0)
        coords = rng.standard_normal((degree, 2)) + 1j * rng.standard_normal((degree, 2))
        values = tm_eval(inner, coords, DEFAULT_GRID.points)
        assert values.shape == (2, DEFAULT_GRID.m)
        for col, row in zip(coords.T, values):
            np.testing.assert_allclose(row, basis.synthesize(col).samples, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(tm_eval(inner, coords[:, 0], DEFAULT_GRID.points), values[0])
        # the basis rows straight from the product loop are tm_eval of the identity
        np.testing.assert_array_equal(
            _tm_rows(inner, DEFAULT_GRID.points), tm_eval(inner, np.eye(degree), DEFAULT_GRID.points)
        )
        with pytest.raises(ValueError, match="dimension"):
            tm_eval(inner, np.ones(degree + 1), DEFAULT_GRID.points)


def test_tm_kernel_at_zero_is_projected_one():
    # k_0 = P_I 1 = 1 - conj(I(0)) I on the circle
    rng = np.random.default_rng(32)
    pts = np.exp(2j * np.pi * rng.uniform(size=64))
    for degree, radius in ((1, 0.5), (4, 0.9), (9, 0.99)):
        zeros = radius * np.sqrt(rng.uniform(size=degree)) * np.exp(2j * np.pi * rng.uniform(size=degree))
        zeros[degree // 2:] = zeros[0]  # repeated zeros
        inner = blaschke_make(zeros, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        k0 = tm_kernel_at_zero(inner)
        assert k0.shape == (degree,)
        expected = 1.0 - np.conj(blaschke_eval(inner, 0.0)) * blaschke_eval(inner, pts)
        np.testing.assert_allclose(tm_eval(inner, k0, pts), expected, rtol=0, atol=1e-13)
        # ||k_0||^2 = k_0(0) = 1 - |I(0)|^2
        assert abs(np.vdot(k0, k0) - (1.0 - abs(blaschke_eval(inner, 0.0)) ** 2)) < 1e-14


def _clark_cases(seed, count=8, radius=0.9):
    """Seeded inners of degree 1-9 within `radius`, with a unimodular
    constant; every other one has a triple zero."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        zeros = random_zeros(rng, int(rng.integers(1, 10)), radius)
        if k % 2:
            zeros[1:3] = zeros[0]
        cases.append(blaschke_make(zeros, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))))
    return cases


@pytest.mark.parametrize("power, extra", [(1, 0), (1, 3), (2, 0), (3, 2)])
def test_clark_rule_nodes_solve_j_equals_alpha(power, extra):
    # N points, in increasing argument, where J = z^extra I^power = -J(1)
    for inner in _clark_cases(33):
        nodes, weights = clark_rule(inner, power, extra)
        count = power * inner.degree + extra
        assert nodes.shape == weights.shape == (count,)
        J = lambda z: blaschke_eval(inner, z) ** power * z**extra
        assert np.abs(J(nodes) + J(1.0 + 0.0j)).max() <= 1e-12
        assert np.all(np.diff(np.angle(nodes) % (2.0 * np.pi)) > 0.0)
        assert np.all(weights > 0.0)
        if extra:
            # J(0) = 0 puts the constants in K_J, so the weights sum to ||1||^2
            assert abs(weights.sum() - 1.0) <= 1e-13


def test_clark_rule_matches_clark_unitary_eigenvalues():
    # U = S_I + c k_0 (x) C k_0 is unitary for c = alpha / (1 - alpha conj(I(0))),
    # and its eigenvalues are the points where I = alpha (Clark 1972):
    # U f = z f + <f, C k_0>(c k_0 - I), since S_I f = z f - <f, C k_0> I
    for inner in _clark_cases(34):
        S = tm_compression(inner, analytic=[0.0, 1.0]).entries
        k0 = tm_kernel_at_zero(inner)
        ck0 = _conjugate_kernel_coords(inner, 0.0, 2.0)
        alpha = -blaschke_eval(inner, 1.0 + 0.0j)
        c = alpha / (1.0 - alpha * np.conj(blaschke_eval(inner, 0.0)))
        U = S + c * np.outer(k0, ck0.conj())
        assert np.abs(U.conj().T @ U - np.eye(inner.degree)).max() <= 1e-14
        eigenvalues = np.linalg.eigvals(U)
        eigenvalues = eigenvalues[np.argsort(np.angle(eigenvalues) % (2.0 * np.pi))]
        nodes, _ = clark_rule(inner)
        assert np.abs(eigenvalues - nodes).max() <= 1e-13


def test_clark_rule_tm_gram_is_identity():
    # sum_zeta w e_j(zeta) conj(e_k(zeta)) = <e_j, e_k> exactly on K_I
    for inner in _clark_cases(35, count=12):
        nodes, weights = clark_rule(inner)
        e = tm_eval(inner, np.eye(inner.degree), nodes)
        gram = (e * weights) @ e.conj().T
        np.testing.assert_allclose(gram, np.eye(inner.degree), rtol=0, atol=1e-13)


def test_clark_rule_even_norms_match_trapezoid():
    # ||f||_2k^2k = ||f^k||_2^2 with f^k in K_{I^k}: kn nodes, no grid
    rng = np.random.default_rng(36)
    m = 1 << 16
    pts = np.exp(2j * np.pi * np.arange(m) / m)
    for inner in _clark_cases(37, count=6):
        coords = rng.standard_normal(inner.degree) + 1j * rng.standard_normal(inner.degree)
        reference = np.abs(tm_eval(inner, coords, pts))
        for k in (2, 3):
            nodes, weights = clark_rule(inner, power=k)
            values = np.abs(tm_eval(inner, coords, nodes))
            norm = np.sum(weights * values ** (2 * k)) ** (1.0 / (2 * k))
            expected = np.mean(reference ** (2 * k)) ** (1.0 / (2 * k))
            assert norm == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_clark_rule_near_the_circle():
    # a zero at 1 - 1e-6 puts a node in a window of width about 1e-6; the
    # Gram error grows like eps / (1 - r)
    rng = np.random.default_rng(38)
    zeros = list(random_zeros(rng, 9, 0.9)) + [(1.0 - 1e-6) * np.exp(0.4j)]
    inner = blaschke_make(zeros)
    nodes, weights = clark_rule(inner)
    e = tm_eval(inner, np.eye(inner.degree), nodes)
    gram = (e * weights) @ e.conj().T
    assert np.abs(gram - np.eye(inner.degree)).max() <= 1e-8


def test_clark_rule_failures(monkeypatch):
    inner = blaschke_make([0.3, -0.5j])
    with pytest.raises(ValueError, match="power"):
        clark_rule(inner, power=0)
    with pytest.raises(ValueError, match="power"):
        clark_rule(inner, extra=-1)
    monkeypatch.setattr(model_space, "_CLARK_MAX_ITER", 1)
    with pytest.raises(IllConditionedError, match="Clark nodes unresolved"):
        clark_rule(inner)


def test_cauchy_basis():
    inner = blaschke_make([0.3, -0.5])
    basis = cauchy_basis(inner, 2.0)
    # raw kernels 1/(1 - conj(z_k) z), ordered by (modulus, argument)
    k1 = unnormalized_kernel(0.3).boundary(DEFAULT_GRID)
    assert (basis.functions[0] - k1).l2_norm() < 1e-12
    with pytest.raises(ValueError):
        cauchy_basis(blaschke_make([0.4, 0.4]), 2.0)


def test_expand_roundtrip_and_failure():
    rng = np.random.default_rng(44)
    inner = random_blaschke(rng, max_degree=4)
    basis = tm_basis(inner, 2.0)
    coords = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(
        basis.dimension
    )
    f = basis.synthesize(coords)
    got, residual = expand(basis, f)
    np.testing.assert_allclose(got, coords, atol=1e-9)
    assert residual < 1e-10
    with pytest.raises(IllConditionedError):
        expand(basis, monomial(DEFAULT_GRID, basis.dimension + 5))


def test_decompose_anchors():
    g = DEFAULT_GRID
    z2 = blaschke_make([0.0, 0.0])
    g3, h3 = decompose(z2, monomial(g, 3))
    assert (g3 - monomial(g, 3)).l2_norm() < 1e-12
    assert h3.l2_norm() < 1e-12

    f = BoundaryFunction.from_poly(g, [1.0, 1.0, 1.0])
    part_g, part_h = decompose(z2, f)
    np.testing.assert_allclose(part_h.poly_coeffs(1), [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(part_g.poly_coeffs(2), [0.0, 0.0, 1.0], atol=1e-12)

    b = blaschke_make([0.5])
    part_g, part_h = decompose(b, monomial(g, 0))
    expected_h = 0.75 * unnormalized_kernel(0.5).boundary(g)
    assert (part_h - expected_h).l2_norm() < 1e-12
    expected_g = -0.5 * b.boundary(g)
    assert (part_g - expected_g).l2_norm() < 1e-10


def test_decompose_resums_and_divides():
    rng = np.random.default_rng(45)
    for _ in range(8):
        inner = random_blaschke(rng)
        f = random_analytic(rng, degree=25)
        part_g, part_h = decompose(inner, f)
        assert (part_g + part_h - f).l2_norm() < 1e-10 * max(1.0, f.l2_norm())
        # multiple-of-inner part: conj(I) * g has no negative spectrum
        ratio = inner.boundary(DEFAULT_GRID).conj() * part_g
        assert ratio.negative_mass() < 1e-9


def test_annihilator_defect():
    g = DEFAULT_GRID
    z2 = blaschke_make([0.0, 0.0])
    f = monomial(g, 0) + monomial(g, 5)
    assert annihilator_defect(z2, f, monomial(g, 3)) < 1e-12
    assert annihilator_defect(blaschke_make([0.0]), monomial(g, 0), monomial(g, 0)) < 1e-14

    rng = np.random.default_rng(46)
    inner = blaschke_make([0.3, -0.5])
    for _ in range(5):
        f = random_analytic(rng, degree=8)
        h = random_analytic(rng, degree=8)
        assert annihilator_defect(inner, f, h) < 1e-9


def test_duality_gram_tm_identity():
    z2 = blaschke_make([0.0, 0.0])
    for p in (1.5, 2.0, 4.0):
        G = duality_gram(z2, p)
        np.testing.assert_allclose(G.entries, np.eye(2), atol=1e-12)
    G1 = duality_gram(blaschke_make([0.5]), 2.0)
    np.testing.assert_allclose(G1.entries, [[1.0]], atol=1e-12)


def test_duality_gram_cauchy_closed_form():
    inner = blaschke_make([0.3, -0.5])
    G = duality_gram(inner, 2.0, kind="cauchy_kernels")
    zs = [0.3, -0.5]
    expected = np.array(
        [[1.0 / (1.0 - np.conj(zk) * zj) for zk in zs] for zj in zs]
    )
    np.testing.assert_allclose(G.entries, expected, atol=1e-10)
    assert G.sigma_min() > 0.0


def test_duality_gram_random_nonsingular():
    rng = np.random.default_rng(47)
    for _ in range(5):
        inner = random_blaschke(rng, max_degree=4)
        for p in (1.5, 4.0):
            G = duality_gram(inner, p)
            sv = G.singular_values()
            assert sv[-1] / sv[0] > 1e-10


def test_basis_serialization_and_describe():
    inner = blaschke_make([0.3, -0.5])
    basis = tm_basis(inner, 2.0)
    doc = basis.to_json_dict()
    assert doc["kind"] == "takenaka_malmquist"
    assert len(doc["functions"]) == 2
    assert "degree 2" in basis.describe()


def test_custom_grid():
    grid = CircleGrid(m=256, n=100)
    inner = blaschke_make([0.3, -0.5])
    basis = tm_basis(inner, 2.0, grid)
    assert basis.grid == grid
    f = BoundaryFunction.from_poly(grid, [1.0, 0.5])
    pf = project(inner, f)
    assert (project(inner, pf) - pf).l2_norm() < 1e-9
