"""Toeplitz/Hankel operators, compressions, the commutant, symbol recovery."""

import numpy as np
import pytest
from conftest import random_analytic, random_blaschke, random_poly, random_zeros

from hardyops import (
    BoundaryFunction,
    CommutationError,
    DEFAULT_GRID,
    GridMismatchError,
    IllConditionedError,
    MonomialRange,
    OperatorMatrix,
    RankAmbiguityError,
    TrivialInnerError,
    adjoint_defect,
    annihilator_defect,
    blaschke_make,
    cauchy_basis,
    coanalytic_kernel_check,
    commutant_basis,
    commutation_residual,
    compressed_matrix,
    compressed_shift,
    expand,
    hankel_apply,
    hankel_matrix,
    hankel_structure_check,
    hankel_symbol,
    hp_norm,
    induced_hankel_matrix,
    intertwine_defect,
    kernel_eigen_residual,
    monomial,
    riesz_split,
    pairing,
    symbol_recover,
    tm_basis,
    tm_compression,
    toeplitz_apply,
    unnormalized_kernel,
)
from hardyops import operators
from hardyops.model_space import _project_samples

P = np.polynomial.polynomial


def _random_trig(rng, grid, band=8):
    coeffs = np.zeros(2 * grid.n + 1, dtype=complex)
    idx = np.arange(-band, band + 1)
    vals = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
    coeffs[grid.n + idx] = vals
    return BoundaryFunction.from_coeffs(grid, coeffs)


def test_toeplitz_anchors():
    g = DEFAULT_GRID
    assert toeplitz_apply(monomial(g, -1), monomial(g, 0)).l2_norm() < 1e-12
    out = toeplitz_apply(monomial(g, 1), monomial(g, 0))
    assert (out - monomial(g, 1)).l2_norm() < 1e-12
    # kernel at the zero of the symbol is annihilated by the conjugate symbol
    a_bar = BoundaryFunction.from_poly(g, [-0.5, 1.0]).conj()
    kw = unnormalized_kernel(0.5).boundary(g)
    assert toeplitz_apply(a_bar, kw).l2_norm() < 1e-10


def test_hankel_anchors():
    g = DEFAULT_GRID
    out = hankel_apply(monomial(g, -1), monomial(g, 0))
    assert (out - monomial(g, -1)).l2_norm() < 1e-12
    assert hankel_apply(monomial(g, -1), monomial(g, 1)).l2_norm() < 1e-12
    rng = np.random.default_rng(50)
    f = random_analytic(rng, degree=10)
    psi = random_analytic(rng, degree=6)
    assert hankel_apply(psi, f).l2_norm() < 1e-10


def test_eigen_identity_sweep():
    rng = np.random.default_rng(51)
    for _ in range(6):
        a = random_poly(rng, int(rng.integers(1, 5)))
        w = complex(0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
        assert kernel_eigen_residual(a, w) < 1e-8


def test_compressed_anchors():
    g = DEFAULT_GRID
    z2 = blaschke_make([0.0, 0.0])
    basis = tm_basis(z2, 2.0)
    S = compressed_shift(z2, basis)
    np.testing.assert_allclose(S.entries, [[0.0, 0.0], [1.0, 0.0]], atol=1e-12)
    a0, a1 = 0.3 + 0.1j, -0.7 + 0.2j
    a_bar = BoundaryFunction.from_poly(g, [a0, a1]).conj()
    M = compressed_matrix(z2, a_bar, basis)
    np.testing.assert_allclose(
        M.entries,
        [[np.conj(a0), np.conj(a1)], [0.0, np.conj(a0)]],
        atol=1e-12,
    )
    rng = np.random.default_rng(52)
    inner = random_blaschke(rng, max_degree=4)
    b = tm_basis(inner, 2.0)
    eye = compressed_matrix(inner, monomial(g, 0), b)
    np.testing.assert_allclose(eye.entries, np.eye(inner.degree), atol=1e-10)


def test_compressed_matrix_reproduces_operation():
    rng = np.random.default_rng(53)
    inner = random_blaschke(rng, max_degree=4)
    basis = tm_basis(inner, 2.0)
    phi = BoundaryFunction.from_poly(DEFAULT_GRID, random_poly(rng, 3))
    M = compressed_matrix(inner, phi, basis)
    from hardyops import project

    for k, ek in enumerate(basis.functions):
        image = project(inner, toeplitz_apply(phi, ek))
        via_matrix = basis.synthesize(M.entries[:, k])
        assert (image - via_matrix).l2_norm() < 1e-8


def test_compressed_mismatch_errors():
    inner = blaschke_make([0.3, -0.5])
    other = blaschke_make([0.2])
    basis = tm_basis(inner, 2.0)
    phi = monomial(DEFAULT_GRID, 1)
    with pytest.raises(ValueError):
        compressed_matrix(other, phi, basis)
    with pytest.raises(ValueError):
        compressed_shift(other, basis)
    from hardyops import CircleGrid

    phi_small = monomial(CircleGrid(m=64, n=16), 1)
    with pytest.raises(GridMismatchError):
        compressed_matrix(inner, phi_small, basis)


def test_coanalytic_restriction_stays_in_model_space():
    rng = np.random.default_rng(54)
    for _ in range(5):
        inner = random_blaschke(rng, max_degree=4)
        a = random_poly(rng, 3)
        a_bar = BoundaryFunction.from_poly(DEFAULT_GRID, a).conj()
        basis = tm_basis(inner, 2.0)
        from hardyops import project

        for e in basis.functions:
            image = toeplitz_apply(a_bar, e)
            assert (project(inner, image) - image).l2_norm() < 1e-9
            h = random_analytic(rng, degree=6)
            assert annihilator_defect(inner, image, h) < 1e-8


def test_hankel_matrix_entries_are_fourier_coefficients():
    rng = np.random.default_rng(55)
    psi = _random_trig(rng, DEFAULT_GRID, band=8)
    A = hankel_matrix(psi, rows=12, cols=12)
    assert A.rows == 12 and A.cols == 13
    for j in range(1, 13):
        for k in range(13):
            assert A.entries[j - 1, k] == pytest.approx(
                psi.coeff(-(j + k)), abs=1e-12
            )
    assert "monomials 0..12" == A.domain.describe()
    assert "conjugate monomials 1..12" == A.codomain.describe()


def test_hankel_structure_and_intertwine():
    rng = np.random.default_rng(56)
    for _ in range(5):
        psi = _random_trig(rng, DEFAULT_GRID, band=8)
        A = hankel_matrix(psi)
        st = hankel_structure_check(A)
        assert st.defect < 1e-10
        assert intertwine_defect(A) < 1e-10
        for m in range(1, 9):
            assert st.antidiagonals[m - 1] == pytest.approx(psi.coeff(-m), abs=1e-10)


def test_single_mode_hankel():
    A = hankel_matrix(monomial(DEFAULT_GRID, -1), rows=6, cols=6)
    st = hankel_structure_check(A)
    assert st.antidiagonals[0] == pytest.approx(1.0)
    np.testing.assert_allclose(st.antidiagonals[1:], 0.0, atol=1e-12)
    assert st.defect < 1e-12
    assert intertwine_defect(A) < 1e-12


def test_constructed_violation_fails_both_checks():
    entries = np.zeros((2, 2), dtype=complex)
    entries[1, 0] = 1.0  # j=2, k=0 disagrees with j=1, k=1 on the m=2 antidiagonal
    V = OperatorMatrix(entries, MonomialRange(0, 1), MonomialRange(1, 2, conjugate=True))
    assert hankel_structure_check(V).defect >= 1.0
    assert intertwine_defect(V) >= 1.0


def test_hankel_symbol_reconstruction():
    rng = np.random.default_rng(57)
    psi = _random_trig(rng, DEFAULT_GRID, band=8)
    _, minus = riesz_split(psi)
    st = hankel_structure_check(hankel_matrix(psi))
    rebuilt = hankel_symbol(st)
    assert (rebuilt - minus).l2_norm() < 1e-10
    with pytest.raises(GridMismatchError):
        from hardyops import CircleGrid

        hankel_symbol(st, CircleGrid(m=64, n=16))


def test_hankel_band_guard():
    with pytest.raises(GridMismatchError):
        from hardyops import CircleGrid

        hankel_matrix(monomial(CircleGrid(m=64, n=16), -1), rows=12, cols=12)


def test_tm_compression_anchors():
    z2 = blaschke_make([0.0, 0.0])
    basis = tm_basis(z2, 2.0)
    a0, a1 = 0.3 + 0.1j, -0.7 + 0.2j
    M = tm_compression(z2, coanalytic=[a0, a1])
    np.testing.assert_allclose(M.entries, [[np.conj(a0), np.conj(a1)], [0.0, np.conj(a0)]])
    inner = blaschke_make([0.3, -0.5, 0.2 + 0.4j])
    S = compressed_shift(inner, tm_basis(inner, 2.0)).entries
    np.testing.assert_array_equal(tm_compression(inner, [0.0, 1.0]).entries, S)
    np.testing.assert_array_equal(tm_compression(inner).entries, np.zeros((3, 3)))
    assert M.to_json_dict()["domain"] == "takenaka_malmquist basis, inner degree 2"
    assert basis.describe().startswith(M.to_json_dict()["domain"])


def _tm_compression_cases():
    # (seed, degree, repeated zeros); radius up to 0.95
    return [(0, 1, False), (1, 2, True), (2, 5, False), (3, 8, True),
            (4, 13, False), (5, 20, True), (6, 27, False), (7, 40, False), (8, 40, True)]


@pytest.mark.parametrize("seed,degree,repeated", _tm_compression_cases())
def test_tm_compression_matches_fft_route(seed, degree, repeated):
    rng = np.random.default_rng([67, seed])
    zeros = random_zeros(rng, degree, 0.95)
    if repeated:
        zeros[degree // 2:] = zeros[0]
    inner = blaschke_make(zeros, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    basis = tm_basis(inner, 2.0)
    plus = random_poly(rng, int(rng.integers(0, 7)))
    minus = random_poly(rng, int(rng.integers(0, 7)))
    cases = [
        ((plus, ()), BoundaryFunction.from_poly(DEFAULT_GRID, plus)),
        (((), minus), BoundaryFunction.from_poly(DEFAULT_GRID, minus).conj()),
        (
            (plus, minus),
            BoundaryFunction.from_poly(DEFAULT_GRID, plus)
            + BoundaryFunction.from_poly(DEFAULT_GRID, minus).conj(),
        ),
    ]
    for (analytic, coanalytic), symbol in cases:
        closed = tm_compression(inner, analytic, coanalytic).entries
        fft = compressed_matrix(inner, symbol, basis).entries
        scale = max(1.0, np.linalg.norm(closed, 2))
        assert np.abs(closed - fft).max() < 1e-12 * scale


def test_tm_compression_rejects_trivial_inner():
    with pytest.raises(ValueError):
        tm_compression(blaschke_make([]), [1.0])


def test_commutant_dimension_anchors():
    assert len(commutant_basis(blaschke_make([0.0]))[0]) == 1

    z2 = blaschke_make([0.0, 0.0])
    mats, _ = commutant_basis(z2)
    assert len(mats) == 2
    S = compressed_shift(z2, tm_basis(z2, 2.0))
    span = np.column_stack(
        [m.entries.ravel() for m in mats]
    )
    for target in (np.eye(2), S.entries):
        coords, res, *_ = np.linalg.lstsq(span, target.ravel(), rcond=None)
        assert np.linalg.norm(span @ coords - target.ravel()) < 1e-10

    inner = blaschke_make([0.3, -0.5])
    assert len(commutant_basis(inner)[0]) == 2


def test_commutant_random_dimension_and_commutation():
    rng = np.random.default_rng(58)
    for _ in range(8):
        inner = random_blaschke(rng, max_degree=5)
        mats, _ = commutant_basis(inner)
        assert len(mats) == inner.degree
        S = compressed_shift(inner, tm_basis(inner, 2.0))
        for X in mats:
            assert X.to_json_dict()["domain"] == tm_compression(inner).to_json_dict()["domain"]
            assert commutation_residual(X, S) < 1e-8


def _commutation_map(S):
    """X -> X S - S X on column-major vec(X)."""
    eye = np.eye(S.shape[0])
    return np.kron(S.T, eye) - np.kron(eye, S)


def test_commutation_singular_values_gap():
    inner = blaschke_make([0.3, -0.5])
    _, sv = commutant_basis(inner)
    assert sv.shape == (4,)
    assert sv[1] > 1e-3  # kept part well away from the nullspace
    assert sv[2] < 1e-12


def test_commutant_basis_reports_its_singular_values():
    rng = np.random.default_rng(68)
    inner = blaschke_make(random_zeros(rng, 5, 0.9))
    basis = tm_basis(inner, 2.0)
    mats, sv = commutant_basis(inner)
    plain, _ = commutant_basis(inner)
    assert len(mats) == len(plain) == 5
    for X, Y in zip(mats, plain):
        np.testing.assert_array_equal(X.entries, Y.entries)
    assert sv.shape == (25,) and np.all(np.diff(sv) <= 0.0)
    reference = np.linalg.svd(
        _commutation_map(compressed_shift(inner, basis).entries), compute_uv=False
    )
    np.testing.assert_allclose(sv, reference, atol=1e-14)


def test_rank_ambiguity_error(monkeypatch):
    inner = blaschke_make([0.3, -0.5, 0.2 + 0.4j])
    # place the threshold just above a nonzero singular value so the cut
    # lands inside the genuine spectrum, where no clean gap exists
    _, sv = commutant_basis(inner)
    monkeypatch.setattr(operators, "NULLSPACE_RTOL", float(sv[-4] / sv[0]) * 1.0001)
    assert operators.RANK_GAP_TOL == 1e-6
    with pytest.raises(RankAmbiguityError):
        commutant_basis(inner)


def test_symbol_recover_anchors():
    z2 = blaschke_make([0.0, 0.0])
    basis = tm_basis(z2, 2.0)
    S = compressed_shift(z2, basis)
    phi, resid = symbol_recover(z2, S)
    np.testing.assert_allclose(phi, [0.0, 1.0], atol=1e-10)
    assert resid < 1e-10

    eye = OperatorMatrix(np.eye(2), basis, basis)
    phi1, _ = symbol_recover(z2, eye)
    np.testing.assert_allclose(phi1, [1.0, 0.0], atol=1e-10)
    with pytest.raises(ValueError):
        symbol_recover(z2, OperatorMatrix(np.eye(3), basis, basis))


def test_symbol_recover_roundtrip():
    rng = np.random.default_rng(59)
    for _ in range(6):
        inner = random_blaschke(rng, max_degree=5)
        n = inner.degree
        basis = tm_basis(inner, 2.0)
        phi0 = random_poly(rng, n - 1) if n > 1 else random_poly(rng, 0)
        T = compressed_matrix(
            inner, BoundaryFunction.from_poly(DEFAULT_GRID, phi0), basis
        )
        phi, resid = symbol_recover(inner, T)
        np.testing.assert_allclose(phi, phi0, atol=1e-8)
        assert resid < 1e-7


def _fft_shift(inner, basis):
    return compressed_matrix(inner, monomial(basis.grid, 1), basis).entries


@pytest.mark.parametrize(
    "zeros",
    [
        [0.3, 0.3, -0.5],
        [0.0, 0.0, 0.0],
        [0.95, -0.95j, 0.5 + 0.5j],
        [0.6 - 0.2j, 0.6 - 0.2j, 0.6 - 0.2j, -0.1],
    ],
)
def test_closed_form_shift_matches_fft_route_anchors(zeros):
    inner = blaschke_make(zeros)
    basis = tm_basis(inner, 2.0)
    closed = compressed_shift(inner, basis).entries
    assert np.abs(closed - _fft_shift(inner, basis)).max() < 1e-12
    assert np.abs(np.triu(closed, 1)).max() == 0.0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("degree,radius", [(5, 0.9), (10, 0.95), (20, 0.9), (20, 0.95)])
def test_closed_form_shift_matches_fft_route(seed, degree, radius):
    rng = np.random.default_rng([63, seed])
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    inner = blaschke_make(random_zeros(rng, degree, radius), phase)
    basis = tm_basis(inner, 2.0)
    closed = compressed_shift(inner, basis).entries
    assert np.abs(closed - _fft_shift(inner, basis)).max() < 1e-12


def test_commutant_and_recovery_degree_20():
    rng = np.random.default_rng(64)
    inner = blaschke_make(random_zeros(rng, 20, 0.9))
    basis = tm_basis(inner, 2.0)
    mats, _ = commutant_basis(inner)
    assert len(mats) == 20
    phi0 = random_poly(rng, 19)
    T = compressed_matrix(inner, BoundaryFunction.from_poly(DEFAULT_GRID, phi0), basis)
    phi, resid = symbol_recover(inner, T)
    np.testing.assert_allclose(phi, phi0, atol=1e-8)
    assert resid < 1e-8


def test_tm_commutant_and_recovery_skip_fft_compressions(monkeypatch):
    rng = np.random.default_rng(65)
    inner = blaschke_make(random_zeros(rng, 6, 0.9))
    basis = tm_basis(inner, 2.0)
    phi0 = random_poly(rng, 5)
    T = compressed_matrix(inner, BoundaryFunction.from_poly(DEFAULT_GRID, phi0), basis)

    def boom(*args, **kwargs):
        raise AssertionError("grid basis or FFT compression called")

    for name in ("compressed_matrix", "expand", "tm_basis"):
        monkeypatch.setattr(operators, name, boom)
    mats, sv = commutant_basis(inner)
    assert len(mats) == 6
    assert sv.shape == (36,)
    for X in mats:
        symbol_recover(inner, X)
    phi, _ = symbol_recover(inner, T)
    np.testing.assert_allclose(phi, phi0, atol=1e-8)


def test_cauchy_compression_is_tm_compression_in_cauchy_coordinates():
    rng = np.random.default_rng(66)
    inner = blaschke_make(random_zeros(rng, 4, 0.8))
    basis = cauchy_basis(inner, 2.0)
    tm = tm_basis(inner, 2.0)
    # column k: the TM coordinates of the k-th Cauchy kernel
    C = np.column_stack([expand(tm, f)[0] for f in basis.functions])
    assert np.linalg.cond(C) < 100.0
    phi0 = random_poly(rng, 3)
    T = compressed_matrix(inner, BoundaryFunction.from_poly(DEFAULT_GRID, phi0), basis)
    closed = np.linalg.solve(C, tm_compression(inner, analytic=phi0).entries @ C)
    assert np.abs(T.entries - closed).max() < 1e-9 * np.linalg.norm(closed, 2)
    with pytest.raises(ValueError):
        compressed_shift(inner, basis)


@pytest.mark.parametrize("seed", range(8))
def test_symbol_recover_roundtrip_closed_form(seed):
    rng = np.random.default_rng([70, seed])
    degree = [1, 2, 3, 5, 8, 12, 16, 20][seed]
    zeros = random_zeros(rng, degree, 0.95)
    if seed % 2:
        zeros[degree // 2:] = zeros[0]
    inner = blaschke_make(zeros, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    phi0 = random_poly(rng, degree - 1)
    T = tm_compression(inner, analytic=phi0).entries
    phi, resid = symbol_recover(inner, OperatorMatrix(T, "tm", "tm"))
    assert phi.shape == (degree,)
    assert resid <= operators.RECOVERY_TOL
    rebuilt = tm_compression(inner, analytic=phi).entries
    assert np.linalg.norm(rebuilt - T) <= operators.RECOVERY_TOL * np.linalg.norm(T)
    # the coefficients are as well determined as the powers of S_I are
    # independent: a 10-fold zero at degree 20 makes them nearly dependent
    S = tm_compression(inner, analytic=[0.0, 1.0]).entries
    powers = np.column_stack([np.linalg.matrix_power(S, d).ravel() for d in range(degree)])
    bound = 1e-15 * np.linalg.cond(powers) * np.linalg.norm(phi0)
    assert np.linalg.norm(phi - phi0) <= bound


def test_symbol_recover_rejects_noncommuting():
    inner = blaschke_make([0.3, -0.5])
    basis = tm_basis(inner, 2.0)
    T = OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), basis, basis)
    with pytest.raises(CommutationError):
        symbol_recover(inner, T)


def test_compressed_polynomials_commute():
    rng = np.random.default_rng(60)
    for _ in range(5):
        inner = random_blaschke(rng, max_degree=5)
        basis = tm_basis(inner, 2.0)
        S = compressed_shift(inner, basis)
        phi = BoundaryFunction.from_poly(
            DEFAULT_GRID, random_poly(rng, max(0, inner.degree - 1))
        )
        T = compressed_matrix(inner, phi, basis)
        assert commutation_residual(T, S) < 1e-9


def test_adjoint_defect_anchors():
    z2 = blaschke_make([0.0, 0.0])
    assert adjoint_defect(z2, [0.0, 1.0]) < 1e-10
    assert adjoint_defect(z2, [1.0]) < 1e-12
    inner = blaschke_make([0.3, -0.5])
    assert adjoint_defect(inner, [0.0, 1.0, 1.0]) < 1e-8


def test_adjoint_defect_random():
    rng = np.random.default_rng(61)
    for _ in range(9):
        inner = random_blaschke(rng, max_degree=4)
        phi = random_poly(rng, 4)
        assert adjoint_defect(inner, phi) < 1e-8


def _adjoint_defect_pairwise(inner, symbol_coeffs, p):
    """The defect pair by pair, over separately built p and q bases."""
    phi = BoundaryFunction.from_poly(DEFAULT_GRID, symbol_coeffs)
    basis_p = tm_basis(inner, p)
    basis_q = tm_basis(inner, 1.0 / (1.0 - 1.0 / p))
    ib = inner.boundary(DEFAULT_GRID)
    images_p = [_project_samples(ib, toeplitz_apply(phi, ek)) for ek in basis_p.functions]
    images_q = [toeplitz_apply(phi.conj(), fj) for fj in basis_q.functions]
    defect = 0.0
    for k, ek in enumerate(basis_p.functions):
        for j, fj in enumerate(basis_q.functions):
            lhs = pairing(images_p[k], fj)
            rhs = pairing(ek, images_q[j])
            defect = max(defect, abs(lhs - rhs))
    return defect


def test_adjoint_defect_matches_pairwise_reference():
    rng = np.random.default_rng(69)
    for p, degree in ((1.5, 3), (2.0, 7), (4.0, 12)):
        inner = blaschke_make(random_zeros(rng, degree, 0.9))
        phi = random_poly(rng, 3)
        assert abs(adjoint_defect(inner, phi) - _adjoint_defect_pairwise(inner, phi, p)) < 1e-13


def test_coanalytic_kernel_check():
    assert coanalytic_kernel_check([-0.5, 1.0]) < 1e-9
    assert coanalytic_kernel_check([0.0, 1.0]) < 1e-12
    with pytest.raises(TrivialInnerError):
        coanalytic_kernel_check([2.0, 1.0])


def test_induced_hankel_classifies_commutation():
    rng = np.random.default_rng(62)
    inner = blaschke_make([0.3, -0.5])
    basis = tm_basis(inner, 2.0)
    phi = BoundaryFunction.from_poly(DEFAULT_GRID, random_poly(rng, 1))
    T = compressed_matrix(inner, phi, basis)
    A = induced_hankel_matrix(inner, T, basis, rows=16, cols=16)
    assert hankel_structure_check(A).defect < 1e-8
    # breaking commutation breaks the Hankel structure
    bad = OperatorMatrix(T.entries + 1e-3 * np.array([[0.0, 1.0], [0.0, 0.0]]), basis, basis)
    Abad = induced_hankel_matrix(inner, bad, basis, rows=16, cols=16)
    assert hankel_structure_check(Abad).defect > 1e-4


def test_operator_matrix_interface():
    basis_desc = MonomialRange(0, 3)
    M = OperatorMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]), basis_desc, basis_desc)
    assert M.rows == 2 and M.cols == 2
    np.testing.assert_allclose(M.singular_values(), [2.0, 1.0])
    assert M.sigma_min() == pytest.approx(1.0)
    np.testing.assert_allclose(np.sort(M.eigenvalues().real), [1.0, 2.0])
    np.testing.assert_allclose(M.apply([1.0, 1.0]), [1.0, 2.0])
    doc = M.to_json_dict()
    assert doc["rows"] == 2 and doc["cols"] == 2
    assert doc["entries"][3] == [2.0, 0.0]
    assert doc["domain"] == "monomials 0..3"
    with pytest.raises(ValueError):
        OperatorMatrix(np.zeros(3), basis_desc, basis_desc)
    with pytest.raises(ValueError):
        OperatorMatrix(np.zeros((2, 3)), basis_desc, basis_desc).eigenvalues()
