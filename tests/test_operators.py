"""Toeplitz/Hankel operators, compressions, the commutant, symbol recovery."""

import numpy as np
import pytest
from conftest import (
    commutant_nullspace,
    lstsq_symbol,
    random_analytic,
    random_blaschke,
    random_poly,
    random_zeros,
    separated_zeros,
)

from hardyops import (
    BoundaryFunction,
    CommutationError,
    DEFAULT_GRID,
    GridMismatchError,
    IllConditionedError,
    MonomialRange,
    NonFiniteError,
    OperatorMatrix,
    TrivialInnerError,
    adjoint_defect,
    annihilator_defect,
    blaschke_make,
    cauchy_basis,
    clark_rule,
    coanalytic_kernel_check,
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
    project,
    symbol_recover,
    tm_basis,
    tm_compression,
    tm_kernel_at_zero,
    tm_project,
    toeplitz_apply,
    unnormalized_kernel,
)
from hardyops import operators
from hardyops.blaschke import _tm_shift, sorted_zeros
from hardyops.cli import ADJOINT_TOL
from hardyops.model_space import _project_samples, _tm_rows

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


def test_tm_project_anchors():
    # K_{z^2} is spanned by e_0 = 1 and e_1 = z, so P_I keeps two coefficients
    z2 = blaschke_make([0.0, 0.0])
    np.testing.assert_array_equal(tm_project(z2, [1.0, 2.0j, 3.0]), [1.0, 2.0j])
    inner = blaschke_make([0.3, -0.5, 0.2 + 0.4j])
    np.testing.assert_array_equal(tm_project(inner, [1.0]), tm_kernel_at_zero(inner))
    rng = np.random.default_rng(71)
    stack = random_poly(rng, 5) * np.ones((2, 3, 1))
    assert tm_project(inner, stack).shape == (2, 3, 3)
    np.testing.assert_allclose(tm_project(inner, stack)[1, 2], tm_project(inner, stack[0, 0]))
    with pytest.raises(ValueError):
        tm_project(blaschke_make([]), [1.0])


@pytest.mark.parametrize("seed", range(6))
def test_tm_project_matches_fft_route(seed):
    # f(S_I) k_0 against P_I f by FFT products, expanded in the sampled basis
    rng = np.random.default_rng([72, seed])
    inner = random_blaschke(rng, max_degree=20, radius=0.9)
    basis = tm_basis(inner, 2.0)
    for degree in (0, 3, 12, 30):
        coeffs = random_poly(rng, degree)
        fft, _ = expand(basis, project(inner, BoundaryFunction.from_poly(DEFAULT_GRID, coeffs)))
        scale = max(1.0, np.linalg.norm(coeffs))
        assert np.abs(tm_project(inner, coeffs) - fft).max() < 1e-12 * scale


@pytest.mark.parametrize("seed", range(3))
def test_tm_project_matches_clark_pairings(seed):
    # <f, e_j> summed over the n + d + 1 Clark points of z^(d+1) * I, exact
    # for f of degree d and every e_j
    rng = np.random.default_rng([73, seed])
    inner = blaschke_make(random_zeros(rng, 40, 0.9))
    coeffs = random_poly(rng, 12)
    nodes, weights = clark_rule(inner, extra=len(coeffs))
    pairings = _tm_rows(inner, nodes).conj() @ (weights * P.polyval(nodes, coeffs))
    scale = max(1.0, np.linalg.norm(coeffs))
    assert np.abs(tm_project(inner, coeffs) - pairings).max() < 1e-12 * scale


def _shift(inner):
    return tm_compression(inner, analytic=[0.0, 1.0]).entries


def test_commutant_dimension_anchors():
    assert len(commutant_nullspace(_shift(blaschke_make([0.0])))[0]) == 1

    z2 = blaschke_make([0.0, 0.0])
    mats, _ = commutant_nullspace(_shift(z2))
    assert len(mats) == 2
    S = compressed_shift(z2, tm_basis(z2, 2.0))
    span = np.column_stack(
        [m.ravel() for m in mats]
    )
    for target in (np.eye(2), S.entries):
        coords, res, *_ = np.linalg.lstsq(span, target.ravel(), rcond=None)
        assert np.linalg.norm(span @ coords - target.ravel()) < 1e-10

    inner = blaschke_make([0.3, -0.5])
    assert len(commutant_nullspace(_shift(inner))[0]) == 2


def test_commutant_random_dimension_and_commutation():
    rng = np.random.default_rng(58)
    for _ in range(8):
        inner = random_blaschke(rng, max_degree=5)
        mats, _ = commutant_nullspace(_shift(inner))
        assert len(mats) == inner.degree
        S = compressed_shift(inner, tm_basis(inner, 2.0))
        for X in mats:
            assert commutation_residual(OperatorMatrix(X, "tm", "tm"), S) < 1e-8


def test_commutation_singular_values_gap():
    _, sv = commutant_nullspace(_shift(blaschke_make([0.3, -0.5])))
    assert sv.shape == (4,)
    assert sv[1] > 1e-3  # kept part well away from the nullspace
    assert sv[2] < 1e-12


def _commuting_reference(rng, zeros):
    """An inner with the given zeros, its closed-form shift, and a commuting
    matrix that no polynomial evaluation built: a random combination of the
    reference nullspace, whose dimension must be n."""
    inner = blaschke_make(zeros, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    n = inner.degree
    S = _shift(inner)
    mats, _ = commutant_nullspace(S)
    assert len(mats) == n
    T = sum(c * X for c, X in zip(rng.standard_normal(n) + 1j * rng.standard_normal(n), mats))
    return inner, S, T


@pytest.mark.parametrize("index", range(36))
def test_symbol_recover_matches_reference_route(index):
    # degree 1-12, radius 0.5, 0.9 or 0.99, a double zero on every odd index
    rng = np.random.default_rng([72, index])
    degree = 1 + index % 12
    zeros = random_zeros(rng, degree, [0.5, 0.9, 0.99][index % 3])
    if index % 2 and degree > 1:
        zeros[0] = zeros[-1]
    inner, S, T = _commuting_reference(rng, zeros)
    phi, resid, condition = symbol_recover(inner, T)
    assert resid <= operators.RECOVERY_TOL and np.isfinite(condition)
    rebuilt = tm_compression(inner, analytic=phi).entries
    scale = np.linalg.norm(T)
    assert np.linalg.norm(rebuilt - T) <= 1e-12 * scale
    reference = tm_compression(inner, analytic=lstsq_symbol(S, T)).entries
    assert np.linalg.norm(rebuilt - reference) <= 1e-12 * scale


@pytest.mark.parametrize("multiplicity", [3, 4, 5, 6, 7])
def test_symbol_recover_at_clustered_zeros_within_cyclicity_condition(multiplicity):
    # A zero of high multiplicity makes every polynomial representation of a
    # generic commuting T ill-conditioned; the lstsq route does no better.
    # The error then follows cond_2(K), the margin the report prints.
    rng = np.random.default_rng([75, multiplicity])
    zeros = random_zeros(rng, 12, 0.99)
    zeros[:multiplicity] = zeros[-1]
    inner, S, T = _commuting_reference(rng, zeros)
    phi, resid, condition = symbol_recover(inner, T)
    rebuilt = tm_compression(inner, analytic=phi).entries
    assert np.linalg.norm(rebuilt - T) <= 1e-15 * condition * np.linalg.norm(T)
    assert resid <= operators.RECOVERY_TOL


def test_symbol_recover_anchors():
    z2 = blaschke_make([0.0, 0.0])
    basis = tm_basis(z2, 2.0)
    S = compressed_shift(z2, basis)
    phi, resid, condition = symbol_recover(z2, S)
    np.testing.assert_allclose(phi, [0.0, 1.0], atol=1e-10)
    assert resid < 1e-10
    # at a double zero at 0, k_0 = e_0 and S_I k_0 = e_1
    assert condition == 1.0

    eye = OperatorMatrix(np.eye(2), basis, basis)
    phi1, _, _ = symbol_recover(z2, eye)
    np.testing.assert_allclose(phi1, [1.0, 0.0], atol=1e-10)
    with pytest.raises(ValueError):
        symbol_recover(z2, OperatorMatrix(np.eye(3), basis, basis))
    with pytest.raises(ValueError):
        symbol_recover(z2, np.eye(4).reshape(2, 8))


def test_symbol_recover_stack_matches_single_calls():
    rng = np.random.default_rng(73)
    inner = blaschke_make(random_zeros(rng, 6, 0.9))
    rows = rng.standard_normal((2, 3, 6)) + 1j * rng.standard_normal((2, 3, 6))
    stack = np.array([[tm_compression(inner, analytic=r).entries for r in pair] for pair in rows])
    phi, resid, condition = symbol_recover(inner, stack)
    assert phi.shape == (2, 3, 6) and resid.shape == (2, 3)
    for i, j in np.ndindex(2, 3):
        one, one_resid, one_condition = symbol_recover(inner, stack[i, j])
        np.testing.assert_allclose(phi[i, j], one, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(phi[i, j], rows[i, j], rtol=0.0, atol=1e-10)
        assert abs(resid[i, j] - one_resid) <= 1e-15
        assert one_condition == condition


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
        phi, resid, _ = symbol_recover(inner, T)
        np.testing.assert_allclose(phi, phi0, atol=1e-8)
        assert resid < 1e-7


def test_newton_matrix_is_triangular_and_matches_fft_route():
    rng = np.random.default_rng(74)
    zeros = random_zeros(rng, 7, 0.9)
    zeros[4] = zeros[2]
    inner = blaschke_make(zeros)
    lam = np.asarray(sorted_zeros(inner))
    K, N = operators._newton_matrix(_shift(inner), tm_kernel_at_zero(inner))
    # diagonal j: sqrt(1-|lambda_j|^2) * prod_{i<j} (1 - conj(lambda_i) lambda_j)
    diagonal = [
        np.sqrt(1.0 - abs(lam[j]) ** 2) * np.prod(1.0 - np.conj(lam[:j]) * lam[j])
        for j in range(7)
    ]
    np.testing.assert_allclose(np.diag(K), diagonal, rtol=1e-12)
    # column j: N_j = prod_{i<j} (z - lambda_i) and the TM coordinates of
    # P_I N_j, found by FFT projection and basis expansion, which vanish
    # above the diagonal
    basis = tm_basis(inner, 2.0)
    for j in range(7):
        np.testing.assert_allclose(N[: j + 1, j], P.polyfromroots(lam[:j]), atol=1e-14)
        assert np.all(N[j + 1 :, j] == 0.0)
        coords, _ = expand(basis, project(inner, BoundaryFunction.from_poly(DEFAULT_GRID, N[:, j])))
        assert np.abs(coords - K[:, j]).max() < 1e-12


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


def _shift_by_columns(zeros):
    """Reference S_I built column by column, each column's running product
    of -conj(lambda_l) by its own cumprod."""
    lam = np.asarray(zeros, dtype=complex)
    n = len(lam)
    w = np.sqrt(1.0 - np.abs(lam) ** 2)
    S = np.diag(lam)
    for j in range(n - 1):
        run = np.cumprod(np.concatenate(([1.0], -np.conj(lam[j + 1 : n - 1]))))
        S[j + 1 :, j] = w[j + 1 :] * w[j] * run
    return S


def test_closed_form_shift_matches_column_loop():
    # one cumprod down the columns does the same arithmetic as the loop
    rng = np.random.default_rng(65)
    for k in range(300):
        degree = int(rng.integers(1, 45))
        lam = random_zeros(rng, degree, 0.95)
        if k % 3 == 0:
            lam[degree // 2 :] = lam[0]  # repeated zeros
        if k % 4 == 0:
            lam[: degree // 3] = 0.0  # zeros at the origin
        np.testing.assert_array_equal(_tm_shift(lam), _shift_by_columns(lam))


def test_commutant_and_recovery_degree_20():
    rng = np.random.default_rng(64)
    inner = blaschke_make(random_zeros(rng, 20, 0.9))
    basis = tm_basis(inner, 2.0)
    mats, _ = commutant_nullspace(_shift(inner))
    assert len(mats) == 20
    phi0 = random_poly(rng, 19)
    T = compressed_matrix(inner, BoundaryFunction.from_poly(DEFAULT_GRID, phi0), basis)
    phi, resid, _ = symbol_recover(inner, T)
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

    mats, sv = commutant_nullspace(_shift(inner))
    assert len(mats) == 6
    assert sv.shape == (36,)
    for name in ("compressed_matrix", "expand", "tm_basis"):
        monkeypatch.setattr(operators, name, boom)
    for X in mats:
        symbol_recover(inner, X)
    symbol_recover(inner, np.stack(mats))
    phi, _, _ = symbol_recover(inner, T)
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
    phi, resid, _ = symbol_recover(inner, OperatorMatrix(T, "tm", "tm"))
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


@pytest.mark.parametrize("radius", [0.99999, 1.0 - 1e-6])
def test_adjoint_defect_near_the_circle(radius):
    # n + deg(phi) Clark nodes whatever the radius; a grid would need
    # m = 2^23 at 0.99999 and 2^26 (refused) at 1 - 1e-6
    rng = np.random.default_rng(70)
    inner = blaschke_make(list(random_zeros(rng, 39, 0.9)) + [radius * np.exp(0.7j)])
    assert adjoint_defect(inner, random_poly(rng, 3)) <= ADJOINT_TOL


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


# -- the stack of powers -------------------------------------------------------


def _horner_recover(inner, stack):
    """`symbol_recover`'s solve and refinement with every phi(S_I) built by
    Horner's rule, the route the stack of powers replaced: the reference
    for the tests below."""
    S, k0 = inner.tm_shift, inner.tm_kernel
    K, N = operators._newton_matrix(S, k0)
    coeffs = operators._newton_solve(K, N, stack @ k0)
    misfit = stack - operators._poly_of_matrix(coeffs, S)
    refined = coeffs + operators._newton_solve(K, N, misfit @ k0)
    misfits = np.linalg.norm(misfit, axis=(1, 2))
    refined_misfits = np.linalg.norm(stack - operators._poly_of_matrix(refined, S), axis=(1, 2))
    return np.where((refined_misfits < misfits)[:, None], refined, coeffs)


def _power_stack_cases():
    cases = []
    for degree, radius, separation in ((10, 0.95, 0.05), (40, 0.95, 0.05), (80, 0.97, 0.015)):
        zeros = separated_zeros(np.random.default_rng([79, degree]), degree, radius, separation)
        cases.append(pytest.param(zeros, id=f"degree_{degree}"))
    for multiplicity in (3, 5, 7):
        # the clustered cases of test_symbol_recover_at_clustered_zeros_...
        rng = np.random.default_rng([75, multiplicity])
        zeros = random_zeros(rng, 12, 0.99)
        zeros[:multiplicity] = zeros[-1]
        cases.append(pytest.param(zeros, id=f"{multiplicity}_fold"))
    rng = np.random.default_rng(76)
    zeros = random_zeros(rng, 20, 0.9)
    zeros[:10] = 0.99 * np.exp(2j * np.pi * rng.uniform())
    cases.append(pytest.param(zeros, id="10_fold"))
    return cases


@pytest.mark.parametrize("zeros", _power_stack_cases())
def test_power_stack_matches_horner(zeros):
    # Measured: the two routes to n polynomials of S_I differ by at most
    # 1.2e-15 of the largest entry, and the matrices rebuilt from the
    # recovered coefficients by at most 2.0e-15 relative, both at degree
    # 80.  The coefficients themselves agree only to about cond_2(K) * eps,
    # and past cond_2(K) = 1/eps (1.9e18 at the 10-fold zero) the residual
    # is 5.6e-11 on either route.
    inner = blaschke_make(zeros)
    n = inner.degree
    rng = np.random.default_rng(n)
    coeffs = rng.standard_normal((8, n)) + 1j * rng.standard_normal((8, n))
    S = inner.tm_shift
    powers = operators._powers(S)
    horner = operators._poly_of_matrix(coeffs, S)
    stacked = operators._poly_stack(coeffs, powers)
    assert np.abs(stacked - horner).max() <= 1e-14 * np.abs(horner).max()
    phi, residuals, condition = symbol_recover(inner, horner, powers)
    assert residuals.max() <= (1e-14 if condition < 1e12 else operators.RECOVERY_TOL)
    reference = _horner_recover(inner, horner)
    rebuilt = operators._poly_of_matrix(phi, S)
    rebuilt_reference = operators._poly_of_matrix(reference, S)
    sizes = np.linalg.norm(horner, axis=(1, 2))
    assert np.all(np.linalg.norm(rebuilt - rebuilt_reference, axis=(1, 2)) <= 1e-14 * sizes)
    # the call builds the same stack when it is not handed one
    np.testing.assert_array_equal(symbol_recover(inner, horner)[0], phi)


def test_symbol_recover_scale_does_not_reach_the_residual():
    rng = np.random.default_rng(80)
    inner = blaschke_make(random_zeros(rng, 8, 0.9))
    phi0 = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    T = operators._poly_of_matrix(phi0, inner.tm_shift)
    phi, residuals, _ = symbol_recover(inner, T)
    big_phi, big_residuals, _ = symbol_recover(inner, 1e200 * T)
    assert big_residuals.max() <= 1e-15 and residuals.max() <= 1e-15
    np.testing.assert_allclose(big_phi / 1e200, phi, rtol=1e-13)


def test_symbol_recover_overflow_is_a_typed_error():
    # T = 1e306 (S_I - lambda_0) / (lambda_1 - lambda_0) has entries up to
    # 2e307, but its symbol's coefficients are 1e313: past the largest double
    lam0, lam1 = 0.999999, 0.999999 + 1e-7j
    inner = blaschke_make([lam0, lam1])
    T = 1e306 * ((inner.tm_shift - lam0 * np.eye(2)) / (lam1 - lam0))
    assert np.all(np.isfinite(T))
    with pytest.raises(NonFiniteError, match="overflows") as caught:
        symbol_recover(inner, T)
    assert "nan" not in str(caught.value)
    T[0, 0] = np.inf
    with pytest.raises(NonFiniteError, match="not finite numbers"):
        symbol_recover(inner, T)


def test_adjoint_defect_on_a_shared_rule():
    rng = np.random.default_rng(81)
    inner = blaschke_make(random_zeros(rng, 7, 0.9))
    phi = random_poly(rng, 3)
    nodes, weights = clark_rule(inner, extra=13)
    rule = nodes, weights, _tm_rows(inner, nodes)
    closed = tm_compression(inner, analytic=phi).entries
    shared = adjoint_defect(inner, phi, closed, rule)
    assert shared <= ADJOINT_TOL
    assert abs(shared - adjoint_defect(inner, phi)) <= 1e-13
    nodes, weights = clark_rule(inner, extra=2)
    with pytest.raises(ValueError, match="cannot pair a degree-3 symbol"):
        adjoint_defect(inner, phi, closed, (nodes, weights, _tm_rows(inner, nodes)))


def test_returned_arrays_are_not_the_products_own():
    rng = np.random.default_rng(82)
    inner = blaschke_make(random_zeros(rng, 5, 0.9))
    basis = tm_basis(inner, 2.0)
    k0 = tm_kernel_at_zero(inner)
    before = (compressed_shift(inner, basis).entries, tm_project(inner, [1.0, 0.5]), k0.copy())
    k0[:] = 7.0
    for matrix in (compressed_shift(inner, basis).entries, tm_compression(inner, [0.0, 1.0]).entries):
        assert not np.shares_memory(matrix, inner.tm_shift)
        with pytest.raises(ValueError):
            matrix[0, 0] = 7.0
    after = (compressed_shift(inner, basis).entries, tm_project(inner, [1.0, 0.5]), tm_kernel_at_zero(inner))
    for old, new in zip(before, after):
        np.testing.assert_array_equal(old, new)
    phi, _, _ = symbol_recover(inner, compressed_shift(inner, basis))
    np.testing.assert_allclose(phi, [0, 1, 0, 0, 0], atol=1e-12)
