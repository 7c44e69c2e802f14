"""Toeplitz and Hankel operators, their compressions to a model space, and
the commutant of the compressed shift.

Toeplitz: f -> P_plus(phi * f).  Hankel: f -> P_minus(psi * f).  Compressions
act on the model space of a finite Blaschke product through its projection;
matrices are taken in a chosen model-space basis.

In the Takenaka-Malmquist basis the compressed shift S_I has a closed
lower-triangular form in the ordered zeros (Garcia-Mashreghi-Ross), so
`compressed_shift` builds it exactly, with no grid.  In Sarason's
truncated-Toeplitz picture the compression of a trigonometric polynomial
phi_plus + conj(phi_minus) is phi_plus(S_I) + phi_minus(S_I)^*, which
`tm_compression` evaluates by Horner's rule on that closed form;
`tm_project` gives the coordinates f(S_I) k_0 of P_I f the same way.  By
Sarason's theorem the commutant of S_I is the set of compressed analytic
Toeplitz operators phi(S_I), and the kernel k_0 = P_I 1 is cyclic for
S_I, so `symbol_recover` reads phi off T k_0 with one triangular solve in
the Newton basis of the ordered zeros, and rebuilds phi(S_I) for its
residual from one stack of the powers S_I^j, j < n (`_powers`); neither
p nor a grid enters.  S_I and k_0 are the product's own
(`BlaschkeProduct.tm_shift`, `.tm_kernel`), built once per product.
`adjoint_defect` checks phi(S_I) against pairings on the n + deg(phi)
Clark points of z^deg(phi) * I (`clark_rule`), a quadrature that is exact
on that model space and takes only the zeros from I.  The FFT route,
`compressed_matrix` on the grid, stays as the independent cross-check of
the closed forms and serves every other basis kind and every symbol that
is not a trigonometric polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, as_poly, inner_outer_of_polynomial
from .errors import (
    CommutationError,
    GridMismatchError,
    IllConditionedError,
    NonFiniteError,
    TrivialInnerError,
)
from .hardy import (
    DEFAULT_GRID,
    BoundaryFunction,
    CircleGrid,
    HardyParams,
    hp_norm,
    monomial,
    require_analytic,
    riesz_split,
)
from .model_space import (
    TM_KIND,
    ModelSpaceBasis,
    _project_samples,
    _tm_rows,
    clark_rule,
    expand,
    tm_basis,
)

#: Default truncation for Hankel matrices: domain monomials 0..K, codomain
#: conjugate monomials 1..J.
DEFAULT_TRUNCATION = 32

#: Relative tolerance for "T commutes with the compressed shift".
COMMUTATION_TOL = 1e-8

#: Relative residual allowed when matching a commuting matrix to a symbol.
RECOVERY_TOL = 1e-7

#: Most values (matrices times n^2 entries) in one temporary of the
#: stacked commutation and misfit passes of `symbol_recover`.
_STACK_BLOCK = 1 << 18


@dataclass(frozen=True, eq=False)
class MonomialRange:
    """Column or row labels chi_start .. chi_stop (conjugated when flagged)."""

    start: int
    stop: int
    conjugate: bool = False

    def __len__(self) -> int:
        return self.stop - self.start + 1

    def describe(self) -> str:
        side = "conjugate monomials" if self.conjugate else "monomials"
        return f"{side} {self.start}..{self.stop}"


def _describe(space) -> str:
    describe = getattr(space, "describe", None)
    return describe() if callable(describe) else str(space)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Matrix of a linear map together with its domain and codomain labels."""

    entries: np.ndarray
    domain: object
    codomain: object

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2:
            raise ValueError(f"operator matrix must be 2-d, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def apply(self, coords) -> np.ndarray:
        return self.entries @ np.asarray(coords, dtype=complex)

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.entries, compute_uv=False)

    def sigma_min(self) -> float:
        return float(self.singular_values()[-1])

    def eigenvalues(self) -> np.ndarray:
        if self.rows != self.cols:
            raise ValueError("eigenvalues require a square matrix")
        return np.linalg.eigvals(self.entries)

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[z.real, z.imag] for z in self.entries.ravel()],
            "domain": _describe(self.domain),
            "codomain": _describe(self.codomain),
        }


def toeplitz_apply(symbol: BoundaryFunction, f: BoundaryFunction) -> BoundaryFunction:
    """P_plus(symbol * f) for analytic f."""
    require_analytic(f)
    plus, _ = riesz_split(symbol * f)
    return plus


def hankel_apply(symbol: BoundaryFunction, f: BoundaryFunction) -> BoundaryFunction:
    """P_minus(symbol * f) for analytic f."""
    require_analytic(f)
    _, minus = riesz_split(symbol * f)
    return minus


def compressed_matrix(
    inner: BlaschkeProduct,
    symbol: BoundaryFunction,
    basis: ModelSpaceBasis,
) -> OperatorMatrix:
    """Matrix of f -> P_I(symbol * f) on the model space, in `basis`.

    Each image column is re-expanded in the basis; an expansion residual
    above EXPANSION_TOL means the compression left the space numerically
    and is reported as a failure rather than silently truncated.
    """
    if basis.inner != inner:
        raise ValueError("basis was built for a different inner function")
    if symbol.grid != basis.grid:
        raise GridMismatchError(
            f"symbol lives on grid m={symbol.grid.m}, basis on m={basis.grid.m}"
        )
    ib = inner.boundary(basis.grid)
    n = basis.dimension
    entries = np.empty((n, n), dtype=complex)
    for k, ek in enumerate(basis.functions):
        image = _project_samples(ib, toeplitz_apply(symbol, ek))
        coords, _ = expand(basis, image)
        entries[:, k] = coords
    return OperatorMatrix(entries, basis, basis)


def compressed_shift(inner: BlaschkeProduct, basis: ModelSpaceBasis) -> OperatorMatrix:
    """Compression of multiplication by z in a Takenaka-Malmquist basis of
    `inner`, in closed form from the ordered zeros with no grid
    (`compressed_matrix` is its cross-check); other bases raise ValueError."""
    if basis.kind != TM_KIND or basis.inner != inner:
        raise ValueError(f"closed-form shift needs a {TM_KIND} basis of this inner function")
    return OperatorMatrix(inner.tm_shift, basis, basis)


def _tm_label(inner: BlaschkeProduct) -> str:
    """Label of matrices in the Takenaka-Malmquist basis built without a grid."""
    return f"{TM_KIND} basis, inner degree {inner.degree}"


def _poly_of_matrix(coeffs, S: np.ndarray) -> np.ndarray:
    """a(S) for ascending coefficients along the last axis, by Horner's
    rule; leading axes of `coeffs` evaluate a stack of polynomials.  Each
    coefficient costs one product with S per polynomial, so this serves
    low degrees; `_powers` and `_poly_stack` serve n polynomials of degree
    below n."""
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    out = np.zeros(coeffs.shape[:-1] + S.shape, dtype=complex)
    eye = np.eye(S.shape[0], dtype=complex)
    for c in np.moveaxis(coeffs, -1, 0)[::-1]:
        out = out @ S + c[..., None, None] * eye
    return out


def _powers(S: np.ndarray) -> np.ndarray:
    """S^0, S^1, ..., S^(n-1) for the n x n matrix S, stacked along a new
    first axis: n - 1 matrix products, O(n^4), and n^3 values."""
    n = S.shape[0]
    out = np.empty((n, n, n), dtype=complex)
    out[:1] = np.eye(n)
    for j in range(1, n):
        np.matmul(out[j - 1], S, out=out[j])
    return out


def _poly_stack(coeffs: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """phi(S) = sum_j c_j S^j for each row of ascending coefficients in the
    2-D `coeffs`, with at most n per row, from the stack `_powers(S)`: one
    tensordot, taken as a product with the stack flattened to n x n^2, so
    O(n) per entry of the result."""
    count, n = coeffs.shape[-1], powers.shape[-1]
    return (coeffs @ powers[:count].reshape(count, n * n)).reshape(-1, n, n)


def tm_compression(inner: BlaschkeProduct, analytic=(), coanalytic=()) -> OperatorMatrix:
    """Matrix of f -> P_I((phi_plus + conj(phi_minus)) * f) in the
    Takenaka-Malmquist basis of the ordered zeros.

    `analytic` and `coanalytic` are the ascending coefficients of the
    polynomials phi_plus and phi_minus.  The matrix is
    phi_plus(S_I) + phi_minus(S_I)^* on the closed-form S_I, so no grid or
    basis functions are built; `compressed_matrix` on a `tm_basis` is its
    FFT cross-check.
    """
    if inner.degree < 1:
        raise ValueError("inner function must have degree >= 1")
    S = inner.tm_shift
    entries = _poly_of_matrix(analytic, S) + _poly_of_matrix(coanalytic, S).conj().T
    return OperatorMatrix(entries, _tm_label(inner), _tm_label(inner))


def tm_project(inner: BlaschkeProduct, coeffs) -> np.ndarray:
    """Takenaka-Malmquist coordinates of P_I f = f(S_I) k_0 for the
    polynomial f with ascending coefficients along the last axis of
    `coeffs`; leading axes project a stack of polynomials, and the n
    coordinates take the place of that last axis.

    Horner's rule on vectors costs one product S_I v per coefficient and
    never forms f(S_I); `project` and `expand` on a `tm_basis` are its FFT
    cross-check.
    """
    if inner.degree < 1:
        raise ValueError("inner function must have degree >= 1")
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    S_t = inner.tm_shift.T
    k0 = inner.tm_kernel
    out = np.zeros(coeffs.shape[:-1] + k0.shape, dtype=complex)
    for c in np.moveaxis(coeffs, -1, 0)[::-1]:
        out = out @ S_t + c[..., None] * k0
    return out


def hankel_matrix(
    symbol: BoundaryFunction,
    rows: int = DEFAULT_TRUNCATION,
    cols: int = DEFAULT_TRUNCATION,
) -> OperatorMatrix:
    """Truncated Hankel matrix in monomial coordinates.

    Column k holds the coefficients of P_minus(symbol * chi_k) at the
    frequencies -1..-rows, so entry [j-1, k] is the coefficient of the
    image at -j.
    """
    grid = symbol.grid
    if grid.n < rows + cols:
        raise GridMismatchError(
            f"grid band n={grid.n} too small for truncation rows+cols={rows + cols}"
        )
    entries = np.empty((rows, cols + 1), dtype=complex)
    for k in range(cols + 1):
        image = hankel_apply(symbol, monomial(grid, k))
        entries[:, k] = [image.coeff(-j) for j in range(1, rows + 1)]
    domain = MonomialRange(0, cols)
    codomain = MonomialRange(1, rows, conjugate=True)
    return OperatorMatrix(entries, domain, codomain)


@dataclass(frozen=True, eq=False)
class HankelStructure:
    """Antidiagonal profile of a matrix in monomial coordinates.

    `antidiagonals[m-1]` is the mean of the entries with j + k = m and
    `defect` the largest spread within any antidiagonal; a matrix has
    Hankel structure exactly when the defect vanishes.
    """

    antidiagonals: np.ndarray
    defect: float


def hankel_structure_check(matrix: OperatorMatrix) -> HankelStructure:
    """Measure how far a monomial-coordinate matrix is from Hankel form."""
    E = matrix.entries
    rows, cols = E.shape
    means = np.zeros(rows + cols - 1, dtype=complex)
    defect = 0.0
    for m in range(1, rows + cols):
        vals = np.array(
            [E[j - 1, m - j] for j in range(max(1, m - cols + 1), min(rows, m) + 1)]
        )
        means[m - 1] = vals.mean()
        if len(vals) > 1:
            spread = float(np.abs(vals[:, None] - vals[None, :]).max())
            defect = max(defect, spread)
    return HankelStructure(means, defect)


def hankel_symbol(structure: HankelStructure, grid: CircleGrid | None = None) -> BoundaryFunction:
    """Coanalytic symbol psi = sum over m >= 1 of a_m * chi_{-m} built from
    antidiagonal data; H_psi reproduces the matrix the data came from.

    This is the finite counterpart of realizing a Hankel form by a bounded
    symbol: at truncation scale only finitely many a_m exist, so the sum
    is a trigonometric polynomial and no extension argument is needed.
    """
    grid = grid if grid is not None else DEFAULT_GRID
    a = np.asarray(structure.antidiagonals, dtype=complex)
    if len(a) > grid.n:
        raise GridMismatchError(
            f"{len(a)} antidiagonal entries exceed the grid band n={grid.n}"
        )
    coeffs = np.zeros(2 * grid.n + 1, dtype=complex)
    for m, am in enumerate(a, start=1):
        coeffs[grid.n - m] = am
    return BoundaryFunction.from_coeffs(grid, coeffs)


def intertwine_defect(matrix: OperatorMatrix) -> float:
    """Largest entry of P_minus(backward-shift after A) minus (A after shift).

    In monomial coordinates both sides are read off the entries: the
    defect compares A[j+1, k] against A[j, k+1] over the overlap of the
    truncation window, dropping the last column of the domain.
    """
    E = matrix.entries
    if E.shape[0] < 2 or E.shape[1] < 2:
        return 0.0
    D = E[1:, :-1] - E[:-1, 1:]
    return float(np.abs(D).max())


def commutation_residual(T: OperatorMatrix, S: OperatorMatrix) -> float:
    """max |TS - ST| entrywise."""
    return float(np.abs(T.entries @ S.entries - S.entries @ T.entries).max())


def _newton_matrix(S: np.ndarray, k0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K = [N_j(S_I) k_0 for j < n] and the matrix whose column j holds the
    ascending monomial coefficients of N_j = prod_{i<j} (z - lambda_i),
    with lambda_i the diagonal of the closed-form S_I; one pass of n
    matrix-vector products builds both.

    N_j(S_I) k_0 = P_I N_j lies in the span of e_j, ..., e_{n-1}, so K is
    lower triangular with diagonal entry j equal to
    sqrt(1-|lambda_j|^2) * prod_{i<j} (1 - conj(lambda_i) lambda_j), which
    is nonzero: k_0 is cyclic for S_I.
    """
    lam = np.diag(S)
    n = len(lam)
    K = np.empty((n, n), dtype=complex)
    N = np.zeros((n, n), dtype=complex)
    K[:, 0], N[0, 0] = k0, 1.0
    for j in range(n - 1):
        K[:, j + 1] = S @ K[:, j] - lam[j] * K[:, j]
        N[1:, j + 1] = N[:-1, j]
        N[:, j + 1] -= lam[j] * N[:, j]
    return np.tril(K), N


def _newton_solve(K: np.ndarray, N: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Ascending monomial coefficients of the phi with phi(S_I) k_0 = rhs,
    one row of `rhs` per phi: forward substitution on the lower-triangular
    K of `_newton_matrix` gives the Newton coefficients, N converts them."""
    newton = np.empty_like(rhs)
    for j in range(K.shape[0]):
        newton[:, j] = (rhs[:, j] - newton[:, :j] @ K[j, :j]) / K[j, j]
    return newton @ N.T


def _row_blocks(rows: int, n: int):
    """Slices of at most _STACK_BLOCK // n^2 (at least one) of `rows`
    stacked n x n matrices."""
    step = max(1, _STACK_BLOCK // max(n * n, 1))
    return [slice(i, i + step) for i in range(0, rows, step)]


def _misfits(stack, coeffs, powers, scale, k0):
    """||T - phi(S_I)||_F / s for each matrix T of `stack` with its phi's
    coefficients and its scale s, and (T - phi(S_I)) k_0, taken block by
    block from `_poly_stack`.  Under a product that overflows the first
    result holds NaN or inf; the scaling keeps the norms themselves from
    overflowing."""
    norms = np.empty(len(stack))
    images = np.empty((len(stack), stack.shape[-1]), dtype=complex)
    for rows in _row_blocks(*stack.shape[:2]):
        misfit = _poly_stack(coeffs[rows], powers)
        np.subtract(stack[rows], misfit, out=misfit)
        images[rows] = misfit @ k0
        misfit /= scale[rows, None, None]
        norms[rows] = np.linalg.norm(misfit, axis=(1, 2))
    return norms, images


def symbol_recover(inner: BlaschkeProduct, T, powers=None) -> tuple[np.ndarray, np.ndarray, float]:
    """Ascending coefficients of phi, of degree < n, with phi(S_I) = T in the
    Takenaka-Malmquist basis, their relative residual
    ||phi(S_I) - T||_F / max(1, ||T||_F), and cond_2(K) for the Newton
    matrix K they were solved from.

    T is an OperatorMatrix or an array of n x n matrices stacked along its
    leading axes (ValueError for any other shape); the coefficients carry
    those axes plus one of length n, the residuals those axes alone.  Each
    matrix must commute with S_I (relative residual below COMMUTATION_TOL),
    so by Sarason's theorem it is phi(S_I) for some phi, and since k_0 is
    cyclic, T k_0 determines phi: K c = T k_0 with K = [N_j(S_I) k_0]
    lower triangular gives phi's Newton coefficients c, which are converted
    to monomial ones.  The residual of those returned coefficients must
    stay below RECOVERY_TOL; cond_2(K) is the margin of k_0's cyclicity.

    S_I and k_0 are the product's own; K and the stack `powers` of
    S_I^j, j < n (`_powers`, built here unless the caller already holds
    it), are built once per call, whatever the stack size.  Every phi(S_I)
    the residuals need is one tensordot with that stack, O(n^4) for n
    matrices, taken in blocks of at most _STACK_BLOCK values.  The norms
    of each matrix are taken relative to its largest entry, so that they
    cannot overflow; a matrix that is not finite, or a phi(S_I) that
    overflows, raises NonFiniteError.
    """
    S = inner.tm_shift
    n = S.shape[0]
    T = np.asarray(getattr(T, "entries", T), dtype=complex)
    if T.ndim < 2 or T.shape[-2:] != (n, n):
        raise ValueError(f"matrix of shape {T.shape} for a space of dimension {n}")
    stack = T.reshape(-1, n, n)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
    if not np.all(np.isfinite(scale)):
        raise NonFiniteError(
            f"{np.sum(~np.isfinite(scale))} of {len(stack)} matrices hold entries that are "
            "not finite numbers"
        )
    excess, sizes = np.empty(len(stack)), np.empty(len(stack))
    for rows in _row_blocks(len(stack), n):
        unit = stack[rows] / scale[rows, None, None]
        sizes[rows] = np.linalg.norm(unit, axis=(1, 2))
        commutator = unit @ S
        commutator -= S @ unit
        excess[rows] = np.abs(commutator).max(axis=(1, 2))
    failed = ~(excess <= COMMUTATION_TOL)
    if failed.any():
        raise CommutationError(
            f"{failed.sum()} of {len(stack)} matrices do not commute with the compressed "
            f"shift (relative residual {excess.max():.3e} > {COMMUTATION_TOL:.1e})"
        )
    if powers is None:
        powers = _powers(S)
    elif powers.shape != (n, n, n):
        raise ValueError(f"power stack of shape {powers.shape} for a space of dimension {n}")
    k0 = inner.tm_kernel
    K, N = _newton_matrix(S, k0)
    # One step of iterative refinement: at clustered zeros the conversion to
    # monomial coefficients leaves a residual near cond(K) * eps, which the
    # step brings back to rounding level.  Once cond(K) passes 1/eps the
    # step has nothing left to correct, so each matrix keeps whichever
    # coefficients fit it better.  An overflow shows up as a misfit that is
    # not finite, so it raises below rather than warns here.
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = _newton_solve(K, N, stack @ k0)
        misfits, images = _misfits(stack, coeffs, powers, scale, k0)
        refined = coeffs + _newton_solve(K, N, images)
        refined_misfits, _ = _misfits(stack, refined, powers, scale, k0)
    overflow = ~np.isfinite(misfits)
    if overflow.any():
        raise NonFiniteError(
            f"symbol recovery overflows: phi(S_I) from the recovered coefficients is not "
            f"finite for {overflow.sum()} of {len(stack)} matrices (largest entry "
            f"{scale.max():.3e})"
        )
    better = refined_misfits < misfits
    coeffs = np.where(better[:, None], refined, coeffs)
    residuals = np.where(better, refined_misfits, misfits) / np.maximum(1.0 / scale, sizes)
    if not residuals.max() <= RECOVERY_TOL:
        raise IllConditionedError(
            f"symbol recovery residual {residuals.max():.3e} exceeds {RECOVERY_TOL:.1e}"
        )
    return (
        coeffs.reshape(T.shape[:-1]),
        residuals.reshape(T.shape[:-2])[()],
        float(np.linalg.cond(K)),
    )


def adjoint_defect(inner: BlaschkeProduct, symbol_coeffs, closed=None, rule=None) -> float:
    """Largest mismatch between <P_I(phi e_k), e_j> = phi(S_I)[j, k] in
    closed form and the Clark-rule pairing
    sum_zeta w * phi(zeta) * e_k(zeta) * conj(e_j(zeta)) over the
    Takenaka-Malmquist basis; the two routes share only the ordered zeros.

    The rule is `clark_rule(inner, extra=deg(phi))`: the n + deg(phi)
    points where z^deg(phi) * I takes one unimodular value, with e_k from
    `_tm_rows`.  Since phi * e_k and e_j lie in the model space of
    z^deg(phi) * I, the sum is the pairing itself, not an approximation of
    it, and its rounding error grows like eps / (1 - max |lambda_k|).  No
    grid and no p enter: as a set the model space does not depend on p.

    A caller that already holds them passes phi(S_I) as `closed` and a
    rule as `rule` = (nodes, weights, `_tm_rows` at the nodes).  That rule
    may have any extra >= deg(phi), as a report's rule shared with the
    projection check does: K_{z^extra I} contains K_{z^deg(phi) I}, so the
    sum stays exact, and only its rounding changes.  A rule with fewer
    than n + deg(phi) nodes raises ValueError.  A symbol whose values
    overflow on the rule gives a defect that is not finite.
    """
    poly = as_poly(symbol_coeffs)
    degree = len(poly) - 1
    if rule is None:
        nodes, weights = clark_rule(inner, extra=degree)
        rule = nodes, weights, _tm_rows(inner, nodes)
    nodes, weights, e = rule
    if len(nodes) < inner.degree + degree:
        raise ValueError(
            f"a Clark rule of {len(nodes)} nodes cannot pair a degree-{degree} symbol "
            f"exactly on a model space of dimension {inner.degree}"
        )
    if closed is None:
        closed = _poly_of_matrix(poly, inner.tm_shift)
    with np.errstate(over="ignore", invalid="ignore"):
        quad = e.conj() @ (weights * np.polynomial.polynomial.polyval(nodes, poly) * e).T
        return float(np.abs(closed - quad).max())


def coanalytic_kernel_check(symbol_coeffs, grid: CircleGrid | None = None) -> float:
    """Largest norm of T_conj(a) applied to the model space of the inner
    factor of the polynomial a; a value at roundoff scale certifies that
    the space sits inside the kernel.
    """
    grid = grid if grid is not None else DEFAULT_GRID
    poly = as_poly(symbol_coeffs)
    inner, _ = inner_outer_of_polynomial(poly)
    if inner.degree == 0:
        raise TrivialInnerError(
            "polynomial has no zeros in the open disc; its inner factor is "
            "constant and the kernel statement is vacuous"
        )
    a_bar = BoundaryFunction.from_poly(grid, poly).conj()
    basis = tm_basis(inner, HardyParams(2.0), grid)
    worst = 0.0
    for ek in basis.functions:
        worst = max(worst, hp_norm(toeplitz_apply(a_bar, ek), 2.0))
    return worst


def kernel_eigen_residual(symbol_coeffs, w: complex, grid: CircleGrid | None = None) -> float:
    """L2 residual of T_conj(a) k_w = conj(a(w)) k_w for the unnormalized
    Cauchy kernel at w."""
    from .blaschke import unnormalized_kernel

    grid = grid if grid is not None else DEFAULT_GRID
    poly = as_poly(symbol_coeffs)
    w = complex(w)
    if abs(w) >= 1.0:
        raise ValueError(f"kernel point must lie in the open disc, got |w|={abs(w):.6g}")
    kw = unnormalized_kernel(w).boundary(grid)
    a_bar = BoundaryFunction.from_poly(grid, poly).conj()
    lhs = toeplitz_apply(a_bar, kw)
    rhs = np.conj(np.polynomial.polynomial.polyval(w, poly)) * kw
    return hp_norm(lhs - rhs, 2.0)


def induced_hankel_matrix(
    inner: BlaschkeProduct,
    T: OperatorMatrix,
    basis: ModelSpaceBasis,
    rows: int = DEFAULT_TRUNCATION,
    cols: int = DEFAULT_TRUNCATION,
) -> OperatorMatrix:
    """Truncated matrix of f -> conj(I) * T(P_I f) in monomial coordinates.

    For T commuting with the compressed shift this map agrees with a
    Hankel operator on the truncation window, which is how compressions
    of Toeplitz operators are recognized among all commuting matrices.
    """
    grid = basis.grid
    if grid.n < rows + cols:
        raise GridMismatchError(
            f"grid band n={grid.n} too small for truncation rows+cols={rows + cols}"
        )
    ib = inner.boundary(grid)
    ib_bar = ib.conj()
    entries = np.empty((rows, cols + 1), dtype=complex)
    for k in range(cols + 1):
        pf = _project_samples(ib, monomial(grid, k))
        coords, _ = expand(basis, pf)
        image = basis.synthesize(T.apply(coords))
        out = ib_bar * image
        entries[:, k] = [out.coeff(-j) for j in range(1, rows + 1)]
    domain = MonomialRange(0, cols)
    codomain = MonomialRange(1, rows, conjugate=True)
    return OperatorMatrix(entries, domain, codomain)
