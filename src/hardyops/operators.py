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
`tm_compression` evaluates by Horner's rule on that closed form.  By
Sarason's theorem the commutant of S_I is the set of compressed analytic
Toeplitz operators phi(S_I); it is computed as the nullspace of the
commutation map X -> X S - S X, and each commuting matrix is matched back
to a polynomial symbol of degree below the space dimension through the
powers of S_I; neither involves p or a grid.  The FFT route,
`compressed_matrix` on the grid, stays as the independent cross-check of
the closed forms and serves every other basis kind and every symbol that
is not a trigonometric polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, as_poly, inner_outer_of_polynomial, sorted_zeros
from .errors import (
    CommutationError,
    GridMismatchError,
    IllConditionedError,
    RankAmbiguityError,
    TrivialInnerError,
)
from .hardy import (
    DEFAULT_GRID,
    BoundaryFunction,
    CircleGrid,
    HardyParams,
    grid_for_radius,
    hp_norm,
    monomial,
    require_analytic,
    riesz_split,
)
from .model_space import (
    TM_KIND,
    ModelSpaceBasis,
    _project_samples,
    expand,
    tm_basis,
    tm_eval,
)

#: Default truncation for Hankel matrices: domain monomials 0..K, codomain
#: conjugate monomials 1..J.
DEFAULT_TRUNCATION = 32

#: Relative tolerance for "T commutes with the compressed shift".
COMMUTATION_TOL = 1e-8

#: Relative residual allowed when matching a commuting matrix to a symbol.
RECOVERY_TOL = 1e-7

#: Singular values below rtol * sigma_max count toward a nullspace.
NULLSPACE_RTOL = 1e-8

#: Largest tolerated ratio sigma_dropped / sigma_kept at the rank cut.
RANK_GAP_TOL = 1e-6

#: Nodes per `tm_eval` call in `adjoint_defect`, which bounds its memory.
_ADJOINT_CHUNK = 1 << 16


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


def _tm_shift(zeros) -> np.ndarray:
    """S_I in the Takenaka-Malmquist basis of `zeros`, taken in order.

    Diagonal entry i is lambda_i; below it, entry (i, j) is
    sqrt(1-|lambda_i|^2) * sqrt(1-|lambda_j|^2) * prod_{j<l<i} (-conj(lambda_l)).
    """
    lam = np.asarray(zeros, dtype=complex)
    n = len(lam)
    w = np.sqrt(1.0 - np.abs(lam) ** 2)
    S = np.diag(lam)
    for j in range(n - 1):
        run = np.cumprod(np.concatenate(([1.0], -np.conj(lam[j + 1 : n - 1]))))
        S[j + 1 :, j] = w[j + 1 :] * w[j] * run
    return S


def compressed_shift(inner: BlaschkeProduct, basis: ModelSpaceBasis) -> OperatorMatrix:
    """Compression of multiplication by z in a Takenaka-Malmquist basis of
    `inner`, in closed form from the ordered zeros with no grid
    (`compressed_matrix` is its cross-check); other bases raise ValueError."""
    if basis.kind != TM_KIND or basis.inner != inner:
        raise ValueError(f"closed-form shift needs a {TM_KIND} basis of this inner function")
    return OperatorMatrix(_tm_shift(sorted_zeros(inner)), basis, basis)


def _tm_label(inner: BlaschkeProduct) -> str:
    """Label of matrices in the Takenaka-Malmquist basis built without a grid."""
    return f"{TM_KIND} basis, inner degree {inner.degree}"


def _poly_of_matrix(coeffs, S: np.ndarray) -> np.ndarray:
    """a(S) for ascending coefficients, by Horner's rule."""
    out = np.zeros_like(S)
    eye = np.eye(S.shape[0], dtype=complex)
    for c in np.atleast_1d(np.asarray(coeffs, dtype=complex))[::-1]:
        out = out @ S + c * eye
    return out


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
    S = _tm_shift(sorted_zeros(inner))
    entries = _poly_of_matrix(analytic, S) + _poly_of_matrix(coanalytic, S).conj().T
    return OperatorMatrix(entries, _tm_label(inner), _tm_label(inner))


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


def commutant_basis(inner: BlaschkeProduct) -> tuple[list, np.ndarray]:
    """Basis of matrices commuting with the closed-form S_I, and the
    singular values of the commutation map X -> X S - S X, descending.

    The commutation map is vectorized column-major, its nullspace read off
    its SVD with relative threshold NULLSPACE_RTOL.  An ill-separated
    spectrum at the cut (dropped vs kept singular value ratio above
    RANK_GAP_TOL) raises rather than guessing the dimension.
    """
    S = _tm_shift(sorted_zeros(inner))
    n = S.shape[0]
    eye = np.eye(n)
    M = np.kron(S.T, eye) - np.kron(eye, S)
    _, s, vh = np.linalg.svd(M)
    if s[0] == 0.0:
        nullity = n * n
    else:
        nullity = int(np.sum(s <= NULLSPACE_RTOL * s[0]))
        if 0 < nullity < n * n:
            sigma_drop = s[n * n - nullity]
            sigma_keep = s[n * n - nullity - 1]
            if sigma_drop > RANK_GAP_TOL * sigma_keep:
                raise RankAmbiguityError(
                    f"nullspace cut is ambiguous: dropped sigma {sigma_drop:.3e} vs "
                    f"kept sigma {sigma_keep:.3e} (ratio {sigma_drop / sigma_keep:.3e} "
                    f"> {RANK_GAP_TOL:.1e})"
                )
    null_vecs = vh[n * n - nullity:].conj()
    label = _tm_label(inner)
    return [OperatorMatrix(v.reshape((n, n), order="F"), label, label) for v in null_vecs], s


def symbol_recover(inner: BlaschkeProduct, T: OperatorMatrix) -> tuple[np.ndarray, float]:
    """Ascending coefficients of phi, of degree < n, with phi(S_I) = T in the
    Takenaka-Malmquist basis, and the relative fit residual.

    T must be n x n (ValueError otherwise) and commute with S_I (relative
    residual below COMMUTATION_TOL).  The coefficients solve the least-squares
    system stacking I, S_I, ..., S_I^(n-1); the fit residual must stay below
    RECOVERY_TOL.
    """
    S = _tm_shift(sorted_zeros(inner))
    n = S.shape[0]
    if T.entries.shape != (n, n):
        raise ValueError(f"matrix of shape {T.entries.shape} for a space of dimension {n}")
    scale = max(1.0, float(np.abs(T.entries).max()))
    resid = float(np.abs(T.entries @ S - S @ T.entries).max())
    if resid > COMMUTATION_TOL * scale:
        raise CommutationError(
            f"matrix does not commute with the compressed shift "
            f"(residual {resid:.3e} > {COMMUTATION_TOL:.1e} * {scale:.3g})"
        )
    columns = np.empty((n * n, n), dtype=complex)
    power = np.eye(n, dtype=complex)
    for d in range(n):
        columns[:, d] = power.ravel(order="F")
        power = power @ S
    target = T.entries.ravel(order="F")
    coeffs, *_ = np.linalg.lstsq(columns, target, rcond=None)
    residual = float(np.linalg.norm(columns @ coeffs - target) / max(1.0, np.linalg.norm(target)))
    if residual > RECOVERY_TOL:
        raise IllConditionedError(
            f"symbol recovery residual {residual:.3e} exceeds {RECOVERY_TOL:.1e}"
        )
    return coeffs, residual


def adjoint_defect(inner: BlaschkeProduct, symbol_coeffs) -> float:
    """Largest mismatch between <P_I(phi e_k), e_j> = phi(S_I)[j, k] from
    `tm_compression` and <e_k, P_plus(conj(phi) e_j)> over the
    Takenaka-Malmquist basis; the two routes share only the ordered zeros.

    The right side is the trapezoid mean of phi * e_k * conj(e_j) on the
    nodes of `grid_for_radius(max |lambda_k|)`, with e_k from `tm_eval`,
    _ADJOINT_CHUNK nodes at a time; a symbol of degree above that grid's
    band would alias and raises ValueError.  No p enters: as a set the
    model space does not depend on it.
    """
    grid = grid_for_radius(max((abs(z) for z in inner.zeros), default=0.0))
    poly = as_poly(symbol_coeffs)
    if len(poly) - 1 > grid.n:
        raise ValueError(f"symbol degree {len(poly) - 1} exceeds the band n={grid.n}")
    closed = tm_compression(inner, analytic=poly).entries
    n = inner.degree
    quad = np.zeros((n, n), dtype=complex)
    for start in range(0, grid.m, _ADJOINT_CHUNK):
        nodes = np.exp(2j * np.pi * np.arange(start, min(start + _ADJOINT_CHUNK, grid.m)) / grid.m)
        e = tm_eval(inner, np.eye(n), nodes)
        quad += e.conj() @ (np.polynomial.polynomial.polyval(nodes, poly) * e).T
    return float(np.abs(closed - quad / grid.m).max())


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
