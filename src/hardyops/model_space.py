"""The finite-dimensional model space attached to a finite Blaschke product.

For an inner function I of degree n the model space is the n-dimensional
backward-shift-invariant subspace of the Hardy space, realized here through
the projection f -> I * P_minus(conj(I) * f) and the Takenaka-Malmquist
orthonormal basis built from the ordered zeros of I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, sorted_zeros
from .errors import IllConditionedError
from .hardy import (
    DEFAULT_GRID,
    BoundaryFunction,
    CircleGrid,
    HardyParams,
    _as_params,
    pairing,
    require_analytic,
    riesz_split,
)

TM_KIND = "takenaka_malmquist"
CAUCHY_KIND = "cauchy_kernels"

#: Relative residual allowed when expanding a function in a basis.
EXPANSION_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ModelSpaceBasis:
    """Ordered basis of the model space of `inner`; dimension equals the
    degree of the inner function."""

    inner: BlaschkeProduct
    kind: str
    functions: tuple
    params: HardyParams

    @property
    def dimension(self) -> int:
        return len(self.functions)

    @property
    def grid(self) -> CircleGrid:
        return self.functions[0].grid

    def coeff_matrix(self) -> np.ndarray:
        """Fourier coefficient vectors stacked as columns."""
        return np.column_stack([f.coeffs for f in self.functions])

    def synthesize(self, coeffs) -> BoundaryFunction:
        """Linear combination sum_k coeffs[k] * functions[k]."""
        vec = self.coeff_matrix() @ np.asarray(coeffs, dtype=complex)
        return BoundaryFunction(self.grid, vec)

    def describe(self) -> str:
        return f"{self.kind} basis, inner degree {self.inner.degree}, p={self.params.p:g}"

    def to_json_dict(self) -> dict:
        return {
            "inner": self.inner.to_json_dict(),
            "kind": self.kind,
            "p": self.params.p,
            "functions": [f.to_json_dict() for f in self.functions],
        }


def _project_samples(inner_boundary: BoundaryFunction, f: BoundaryFunction) -> BoundaryFunction:
    prod = inner_boundary.conj() * f
    _, minus = riesz_split(prod)
    return inner_boundary * minus


def project(inner: BlaschkeProduct, f: BoundaryFunction) -> BoundaryFunction:
    """Project an analytic f onto the model space: I * P_minus(conj(I) f)."""
    require_analytic(f)
    return _project_samples(inner.boundary(f.grid), f)


def tm_eval(inner: BlaschkeProduct, coords, points) -> np.ndarray:
    """sum_k coords[k] * e_k at `points` on the circle, in O(n * len(points)).

    e_k is the k-th Takenaka-Malmquist function of the ordered zeros,
    sqrt(1-|lambda_k|^2)/(1 - conj(lambda_k) z) * prod_{j<k} b_{lambda_j}(z),
    evaluated from this product formula with no grid or FFT.  `coords` has
    the dimension as its first axis; further axes evaluate several elements
    at once and come first in the result, whose shape is
    coords.shape[1:] + points.shape.
    """
    pts = np.asarray(points, dtype=complex)
    coords = np.asarray(coords, dtype=complex)
    if coords.shape[:1] != (inner.degree,):
        raise ValueError(
            f"coordinates of shape {coords.shape} for a model space of dimension {inner.degree}"
        )
    flat = coords.reshape(inner.degree, -1)
    out = np.zeros(flat.shape[1:] + pts.shape, dtype=complex)
    partial = np.ones_like(pts)
    for zk, ck in zip(sorted_zeros(inner), flat):
        den = 1.0 - np.conj(zk) * pts
        # zero coordinates add nothing, so identity coordinates cost O(n * m)
        used = np.flatnonzero(ck)
        out[used] += np.multiply.outer(ck[used], np.sqrt(1.0 - abs(zk) ** 2) / den * partial)
        partial = partial * (pts - zk) / den
    return out.reshape(coords.shape[1:] + pts.shape)


def tm_kernel_at_zero(inner: BlaschkeProduct) -> np.ndarray:
    """Takenaka-Malmquist coordinates of k_0 = P_I 1, the reproducing kernel
    of the model space at 0.

    Coordinate k is <1, e_k> = conj(e_k(0)) =
    sqrt(1-|lambda_k|^2) * prod_{j<k} (-conj(lambda_j)) in the ordered
    zeros, a closed form with no grid.  Since P_I(z * P_I g) = P_I(z * g),
    the coordinates of P_I f are f(S_I) applied to these for every
    polynomial f.
    """
    lam = np.asarray(sorted_zeros(inner), dtype=complex)
    run = np.cumprod(np.concatenate(([1.0], -np.conj(lam[:-1]))))
    return np.sqrt(1.0 - np.abs(lam) ** 2) * run


def tm_basis(inner: BlaschkeProduct, params, grid: CircleGrid | None = None) -> ModelSpaceBasis:
    """Takenaka-Malmquist basis from the ordered zeros, sampled on the grid
    through `tm_eval`.

    Element k is the normalized Cauchy kernel at zero k times the partial
    Blaschke product over the earlier zeros; orthonormal under the p=2
    pairing and multiplicity-safe.  As a set the model space does not
    depend on p, so the same functions serve every exponent.
    """
    if inner.degree < 1:
        raise ValueError("inner function must have degree >= 1")
    params = _as_params(params)
    grid = grid if grid is not None else DEFAULT_GRID
    samples = tm_eval(inner, np.eye(inner.degree), grid.points)
    funcs = tuple(BoundaryFunction.from_samples(grid, row) for row in samples)
    return ModelSpaceBasis(inner, TM_KIND, funcs, params)


def cauchy_basis(inner: BlaschkeProduct, params, grid: CircleGrid | None = None) -> ModelSpaceBasis:
    """Raw Cauchy kernels 1/(1 - conj(z_k) z); simple zeros only."""
    if inner.degree < 1:
        raise ValueError("inner function must have degree >= 1")
    zs = sorted_zeros(inner)
    for i, zi in enumerate(zs):
        for zj in zs[i + 1:]:
            if abs(zi - zj) < 1e-8:
                raise ValueError(
                    f"zeros {zi} and {zj} coincide within 1e-8; Cauchy kernels are "
                    "degenerate, use the Takenaka-Malmquist basis"
                )
    params = _as_params(params)
    grid = grid if grid is not None else DEFAULT_GRID
    pts = grid.points
    funcs = [
        BoundaryFunction.from_samples(grid, 1.0 / (1.0 - np.conj(zk) * pts)) for zk in zs
    ]
    return ModelSpaceBasis(inner, CAUCHY_KIND, tuple(funcs), params)


def expand(basis: ModelSpaceBasis, f: BoundaryFunction):
    """Least-squares coordinates of f in the basis.

    Returns (coords, residual); residual is the L2 misfit relative to
    max(1, ||f||).
    """
    B = basis.coeff_matrix()
    y = f.coeffs
    coords, *_ = np.linalg.lstsq(B, y, rcond=None)
    residual = float(np.linalg.norm(B @ coords - y) / max(1.0, np.linalg.norm(y)))
    if residual > EXPANSION_TOL:
        raise IllConditionedError(
            f"basis expansion residual {residual:.3e} exceeds {EXPANSION_TOL:.1e}; "
            "the function does not lie in the model space at this tolerance"
        )
    return coords, residual


def decompose(inner: BlaschkeProduct, f: BoundaryFunction) -> tuple[BoundaryFunction, BoundaryFunction]:
    """Split analytic f as (g, h) with f = g + h, h in the model space and
    g divisible by the inner function."""
    require_analytic(f)
    h = project(inner, f)
    g = f - h
    return g, h


def annihilator_defect(inner: BlaschkeProduct, f: BoundaryFunction, h: BoundaryFunction) -> float:
    """|pairing(I*h, P_I f)|; vanishing certifies that the projection of f
    annihilates multiples of the inner function."""
    require_analytic(f)
    require_analytic(h, what="annihilator test function")
    ib = inner.boundary(f.grid)
    return abs(pairing(ib * h, _project_samples(ib, f)))


def duality_gram(
    inner: BlaschkeProduct,
    params,
    kind: str = TM_KIND,
    grid: CircleGrid | None = None,
):
    """Gram matrix pairing the p-side basis against the q-side basis.

    Entry [j, k] pairs element k of the p basis with element j of the q
    basis.  Nonsingularity certifies that the duality pairing between the
    two model spaces is nondegenerate at this scale.
    """
    from .operators import OperatorMatrix

    params = _as_params(params)
    build = tm_basis if kind == TM_KIND else cauchy_basis
    basis_p = build(inner, params, grid)
    basis_q = build(inner, params.conjugate(), grid)
    n = basis_p.dimension
    G = np.empty((n, n), dtype=complex)
    for j, ej_q in enumerate(basis_q.functions):
        for k, ek_p in enumerate(basis_p.functions):
            G[j, k] = pairing(ek_p, ej_q)
    sv = np.linalg.svd(G, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise IllConditionedError(
            f"duality Gram matrix is singular (sigma_min/sigma_max = {sv[-1] / sv[0]:.3e}); "
            "basis construction failed"
        )
    return OperatorMatrix(G, basis_p, basis_q)
