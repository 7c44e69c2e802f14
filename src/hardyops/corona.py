"""Corona-type invertibility for coanalytic Toeplitz operators on a model
space.

For a polynomial symbol a and a finite Blaschke product I the compressed
operator T_conj(a) is invertible on the model space exactly when
delta = inf over the closed disc of |a(z)| + |I(z)| is positive, which for a
finite product reduces to a not vanishing at any zero of I.  When delta > 0
an explicit Bezout pair a*u + I*v = 1 with u, v bounded and analytic in the
disc is produced, and T_conj(u) inverts the compressed operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .blaschke import (
    BlaschkeProduct,
    RationalFunction,
    as_poly,
    blaschke_eval,
    factor_difference,
    normalized_kernel,
)
from .errors import CommonZeroError, IllConditionedError, NotInModelSpaceError
from .hardy import (
    BoundaryFunction,
    CircleGrid,
    _as_params,
    grid_for_radius,
    hp_norm,
)
from .model_space import _project_samples, tm_basis
from .operators import compressed_matrix, toeplitz_apply

#: Values of min_k |a(z_k)| at or below this are treated as a common zero.
ZERO_TOL = 1e-10

#: Absolute accuracy target for the infimum search.
DELTA_TOL = 1e-6

#: Largest allowed Bezout identity residual on the circle.
BEZOUT_TOL = 1e-9

#: Relative tolerance for "f lies in the model space".
MEMBERSHIP_TOL = 1e-8

#: Relative roundtrip residual allowed when applying the inverse.
INVERSE_TOL = 1e-7

_COARSE_RADII = 64
_COARSE_ANGLES = 256
_ZOOM_STEPS = 48
_ZOOM_POINTS = 9


@dataclass(frozen=True, eq=False)
class CoronaCertificate:
    """Solution record for a corona pair (a, I).

    `u` and `v` are analytic in the disc with a*u + I*v = 1; `residual` is
    the largest boundary violation of the identity, `sup_u`/`sup_v` the
    boundary sup norms of the pair, and `consistent` records agreement
    between the infimum route and the zeros-of-I route to invertibility.
    """

    symbol: tuple
    inner: BlaschkeProduct
    delta: float
    u: RationalFunction
    v: RationalFunction
    residual: float
    sup_u: float
    sup_v: float
    consistent: bool

    def to_json_dict(self) -> dict:
        return {
            "symbol": [[z.real, z.imag] for z in self.symbol],
            "inner": self.inner.to_json_dict(),
            "delta": self.delta,
            "u": self.u.to_json_dict(),
            "v": self.v.to_json_dict(),
            "residual": self.residual,
            "sup_u": self.sup_u,
            "sup_v": self.sup_v,
            "consistent": self.consistent,
        }


def min_abs_at_zeros(symbol_coeffs, inner: BlaschkeProduct) -> float:
    """min over zeros z_k of I of |a(z_k)|; infinite when I is constant."""
    poly = as_poly(symbol_coeffs)
    if inner.degree == 0:
        return float("inf")
    vals = P.polyval(np.array(inner.zeros), poly)
    return float(np.abs(vals).min())


def _objective(poly, inner, z):
    return np.abs(P.polyval(z, poly)) + np.abs(blaschke_eval(inner, z))


def corona_delta(symbol_coeffs, inner: BlaschkeProduct) -> float:
    """inf over the closed disc of |a(z)| + |I(z)|, to about 1e-6.

    Returns exactly 0.0 when the symbol nearly vanishes at a zero of the
    inner function (the only way the infimum can vanish for a finite
    product).  Otherwise a coarse polar scan seeded with the zeros of both
    factors is refined by shrinking local grids around the best point.
    """
    poly = as_poly(symbol_coeffs)
    if len(poly) == 1 and poly[0] == 0.0:
        raise ValueError("symbol polynomial is identically zero")
    if min_abs_at_zeros(poly, inner) <= ZERO_TOL:
        return 0.0

    radii = np.linspace(0.0, 1.0, _COARSE_RADII)
    angles = 2.0 * np.pi * np.arange(_COARSE_ANGLES) / _COARSE_ANGLES
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
    offsets = np.linspace(-1.0, 1.0, _ZOOM_POINTS)
    box = (offsets[:, None] + 1j * offsets[None, :]).ravel()
    for _ in range(_ZOOM_STEPS):
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


def bezout_solve(symbol_coeffs, inner: BlaschkeProduct, check_points: int = 4096) -> CoronaCertificate:
    """Explicit pair u, v with a*u + I*v = 1 on the closed disc.

    Writing I = c * Pz / Q with Pz monic over the zeros and Q the
    reflected denominator, the identity reduces to the polynomial equation
    a*U + c*Pz*W = Q with deg U < deg a + deg I constraints, solved as a
    square Sylvester-style linear system plus one iterative refinement
    pass; then u = U/Q and v = W.  The boundary residual must come out
    below 1e-9 or the solve is reported as failed.
    """
    poly = as_poly(symbol_coeffs)
    delta = corona_delta(poly, inner)
    zero_route = min_abs_at_zeros(poly, inner) > ZERO_TOL
    consistent = (delta > 0.0) == zero_route
    if delta == 0.0:
        raise CommonZeroError(
            "symbol vanishes at a zero of the inner function; no bounded "
            "Bezout pair exists"
        )

    n = inner.degree
    d_a = len(poly) - 1
    if d_a == 0:
        u = RationalFunction([1.0 / poly[0]], [1.0])
        v = RationalFunction([0.0], [1.0])
    elif n == 0:
        u = RationalFunction([0.0], [1.0])
        v = RationalFunction([1.0 / inner.constant], [1.0])
    else:
        pz = P.polyfromroots(inner.zeros)
        q = inner.denominator()
        cpz = inner.constant * pz
        size = n + d_a
        M = np.zeros((size, size), dtype=complex)
        for i in range(n):
            M[i : i + d_a + 1, i] = poly
        for j in range(d_a):
            M[j : j + n + 1, n + j] = cpz
        rhs = np.zeros(size, dtype=complex)
        rhs[: len(q)] = q
        sol = np.linalg.solve(M, rhs)
        residual_poly = P.polysub(
            q, P.polyadd(P.polymul(poly, sol[:n]), P.polymul(cpz, sol[n:]))
        )
        correction = np.zeros(size, dtype=complex)
        correction[: len(residual_poly)] = residual_poly
        sol = sol + np.linalg.solve(M, correction)
        u = RationalFunction(sol[:n], q)
        v = RationalFunction(sol[n:], [1.0])

    pts = np.exp(2j * np.pi * np.arange(check_points) / check_points)
    lhs = (
        P.polyval(pts, poly) * u.evaluate(pts)
        + blaschke_eval(inner, pts) * v.evaluate(pts)
    )
    residual = float(np.abs(lhs - 1.0).max())
    if residual > BEZOUT_TOL:
        raise IllConditionedError(
            f"Bezout identity residual {residual:.3e} exceeds {BEZOUT_TOL:.1e}"
        )
    return CoronaCertificate(
        symbol=tuple(complex(c) for c in poly),
        inner=inner,
        delta=delta,
        u=u,
        v=v,
        residual=residual,
        sup_u=u.sup_on_circle(),
        sup_v=v.sup_on_circle(),
        consistent=consistent,
    )


def corona_inverse_apply(
    inner: BlaschkeProduct,
    cert: CoronaCertificate,
    f: BoundaryFunction,
    params=None,
) -> BoundaryFunction:
    """Apply the inverse of the compressed coanalytic operator: g = T_conj(u) f.

    Requires f to lie in the model space of the inner function (relative
    projection defect below 1e-8) and verifies the roundtrip
    T_conj(a) g = f before returning.
    """
    if cert.inner != inner:
        raise ValueError("certificate was produced for a different inner function")
    params = _as_params(params if params is not None else 2.0)
    ib = inner.boundary(f.grid)
    pf = _project_samples(ib, f)
    scale = max(1.0, f.l2_norm())
    if (pf - f).l2_norm() > MEMBERSHIP_TOL * scale:
        raise NotInModelSpaceError(
            "input is not in the model space of the certificate's inner "
            f"function (projection moved it by more than {MEMBERSHIP_TOL:.1e} relative)"
        )
    u_bar = cert.u.boundary(f.grid).conj()
    a_bar = BoundaryFunction.from_poly(f.grid, np.array(cert.symbol)).conj()
    g = toeplitz_apply(u_bar, f)
    back = toeplitz_apply(a_bar, g)
    err = hp_norm(back - f, params)
    if err > INVERSE_TOL * max(1.0, hp_norm(f, params)):
        raise IllConditionedError(
            f"inverse application roundtrip residual {err:.3e} exceeds {INVERSE_TOL:.1e}"
        )
    return g


def corona_roundtrip_residual(
    cert: CoronaCertificate,
    f: BoundaryFunction,
    params=None,
) -> float:
    """max of ||T_conj(u) T_conj(a) f - f|| and ||T_conj(a) T_conj(u) f - f||."""
    params = _as_params(params if params is not None else 2.0)
    a_bar = BoundaryFunction.from_poly(f.grid, np.array(cert.symbol)).conj()
    u_bar = cert.u.boundary(f.grid).conj()
    fwd = toeplitz_apply(u_bar, toeplitz_apply(a_bar, f)) - f
    bwd = toeplitz_apply(a_bar, toeplitz_apply(u_bar, f)) - f
    return max(hp_norm(fwd, params), hp_norm(bwd, params))


@dataclass(frozen=True, eq=False)
class ProbeRow:
    """One near-degenerate test vector: the projected product of the factor
    difference quotient at z with the normalized kernel at z."""

    z: complex
    corona_value: float
    f_norm: float
    taf_norm: float


@dataclass(frozen=True, eq=False)
class ProbeReport:
    """Lower-bound stress test for the compressed coanalytic operator.

    Rows track how the norm of T_conj(a) applied to kernel-type probes
    behaves as the probe point approaches the circle; sigma_min is the
    matrix-route smallest singular value and zero_bound the min of |a|
    over the zeros of I, the invertibility threshold at p = 2.
    """

    rows: tuple
    sigma_min: float
    zero_bound: float
    p: float

    def to_csv(self) -> str:
        lines = ["z_re,z_im,corona_value,f_norm,Taf_norm,sigma_min,p"]
        for row in self.rows:
            cells = [
                row.z.real,
                row.z.imag,
                row.corona_value,
                row.f_norm,
                row.taf_norm,
                self.sigma_min,
                self.p,
            ]
            lines.append(",".join(format(c, ".12g") for c in cells))
        return "\n".join(lines) + "\n"


def near_degenerate_probe(
    inner: BlaschkeProduct,
    symbol_coeffs,
    probes,
    params=None,
    grid: CircleGrid | None = None,
) -> ProbeReport:
    """Evaluate kernel-type probes against the compressed coanalytic operator.

    For each probe point z the test vector is P_I of (difference quotient
    of I at z) times (normalized kernel at z); rows keep the input order.
    The grid adapts to the largest probe modulus so kernels close to the
    circle stay resolved.
    """
    params = _as_params(params if params is not None else 2.0)
    poly = as_poly(symbol_coeffs)
    probes = [complex(z) for z in probes]
    if grid is None:
        radius = max(
            [abs(z) for z in probes] + [abs(z) for z in inner.zeros] + [0.0]
        )
        grid = grid_for_radius(radius)
    ib = inner.boundary(grid)
    a_bar = BoundaryFunction.from_poly(grid, poly).conj()
    basis = tm_basis(inner, params, grid)
    sigma = compressed_matrix(inner, a_bar, basis).sigma_min()
    bound = min_abs_at_zeros(poly, inner)
    rows = []
    for z in probes:
        quotient = factor_difference(inner, z)
        kernel = normalized_kernel(z, params)
        probe_fn = (quotient * kernel).boundary(grid)
        f = _project_samples(ib, probe_fn)
        taf = toeplitz_apply(a_bar, f)
        corona_value = float(
            abs(P.polyval(z, poly)) + abs(blaschke_eval(inner, z))
        )
        rows.append(
            ProbeRow(
                z=z,
                corona_value=corona_value,
                f_norm=hp_norm(f, params),
                taf_norm=hp_norm(taf, params),
            )
        )
    return ProbeReport(tuple(rows), sigma, bound, params.p)
