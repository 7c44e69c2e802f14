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
    SUP_POINTS,
    BlaschkeProduct,
    RationalFunction,
    as_poly,
    blaschke_eval,
    sorted_zeros,
)
from .errors import CommonZeroError, IllConditionedError, NotInModelSpaceError, UnitDiscError
from .hardy import BoundaryFunction, _as_params, grid_for_radius, hp_norm, p_mean
from .model_space import _project_samples, tm_eval
from .operators import tm_compression, toeplitz_apply

#: Values of min_k |a(z_k)| at or below this are treated as a common zero.
ZERO_TOL = 1e-10

#: How far corona_delta may lie above the minimum of |a| + |I| over a
#: dense sample of the closed disc (checked by the tests, not certified).
DELTA_TOL = 1e-6

#: Largest allowed Bezout identity residual on the circle.
BEZOUT_TOL = 1e-9

#: Relative tolerance for "f lies in the model space".
MEMBERSHIP_TOL = 1e-8

#: Relative roundtrip residual allowed when applying the inverse.
INVERSE_TOL = 1e-7

#: Fixed polar scan of the closed disc: 64 radii in [0, 1] times 256 angles.
#: Only the factors stay resident: the whole 16 384-point grid, kept as a
#: constant, raised the peak RSS of degree-40 reports by about 0.5 MB.
_SCAN_RADII = np.linspace(0.0, 1.0, 64)[:, None]
_SCAN_CIRCLE = np.exp(2j * np.pi * np.arange(256) / 256)

#: Refinement: 48 square boxes of 9x9 points around the best point so far,
#: of half-width 0.06 shrinking by 0.6 per box.
_ZOOM_OFFSETS = np.linspace(-1.0, 1.0, 9)
_ZOOM_BOX = (_ZOOM_OFFSETS[:, None] + 1j * _ZOOM_OFFSETS[None, :]).ravel()
_ZOOM_H = np.cumprod([0.06] + [0.6] * 47)

#: Most factor evaluations (points times zeros of I) in one refinement
#: broadcast (64 KB per temporary).  From degree 26 on, a batch is one
#: box.
_ZOOM_BATCH = 2**12


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


def _symbol_poly(symbol_coeffs) -> np.ndarray:
    """Trimmed coefficients of a symbol; non-finite coefficients are refused."""
    poly = as_poly(symbol_coeffs)
    if not np.all(np.isfinite(poly)):
        raise ValueError(f"symbol coefficients must be finite, got {poly}")
    return poly


def _horner(poly: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a(z) elementwise by Horner's rule, in place: the operations of
    P.polyval without its per-call overhead and temporaries.  Every
    polynomial evaluation in this module goes through it."""
    out = np.full(np.shape(z), poly[-1])
    for c in poly[-2::-1]:
        out *= z
        out += c
    return out


def min_abs_at_zeros(symbol_coeffs, inner: BlaschkeProduct) -> float:
    """min over zeros z_k of I of |a(z_k)|; infinite when I is constant."""
    poly = _symbol_poly(symbol_coeffs)
    if inner.degree == 0:
        return float("inf")
    return float(np.abs(_horner(poly, np.array(inner.zeros))).min())


def corona_delta(symbol_coeffs, inner: BlaschkeProduct) -> float:
    """inf over the closed disc of f = |a| + |I|, estimated from above.

    Returns exactly 0.0 when the symbol nearly vanishes at a zero of the
    inner function (the only way the infimum can vanish for a finite
    product).  Otherwise a fixed polar scan seeded with the zeros of both
    factors is refined by 48 shrinking boxes around the best point.  Since
    f >= |a| everywhere and f(z_k) = |a(z_k)|, no scan point with
    |a| > min_k |a(z_k)| can be the argmin, so I is evaluated on the
    others alone.  The refinement evaluates I on batches of boxes, one
    broadcast over the factors per batch.  The result is a value of f, so
    an upper estimate of the infimum; the tests hold it within DELTA_TOL
    of the minimum of f over a dense seeded sample.
    """
    poly = _symbol_poly(symbol_coeffs)
    if len(poly) == 1 and poly[0] == 0.0:
        raise ValueError("symbol polynomial is identically zero")
    roots = P.polyroots(poly) if len(poly) > 1 else []
    seeds = np.array(
        list(inner.zeros) + [r if abs(r) <= 1.0 else r / abs(r) for r in roots],
        dtype=complex,
    )
    seed_abs_a = np.abs(_horner(poly, seeds))
    bound = seed_abs_a[: inner.degree].min(initial=np.inf)  # min_k |a(z_k)|
    if bound <= ZERO_TOL:
        return 0.0

    scan = (_SCAN_RADII * _SCAN_CIRCLE).ravel()
    scan_abs_a = np.abs(_horner(poly, scan))
    keep = scan_abs_a <= bound
    seed_keep = seed_abs_a <= bound
    z = np.concatenate([scan[keep], seeds[seed_keep]])
    vals = np.concatenate([scan_abs_a[keep], seed_abs_a[seed_keep]])
    vals += np.abs(blaschke_eval(inner, z))
    best_idx = int(np.argmin(vals))
    center = complex(z[best_idx])
    best = float(vals[best_idx])

    # Boxes are evaluated in batches as if the centre stayed put.  The
    # first box that improves on `best` moves it, and the boxes after that
    # one are evaluated again around the new centre: the box-by-box search
    # exactly.  A search that moves does so on most of its first 30-odd
    # boxes and then stops, so a batch after a move holds one box and the
    # size doubles while no box moves.  A search whose argmin is a zero of
    # I never moves and takes batches as large as _ZOOM_BATCH allows: six
    # at degree 6.
    zeros = np.array(inner.zeros, dtype=complex)[:, None, None]
    zeros_conj = zeros.conj()
    most = max(1, _ZOOM_BATCH // (_ZOOM_BOX.size * max(inner.degree, 1)))
    step, boxes = 0, most
    while step < _ZOOM_H.size:
        h = _ZOOM_H[step : step + boxes, None]
        local = center + h * _ZOOM_BOX
        if abs(center) + 1.5 * h[0, 0] >= 1.0:  # the boxes may leave the disc
            r = np.abs(local)
            local = np.where(r > 1.0, local / np.maximum(r, 1e-300), local)
        factors = (local - zeros) / (1.0 - zeros_conj * local)
        lv = np.abs(_horner(poly, local))
        lv += np.abs(factors.prod(axis=0, initial=inner.constant))
        moved = np.flatnonzero(lv.min(axis=1) < best)
        if moved.size == 0:
            step += len(lv)
            boxes = min(2 * boxes, most)
            continue
        j = moved[0]
        i = lv[j].argmin()
        best = float(lv[j, i])
        center = complex(local[j, i])
        step += j + 1
        boxes = 1
    return best


def bezout_solve(
    symbol_coeffs, inner: BlaschkeProduct, delta: float | None = None
) -> CoronaCertificate:
    """Explicit pair u, v with a*u + I*v = 1 on the closed disc.

    Writing I = c * Pz / Q with Pz monic over the zeros and Q the
    reflected denominator, the identity reduces to the polynomial equation
    a*U + c*Pz*W = Q with deg U < deg a + deg I constraints, solved as a
    square Sylvester-style linear system plus one iterative refinement
    pass; then u = U/Q and v = W.  The boundary residual on SUP_POINTS
    must come out below BEZOUT_TOL or the solve is reported as failed; the
    sup norms of u and v are read off the same boundary values.  A caller
    that already holds `corona_delta` of this pair passes it as `delta` to
    skip the search.
    """
    poly = _symbol_poly(symbol_coeffs)
    if delta is None:
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

    u_vals = u.evaluate(SUP_POINTS)
    v_vals = v.evaluate(SUP_POINTS)
    lhs = _horner(poly, SUP_POINTS) * u_vals + blaschke_eval(inner, SUP_POINTS) * v_vals
    residual = float(np.abs(lhs - 1.0).max())
    if not residual <= BEZOUT_TOL:
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
        sup_u=float(np.max(np.abs(u_vals))),
        sup_v=float(np.max(np.abs(v_vals))),
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
    projection defect below MEMBERSHIP_TOL) and verifies the roundtrip
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
    """One near-degenerate test vector f at the probe point z and the
    p-norms of f and of T_conj(a) f."""

    z: complex
    corona_value: float
    f_norm: float
    taf_norm: float


@dataclass(frozen=True, eq=False)
class ProbeReport:
    """Lower-bound stress test for the compressed coanalytic operator.

    Each row holds a probe f = (1-|z|^2)^(1/q) * (I - I(z))/(zeta - z), the
    conjugate of the reproducing kernel of the model space at z, which
    lies in the model space; the rows track the ratio
    ||T_conj(a) f||_p / ||f||_p as z approaches the circle.  sigma_min is
    the smallest singular value of the compressed matrix a(S_I)^* and
    zero_bound the min of |a| over the zeros of I, the invertibility
    threshold at p = 2.
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


def _conjugate_kernel_coords(inner: BlaschkeProduct, z: complex, q: float) -> np.ndarray:
    """Takenaka-Malmquist coordinates of (1-|z|^2)^(1/q) * (I - I(z))/(zeta - z).

    The function is C k_z with k_z the reproducing kernel of the model
    space and C the conjugation f -> I * conj(zeta * f) on the circle, so
    coordinate j is (C e_j)(z) = c * sqrt(1-|lambda_j|^2)/(1 - conj(lambda_j) z)
    * prod_{i>j} b_{lambda_i}(z) in the order of `sorted_zeros`.
    """
    lam = np.array(sorted_zeros(inner), dtype=complex)
    den = 1.0 - lam.conj() * z
    later = np.append(np.cumprod(((z - lam) / den)[:0:-1])[::-1], 1.0)
    scale = (1.0 - abs(z) ** 2) ** (1.0 / q) * inner.constant
    return scale * np.sqrt(1.0 - np.abs(lam) ** 2) / den * later


def near_degenerate_probe(
    inner: BlaschkeProduct,
    symbol_coeffs,
    probes,
    params=None,
) -> ProbeReport:
    """Evaluate kernel-type probes against the compressed coanalytic operator.

    For each probe point z (rows keep the input order) the test vector is
    f = (1-|z|^2)^(1/q) * (I - I(z))/(zeta - z): the factor difference
    quotient of I at z times the normalized kernel at z, whose pole at
    1/conj(z) cancels.  f is the conjugate kernel C k_z of the model
    space, so the projection leaves it unchanged, and its coordinates in
    the Takenaka-Malmquist basis have a closed form; those of
    T_conj(a) f are a(S_I)^* times them.  Both functions are evaluated
    through `tm_eval`, with no FFT, and each p-norm is the trapezoid mean
    of |f|^p on m equispaced nodes, taken by `p_mean`.  For even integer p,
    |f|^p is rational on the circle with poles only at the zeros of I and
    their reflections, and m is that of `grid_for_radius(max |lambda_k|)`.
    For any other p, |f|^p also has branch points at the zeros of f, which
    approach the circle as |z| does, and m is that of
    `grid_for_radius(max(|z|, |lambda_k|))` over all probes.
    """
    params = _as_params(params if params is not None else 2.0)
    poly = _symbol_poly(symbol_coeffs)
    probes = [complex(z) for z in probes]
    for z in probes:
        if not abs(z) < 1.0:
            raise UnitDiscError(f"probe point {z} must lie in the open disc")
    adjoint = tm_compression(inner, coanalytic=poly)
    radius = max(abs(lam) for lam in inner.zeros)
    if params.p % 2.0 != 0.0:
        radius = max([radius] + [abs(z) for z in probes])
    nodes = grid_for_radius(radius).points
    rows = []
    for z in probes:
        x = _conjugate_kernel_coords(inner, z, params.q)
        values = tm_eval(inner, np.column_stack([x, adjoint.apply(x)]), nodes)
        f_norm, taf_norm = p_mean(values, params.p)
        corona_value = float(
            abs(_horner(poly, z)) + abs(blaschke_eval(inner, z))
        )
        rows.append(
            ProbeRow(
                z=z,
                corona_value=corona_value,
                f_norm=float(f_norm),
                taf_norm=float(taf_norm),
            )
        )
    return ProbeReport(
        tuple(rows), adjoint.sigma_min(), min_abs_at_zeros(poly, inner), params.p
    )
