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
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as P

from .blaschke import (
    SUP_POINTS,
    BlaschkeProduct,
    RationalFunction,
    _lowest_terms,
    as_poly,
    blaschke_eval,
    sorted_zeros,
)
from .errors import CommonZeroError, IllConditionedError, NotInModelSpaceError, UnitDiscError
from .hardy import (
    GRID_MAX_M,
    BoundaryFunction,
    _as_params,
    _grid_band,
    grid_for_radius,
    hp_norm,
)
from .model_space import _project_samples, _tm_rows, clark_rule
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

#: Most values (probe functions times nodes) evaluated at once by
#: `near_degenerate_probe`, which bounds its memory whatever the node
#: count, and fewest nodes per basis evaluation, which keeps the number
#: of matrix products linear in the number of probes.
_PROBE_BLOCK = 1 << 11
_PROBE_NODES = 1 << 8


@dataclass(frozen=True, eq=False)
class CoronaCertificate:
    """Solution record for a corona pair (a, I).

    `u` and `v` are analytic in the disc with a*u + I*v = 1; they are
    built when first read, u from `u_reduced`, the (numerator,
    denominator, denominator roots) of U/Q in lowest terms as
    `bezout_solve` reduced it, so with no further root solve, and v from
    `v_terms`, the (numerator, denominator) coefficients as solved.
    `residual` is the largest boundary violation of the identity,
    `sup_u`/`sup_v` the boundary sup norms of the pair, `zero_bound` the
    min of |a| over the zeros of I, and `consistent` records agreement
    between the infimum route and the zeros-of-I route to invertibility.
    """

    symbol: tuple
    inner: BlaschkeProduct
    delta: float
    v_terms: tuple
    u_reduced: tuple
    residual: float
    sup_u: float
    sup_v: float
    zero_bound: float
    consistent: bool

    @cached_property
    def u(self) -> RationalFunction:
        return RationalFunction._reduced(*self.u_reduced)

    @cached_property
    def v(self) -> RationalFunction:
        return RationalFunction(*self.v_terms)

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
    factors is refined by 48 shrinking boxes around the best point
    (`_refine`).  Since f >= |a| everywhere and f(z_k) = |a(z_k)|, no scan
    point with |a| > min_k |a(z_k)| can be the argmin, so I is evaluated on
    the others alone.

    When the scan's best point is a seed, a root of a or a zero of I, the
    refinement often cannot move: `_stays` then proves, from Lipschitz and
    pseudo-hyperbolic bounds on I, that no point of the 48 boxes around it
    has a computed value below the best one, and the search is skipped.
    Either way the result is the float the box-by-box search returns: a
    value of f, so an upper estimate of the infimum; the tests hold it
    within DELTA_TOL of the minimum of f over a dense seeded sample.
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
    seed_keep = np.flatnonzero(seed_abs_a <= bound)
    z = np.concatenate([scan[keep], seeds[seed_keep]])
    vals = np.concatenate([scan_abs_a[keep], seed_abs_a[seed_keep]])
    abs_i = np.abs(blaschke_eval(inner, z))
    vals += abs_i
    best_idx = int(np.argmin(vals))
    center = complex(z[best_idx])
    best = float(vals[best_idx])
    seed = best_idx - (z.size - seed_keep.size)
    if seed >= 0:
        own = int(seed_keep[seed])
        at_zero = own if own < inner.degree else None
        if _stays(poly, inner, center, best, float(abs_i[best_idx]), at_zero):
            return best
    return _refine(poly, inner, center, best)


def _refine(poly: np.ndarray, inner: BlaschkeProduct, center: complex, best: float) -> float:
    """The 48-box search of `corona_delta` from the point `center`, whose
    value of f is `best`: each box of 9x9 points is centred at the best
    point so far, and the first point below `best` moves it.

    Boxes are evaluated in batches as if the centre stayed put.  The
    first box that improves on `best` moves it, and the boxes after that
    one are evaluated again around the new centre: the box-by-box search
    exactly.  A search that moves does so on most of its first 30-odd
    boxes and then stops, so a batch after a move holds one box and the
    size doubles while no box moves.  A search that never moves takes
    batches as large as _ZOOM_BATCH allows: six at degree 6.
    """
    zeros = np.array(inner.zeros, dtype=complex)[:, None, None]
    most = max(1, _ZOOM_BATCH // (_ZOOM_BOX.size * max(inner.degree, 1)))
    step, boxes = 0, most
    while step < _ZOOM_H.size:
        local = _boxes(center, _ZOOM_H[step : step + boxes, None])
        lv = _box_values(poly, inner, zeros, local)
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


def _boxes(center: complex, h: np.ndarray) -> np.ndarray:
    """The 9x9 boxes of half-widths `h` (a column) around `center`, with
    their points outside the closed disc projected onto the circle."""
    local = center + h * _ZOOM_BOX
    if abs(center) + 1.5 * h[0, 0] >= 1.0:  # the boxes may leave the disc
        r = np.abs(local)
        local = np.where(r > 1.0, local / np.maximum(r, 1e-300), local)
    return local


def _box_values(
    poly: np.ndarray, inner: BlaschkeProduct, zeros: np.ndarray, local: np.ndarray
) -> np.ndarray:
    """|a| + |I| at the boxes `local`, I by one broadcast over its
    `zeros`, shaped (n, 1, 1)."""
    factors = (local - zeros) / (1.0 - zeros.conj() * local)
    lv = np.abs(_horner(poly, local))
    lv += np.abs(factors.prod(axis=0, initial=inner.constant))
    return lv


def _stays(
    poly: np.ndarray,
    inner: BlaschkeProduct,
    s: complex,
    best: float,
    inner_abs: float,
    at_zero: int | None,
) -> bool:
    """True when `_refine(poly, inner, s, best)` provably returns `best`.

    While the search stays at s it visits the points p of the 48 boxes
    centred there, projected onto the closed disc as `_refine` projects
    them.  It moves only to a p whose computed value A_p + I_p, with
    A_p = |a(p)| from `_horner` as the search computes it, lies below
    `best`; since I_p >= 0 and rounding is monotone, only the p with
    A_p < best can.  For these, with t = |p - s| and T the largest such t
    in the box of p, a lower bound on |I(p)| over |z - s| <= T shows
    A_p + I_p >= best:

    * at a root of a (`at_zero` None), |I(p)| >= |I(s)| - L*t with
      L = sum_k (1-|l_k|^2)/g_k^2 * prod_{j != k} B_j, where g_k bounds
      |1 - conj(l_k) z| from below and B_j bounds |b_{l_j}(z)| from above
      by the pseudo-hyperbolic triangle inequality, from rho(s, l_j) and
      rho_T >= rho(z, s);
    * at the zero l_j = s (index `at_zero`), |I(p)| >= prod of the lower
      pseudo-hyperbolic bounds of the other factors times
      |b_{l_j}(p)| >= t/(1 - |l_j|^2 + |l_j|*t).

    Rounding allowance: any computed |b_{l_k}(z)|, 1 - |l_k|^2 or
    |1 - conj(l_k) z| with |z| <= 1 is within 16*eps/(1 - |l_k|) of its
    value relative (a few roundings of quantities at least 1 - |l_k|),
    so eta = 16*eps*(1 + sum_k 1/(1 - |l_k|)) bounds the relative error of
    a computed I and of the products above; the distances are widened and
    the bounds loosened by it, `inner_abs` (the computed |I(s)|) is
    deflated by it, and `best` is raised by 16*eps relative for the few
    roundings of the comparison.

    The search's value at s, the centre of every box, must be `best`
    itself, or the search would move to s: numpy's loops can round a
    length-1 array differently, as the scan's seeds are when I has one
    zero and a is constant or I none and a has one root.  So it is taken
    from the first box, as `_refine` computes it, and compared; every
    other point at distance 0 from s gets that value too.
    """
    eps = np.finfo(float).eps
    local = _boxes(s, _ZOOM_H[:, None])
    zeros = np.array(inner.zeros, dtype=complex)[:, None, None]
    if _box_values(poly, inner, zeros, local[:1])[0, _ZOOM_BOX.size // 2] != best:
        return False
    abs_a = np.abs(_horner(poly, local))
    dist = np.abs(local - s)
    near = (abs_a < best) & (dist > 0.0)
    rows = near.any(axis=1)
    if not rows.any():
        return True
    near, abs_a, dist = near[rows], abs_a[rows], dist[rows]
    lam = zeros.ravel()
    lam_abs = np.abs(lam)
    rel = 16.0 * eps / (1.0 - lam_abs)
    eta = 16.0 * eps + rel.sum()
    t = dist * (1.0 + eta)
    T = np.where(near, t, 0.0).max(axis=1, keepdims=True)
    rs = abs(s)
    rho_t = T / np.maximum(1.0 - rs * np.minimum(1.0, rs + T) - 4.0 * eps, T)
    den_s = np.abs(1.0 - lam.conj() * s)
    rho = np.abs(s - lam) / den_s
    weight = 1.0 - lam_abs**2
    if at_zero is None:
        rho_hi = rho * (1.0 + rel)
        upper = (rho_hi + rho_t) / (1.0 + rho_hi * rho_t)
        gap = np.maximum(den_s - lam_abs * T, 1.0 - lam_abs * np.minimum(1.0, rs + T))
        gap *= 1.0 - rel
        lip = upper.prod(axis=1) * (weight * (1.0 + rel) / (gap**2 * upper)).sum(axis=1)
        low = (1.0 - eta) * inner_abs - (1.0 + eta) * lip[:, None] * t
    else:
        rho_lo = rho * (1.0 - rel)
        lower = np.maximum(rho_lo - rho_t, 0.0) / (1.0 - rho_lo * rho_t)
        lower[:, at_zero] = 1.0
        own = lam_abs[at_zero]
        t_lo = dist * (1.0 - eta)
        low = lower.prod(axis=1)[:, None] * t_lo / (weight[at_zero] * (1.0 + rel[at_zero]) + own * t)
    return bool(np.all(~near | (abs_a + (1.0 - eta) * low > best * (1.0 + 16.0 * eps))))


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
    sup norms of u and v are read off the same boundary values.

    Those values come from the solved polynomials by Horner's rule, with
    the coefficients that `RationalFunction(U, Q)` carries: U/Q reduced
    to lowest terms against the roots of Q and divided by the leading
    coefficient left, so they are the values of the certificate's u and
    v.  The rational functions u and v themselves are built only when
    first read, u from those reduced terms and the roots of Q left, with
    no root solve of its own.  c * Pz, Q, its roots and I on SUP_POINTS
    come from `inner.sup_data`, once per inner.  A caller that already
    holds `corona_delta` of this pair passes it as `delta` to skip the
    search.
    """
    poly = _symbol_poly(symbol_coeffs)
    if delta is None:
        delta = corona_delta(poly, inner)
    zero_bound = min_abs_at_zeros(poly, inner)
    consistent = (delta > 0.0) == (zero_bound > ZERO_TOL)
    if delta == 0.0:
        raise CommonZeroError(
            "symbol vanishes at a zero of the inner function; no bounded "
            "Bezout pair exists"
        )

    n = inner.degree
    d_a = len(poly) - 1
    cpz, q, q_roots, inner_sup = inner.sup_data
    if d_a == 0:
        u_terms, u_roots, w = ([1.0 / poly[0]], [1.0]), [], [0.0]
    elif n == 0:
        u_terms, u_roots, w = ([0.0], [1.0]), [], [1.0 / inner.constant]
    else:
        size = n + d_a
        M = np.zeros((size, size), dtype=complex)
        for i in range(n):
            M[i : i + d_a + 1, i] = poly
        for j in range(d_a):
            M[j : j + n + 1, n + j] = cpz
        rhs = np.zeros(size, dtype=complex)
        rhs[: len(q)] = q
        sol = np.linalg.solve(M, rhs)
        correction = -(np.convolve(poly, sol[:n]) + np.convolve(cpz, sol[n:]))
        correction[: len(q)] += q
        sol = sol + np.linalg.solve(M, correction)
        u_terms, u_roots, w = (sol[:n], q), q_roots, sol[n:]

    num, den, roots = _lowest_terms(as_poly(u_terms[0]), as_poly(u_terms[1]), u_roots)
    u_vals = _horner(num, SUP_POINTS) / _horner(den, SUP_POINTS)
    v_vals = _horner(as_poly(w), SUP_POINTS)
    lhs = _horner(poly, SUP_POINTS) * u_vals + inner_sup * v_vals
    residual = float(np.abs(lhs - 1.0).max())
    if not residual <= BEZOUT_TOL:
        raise IllConditionedError(
            f"Bezout identity residual {residual:.3e} exceeds {BEZOUT_TOL:.1e}"
        )
    return CoronaCertificate(
        symbol=tuple(complex(c) for c in poly),
        inner=inner,
        delta=delta,
        v_terms=(w, [1.0]),
        u_reduced=(num, den, roots),
        residual=residual,
        sup_u=float(np.max(np.abs(u_vals))),
        sup_v=float(np.max(np.abs(v_vals))),
        zero_bound=zero_bound,
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


def _p_norms(inner: BlaschkeProduct, coords: np.ndarray, p: float, count: int, rule):
    """(sum_zeta w * |f(zeta)|^p)^(1/p) for the model-space elements f whose
    Takenaka-Malmquist coordinates are the columns of `coords`, over a
    quadrature of `count` nodes whose nodes i:j with their weights (an
    array or one number) are `rule(i, j)`.

    Each chunk of nodes gets one evaluation of the basis (`_tm_rows`),
    shared by all columns, which then take one matrix product per group
    of columns; a chunk has at least _PROBE_NODES nodes unless fewer are
    left, and a group at most _PROBE_BLOCK values.  The sums run relative to the
    largest modulus seen so far, so no power overflows for large p."""
    n, cols = coords.shape
    size = max(_PROBE_NODES, _PROBE_BLOCK // max(n, cols, 1))
    width = max(1, _PROBE_BLOCK // size)
    top = np.full(cols, np.finfo(float).tiny)
    total = np.zeros(cols)
    for i in range(0, count, size):
        pts, w = rule(i, min(i + size, count))
        basis = _tm_rows(inner, pts)
        for j in range(0, cols, width):
            mod = np.abs(coords[:, j : j + width].T @ basis)
            old = top[j : j + width]
            new = np.maximum(old, mod.max(axis=-1))
            mod /= new[:, None]
            np.power(mod, p, out=mod)
            total[j : j + width] *= (old / new) ** p
            total[j : j + width] += np.sum(mod * w, axis=-1)
            top[j : j + width] = new
    return top * total ** (1.0 / p)


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
    T_conj(a) f are a(S_I)^* times them.  All rows share one evaluation
    of the basis per chunk of nodes, with no FFT (`_p_norms`).

    For even p = 2k with k*n at most the node count of
    `grid_for_radius(max |lambda_k|)` and at most GRID_MAX_M, f and
    T_conj(a) f lie in K_I, so f^k lies in K_{I^k} and
    ||f||_p^p = ||f^k||_2^2 is the exact sum of w * |f|^p over the kn
    Clark points of I^k (`clark_rule(inner, power=k)`).  For larger even
    p, ||f||_p is the trapezoid mean over the nodes of that grid, where
    |f|^p is rational with poles only at the zeros of I and their
    reflections; a grid above GRID_MAX_M nodes raises UnitDiscError.  For
    any other p, |f|^p also has branch points at the zeros of f, which
    approach the circle as |z| does, and the mean runs over the nodes of
    `grid_for_radius(max(|z|, |lambda_k|))` over all probes.
    """
    params = _as_params(params if params is not None else 2.0)
    poly = _symbol_poly(symbol_coeffs)
    probes = [complex(z) for z in probes]
    for z in probes:
        if not abs(z) < 1.0:
            raise UnitDiscError(f"probe point {z} must lie in the open disc")
    adjoint = tm_compression(inner, coanalytic=poly)
    x = np.array([_conjugate_kernel_coords(inner, z, params.q) for z in probes])
    x = x.reshape(len(probes), inner.degree).T
    coords = np.column_stack([x, adjoint.apply(x)])
    radius = max(abs(lam) for lam in inner.zeros)
    p = params.p
    if p % 2.0 == 0.0 and p / 2.0 * inner.degree <= min(_grid_band(radius)[0], GRID_MAX_M):
        nodes, weights = clark_rule(inner, power=int(p) // 2)
        count = len(nodes)

        def rule(i, j):
            return nodes[i:j], weights[i:j]

    else:
        if p % 2.0 != 0.0:
            radius = max([radius] + [abs(z) for z in probes])
        count = grid_for_radius(radius).m

        def rule(i, j):
            return np.exp(2j * np.pi * np.arange(i, j) / count), 1.0 / count

    norms = _p_norms(inner, coords, p, count, rule)
    rows = [
        ProbeRow(
            z=z,
            corona_value=float(abs(_horner(poly, z)) + abs(blaschke_eval(inner, z))),
            f_norm=float(f_norm),
            taf_norm=float(taf_norm),
        )
        for z, f_norm, taf_norm in zip(probes, norms[: len(probes)], norms[len(probes) :])
    ]
    return ProbeReport(
        tuple(rows), adjoint.sigma_min(), min_abs_at_zeros(poly, inner), params.p
    )
