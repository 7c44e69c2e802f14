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

from .blaschke import (
    CIRCLE_ROOT_TOL,
    SUP_POINTS,
    BlaschkeProduct,
    RationalFunction,
    _lowest_terms,
    as_poly,
    blaschke_eval,
    sorted_zeros,
)
from .errors import (
    CommonZeroError,
    HardyOpsError,
    IllConditionedError,
    NonFiniteError,
    NotInModelSpaceError,
    UnitDiscError,
)
from .hardy import BoundaryFunction, _as_params, hp_norm
from .model_space import _p_norms, _project_samples
from .operators import _poly_of_matrix, tm_compression, toeplitz_apply

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
    """Trimmed coefficients of a symbol; non-finite coefficients are
    refused, and so are overflowing bounds (`_bounded`)."""
    poly = as_poly(symbol_coeffs)
    if not np.all(np.isfinite(poly)):
        raise ValueError(f"symbol coefficients must be finite, got {poly}")
    _bounded(poly[None, :])
    return poly


def _symbol_rows(symbol_coeffs) -> tuple[np.ndarray, bool]:
    """(rows, stacked): one symbol as a one-row stack, or a 2-D stack of
    symbols of one degree; non-finite coefficients are refused, and so
    are overflowing bounds (`_bounded`)."""
    arr = np.asarray(symbol_coeffs, dtype=complex)
    if arr.ndim < 2:
        return _symbol_poly(arr)[None, :], False
    if arr.ndim > 2 or not arr.size or not np.all(arr[:, -1]):
        raise ValueError(
            f"a stack of symbols must be 2-D, with nonzero leading coefficients: {arr}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"symbol coefficients must be finite, got {arr}")
    _bounded(arr)
    return arr, True


def _bounded(rows: np.ndarray) -> None:
    """Raise NonFiniteError, before anything is evaluated, for a row whose
    sum_k |c_k| or sum_k k |c_k| is not finite.  These sums bound |a|
    and |a'| on the closed disc, so while both are finite no Horner step
    of this module overflows."""
    with np.errstate(over="ignore"):
        size = np.abs(rows)
        total, slope = size.sum(axis=1), size[:, 1:] @ np.arange(1, rows.shape[1])
    finite = np.isfinite(total) & np.isfinite(slope)
    if not finite.all():
        r = int(np.argmin(finite))
        raise NonFiniteError(
            f"symbol coefficients too large: sum |c_k| = {total[r]:.3e} and "
            f"sum k |c_k| = {slope[r]:.3e} must be finite to bound |a| and |a'|"
        )


def _horner(poly: np.ndarray, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a(z) elementwise by Horner's rule, in place: the operations of
    P.polyval without its per-call overhead and temporaries.  Every
    polynomial evaluation in this module goes through it.

    A 2-D `poly` is a stack of rows, row r evaluated at z[r] (z's leading
    axis may have length 1).  Rows of one point go one by one: numpy
    rounds an in-place product on one value without the fused
    multiply-add of its array loops."""
    if poly.ndim > 1 and len(poly) > 1 and np.size(z) == np.shape(z)[0]:
        z = np.broadcast_to(z, (len(poly),) + np.shape(z)[1:])
        return np.concatenate([_horner(p[None], x[None]) for p, x in zip(poly, z)])
    shape = np.shape(z)
    if poly.ndim > 1:
        shape = (len(poly),) + shape[1:]
        poly = poly.T.reshape(poly.shape[::-1] + (1,) * (len(shape) - 1))
    if out is None:
        out = np.empty(shape, dtype=complex)
    out[...] = poly[-1]
    for c in poly[-2::-1]:
        out *= z
        out += c
    return out


def _poly_roots(polys: np.ndarray) -> np.ndarray:
    """The roots of each row of `polys`, as `P.polyroots` computes them,
    from one stacked `eigvals` of their companion matrices."""
    d = polys.shape[1] - 1
    if d < 2:
        return -polys[:, :d] / polys[:, d:]
    companion = np.zeros((len(polys), d, d), dtype=complex)
    companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    companion[:, :, -1] -= polys[:, :-1] / polys[:, -1:]
    return np.sort(np.linalg.eigvals(companion), axis=-1)


def _min_abs_at_zeros(polys: np.ndarray, inner: BlaschkeProduct) -> np.ndarray:
    if inner.degree == 0:
        return np.full(len(polys), np.inf)
    return np.abs(_horner(polys, np.array(inner.zeros)[None, :])).min(axis=1)


def min_abs_at_zeros(symbol_coeffs, inner: BlaschkeProduct):
    """min over zeros z_k of I of |a(z_k)|; infinite when I is constant.
    A stack of symbols (rows of a 2-D array) gets an array of values."""
    polys, stacked = _symbol_rows(symbol_coeffs)
    values = _min_abs_at_zeros(polys, inner)
    return values if stacked else float(values[0])


def corona_delta(symbol_coeffs, inner: BlaschkeProduct):
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

    A stack of symbols of one degree (the rows of a 2-D array) gets an
    array, each entry the float of its one-row call; its rows share the
    seeds, I on the kept points, `_stays` and `_refine`, in row blocks.
    """
    polys, stacked = _symbol_rows(symbol_coeffs)
    if polys.shape[1] == 1 and not np.all(polys):
        raise ValueError("symbol polynomial is identically zero")
    n = inner.degree
    roots = _poly_roots(polys)
    # |r| and r / |r| as numpy scalars compute them: hypot, not np.abs
    size = np.hypot(roots.real, roots.imag)
    out = size > 1.0
    roots[out] = roots[out] / size[out]
    zeros = np.broadcast_to(np.array(inner.zeros, dtype=complex), (len(polys), n))
    seeds = np.concatenate([zeros, roots], axis=1)
    seed_abs_a = np.abs(_horner(polys, seeds))
    bound = seed_abs_a[:, :n].min(axis=1, initial=np.inf)  # min_k |a(z_k)|
    deltas = np.zeros(len(polys))
    live = np.flatnonzero(~(bound <= ZERO_TOL))
    center, best, inner_abs, at_seed = _scan(
        polys[live], inner, seeds[live], seed_abs_a[live], bound[live]
    )
    tried = np.flatnonzero(at_seed >= 0)
    stays = np.zeros(len(live), dtype=bool)
    if tried.size:
        stays[tried] = _stays(
            polys[live[tried]], inner, center[tried], best[tried], inner_abs[tried], at_seed[tried]
        )
    deltas[live[stays]] = best[stays]
    moves = np.flatnonzero(~stays)
    if moves.size:
        deltas[live[moves]] = _refine(polys[live[moves]], inner, center[moves], best[moves])
    return deltas if stacked else float(deltas[0])


def _scan(polys, inner, seeds, seed_abs_a, bound):
    """Each row's best point among the scan and seeds with |a| <= bound:
    (centre, f and |I| there, and its seed index: n for a root of a, -1
    for a scan point).  Rows are scanned one by one, on the cells of 8
    points of a ring whose middle |a|, less max|a'| times the cell's
    reach, is within bound; I is evaluated on the kept points of blocks
    of rows of at most _ZOOM_BATCH points."""
    radii, circle = _SCAN_RADII.ravel(), _SCAN_CIRCLE
    width = 8
    ring_of = np.repeat(radii, circle.size // width)
    middle = ring_of * np.tile(circle[width // 2 :: width], radii.size)
    reach = ring_of * (2.0 * np.sin(np.pi * (width // 2) / circle.size)) * (1.0 + 1e-9) + 1e-12
    n = inner.degree
    center = np.zeros(len(polys), dtype=complex)
    best, inner_abs = np.zeros(len(polys)), np.zeros(len(polys))
    at_seed = np.full(len(polys), -1)

    def settle(block):
        abs_i = np.abs(blaschke_eval(inner, np.concatenate([z for _, z, _, _ in block])))
        start = 0
        for r, z, vals, seed_keep in block:
            here = abs_i[start : start + z.size]
            vals += here
            i = int(np.argmin(vals))
            center[r], best[r], inner_abs[r] = z[i], vals[i], here[i]
            seed = i - (z.size - seed_keep.size)
            if seed >= 0:
                at_seed[r] = min(seed_keep[seed], n)
            start += z.size

    block, held = [], 0
    for r, poly in enumerate(polys):
        size = np.abs(poly)
        slope = size[1:] @ np.arange(1, len(poly))  # bounds |a'| on the disc
        # rounding allowance for |a| at the middle and at the cell's points
        slack = 1e-9 * size.sum()
        near = np.abs(_horner(poly, middle)) - slope * reach - slack <= bound[r]
        points = (np.flatnonzero(near)[:, None] * width + np.arange(width)).ravel()
        scan = radii[points // circle.size] * circle[points % circle.size]
        abs_a = np.abs(_horner(poly, scan))
        keep = abs_a <= bound[r]
        seed_keep = np.flatnonzero(seed_abs_a[r] <= bound[r])
        z = np.concatenate([scan[keep], seeds[r, seed_keep]])
        vals = np.concatenate([abs_a[keep], seed_abs_a[r, seed_keep]])
        del abs_a, keep
        if block and held + z.size > _ZOOM_BATCH:
            settle(block)
            block, held = [], 0
        block.append((r, z, vals, seed_keep))
        held += z.size
    if block:
        settle(block)
    return center, best, inner_abs, at_seed


def _refine(polys, inner: BlaschkeProduct, center, best) -> np.ndarray:
    """The 48-box search of `corona_delta` from each row's centre, whose
    value of f is best[r]: each box of 9x9 points is centred at the row's
    best point so far, and the first point below its best moves it.

    A row's boxes are evaluated in batches as if the centre stayed put;
    the first improving box moves it, and its later boxes are evaluated
    again: the box-by-box search exactly.  A batch after a move holds one
    box and doubles while no box moves.  The rows still searching advance
    in lockstep, a block of them per broadcast of at most _ZOOM_BATCH
    factor evaluations.
    """
    zeros = np.array(inner.zeros, dtype=complex)[:, None, None]
    most = max(1, _ZOOM_BATCH // (_ZOOM_BOX.size * max(inner.degree, 1)))
    center = np.array(center, dtype=complex)
    best = np.array(best, dtype=float)
    step, want = [0] * len(best), [most] * len(best)
    searching = list(range(len(best)))
    while searching:
        rows = searching[:most]
        share = most // len(rows)
        owner, steps = [], []
        for r in rows:
            k = min(want[r], share, _ZOOM_H.size - step[r])
            owner += [r] * k
            steps += range(step[r], step[r] + k)
        if len(rows) > 1:
            local = _boxes(center[owner, None], _ZOOM_H[steps, None])
            lv = _box_values(polys[owner], inner, zeros, local)
            improved = (lv.min(axis=1) < best[owner]).tolist()
        else:  # one row: its polynomial and centre as they are, the same floats
            r = rows[0]
            local = _boxes(center[r], _ZOOM_H[step[r] : step[r] + len(steps), None])
            lv = _box_values(polys[r], inner, zeros, local)
            improved = (lv.min(axis=1) < best[r]).tolist()
        moved = set()
        for j, r in enumerate(owner):
            if r in moved:
                continue
            if improved[j]:
                i = lv[j].argmin()
                best[r], center[r] = lv[j, i], local[j, i]
                step[r], want[r] = steps[j] + 1, 1
                moved.add(r)
            elif j + 1 == len(owner) or owner[j + 1] != r:  # no box of the row moved
                step[r] = steps[j] + 1
                want[r] = min(2 * want[r], most)
        searching = [r for r in searching[len(rows) :] + rows if step[r] < _ZOOM_H.size]
    return best


def _boxes(center: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The 9x9 boxes of half-widths `h` (a column) around `center`, with
    their points outside the closed disc projected onto the circle."""
    local = center + h * _ZOOM_BOX
    if np.ndim(center):
        leaves = np.abs(center).max() + 1.5 * h.max() >= 1.0
    else:  # one centre, with h a slice of the descending _ZOOM_H
        leaves = abs(center) + 1.5 * h[0, 0] >= 1.0
    if leaves:  # some boxes may leave the disc
        r = np.abs(local)
        local = np.where(r > 1.0, local / np.maximum(r, 1e-300), local)
    return local


def _box_values(
    polys: np.ndarray, inner: BlaschkeProduct, zeros: np.ndarray, local: np.ndarray
) -> np.ndarray:
    """|a| + |I| at the boxes `local` (a stack of rows of `polys` gives a
    on local[r]), I by one broadcast over its `zeros`, shaped (n, 1, 1)."""
    factors = (local - zeros) / (1.0 - zeros.conj() * local)
    lv = np.abs(_horner(polys, local))
    lv += np.abs(factors.prod(axis=0, initial=inner.constant))
    return lv


def _stays(polys, inner: BlaschkeProduct, s, best, inner_abs, at_seed) -> np.ndarray:
    """For each row r, True when `_refine` from s[r] with value best[r]
    provably returns best[r].

    While the search stays at s it visits the points p of the 48 boxes
    centred there, projected onto the closed disc as `_refine` projects
    them.  It moves only to a p whose computed value A_p + I_p, with
    A_p = |a(p)| from `_horner` as the search computes it, lies below
    `best`; since I_p >= 0 and rounding is monotone, only the p with
    A_p < best can.  For these, with t = |p - s| and T the largest such t
    in the box of p, a lower bound on |I(p)| over |z - s| <= T shows
    A_p + I_p >= best:

    * at a root of a (at_seed[r] = n), |I(p)| >=
      |I(s)| - L*t with L = sum_k (1-|l_k|^2)/g_k^2 * prod_{j != k} B_j,
      where g_k bounds |1 - conj(l_k) z| from below and B_j bounds
      |b_{l_j}(z)| from above by the pseudo-hyperbolic triangle
      inequality, from rho(s, l_j) and rho_T >= rho(z, s);
    * at the zero l_j = s (at_seed[r] = j < n), |I(p)| >= prod of the
      lower pseudo-hyperbolic bounds of the other factors times
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
    Rows run in blocks that fit the scan's size and _ZOOM_BATCH.
    """
    n = inner.degree
    block = max(
        1,
        min(
            _SCAN_RADII.size * _SCAN_CIRCLE.size // (_ZOOM_H.size * max(_ZOOM_BOX.size, n)),
            _ZOOM_BATCH // (_ZOOM_BOX.size * max(n, 1)),
        ),
    )
    stays = np.zeros(len(best), dtype=bool)
    for b in range(0, len(best), block):
        rows = slice(b, b + block)
        stays[rows] = _stays_block(
            polys[rows], inner, s[rows], best[rows], inner_abs[rows], at_seed[rows]
        )
    return stays


def _stays_block(polys, inner: BlaschkeProduct, s, best, inner_abs, at_seed) -> np.ndarray:
    """`_stays` for one block of rows."""
    eps = np.finfo(float).eps
    n = inner.degree
    lam = np.array(inner.zeros, dtype=complex)
    zeros = lam[:, None, None]
    lam_abs = np.abs(lam)
    rel = 16.0 * eps / (1.0 - lam_abs)
    eta = 16.0 * eps + rel.sum()
    weight = 1.0 - lam_abs**2
    centre = _ZOOM_BOX.size // 2
    # row by row: numpy 2 buffers an operand broadcast across rows
    abs_a = np.empty((len(s), _ZOOM_H.size, _ZOOM_BOX.size))
    dist = np.empty_like(abs_a)
    firsts = np.empty((len(s), 2), dtype=complex)
    for r, (poly, sr) in enumerate(zip(polys, s)):
        local = _boxes(sr, _ZOOM_H[:, None])
        firsts[r] = local[0, centre - 1 : centre + 1]
        abs_a[r] = np.abs(_horner(poly, local))
        dist[r] = np.abs(local - sr)
    # the search's value at s, from s and a neighbour in the first box
    own = _box_values(polys, inner, zeros, firsts)[:, 1]
    near = (abs_a < best[:, None, None]) & (dist > 0.0)
    row, box = np.nonzero(near.any(axis=2))
    # one array at a time, and the bounds in place (operands swapped)
    near = near[row, box]
    abs_a = abs_a[row, box]
    dist = dist[row, box]
    sk = s[row, None]
    t = dist * (1.0 + eta)
    T = np.where(near, t, 0.0).max(axis=1, keepdims=True)
    rs = np.hypot(sk.real, sk.imag)  # abs(s) of a Python complex
    rho_t = T / np.maximum(1.0 - rs * np.minimum(1.0, rs + T) - 4.0 * eps, T)
    den_s = np.abs(1.0 - lam.conj() * sk)
    rho = np.abs(sk - lam) / den_s
    low = np.empty_like(t)
    root = at_seed[row] >= n
    if root.any():
        rho_hi = rho[root] * (1.0 + rel)
        upper = (rho_hi + rho_t[root]) / (1.0 + rho_hi * rho_t[root])
        gap = np.maximum(
            den_s[root] - lam_abs * T[root],
            1.0 - lam_abs * np.minimum(1.0, rs[root] + T[root]),
        )
        gap *= 1.0 - rel
        lip = upper.prod(axis=1) * (weight * (1.0 + rel) / (gap**2 * upper)).sum(axis=1)
        # (1 - eta) * |I(s)| - (1 + eta) * L * t
        fall = t[root]
        fall *= (1.0 + eta) * lip[:, None]
        low[root] = np.subtract((1.0 - eta) * inner_abs[row[root], None], fall, out=fall)
        del fall
    zero = ~root
    if zero.any():
        j = at_seed[row[zero]]
        rho_lo = rho[zero] * (1.0 - rel)
        lower = np.maximum(rho_lo - rho_t[zero], 0.0) / (1.0 - rho_lo * rho_t[zero])
        lower[np.arange(len(j)), j] = 1.0
        # prod(lower) * t * (1 - eta) / (w_j * (1 + rel_j) + |l_j| * t)
        rise = dist[zero]
        rise *= 1.0 - eta
        rise *= lower.prod(axis=1)[:, None]
        own_t = t[zero]
        own_t *= lam_abs[j, None]
        own_t += (weight[j] * (1.0 + rel[j]))[:, None]
        rise /= own_t
        low[zero] = rise
        del rise, own_t
    del dist, t
    low *= 1.0 - eta
    low += abs_a
    safe = np.all((low > best[row, None] * (1.0 + 16.0 * eps)) | ~near, axis=1)
    stays = own == best
    stays[row[~safe]] = False
    return stays


def bezout_solve(symbol_coeffs, inner: BlaschkeProduct, delta=None):
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

    A 2-D stack of symbols of one degree shares one `corona_delta` call,
    the solves, the roots of U and the boundary values (in row blocks),
    and gets a list holding each row's certificate or the
    CommonZeroError or IllConditionedError its one-row call raises.
    """
    polys, stacked = _symbol_rows(symbol_coeffs)
    if delta is None:
        delta = corona_delta(polys if stacked else polys[0], inner)
    deltas = np.broadcast_to(np.asarray(delta, dtype=float), len(polys))
    zero_bound = _min_abs_at_zeros(polys, inner)
    results = [
        CommonZeroError(
            "symbol vanishes at a zero of the inner function; no bounded "
            "Bezout pair exists"
        )
        for _ in range(len(polys))
    ]
    live = np.flatnonzero(deltas != 0.0)
    for r, cert in zip(live, _bezout_pairs(polys[live], inner)):
        if isinstance(cert, HardyOpsError):
            results[r] = cert
            continue
        results[r] = CoronaCertificate(
            symbol=tuple(complex(c) for c in polys[r]),
            inner=inner,
            delta=float(deltas[r]),
            zero_bound=float(zero_bound[r]),
            consistent=bool((deltas[r] > 0.0) == (zero_bound[r] > ZERO_TOL)),
            **cert,
        )
    if stacked:
        return results
    if isinstance(results[0], HardyOpsError):
        raise results[0]
    return results[0]


def _bezout_pairs(polys: np.ndarray, inner: BlaschkeProduct) -> list:
    """Each row's certificate fields of a*u + I*v = 1, or its
    IllConditionedError.  The refinement keeps `np.convolve`'s order."""
    rows, n, d = len(polys), inner.degree, polys.shape[1] - 1
    if rows == 0:
        return []
    cpz, q, q_roots, _ = inner.sup_data
    if d == 0 or n == 0:
        zero = np.broadcast_to(as_poly([0.0]), (rows, 1))
        if d == 0:
            nums, ws = 1.0 / polys, zero
        else:
            nums, ws = zero, np.full((rows, 1), 1.0 / inner.constant)
        den, den_roots = as_poly([1.0]), np.empty(0, dtype=complex)
    else:
        size = n + d
        M = np.zeros((rows, size, size), dtype=complex)
        for i in range(n):
            M[:, i : i + d + 1, i] = polys
        for j in range(d):
            M[:, j : j + n + 1, n + j] = cpz
        rhs = np.zeros((rows, size, 1), dtype=complex)
        rhs[:, : len(q), 0] = q
        sol = np.linalg.solve(M, rhs)[..., 0]
        correction = np.stack(
            [-(np.convolve(a, x[:n]) + np.convolve(cpz, x[n:])) for a, x in zip(polys, sol)]
        )
        correction[:, : len(q)] += q
        sol = sol + np.linalg.solve(M, correction[..., None])[..., 0]
        nums, ws = sol[:, :n], sol[:, n:]
        den, den_roots = as_poly(q), q_roots

    # U/Q in lowest terms as `_lowest_terms` reduces it, U and W trimmed as
    # `as_poly` trims them: rows of one shape together, and a row whose U
    # shares a root with Q through `_lowest_terms` itself
    fields = [None] * rows
    shapes = list(zip(_trimmed_length(nums).tolist(), _trimmed_length(ws).tolist()))
    for length_u, length_w in sorted(set(shapes)):
        group = np.array([r for r, shape in enumerate(shapes) if shape == (length_u, length_w)])
        u, w = nums[group, :length_u], ws[group, :length_w]
        plain = np.ones(len(group), dtype=bool)
        if length_u > 1 and len(den) > 1:
            nonzero = np.flatnonzero(u.any(axis=1))
            roots = _poly_roots(u[nonzero])
            gap = den_roots[:, None] - roots[:, None, :]
            tol = CIRCLE_ROOT_TOL * np.maximum(1.0, np.hypot(den_roots.real, den_roots.imag))
            close = (np.hypot(gap.real, gap.imag) <= tol[:, None]).any(axis=(1, 2))
            for k, u_roots in zip(nonzero[close], roots[close]):
                plain[k] = False
                reduced = _lowest_terms(u[k], den, den_roots, u_roots)
                _sup_pass(fields, polys, group[k : k + 1], reduced, w[k : k + 1], inner)
        if plain.any():
            lead = den[-1]
            reduced = (u[plain] / lead, den / lead, den_roots)
            _sup_pass(fields, polys, group[plain], reduced, w[plain], inner)
    return fields


def _trimmed_length(rows: np.ndarray) -> np.ndarray:
    """Each row's length as `as_poly` trims it."""
    nonzero = rows != 0.0
    last = rows.shape[1] - np.argmax(nonzero[:, ::-1], axis=1)
    return np.where(nonzero.any(axis=1), last, 1)


def _sup_pass(fields, polys, rows, reduced, ws, inner: BlaschkeProduct) -> None:
    """fields[r] for the `rows` of `polys`, with u = nums[k] / den from
    `reduced` = (nums, den, den roots) and v = ws[k]: the residual and sup
    norms on SUP_POINTS, in blocks of rows that fit the scan's size.  A
    row that fails the gate names 1/sigma_min of a(S_I), from one SVD of
    its own."""
    nums, den, den_roots = reduced
    inner_sup = inner.sup_data[3]
    nums = np.atleast_2d(nums)
    den_sup = _horner(den, SUP_POINTS)
    block = max(1, _SCAN_RADII.size * _SCAN_CIRCLE.size // SUP_POINTS.size)
    for b in range(0, len(rows), block):
        k = slice(b, b + block)
        u = _on_circle(nums[k])
        u /= den_sup
        sup_u = np.abs(u).max(axis=1)
        lhs = _on_circle(polys[rows[k]])
        lhs *= u
        del u
        # a constant v (a symbol of degree 1) is its one coefficient
        v = _on_circle(ws[k]) if ws.shape[1] > 1 else ws[k]
        sup_v = np.abs(v).max(axis=1)
        lhs += inner_sup * v
        del v
        lhs -= 1.0
        residual = np.abs(lhs).max(axis=1)
        del lhs
        for j, r in enumerate(rows[k]):
            if not residual[j] <= BEZOUT_TOL:
                sigma = np.linalg.svd(_poly_of_matrix(polys[r], inner.tm_shift), compute_uv=False)
                with np.errstate(divide="ignore"):
                    inverse = 1.0 / sigma[-1]
                fields[r] = IllConditionedError(
                    f"Bezout identity residual {residual[j]:.3e} exceeds {BEZOUT_TOL:.1e}; "
                    f"1/sigma_min of a(S_I) is {inverse:.3e}"
                )
                continue
            fields[r] = {
                "v_terms": (ws[b + j], [1.0]),
                "u_reduced": (nums[b + j], den, den_roots),
                "residual": float(residual[j]),
                "sup_u": float(sup_u[j]),
                "sup_v": float(sup_v[j]),
            }


def _on_circle(rows: np.ndarray) -> np.ndarray:
    """Each row evaluated on SUP_POINTS; a call per row costs less than
    numpy 2's buffering of a broadcast operand."""
    out = np.empty((len(rows), SUP_POINTS.size), dtype=complex)
    for row, values in zip(rows, out):
        _horner(row, SUP_POINTS, values)
    return out


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
    T_conj(a) f are a(S_I)^* times them.  All rows share one evaluation
    of the basis per chunk of nodes, with no FFT.  The norms come from
    `model_space._p_norms`: exact Clark sums at even p, and Clark sums
    doubled until they settle to NORM_TOL otherwise.
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
    norms = _p_norms(inner, coords, params.p)
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
