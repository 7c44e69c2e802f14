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
from .errors import IllConditionedError, NonFiniteError, UnitDiscError
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

#: Most values (zeros times points) in one temporary of the Clark phase,
#: and most Clark nodes refined at once.
_CLARK_BLOCK = 1 << 14

#: Newton or bisection steps allowed per Clark node; bisection alone
#: resolves any bracket to rounding in about 55.
_CLARK_MAX_ITER = 100

#: `_p_norms` stops doubling its Clark rule once two doublings in a row
#: each move every norm by at most this, relative.
NORM_TOL = 1e-10

#: Most Clark nodes `_p_norms` sums over, for the exact even-p rule and
#: for the doubled rule alike.
CLARK_MAX_NODES = 1 << 20

#: Most values (functions times nodes) evaluated at once by `_p_norms`,
#: which bounds its memory whatever the node count, and fewest nodes per
#: basis evaluation, which keeps the number of matrix products linear in
#: the number of functions.
_NORM_BLOCK = 1 << 11
_NORM_NODES = 1 << 8


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
    taken from `_tm_rows` with no grid or FFT.  `coords` has the dimension
    as its first axis; further axes evaluate several elements at once and
    come first in the result, whose shape is coords.shape[1:] + points.shape.
    """
    pts = np.asarray(points, dtype=complex)
    coords = np.asarray(coords, dtype=complex)
    if coords.shape[:1] != (inner.degree,):
        raise ValueError(
            f"coordinates of shape {coords.shape} for a model space of dimension {inner.degree}"
        )
    flat = coords.reshape(inner.degree, -1)
    out = np.zeros(flat.shape[1:] + pts.shape, dtype=complex)
    for ck, row in zip(flat, _tm_rows(inner, pts)):
        # zero coordinates add nothing, so identity coordinates cost O(n * m)
        used = np.flatnonzero(ck)
        out[used] += np.multiply.outer(ck[used], row)
    return out.reshape(coords.shape[1:] + pts.shape)


def _tm_rows(inner: BlaschkeProduct, points) -> np.ndarray:
    """e_0, ..., e_(n-1) at `points` as the rows of one array, from the
    product formula of `tm_eval`.  Only the running product
    prod_{j<k} b_{lambda_j} is taken zero by zero; the denominators and
    the normalized kernels are one array operation each."""
    pts = np.asarray(points, dtype=complex)
    lam = sorted_zeros(inner)
    den = 1.0 - np.multiply.outer(np.conj(lam), pts)
    out = np.empty(den.shape, dtype=complex)
    partial = np.ones_like(pts)
    for k, zk in enumerate(lam):
        out[k] = partial
        partial = partial * (pts - zk) / den[k]
    # in Python floats zero by zero, as the rows have always been rounded
    scale = np.array([np.sqrt(1.0 - abs(zk) ** 2) for zk in lam])
    scale = scale.reshape(scale.shape + (1,) * pts.ndim)
    return np.multiply(np.divide(scale, den, out=den), out, out=out)


def _clark_phase(zeros, power: int, count: int, theta: np.ndarray):
    """Phi(theta) = count*theta + 2*power*sum_k arg(1 - lambda_k e^{-i theta}),
    the phase of z^extra * I^power up to a constant, and Phi'(theta) =
    extra + power*sum_k (1-|lambda_k|^2)/|1 - lambda_k e^{-i theta}|^2 with
    extra = count - power*n, summed over blocks of zeros so that no
    temporary exceeds _CLARK_BLOCK values or len(theta)."""
    rotation = np.exp(-1j * theta)
    arg = np.zeros(theta.shape)
    slope = np.full(theta.shape, float(count - power * len(zeros)))
    step = max(1, _CLARK_BLOCK // max(theta.size, 1))
    for i in range(0, len(zeros), step):
        lam = zeros[i : i + step, None]
        w = 1.0 - lam * rotation
        arg += np.arctan2(w.imag, w.real).sum(axis=0)
        slope += (power * (1.0 - np.abs(lam) ** 2) / (w.real**2 + w.imag**2)).sum(axis=0)
    return count * theta + 2.0 * power * arg, slope


def _clark_roots(phase, lo, hi, theta, targets, floor: float):
    """theta with phase(theta) = targets, to within `floor` or to the
    resolution of theta, and 1/phase'(theta) there, for an increasing
    phase bracketed on [lo, hi] and started at `theta`: Newton steps, with
    bisection when a step leaves its bracket or fails to halve the one
    before."""
    eps = np.finfo(float).eps
    last = hi - lo
    weights = np.empty(len(targets))
    active = np.arange(len(targets))
    for _ in range(_CLARK_MAX_ITER):
        t = theta[active]
        value, slope = phase(t)
        miss = value - targets[active]
        below = miss < 0.0
        lo_t = np.where(below, t, lo[active])
        hi_t = np.where(below, hi[active], t)
        newton = t - miss / slope
        moved = np.abs(newton - t)
        done = (np.abs(miss) <= floor) | (moved <= 4.0 * eps) | (hi_t - lo_t <= 4.0 * eps)
        take = (lo_t < newton) & (newton < hi_t) & (done | (moved <= 0.5 * last[active]))
        step = np.where(take, newton, np.where(done, t, 0.5 * (lo_t + hi_t)))
        theta[active], lo[active], hi[active] = step, lo_t, hi_t
        last[active] = np.abs(step - t)
        weights[active[done]] = 1.0 / slope[done]
        active = active[~done]
        if active.size == 0:
            return theta, weights
    raise IllConditionedError(
        f"{active.size} Clark nodes unresolved after {_CLARK_MAX_ITER} steps"
    )


def _clark_windows(inner: BlaschkeProduct, power: int = 1, extra: int = 0):
    """The nodes and weights of `clark_rule(inner, power, extra)` as an
    iterator of consecutive windows of at most _CLARK_BLOCK nodes, so that
    a caller summing over them holds O(_CLARK_BLOCK) values whatever the
    node count.  Invalid arguments raise at once; an unresolved node
    raises IllConditionedError when its window is reached."""
    power, extra = int(power), int(extra)
    count = power * inner.degree + extra
    if power < 1 or extra < 0 or count < 1:
        raise ValueError(f"Clark rule needs power >= 1, extra >= 0 and a node: {power}, {extra}")
    return _clark_solve(np.asarray(inner.zeros, dtype=complex), power, count)


def _clark_solve(zeros, power: int, count: int):
    """The windows of `_clark_windows`: the phase is sampled window by
    window on the grid 2*pi*k/count, k = 0..count, and the monotone
    targets are merged against each sampled window for their brackets."""

    def phase(theta):
        return _clark_phase(zeros, power, count, theta)

    def sampled():
        start = None
        for i in range(0, count + 1, _CLARK_BLOCK):
            k = np.arange(i, min(i + _CLARK_BLOCK, count + 1))
            grid = 2.0 * np.pi * k / count
            values = phase(grid)[0]
            start = values[0] if start is None else start
            if k[-1] == count:  # Phi(2*pi) is Phi(0) + 2*pi*count exactly
                values[-1] = start + 2.0 * np.pi * count
            yield grid, values

    windows = sampled()
    grid, values = next(windows)
    start = values[0]
    end = start + 2.0 * np.pi * count
    # a few roundings of the largest terms of Phi
    floor = 12.0 * np.finfo(float).eps * max(abs(start), abs(end))
    j, held, parts, last = 0, 0, [], None
    while True:
        if last is not None:  # the bracket across the window's first sample
            grid, values = np.append(last[0], grid), np.append(last[1], values)
        last = grid[-1], values[-1]
        while j < count:
            stop = min(count, j + _CLARK_BLOCK - held)
            targets = start + 2.0 * np.pi * (np.arange(j, stop) + 0.5)
            right = np.searchsorted(values, targets, side="right")
            inside = int(np.searchsorted(right, len(values)))
            if inside:
                r = right[:inside]
                lo, hi = grid[r - 1], grid[r]
                share = (targets[:inside] - values[r - 1]) / (values[r] - values[r - 1])
                parts.append((targets[:inside], lo, hi, lo + share * (hi - lo)))
                held += inside
                j += inside
            if held == _CLARK_BLOCK or j == count:
                pieces = zip(*parts)
                targets, lo, hi, theta = (np.concatenate(x) if len(x) > 1 else x[0] for x in pieces)
                theta, weights = _clark_roots(phase, lo, hi, theta, targets, floor)
                yield np.exp(1j * theta), weights
                held, parts = 0, []
            elif inside < len(targets):
                break
        if j == count:
            return
        grid, values = next(windows)


def clark_rule(inner: BlaschkeProduct, power: int = 1, extra: int = 0):
    """Nodes and weights of the exact quadrature for K_J, J = z^extra * I^power.

    Returns the N = power*n + extra points zeta on the circle with
    J(zeta) = alpha := -J(1), in increasing argument, and the weights
    1/|J'(zeta)| = 1/(extra + power*sum_k (1-|lambda_k|^2)/|zeta - lambda_k|^2).
    By Clark's theorem (Clark 1972; Garcia-Mashreghi-Ross 2016),
    <f, g> = sum_zeta w * f(zeta) * conj(g(zeta)) exactly for f, g in K_J.
    So with extra = deg(phi) the rule pairs phi*e_k against e_j exactly,
    and with power = k it gives ||f||_2k^2k = ||f^k||_2^2 for f in K_I.

    The nodes solve Phi(theta) = Phi(0) + 2*pi*(j + 1/2) for the phase
    Phi(theta) = N*theta + arg c^power + 2*power*sum_k arg(1 - lambda_k e^{-i theta})
    of J on the circle: each arg lies in (-pi/2, pi/2), so Phi needs no
    unwrapping, and it increases with Phi' = |J'|.  Brackets come from N
    equispaced samples of Phi, and `_clark_roots` refines _CLARK_BLOCK nodes
    at a time.  This is the concatenation of `_clark_windows`, which holds
    O(_CLARK_BLOCK) values at a time, whatever n and N.  Only the zeros
    enter, not S_I.  A node left unresolved after _CLARK_MAX_ITER steps
    raises IllConditionedError.
    """
    nodes, weights = zip(*_clark_windows(inner, power, extra))
    return np.concatenate(nodes), np.concatenate(weights)


def _p_norms(inner: BlaschkeProduct, coords: np.ndarray, p: float) -> np.ndarray:
    """((1/2pi) integral |f|^p)^(1/p) for the model-space elements f whose
    Takenaka-Malmquist coordinates are the columns of `coords`, from sums
    of w * |f|^p over the Clark points of I^k (`clark_rule(inner, power=k)`).

    For even p = 2k with kn <= CLARK_MAX_NODES, f^k lies in K_{I^k}, so
    ||f||_p^p = ||f^k||_2^2 is that sum exactly.  For any other p the sum
    is a trapezoid rule: in the phase t = arg I^k(zeta) the kn nodes are
    equispaced and the weights are dtheta/dt.  Every zero of a probe
    f = C k_z maps to the one phase of I^k(z), so the sums converge at a
    rate set by |I(z)| and by zeros of I clustered near the circle, not
    by 1 - |z| itself.  They run over k = 1, 2, 4, ... and stop once two
    doublings in a row each move every norm by at most NORM_TOL relative;
    the successive differences are not monotone, hence two.  A doubling
    past CLARK_MAX_NODES nodes raises IllConditionedError with the node
    count reached and the last difference.
    """
    n = inner.degree
    if p % 2.0 == 0.0 and p / 2.0 * n <= CLARK_MAX_NODES:
        return _clark_norms(inner, coords, p, int(p) // 2)
    power, last, moved = 1, np.inf, [np.inf]
    while power * n <= CLARK_MAX_NODES:
        norms = _clark_norms(inner, coords, p, power)
        scale = np.maximum(norms, np.finfo(float).tiny)  # a zero f stays zero
        moved.append(float(np.max(np.abs(norms - last) / scale, initial=0.0)))
        if max(moved[-2:]) <= NORM_TOL:
            return norms
        last, power = norms, 2 * power
    raise IllConditionedError(
        f"p-norms at p={p:g} did not settle within CLARK_MAX_NODES={CLARK_MAX_NODES} "
        f"Clark nodes: the doubling to {power // 2 * n} nodes moved them by "
        f"{moved[-1]:.3e} relative, above NORM_TOL={NORM_TOL:.0e}"
    )


def _clark_norms(inner: BlaschkeProduct, coords: np.ndarray, p: float, power: int) -> np.ndarray:
    """(sum_zeta w * |f(zeta)|^p)^(1/p) over the Clark points of I^power,
    for the columns of `coords` as in `_p_norms`.

    The nodes arrive window by window (`_clark_windows`).  Each chunk of
    them gets one evaluation of the basis (`_tm_rows`), shared by all
    columns, which then take one matrix product per group of columns; a
    chunk has at least _NORM_NODES nodes unless fewer are left, and a
    group at most _NORM_BLOCK values.  The sums run relative to the
    largest modulus seen so far, so no power overflows for large p.  A
    norm that is not finite raises NonFiniteError."""
    n, cols = coords.shape
    size = max(_NORM_NODES, _NORM_BLOCK // max(n, cols, 1))
    width = max(1, _NORM_BLOCK // size)
    top = np.full(cols, np.finfo(float).tiny)
    total = np.zeros(cols)
    for pts, w in _chunks(_clark_windows(inner, power=power), size):
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
    norms = top * total ** (1.0 / p)
    if not np.all(np.isfinite(norms)):  # it would never settle
        raise NonFiniteError(f"p-norms at p={p:g} on {power * n} Clark nodes are not finite")
    return norms


def _chunks(windows, size: int):
    """The nodes and weights of `windows` in chunks of `size`."""
    nodes, weights = np.empty(0, dtype=complex), np.empty(0)
    for x, w in windows:
        if len(nodes):
            x, w = np.concatenate([nodes, x]), np.concatenate([weights, w])
        nodes, weights = x, w
        stop = len(nodes) - len(nodes) % size
        for i in range(0, stop, size):
            yield nodes[i : i + size], weights[i : i + size]
        nodes, weights = nodes[stop:], weights[stop:]
    if len(nodes):
        yield nodes, weights


def integral_mean(z: complex, params) -> float:
    """(integral_0^2pi dtheta / |1 - z e^{-i theta}|**p)**(1/p) for |z| < 1.

    The integrand is |k_z|^p for k_z = 1/(1 - conj(z) zeta) = e_0/sqrt(1-|z|^2),
    the reproducing kernel of the one-dimensional model space of b_z, so the
    mean is (2pi)^(1/p) ||k_z||_p from `_p_norms`: exact at even p, and
    settled to NORM_TOL otherwise.
    """
    p = _as_params(params).p
    z = complex(z)
    if not abs(z) < 1.0:
        raise UnitDiscError(f"|z|={abs(z)} must be < 1")
    coords = np.array([[1.0 / np.sqrt(1.0 - abs(z) ** 2)]])
    return float((2.0 * np.pi) ** (1.0 / p) * _p_norms(BlaschkeProduct((z,)), coords, p)[0])


def tm_kernel_at_zero(inner: BlaschkeProduct) -> np.ndarray:
    """Takenaka-Malmquist coordinates of k_0 = P_I 1, the reproducing kernel
    of the model space at 0, as a new array.

    Coordinate k is <1, e_k> = conj(e_k(0)) =
    sqrt(1-|lambda_k|^2) * prod_{j<k} (-conj(lambda_j)) in the ordered
    zeros, a closed form with no grid (`BlaschkeProduct.tm_kernel`).
    Since P_I(z * P_I g) = P_I(z * g), the coordinates of P_I f are f(S_I)
    applied to these for every polynomial f.
    """
    return inner.tm_kernel.copy()


def tm_basis(inner: BlaschkeProduct, params, grid: CircleGrid | None = None) -> ModelSpaceBasis:
    """Takenaka-Malmquist basis from the ordered zeros, sampled on the grid
    through `_tm_rows`.

    Element k is the normalized Cauchy kernel at zero k times the partial
    Blaschke product over the earlier zeros; orthonormal under the p=2
    pairing and multiplicity-safe.  As a set the model space does not
    depend on p, so the same functions serve every exponent.
    """
    if inner.degree < 1:
        raise ValueError("inner function must have degree >= 1")
    params = _as_params(params)
    grid = grid if grid is not None else DEFAULT_GRID
    samples = _tm_rows(inner, grid.points)
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
