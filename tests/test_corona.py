"""Corona pairs: the infimum delta, Bezout certificates, explicit inverses,
and near-degenerate probes."""

import numpy as np
import pytest
from conftest import quad_probe_norms, random_blaschke, random_poly, random_zeros, reference_grid

from hardyops import (
    BlaschkeProduct,
    BoundaryFunction,
    CommonZeroError,
    DEFAULT_GRID,
    IllConditionedError,
    NotInModelSpaceError,
    bezout_solve,
    blaschke_eval,
    blaschke_make,
    clark_rule,
    compressed_matrix,
    corona_delta,
    corona_inverse_apply,
    corona_roundtrip_residual,
    factor_difference,
    hp_norm,
    min_abs_at_zeros,
    monomial,
    near_degenerate_probe,
    normalized_kernel,
    tm_basis,
    tm_compression,
    tm_eval,
    toeplitz_apply,
)
from hardyops import corona, model_space
from hardyops.blaschke import SUP_POINTS, _tm_shift, as_poly, sorted_zeros
from hardyops.model_space import CLARK_MAX_NODES, NORM_TOL, _project_samples
from hardyops.operators import _poly_of_matrix

P = np.polynomial.polynomial


def _reference_corona_delta(symbol_coeffs, inner):
    """Independent route for delta, with no prefilter and no broadcast:
    |a| + |I| on the whole 64x256 polar grid plus seeds, then 48 zoom
    steps of 9x9 points shrinking by 0.6, each evaluated factor by factor
    through blaschke_eval."""

    def _objective(poly, inner, z):
        return np.abs(P.polyval(z, poly)) + np.abs(blaschke_eval(inner, z))

    poly = as_poly(symbol_coeffs)
    if len(poly) == 1 and poly[0] == 0.0:
        raise ValueError("symbol polynomial is identically zero")
    if min_abs_at_zeros(poly, inner) <= corona.ZERO_TOL:
        return 0.0

    radii = np.linspace(0.0, 1.0, 64)
    angles = 2.0 * np.pi * np.arange(256) / 256
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
    offsets = np.linspace(-1.0, 1.0, 9)
    box = (offsets[:, None] + 1j * offsets[None, :]).ravel()
    for _ in range(48):
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


def _box_by_box(poly, inner, center, best):
    """Reference for `corona._refine`: the 48-box search of one row, box
    after box, each box of 9x9 points centred at the best point so far
    and projected onto the closed disc, I by one broadcast over its
    zeros; the first point below `best` moves it."""
    zeros = np.array(inner.zeros, dtype=complex)[:, None]
    for h in corona._ZOOM_H:
        local = center + h * corona._ZOOM_BOX
        if abs(center) + 1.5 * h >= 1.0:
            r = np.abs(local)
            local = np.where(r > 1.0, local / np.maximum(r, 1e-300), local)
        factors = (local - zeros) / (1.0 - zeros.conj() * local)
        lv = np.abs(corona._horner(poly, local))
        lv += np.abs(factors.prod(axis=0, initial=inner.constant))
        i = lv.argmin()
        if lv[i] < best:
            best, center = float(lv[i]), complex(local[i])
    return best


def _stays_one(poly, inner, s, best, inner_abs, at_zero):
    """`corona._stays` for one row; at_zero None marks a root of a."""
    at_seed = inner.degree if at_zero is None else at_zero
    stays = corona._stays(
        np.atleast_2d(poly), inner, np.array([s], dtype=complex), np.array([best]),
        np.array([inner_abs]), np.array([at_seed]),
    )
    return bool(stays[0])


def _refine_one(poly, inner, s, best):
    return float(corona._refine(np.atleast_2d(poly), inner, [s], [best])[0])


def _delta_pairs(rng, count):
    """(symbol, inner) pairs over the shapes the search has to handle:
    inner degree 0 to 8, repeated zeros, zeros on the circle of radius
    0.985, and symbols that are constant, generic, or have every root
    outside the disc or on the circle."""
    pairs = []
    for k in range(count):
        degree = int(rng.integers(0, 9))
        zeros = list(random_zeros(rng, degree, radius=0.9))
        if degree and k % 3 == 0:
            zeros[0] = 0.985 * np.exp(2j * np.pi * rng.uniform())
        if degree > 1 and k % 4 == 1:
            zeros[-1] = zeros[0]
        inner = blaschke_make(zeros, np.exp(2j * np.pi * rng.uniform()))
        kind = k % 5
        if kind == 0:
            a = random_poly(rng, 0)
        elif kind in (1, 2):
            a = random_poly(rng, int(rng.integers(1, 5)))
        else:
            d = int(rng.integers(1, 4))
            moduli = 1.0 if kind == 3 else rng.uniform(1.05, 2.0, d)
            roots = moduli * np.exp(2j * np.pi * rng.uniform(size=d))
            a = random_poly(rng, 0)[0] * P.polyfromroots(roots)
        pairs.append((a, inner))
    return pairs


def test_delta_matches_reference_route():
    rng = np.random.default_rng(76)
    pairs = _delta_pairs(rng, 1000)
    assert {inner.degree for _, inner in pairs} == set(range(9))
    for a, inner in pairs:
        assert corona_delta(a, inner) == pytest.approx(
            _reference_corona_delta(a, inner), rel=0.0, abs=1e-12
        )


def test_delta_within_tolerance_of_dense_sample():
    # delta is a value of the objective, so it is an upper estimate of the
    # infimum; DELTA_TOL bounds how far above the dense sample it may sit
    rng = np.random.default_rng(77)
    for a, inner in _delta_pairs(rng, 40):
        radius = np.sqrt(rng.uniform(0.0, 1.0, 50_000))
        radius[-5_000:] = 1.0
        z = radius * np.exp(2j * np.pi * rng.uniform(size=50_000))
        f = np.abs(P.polyval(z, a)) + np.abs(blaschke_eval(inner, z))
        assert corona_delta(a, inner) <= f.min() + corona.DELTA_TOL


def _seeded_delta_pairs(rng, count):
    """(symbol, inner) pairs whose scan often ends at a seed: inner degree
    1 to 44 with repeated zeros, symbol degree 1 to 4 with roots inside, on
    and outside the circle, repeated roots, and a root within 1e-6 to 0.5
    of a zero of I."""
    pairs = []
    for k in range(count):
        degree = int(rng.integers(1, 45))
        zeros = random_zeros(rng, degree, radius=0.95)
        if degree > 1 and k % 5 == 1:
            zeros[-1] = zeros[0]
        d = int(rng.integers(1, 5))
        roots = random_zeros(rng, d, radius=1.0)
        where = rng.integers(0, 3, size=d)  # inside, on or outside the circle
        roots[where == 1] /= np.abs(roots[where == 1])
        roots[where == 2] *= rng.uniform(1.0, 2.0, size=(where == 2).sum()) / np.abs(
            roots[where == 2]
        )
        if k % 3 == 0:
            gap = 10.0 ** rng.uniform(-6.0, np.log10(0.5))
            roots[0] = zeros[0] + gap * np.exp(2j * np.pi * rng.uniform())
        if d > 1 and k % 4 == 2:
            roots[-1] = roots[0]
        a = random_poly(rng, 0)[0] * P.polyfromroots(roots)
        pairs.append((a, blaschke_make(zeros, np.exp(2j * np.pi * rng.uniform()))))
    return pairs


def test_delta_skips_only_a_search_that_stays(monkeypatch):
    # where the certificate skips the refinement, the search from the
    # scan's best point returns that same float
    fired = []
    real = corona._stays

    def recorded(polys, inner, s, best, inner_abs, at_seed):
        stays = real(polys, inner, s, best, inner_abs, at_seed)
        for k in np.flatnonzero(stays):
            fired.append((polys[k], inner, s[k], best[k], at_seed[k] == inner.degree))
        return stays

    monkeypatch.setattr(corona, "_stays", recorded)
    rng = np.random.default_rng(79)
    for a, inner in _seeded_delta_pairs(rng, 2000):
        count = len(fired)
        delta = corona_delta(a, inner)
        if len(fired) > count:
            poly, inner, s, best, _ = fired[-1]
            assert delta == best == _refine_one(poly, inner, s, best)
    at_root = sum(root for *_, root in fired)
    assert at_root > 500 and len(fired) - at_root > 50


def test_refine_lockstep_matches_box_by_box():
    # rows searching in lockstep, each on its own box schedule, end where
    # the search of each row alone ends, to the bit
    rng = np.random.default_rng(80)
    for k in range(150):
        inner = blaschke_make(random_zeros(rng, int(rng.integers(0, 13)), radius=0.95))
        rows = int(rng.integers(1, 9))
        polys = np.array([random_poly(rng, int(k % 3) + 1) for _ in range(rows)])
        angles = np.exp(2j * np.pi * rng.uniform(size=rows))
        center = 1.02 * np.sqrt(rng.uniform(size=rows)) * angles
        center = np.where(np.abs(center) > 1.0, center / np.abs(center), center)
        best = np.abs([P.polyval(z, a) for z, a in zip(center, polys)])
        best += np.abs(blaschke_eval(inner, center))
        best += rng.choice([0.0, 1e-3, 0.5], size=rows)
        refined = corona._refine(polys, inner, center, best)
        for r in range(rows):
            assert refined[r] == _box_by_box(polys[r], inner, center[r], best[r])


def _random_sweeps(rng, count):
    """(inner, symbols) of seeded `symbol_zero` sweeps, a(z) = z - w, of 2
    rows (4 in every tenth): inner degree 1 to 12 with repeated zeros, and
    w near a zero of I (with offset-0 rows, common zeros) in 17 sweeps of
    20, else outside the disc, near 1/conj(lambda_1), where U and Q share
    a root, or anywhere in the disc, whose searches take longer."""
    for k in range(count):
        degree = int(rng.integers(1, 13))
        zeros = list(random_zeros(rng, degree, radius=0.9))
        if degree > 1 and k % 5 == 1:
            zeros[1] = zeros[0]
        inner = blaschke_make(zeros, np.exp(2j * np.pi * rng.uniform()))
        kind = k % 20
        if kind < 17:
            base = zeros[0]
        elif kind == 17:
            base = rng.uniform(1.05, 1.5) * np.exp(2j * np.pi * rng.uniform())
        elif kind == 18:
            base = 1.0 / np.conj(zeros[0]) if abs(zeros[0]) > 0.1 else 2.0
        else:
            base = random_zeros(rng, 1, radius=1.0)[0]
        steps = rng.choice([0.0, 1e-7, 1e-3, 0.05, 0.5], size=4 if k % 10 == 3 else 2)
        offsets = steps * np.exp(2j * np.pi * rng.uniform(size=len(steps)))
        yield inner, np.array([[-(base + t), 1.0] for t in offsets])


def test_stacked_sweeps_match_one_row_calls():
    # every stacked figure of a sweep row is the float of its one-row call
    near_zero = [-0.13 + 0.06j, -0.54 - 0.08j, 0.11 - 0.11j, -0.18 + 0.26j, -0.75 - 0.48j]
    near_zero.append(-0.3 - 0.67j)
    offsets = (0.1, 1e-6, 0.0)
    ill = (blaschke_make(near_zero), np.array([[-(near_zero[0] + t), 1.0] for t in offsets]))
    seen = {"common": 0, "ill": 0, "cancel": 0, "outside": 0}
    sweeps = [ill, *_random_sweeps(np.random.default_rng(81), 2000)]
    for inner, symbols in sweeps:
        deltas = corona_delta(symbols, inner)
        bounds = min_abs_at_zeros(symbols, inner)
        certs = bezout_solve(symbols, inner)
        S = _tm_shift(sorted_zeros(inner))
        adjoints = _poly_of_matrix(symbols, S).conj().swapaxes(-1, -2)
        sigmas = np.linalg.svd(adjoints, compute_uv=False)[:, -1]
        seen["outside"] += int(np.any(np.abs(symbols[:, 0]) > 1.0))
        for k, symbol in enumerate(symbols):
            delta = corona_delta(symbol, inner)
            assert deltas[k] == delta
            assert bounds[k] == min_abs_at_zeros(symbol, inner)
            assert sigmas[k] == tm_compression(inner, coanalytic=symbol).sigma_min()
            try:
                cert = bezout_solve(symbol, inner, delta=delta)
            except (CommonZeroError, IllConditionedError) as exc:
                assert type(certs[k]) is type(exc) and str(certs[k]) == str(exc)
                seen["common" if isinstance(exc, CommonZeroError) else "ill"] += 1
                continue
            got = certs[k]
            assert (got.delta, got.sup_u, got.sup_v, got.residual, got.zero_bound) == (
                cert.delta, cert.sup_u, cert.sup_v, cert.residual, cert.zero_bound
            )
            for mine, theirs in zip(got.u_reduced, cert.u_reduced):
                np.testing.assert_array_equal(mine, theirs)
            seen["cancel"] += len(cert.u_reduced[1]) <= inner.degree
    assert min(seen.values()) > 0, seen


def test_delta_certificates_fire_and_refuse():
    def value(poly, inner, s):
        # f at s as the search computes it, the centre of its first box
        zeros = np.array(inner.zeros, dtype=complex)[:, None, None]
        box = corona._boxes(s, corona._ZOOM_H[:1, None])
        best = corona._box_values(poly, inner, zeros, box)[0, corona._ZOOM_BOX.size // 2]
        return float(best), abs(blaschke_eval(inner, s))

    # at the root 0.1 of a, |a| grows with slope 1 and |I| falls more slowly
    poly = as_poly([-0.1, 1.0])
    inner = blaschke_make([0.5, -0.5j])
    best, inner_abs = value(poly, inner, 0.1)
    assert _stays_one(poly, inner, 0.1, best, inner_abs, None)
    assert corona_delta(poly, inner) == best == _refine_one(poly, inner, 0.1, best)
    # at the root 0.45 of a = 0.3 (z - 0.45), |I| falls faster towards the
    # zero 0.5 than |a| grows: the search moves
    poly = as_poly([-0.135, 0.3])
    best, inner_abs = value(poly, inner, 0.45)
    assert not _stays_one(poly, inner, 0.45, best, inner_abs, None)
    assert _refine_one(poly, inner, 0.45, best) < best

    # at the zero 0.2 of I, |I| grows faster than |a| = |0.3 - 0.05 z| falls
    poly = as_poly([0.3, -0.05])
    inner = blaschke_make([0.2, -0.2])
    best, _ = value(poly, inner, 0.2)
    assert _stays_one(poly, inner, 0.2, best, 0.0, 0)
    assert corona_delta(poly, inner) == best == _refine_one(poly, inner, 0.2, best)
    # |a| = |z - 0.5| falls with slope 1, |I| grows with slope 0.4: it moves
    poly = as_poly([-0.5, 1.0])
    best, _ = value(poly, inner, 0.2)
    assert not _stays_one(poly, inner, 0.2, best, 0.0, 0)
    assert _refine_one(poly, inner, 0.2, best) < best
    # a repeated zero gives |I| no linear growth: refused
    inner = blaschke_make([0.2, 0.2, -0.2])
    poly = as_poly([0.3, -0.05])
    best, _ = value(poly, inner, 0.2)
    assert not _stays_one(poly, inner, 0.2, best, 0.0, 0)

    # with no zeros and one root the scan rounds |a| at its one seed on a
    # length-1 array, which numpy may round unlike the boxes; the search's
    # own value at the root decides
    poly = as_poly([0.1 + 0.9j, 1.3 + 0.7j])
    inner = blaschke_make([])
    s = complex(P.polyroots(poly)[0])
    best = float(np.abs(corona._horner(poly, np.array([s])))[0] + 1.0)
    refined = _refine_one(poly, inner, s, best)
    assert corona_delta(poly, inner) == refined
    assert refined == best or not _stays_one(poly, inner, s, best, 1.0, None)


def test_delta_constant_inner_anchors():
    # |I| is identically 1, so delta is 1 + inf |a|
    assert corona_delta([1.0], blaschke_make([])) == 2.0
    assert corona_delta([0.0, 1.0], blaschke_make([])) == 1.0


def test_delta_evaluates_inner_once_per_call(monkeypatch):
    # one blaschke_eval, on the prefiltered scan; the refinement evaluates
    # I in broadcasts over the factors, not factor by factor
    sizes = []
    real = corona.blaschke_eval

    def counted(inner, z):
        sizes.append(np.size(z))
        return real(inner, z)

    monkeypatch.setattr(corona, "blaschke_eval", counted)
    rng = np.random.default_rng(78)
    for degree in (0, 1, 6, 40):
        inner = blaschke_make(random_zeros(rng, degree, radius=0.95))
        for a in ([2.0], random_poly(rng, 2)):
            sizes.clear()
            corona_delta(a, inner)
            assert len(sizes) <= 1
            if degree and len(a) > 1:
                assert sizes[0] < corona._SCAN_RADII.size * corona._SCAN_CIRCLE.size


def test_non_finite_symbol_rejected():
    inner = blaschke_make([0.0, 0.5])
    for bad in ([np.nan, 1.0], [0.5, np.inf], [complex(0.0, np.nan)]):
        with pytest.raises(ValueError, match="finite"):
            corona_delta(bad, inner)
        with pytest.raises(ValueError, match="finite"):
            min_abs_at_zeros(bad, inner)
        with pytest.raises(ValueError, match="finite"):
            bezout_solve(bad, inner)
        with pytest.raises(ValueError, match="finite"):
            bezout_solve(bad, inner, delta=0.5)
        with pytest.raises(ValueError, match="finite"):
            near_degenerate_probe(inner, bad, [0.2], 2.0)
    with pytest.raises(ValueError, match="finite"):
        min_abs_at_zeros([np.nan, 1.0], blaschke_make([]))
    # a stack takes rows of one degree, all finite
    for fn in (corona_delta, min_abs_at_zeros, bezout_solve):
        with pytest.raises(ValueError, match="finite"):
            fn(np.array([[0.5, 1.0], [np.nan, 1.0]]), inner)
        with pytest.raises(ValueError, match="leading"):
            fn(np.array([[0.5, 1.0], [0.5, 0.0]]), inner)


def test_bezout_nan_residual_fails_gate(monkeypatch):
    # a NaN boundary residual must fail the gate, not pass as "not above";
    # the inner's boundary values come from `BlaschkeProduct.sup_data`
    from hardyops import blaschke

    def nan_eval(inner, z):
        return np.full(np.shape(z), np.nan + 0j)

    monkeypatch.setattr(corona, "blaschke_eval", nan_eval)
    monkeypatch.setattr(blaschke, "blaschke_eval", nan_eval)
    with pytest.raises(IllConditionedError):
        bezout_solve([-0.7, 1.0], blaschke_make([0.3, -0.5]), delta=0.5)


def test_delta_anchors():
    # |z - 0.5| + |z| is minimized along [0, 0.5] where it is constant 0.5
    assert corona_delta([-0.5, 1.0], blaschke_make([0.0])) == pytest.approx(
        0.5, abs=1e-6
    )
    assert corona_delta([-0.3, 1.0], blaschke_make([0.3])) == 0.0
    assert corona_delta([1.0], blaschke_make([0.0])) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        corona_delta([0.0], blaschke_make([0.3]))


def test_delta_constant_symbol():
    # |I| vanishes at its zeros, so the infimum is exactly the constant
    rng = np.random.default_rng(70)
    for _ in range(5):
        inner = random_blaschke(rng, max_degree=4)
        c = complex(rng.uniform(0.2, 2.0) * np.exp(2j * np.pi * rng.uniform()))
        assert corona_delta([c], inner) == pytest.approx(abs(c), abs=1e-6)


def test_delta_bounded_by_symbol_at_zeros():
    rng = np.random.default_rng(71)
    for _ in range(10):
        inner = random_blaschke(rng, max_degree=4)
        a = random_poly(rng, int(rng.integers(1, 5)))
        delta = corona_delta(a, inner)
        assert delta <= min_abs_at_zeros(a, inner) + 1e-9


def test_min_abs_at_zeros():
    inner = blaschke_make([0.3, -0.5])
    assert min_abs_at_zeros([-0.3, 1.0], inner) == pytest.approx(0.0, abs=1e-14)
    assert min_abs_at_zeros([1.0], blaschke_make([])) == float("inf")


def test_bezout_anchor():
    cert = bezout_solve([-0.5, 1.0], blaschke_make([0.0]))
    assert cert.delta == pytest.approx(0.5, abs=1e-6)
    assert cert.u.is_polynomial
    np.testing.assert_allclose(cert.u.num, [-2.0], atol=1e-9)
    np.testing.assert_allclose(cert.v.num, [2.0], atol=1e-9)
    assert cert.residual < 1e-12
    assert cert.consistent


def test_bezout_trivial_symbol():
    rng = np.random.default_rng(72)
    inner = random_blaschke(rng, max_degree=4)
    cert = bezout_solve([1.0], inner)
    np.testing.assert_allclose(cert.u.num, [1.0], atol=1e-12)
    np.testing.assert_allclose(cert.v.num, [0.0], atol=1e-12)


def test_bezout_common_zero():
    with pytest.raises(CommonZeroError):
        bezout_solve([-0.3, 1.0], blaschke_make([0.3]))


def test_bezout_identity_random():
    rng = np.random.default_rng(73)
    pts = np.exp(2j * np.pi * np.arange(512) / 512)
    made = 0
    while made < 12:
        inner = random_blaschke(rng, max_degree=5, radius=0.8)
        a = random_poly(rng, int(rng.integers(1, 6)))
        if min_abs_at_zeros(a, inner) < 0.05:
            continue
        cert = bezout_solve(a, inner)
        lhs = (
            P.polyval(pts, np.array(cert.symbol)) * cert.u.evaluate(pts)
            + blaschke_eval(inner, pts) * cert.v.evaluate(pts)
        )
        np.testing.assert_allclose(lhs, 1.0, atol=1e-9)
        assert cert.residual < 1e-9
        assert cert.sup_u > 0.0 and cert.sup_v >= 0.0
        made += 1


def test_bezout_solutions_analytic_in_disc():
    # u picks up the reflected denominator; all its poles stay outside
    cert = bezout_solve([-0.7, 1.0], blaschke_make([0.3, -0.5]))
    for rational in (cert.u, cert.v):
        if len(rational.den) > 1:
            assert np.all(np.abs(P.polyroots(rational.den)) > 1.0)


@pytest.mark.parametrize(
    "zeros, symbol, cancels",
    [
        ([0.3, -0.5], [-0.7, 1.0], False),
        ([0.5, -0.3], [1.0, -0.5], True),  # a vanishes at 2 = 1/conj(0.5), a root of Q
        ([0.5j, -0.3, 0.2], [1.0, 0.5j], True),
        ([0.5, 0.5, -0.3], [1.0, -0.5], True),  # one root of the double one cancels
    ],
)
def test_bezout_figures_are_those_of_the_built_pair(zeros, symbol, cancels):
    # the gate and the sup norms come from the solved polynomials; they must
    # be exactly the values of the u and v the certificate builds when read
    inner = blaschke_make(zeros)
    cert = bezout_solve(symbol, inner)
    assert "u" not in vars(cert) and "v" not in vars(cert)
    u = cert.u.evaluate(SUP_POINTS)
    v = cert.v.evaluate(SUP_POINTS)
    a = P.polyval(SUP_POINTS, np.array(cert.symbol))
    lhs = a * u + blaschke_eval(inner, SUP_POINTS) * v
    assert cert.residual == np.abs(lhs - 1.0).max()
    assert cert.sup_u == np.abs(u).max()
    assert cert.sup_v == np.abs(v).max()
    assert cert.zero_bound == min_abs_at_zeros(symbol, inner)
    # Q has degree n for nonzero zeros, so a shorter reduced denominator
    # means that a root cancelled
    assert (len(cert.u_reduced[1]) < inner.degree + 1) == cancels


@pytest.mark.parametrize(
    "zeros, symbol",
    [([0.3, -0.5, 0.2j], [-0.7, 1.0]), ([0.5, -0.3], [1.0, -0.5])],  # the second cancels
)
def test_bezout_check_solves_each_root_set_once(monkeypatch, zeros, symbol):
    # the reduction solves for the roots of Q (once per inner) and of U;
    # reading u and v, as a report does, solves for no roots again
    real = P.polyroots
    stacked = corona._poly_roots
    calls, stacks = [], []

    def counted(coeffs):
        calls.append(len(coeffs))
        return real(coeffs)

    def counted_stack(polys):
        stacks.append(polys.shape)
        return stacked(polys)

    inner = blaschke_make(zeros)
    delta = corona_delta(symbol, inner)
    monkeypatch.setattr(P, "polyroots", counted)
    monkeypatch.setattr(corona, "_poly_roots", counted_stack)
    cert = bezout_solve(symbol, inner, delta=delta)
    cert.to_json_dict()
    # Q's roots once per inner, U's from the stacked companion solve: U had
    # as many coefficients as it kept, plus one per root that cancelled
    num, den, _ = cert.u_reduced
    assert calls == [len(zeros) + 1]
    assert stacks == [(1, len(num) + inner.degree + 1 - len(den))]
    assert np.all(np.abs(P.polyroots(cert.u.den)) > 1.0)


def test_inner_sup_data():
    inner = blaschke_make([0.3, -0.5, 0.2j])
    cpz, q, q_roots, values = inner.sup_data
    assert inner.sup_data is inner.sup_data
    np.testing.assert_array_equal(cpz, inner.numerator())
    reflected = 1.0 / np.conj(inner.zeros)
    np.testing.assert_allclose(P.polyval(reflected, q), 0.0, atol=1e-14)
    np.testing.assert_allclose(np.sort_complex(q_roots), np.sort_complex(reflected))
    np.testing.assert_array_equal(values, blaschke_eval(inner, SUP_POINTS))
    assert not any(arr.flags.writeable for arr in inner.sup_data)


def test_certificate_serialization():
    cert = bezout_solve([-0.7, 1.0], blaschke_make([0.3, -0.5]))
    doc = cert.to_json_dict()
    assert set(doc) == {
        "symbol",
        "inner",
        "delta",
        "u",
        "v",
        "residual",
        "sup_u",
        "sup_v",
        "consistent",
    }


def test_inverse_apply_anchor():
    inner = blaschke_make([0.0])
    cert = bezout_solve([-0.5, 1.0], inner)
    one = monomial(DEFAULT_GRID, 0)
    a_bar = BoundaryFunction.from_poly(DEFAULT_GRID, [-0.5, 1.0]).conj()
    forward = toeplitz_apply(a_bar, one)
    assert forward.coeff(0) == pytest.approx(-0.5)
    back = corona_inverse_apply(inner, cert, forward)
    assert (back - one).l2_norm() < 1e-10


def test_inverse_apply_identity_symbol():
    inner = blaschke_make([0.3, -0.5])
    cert = bezout_solve([1.0], inner)
    for e in tm_basis(inner, 2.0).functions:
        assert (corona_inverse_apply(inner, cert, e) - e).l2_norm() < 1e-10


def test_inverse_apply_membership_check():
    inner = blaschke_make([0.3, -0.5])
    cert = bezout_solve([-0.7, 1.0], inner)
    with pytest.raises(NotInModelSpaceError):
        corona_inverse_apply(inner, cert, monomial(DEFAULT_GRID, 5))
    with pytest.raises(ValueError):
        corona_inverse_apply(blaschke_make([0.2]), cert, monomial(DEFAULT_GRID, 0))


def test_inverse_matches_matrix_route():
    # 2x2 brute force: invert the compressed matrix and compare columns
    inner = blaschke_make([0.3, -0.5])
    basis = tm_basis(inner, 2.0)
    a_bar = BoundaryFunction.from_poly(DEFAULT_GRID, [-0.7, 1.0]).conj()
    M = compressed_matrix(inner, a_bar, basis)
    Minv = np.linalg.inv(M.entries)
    cert = bezout_solve([-0.7, 1.0], inner)
    for k, e in enumerate(basis.functions):
        direct = corona_inverse_apply(inner, cert, e)
        via_matrix = basis.synthesize(Minv[:, k])
        assert (direct - via_matrix).l2_norm() < 1e-8


def test_roundtrip_residual_all_p():
    rng = np.random.default_rng(74)
    made = 0
    while made < 6:
        inner = random_blaschke(rng, max_degree=4, radius=0.8)
        a = random_poly(rng, int(rng.integers(1, 5)))
        if min_abs_at_zeros(a, inner) < 0.1:
            continue
        cert = bezout_solve(a, inner)
        for p in (1.5, 2.0, 4.0):
            basis = tm_basis(inner, p)
            for e in basis.functions:
                assert corona_roundtrip_residual(cert, e, p) < 1e-7
        made += 1


def test_inverse_norm_bound():
    # the conjugate-u operator realizes the inverse, so the spectral norm of
    # its compression dominates the inverse norm of the compressed symbol
    inner = blaschke_make([0.3, -0.5])
    basis = tm_basis(inner, 2.0)
    a_bar = BoundaryFunction.from_poly(DEFAULT_GRID, [-0.7, 1.0]).conj()
    M = compressed_matrix(inner, a_bar, basis)
    cert = bezout_solve([-0.7, 1.0], inner)
    u_bar = cert.u.boundary(DEFAULT_GRID).conj()
    Mu = compressed_matrix(inner, u_bar, basis)
    inverse_norm = 1.0 / M.sigma_min()
    assert inverse_norm <= Mu.singular_values()[0] * (1.0 + 1e-9)


def test_sigma_min_bounded_by_symbol_at_zeros():
    rng = np.random.default_rng(75)
    for _ in range(8):
        zeros = random_zeros(rng, int(rng.integers(1, 5)), radius=0.8)
        if len(zeros) > 1 and np.min(
            np.abs(zeros[:, None] - zeros[None, :]) + np.eye(len(zeros))
        ) < 1e-3:
            continue
        inner = blaschke_make(zeros)
        a = random_poly(rng, 3)
        basis = tm_basis(inner, 2.0)
        a_bar = BoundaryFunction.from_poly(DEFAULT_GRID, a).conj()
        sigma = compressed_matrix(inner, a_bar, basis).sigma_min()
        assert sigma <= min_abs_at_zeros(a, inner) + 1e-8


def test_probe_report_structure():
    inner = blaschke_make([0.3, -0.5])
    report = near_degenerate_probe(inner, [-0.9, 1.0], [0.2, 0.5 + 0.2j], 2.0)
    assert len(report.rows) == 2
    assert report.p == 2.0
    assert report.sigma_min > 0.0
    assert report.zero_bound == pytest.approx(0.6)
    for row in report.rows:
        assert row.f_norm > 0.0
        assert row.taf_norm >= 0.0
        assert row.corona_value > 0.0
    csv = report.to_csv()
    lines = csv.split("\n")
    assert lines[0] == "z_re,z_im,corona_value,f_norm,Taf_norm,sigma_min,p"
    assert len(lines) == 4 and lines[-1] == ""
    assert all(len(line.split(",")) == 7 for line in lines[1:3])


def test_probe_at_inner_zero_unit_norm():
    # at a zero of I the factor quotient is inner, so the probe keeps the
    # unit kernel norm and needs no projection correction
    inner = blaschke_make([0.3, -0.5])
    report = near_degenerate_probe(inner, [-0.9, 1.0], [0.3], 2.0)
    assert report.rows[0].f_norm == pytest.approx(1.0, abs=1e-9)


def test_probe_ratio_bounded_below_towards_boundary():
    inner = blaschke_make([0.3, -0.5])
    cert = bezout_solve([-0.9, 1.0], inner)
    report = near_degenerate_probe(
        inner, [-0.9, 1.0], [0.9, 0.99, 0.999], 2.0
    )
    floor = 1.0 / cert.sup_u
    for row in report.rows:
        assert row.taf_norm / row.f_norm >= floor * (1.0 - 1e-9)


def test_probe_eigenvalue_linearity():
    # conj-symbol Toeplitz operators scale kernels by conj(a(w)): at the
    # probe point the norm of the image is exactly |a(w)| per unit kernel
    inner = blaschke_make([0.3, -0.5])
    for eps in (1e-1, 1e-2, 1e-3):
        a = np.array([-(0.3 + eps), 1.0])
        a_bar = BoundaryFunction.from_poly(DEFAULT_GRID, a).conj()
        k = normalized_kernel(0.3, 2.0).boundary(DEFAULT_GRID)
        image = toeplitz_apply(a_bar, k)
        assert hp_norm(image, 2.0) == pytest.approx(eps, rel=1e-8)


def test_probe_norms_finite_at_large_p():
    # at p = 200 and r = 0.99 |Taf|**p underflows to 0 on every node, at
    # p = 800 |f|**p does too; both norms are taken relative to the maximum
    inner = blaschke_make([0.3, -0.5])
    a = [-0.7, 1.0]
    adjoint = tm_compression(inner, coanalytic=a)
    nodes = DEFAULT_GRID.points
    for p in (200.0, 800.0):
        report = near_degenerate_probe(inner, a, [0.9, 0.99], p)
        for z, row in zip((0.9, 0.99), report.rows):
            x = corona._conjugate_kernel_coords(inner, z, p / (p - 1.0))
            logs = p * np.log(np.abs(tm_eval(inner, np.column_stack([x, adjoint.apply(x)]), nodes)))
            ref = np.exp((np.logaddexp.reduce(logs, axis=1) - np.log(len(nodes))) / p)
            assert 0.0 < row.f_norm < np.inf and 0.0 < row.taf_norm < np.inf
            assert [row.f_norm, row.taf_norm] == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_probe_singular_at_common_zero():
    inner = blaschke_make([0.3, -0.5])
    report = near_degenerate_probe(inner, [-0.3, 1.0], [0.2], 2.0)
    assert report.sigma_min < 1e-10
    assert report.zero_bound < 1e-14


def _reference_probe(inner, symbol, probes, p):
    """Independent FFT route for the probe norms: the factor difference
    quotient times the normalized kernel, sampled on
    reference_grid(max(|z|, |lambda_k|)), projected by I P_minus(conj(I) f)
    and multiplied by conj(a) through toeplitz_apply.  Returns
    (f_norm, Taf_norm) per probe."""
    grid = reference_grid(max([abs(z) for z in probes] + [abs(z) for z in inner.zeros]))
    ib = inner.boundary(grid)
    a_bar = BoundaryFunction.from_poly(grid, as_poly(symbol)).conj()
    norms = []
    for z in probes:
        g = (factor_difference(inner, z) * normalized_kernel(z, p)).boundary(grid)
        f = _project_samples(ib, g)
        norms.append((hp_norm(f, p), hp_norm(toeplitz_apply(a_bar, f), p)))
    return norms


def _seeded_probe_cases():
    """Inners of degree 1..6 within radius 0.95, those of degree 3 and up
    with a repeated zero (a triple one from degree 5), each with a symbol
    and a probe direction."""
    rng = np.random.default_rng(88)
    cases = []
    for degree in range(1, 7):
        zeros = random_zeros(rng, degree, radius=0.95)
        if degree >= 3:
            zeros[1] = zeros[0]
        if degree >= 5:
            zeros[2] = zeros[0]
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        angle = rng.uniform(0.0, 2.0 * np.pi)
        cases.append((blaschke_make(zeros, phase), random_poly(rng, 2), np.exp(1j * angle)))
    return cases


def test_probe_matches_fft_route():
    for inner, a, direction in _seeded_probe_cases():
        probes = [r * direction for r in (0.0, 0.9, 0.999)]
        for p in (1.5, 2.0, 3.0, 4.0, 6.0, 8.0):
            report = near_degenerate_probe(inner, a, probes, p)
            for row, (f_ref, taf_ref) in zip(report.rows, _reference_probe(inner, a, probes, p)):
                assert row.f_norm == pytest.approx(f_ref, rel=1e-9, abs=0.0)
                assert row.taf_norm == pytest.approx(taf_ref, rel=1e-9, abs=0.0)
                if p == 2.0:
                    assert row.taf_norm >= report.sigma_min * row.f_norm * (1.0 - 1e-12)


def test_probe_closed_form_at_p2():
    # ||f||_2^2 = (1-|z|^2) ||k_z||^2 = 1 - |I(z)|^2, and T_conj(a) f has
    # coordinates a(S_I)^* x; 0.99999 would need m = 2^23 on the FFT route
    for inner, a, direction in _seeded_probe_cases():
        probes = [r * direction for r in (0.0, 0.5, 0.99, 0.999, 0.99999)]
        report = near_degenerate_probe(inner, a, probes, 2.0)
        adjoint = tm_compression(inner, coanalytic=a)
        for z, row in zip(probes, report.rows):
            assert abs(row.f_norm - np.sqrt(1.0 - abs(blaschke_eval(inner, z)) ** 2)) <= 1e-12
            x = corona._conjugate_kernel_coords(inner, z, 2.0)
            assert row.taf_norm == pytest.approx(np.linalg.norm(adjoint.apply(x)), rel=1e-12)


def test_probe_node_count_resolves_norms():
    # a trapezoid mean on twice the reference grid of max(|z|, |lambda_k|)
    # (p = 1.5) or of the inner zeros alone (even p) agrees with the
    # probe's Clark sums
    for inner, a, direction in _seeded_probe_cases():
        probes = [r * direction for r in (0.5, 0.99, 0.999)]
        adjoint = tm_compression(inner, coanalytic=a)
        for p, tol in ((1.5, 1e-10), (2.0, 1e-13), (4.0, 1e-13)):
            radius = max(abs(z) for z in inner.zeros)
            if p == 1.5:
                radius = max(radius, max(abs(z) for z in probes))
            m = 2 * reference_grid(radius).m
            nodes = np.exp(2j * np.pi * np.arange(m) / m)
            report = near_degenerate_probe(inner, a, probes, p)
            for z, row in zip(probes, report.rows):
                x = corona._conjugate_kernel_coords(inner, z, p / (p - 1.0))
                values = tm_eval(inner, np.column_stack([x, adjoint.apply(x)]), nodes)
                f_norm, taf_norm = np.mean(np.abs(values) ** p, axis=1) ** (1.0 / p)
                assert row.f_norm == pytest.approx(f_norm, rel=tol, abs=0.0)
                assert row.taf_norm == pytest.approx(taf_norm, rel=tol, abs=0.0)


def _per_row_probe(inner, a, probes, p, nodes, weights):
    """The probe norms row by row: one `tm_eval` pass per probe over all
    of `nodes`, then the weighted p-mean of each row relative to its
    largest modulus."""
    adjoint = tm_compression(inner, coanalytic=a)
    norms = []
    for z in probes:
        x = corona._conjugate_kernel_coords(inner, z, p / (p - 1.0))
        mod = np.abs(tm_eval(inner, np.column_stack([x, adjoint.apply(x)]), nodes))
        top = mod.max(axis=1)
        norms.append(top * np.sum(weights * (mod / top[:, None]) ** p, axis=1) ** (1.0 / p))
    return norms


def test_probe_batched_rows_match_per_row_loop(monkeypatch):
    # all rows share each chunk's tm_eval pass, and the chunks' sums
    # combine through a running maximum; the reference sums whole rows
    # over the last Clark rule the probe took
    powers = []
    windows = model_space._clark_windows

    def record(inner, power=1, extra=0):
        powers.append(power)
        return windows(inner, power, extra)

    monkeypatch.setattr(model_space, "_clark_windows", record)
    for inner, a, direction in _seeded_probe_cases():
        probes = [r * direction for r in (0.0, 0.5, 0.9, 0.99, 0.999)]
        for p in (1.5, 3.0):
            report = near_degenerate_probe(inner, a, probes, p)
            nodes, weights = clark_rule(inner, power=powers[-1])
            for row, ref in zip(report.rows, _per_row_probe(inner, a, probes, p, nodes, weights)):
                assert [row.f_norm, row.taf_norm] == pytest.approx(ref, rel=1e-13, abs=0.0)


def _log_trapezoid(inner, a, z, p, m):
    """(mean of |g|^p)^(1/p) for g = f and T_conj(a) f of the probe at z,
    on m equispaced nodes, summed as logs so that no power underflows at
    any p."""
    adjoint = tm_compression(inner, coanalytic=a)
    x = corona._conjugate_kernel_coords(inner, z, p / (p - 1.0))
    nodes = np.exp(2j * np.pi * np.arange(m) / m)
    logs = p * np.log(np.abs(tm_eval(inner, np.column_stack([x, adjoint.apply(x)]), nodes)))
    return np.exp((np.logaddexp.reduce(logs, axis=1) - np.log(m)) / p)


@pytest.mark.parametrize("p", [1e6, 1e300])
def test_probe_large_even_p_keeps_grid_route(p):
    # the reference is a grid route: a log-sum-exp trapezoid on 2^16 nodes
    # resolves the peak of |f|^p at p = 1e6 (2^14 nodes already agree to
    # 1e-15, 2048 nodes are off by 5.5e-7) and holds max |f| itself at
    # p = 1e300, where the peak is at zeta = 1.  p = 1e6 is an exact sum
    # over 10^6 Clark points of I^(p/2); p = 1e300 doubles the rule of I^k
    # up to CLARK_MAX_NODES and settles to NORM_TOL.
    inner = blaschke_make([0.3, -0.5])
    a = [-0.7, 1.0]
    probes = [0.9, 0.99]
    tol = 1e-13 if p / 2.0 * inner.degree <= CLARK_MAX_NODES else NORM_TOL
    report = near_degenerate_probe(inner, a, probes, p)
    for z, row in zip(probes, report.rows):
        ref = _log_trapezoid(inner, a, z, p, 1 << 16)
        assert 0.0 < row.f_norm < np.inf and 0.0 < row.taf_norm < np.inf
        assert [row.f_norm, row.taf_norm] == pytest.approx(ref, rel=tol, abs=0.0)


@pytest.mark.parametrize(
    "zeros, probes",
    [
        # a zero 1e-6 from the circle, probed along it (an FFT grid would
        # need 2^26 nodes)
        ([1.0 - 1e-6, -0.5], [0.2, 0.9, 0.999]),
        # a three-zero cluster (a 2^16-node grid is off by 3.4e-8)
        ([0.999 * np.exp(1j * t) for t in (0.30, 0.31, 0.32)], [0.5]),
        # degree 5, probed out to 0.99999
        (random_zeros(np.random.default_rng(5), 5, radius=0.9), [r * np.exp(0.7j) for r in (0.9, 0.999, 0.99999)]),
    ],
    ids=["near_circle", "cluster", "degree5"],
)
def test_probe_norms_match_quad(zeros, probes):
    inner = blaschke_make(zeros)
    a = [-0.7, 1.0]
    for p in (1.5, 3.0):
        report = near_degenerate_probe(inner, a, probes, p)
        for z, row in zip(probes, report.rows):
            f_ref, taf_ref = quad_probe_norms(inner, a, z, p)
            assert row.f_norm == pytest.approx(f_ref, rel=1e-9, abs=0.0)
            assert row.taf_norm == pytest.approx(taf_ref, rel=1e-9, abs=0.0)


def test_probe_even_p_needs_no_grid(monkeypatch):
    # every p takes its norms from Clark points, so a zero at 1 - 1e-6,
    # whose FFT grid would need 2^26 nodes, builds no grid function
    def refuse(*args):
        raise AssertionError("the probe sampled a grid function")

    monkeypatch.setattr(BoundaryFunction, "from_samples", classmethod(refuse))
    monkeypatch.setattr(BlaschkeProduct, "boundary", refuse)
    inner = blaschke_make([1.0 - 1e-6, -0.5, 0.3j])
    a = [-0.7, 1.0]
    probes = [0.2, 0.9 * np.exp(0.3j)]
    for p in (1.5, 2.0, 3.0, 4.0):
        report = near_degenerate_probe(inner, a, probes, p)
        assert all(0.0 < row.f_norm < np.inf for row in report.rows)
        if p == 2.0:
            for z, row in zip(probes, report.rows):
                # rounding grows like eps / (1 - |lambda|), about 2e-10 here
                expected = np.sqrt(1.0 - abs(blaschke_eval(inner, z)) ** 2)
                assert row.f_norm == pytest.approx(expected, rel=1e-9)
