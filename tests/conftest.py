"""Shared random-instance generators for the test suite.

All tests draw from np.random.default_rng with explicit seeds so every run
sees the same instances.
"""

import numpy as np

from hardyops import BoundaryFunction, CircleGrid, DEFAULT_GRID, blaschke_make

#: Coefficient tail that `reference_grid` leaves unresolved.
GRID_TAIL = 1e-10


def random_zeros(rng, count, radius=0.9):
    """Points distributed over the disc of the given radius."""
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    return r * np.exp(1j * theta)


def separated_zeros(rng, count, radius, separation):
    """Points drawn one by one over the disc of the given radius, each kept
    only when it lies at least `separation` from those kept before."""
    zeros = []
    while len(zeros) < count:
        z = radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - w) >= separation for w in zeros):
            zeros.append(z)
    return np.array(zeros)


def reference_grid(radius):
    """A grid for the FFT reference routes whose band resolves geometric
    coefficient decay radius**k down to GRID_TAIL: the default grid up to
    a radius of about 0.977, and a power-of-two m >= 2n + 2 beyond it."""
    n = int(np.ceil(np.log(GRID_TAIL) / np.log(radius))) + 8 if radius > 0.0 else 0
    if n <= DEFAULT_GRID.n:
        return DEFAULT_GRID
    return CircleGrid(m=1 << int(np.ceil(np.log2(2 * n + 2))), n=n)


def quad_mean(integrand, p, breaks=()):
    """((1/2pi) integral over theta in (-pi, pi) of integrand(e^{i theta})^p)^(1/p)
    by scipy.integrate.quad, piece by piece between breakpoints at the
    angles `breaks` and at distances 10^(-k/2), k = 0..16, on either side,
    so that features as narrow as 1e-8 fall on the breakpoints."""
    from scipy.integrate import quad

    steps = np.logspace(-8.0, 0.0, 17)
    edges = {-np.pi, np.pi}
    for t in breaks:
        edges.update(float(t) + d for d in np.concatenate([-steps, [0.0], steps]))
    edges = sorted(e for e in edges if -np.pi <= e <= np.pi)

    def piece(lo, hi):
        return quad(
            lambda t: integrand(complex(np.cos(t), np.sin(t))) ** p,
            lo,
            hi,
            limit=200,
            epsabs=0.0,
            epsrel=1e-10,
        )[0]

    value = sum(piece(lo, hi) for lo, hi in zip(edges, edges[1:]))
    return (value / (2.0 * np.pi)) ** (1.0 / p)


def quad_probe_norms(inner, symbol, z, p):
    """(||f||_p, ||T_conj(a) f||_p) by `quad_mean` for the probe
    f = (1-|z|^2)^(1/q) (I(zeta) - I(z))/(zeta - z) at z != 0 and a symbol
    a = c0 + c1 zeta of degree at most 1, for which
    T_conj(a) f = conj(c0) f + conj(c1) (f - f(0))/zeta.  I is the product
    formula in Python complex arithmetic, with no basis or Clark rule, and
    the breakpoints are the arguments of z and of the zeros of I."""
    c0, c1 = np.pad(np.asarray(symbol, dtype=complex), (0, 2 - len(symbol)))
    zeros = [complex(w) for w in inner.zeros]

    def blaschke(w):
        out = complex(inner.constant)
        for lam in zeros:
            out *= (w - lam) / (1.0 - lam.conjugate() * w)
        return out

    scale = (1.0 - abs(z) ** 2) ** (1.0 - 1.0 / p)
    at_z = blaschke(z)

    def f(w):
        return scale * (blaschke(w) - at_z) / (w - z)

    f0 = f(0.0)

    def taf(w):
        return c0.conjugate() * f(w) + c1.conjugate() * (f(w) - f0) / w

    breaks = [np.angle(w) for w in zeros + [z]]
    return (
        quad_mean(lambda w: abs(f(w)), p, breaks),
        quad_mean(lambda w: abs(taf(w)), p, breaks),
    )


def random_blaschke(rng, max_degree=5, radius=0.9):
    degree = int(rng.integers(1, max_degree + 1))
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return blaschke_make(random_zeros(rng, degree, radius), phase)


def random_poly(rng, degree):
    """Ascending complex coefficients with a nonzero leading term."""
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    if abs(coeffs[-1]) < 1e-3:
        coeffs[-1] += 1.0
    return coeffs


def random_analytic(rng, grid=DEFAULT_GRID, degree=12):
    return BoundaryFunction.from_poly(grid, random_poly(rng, degree))


def commutant_nullspace(S, rtol=1e-8):
    """Reference route to the commutant of S: the nullspace of the
    commutation map X -> X S - S X on column-major vec(X), read off the
    full SVD of that n^2 x n^2 matrix with relative threshold `rtol`.

    Returns the nullspace as a list of n x n matrices and the singular
    values, descending.  Its cost grows as n^6, so it serves the tests only.
    """
    n = S.shape[0]
    eye = np.eye(n)
    _, sv, vh = np.linalg.svd(np.kron(S.T, eye) - np.kron(eye, S))
    nullity = int(np.sum(sv <= rtol * sv[0])) if sv[0] > 0.0 else n * n
    return [v.conj().reshape((n, n), order="F") for v in vh[n * n - nullity:]], sv


def lstsq_symbol(S, T):
    """Reference route to symbol recovery: least-squares ascending
    coefficients of phi with phi(S) = T over the stacked powers
    I, S, ..., S^(n-1), each flattened to a column of length n^2."""
    n = S.shape[0]
    powers = [np.eye(n, dtype=complex)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ S)
    columns = np.column_stack([p.ravel() for p in powers])
    coeffs, *_ = np.linalg.lstsq(columns, np.asarray(T).ravel(), rcond=None)
    return coeffs
