"""Shared random-instance generators for the test suite.

All tests draw from np.random.default_rng with explicit seeds so every run
sees the same instances.
"""

import numpy as np

from hardyops import BoundaryFunction, DEFAULT_GRID, blaschke_make


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
