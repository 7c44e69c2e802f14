"""Discretized function theory on the unit circle.

Functions on the circle are carried as a band of Fourier coefficients
(indices -N..N) tied to a uniform sample grid of M points, M >= 2N + 2, so
that products of two in-band functions are alias-free up to the reported
tail mass.  All analytic/co-analytic structure (Riesz projections, shifts,
the duality pairing, p-norms) is computed at the coefficient level or by
trapezoidal quadrature on the grid, which is spectrally accurate for
periodic data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ExponentError,
    GridMismatchError,
    NotAnalyticError,
    UnitDiscError,
)

DEFAULT_M = 2048
DEFAULT_N = 1000

#: Relative negative-mass threshold below which a function counts as analytic.
ANALYTIC_TOL = 1e-8


def _validate_exponent(p: float) -> None:
    if not np.isfinite(p) or p <= 1.0:
        raise ExponentError(
            f"exponent p={p} must lie strictly between 1 and infinity; the "
            "analytic/anti-analytic splitting used throughout is unbounded at "
            "the endpoints for general inner functions"
        )


@dataclass(frozen=True)
class HardyParams:
    """Integrability exponent p in (1, oo); the conjugate q is derived."""

    p: float

    def __post_init__(self) -> None:
        _validate_exponent(self.p)

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

    def conjugate(self) -> "HardyParams":
        return HardyParams(self.q)


def _as_params(p) -> HardyParams:
    return p if isinstance(p, HardyParams) else HardyParams(float(p))


@dataclass(frozen=True)
class CircleGrid:
    """Uniform sample points exp(2*pi*i*k/m) with Fourier band -n..n."""

    m: int = DEFAULT_M
    n: int = DEFAULT_N

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"band limit n={self.n} must be >= 1")
        if self.m < 2 * self.n + 2:
            raise ValueError(
                f"grid size m={self.m} must be >= 2n+2={2 * self.n + 2} to keep "
                "products of in-band functions alias-free"
            )

    @cached_property
    def points(self) -> np.ndarray:
        return np.exp(2j * np.pi * np.arange(self.m) / self.m)


DEFAULT_GRID = CircleGrid()


@dataclass(frozen=True, eq=False)
class BoundaryFunction:
    """A function on the circle: banded Fourier coefficients plus samples.

    `coeffs[i]` holds the coefficient of z**(i - grid.n); samples are always
    the exact synthesis of the band, so the two representations agree through
    the DFT by construction.  `tail_mass` is the relative L2 mass discarded
    when the function was sampled from non-band-limited data (rational
    functions, pointwise products).
    """

    grid: CircleGrid
    coeffs: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (2 * self.grid.n + 1,):
            raise ValueError(
                f"coefficient array has shape {coeffs.shape}, expected "
                f"({2 * self.grid.n + 1},) for band n={self.grid.n}"
            )
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coeffs(cls, grid: CircleGrid, coeffs, tail_mass: float = 0.0) -> "BoundaryFunction":
        return cls(grid, np.asarray(coeffs, dtype=complex), tail_mass)

    @classmethod
    def from_samples(cls, grid: CircleGrid, samples) -> "BoundaryFunction":
        """Band-limit pointwise samples; the discarded spectral mass is
        recorded in `tail_mass` (relative L2)."""
        samples = np.asarray(samples, dtype=complex)
        if samples.shape != (grid.m,):
            raise ValueError(f"expected {grid.m} samples, got {samples.shape}")
        full = np.fft.fft(samples) / grid.m
        n = grid.n
        coeffs = np.concatenate([full[grid.m - n:], full[: n + 1]])
        dropped = full[n + 1: grid.m - n]
        total = np.linalg.norm(full)
        tail = float(np.linalg.norm(dropped) / total) if total > 0 else 0.0
        return cls(grid, coeffs, tail)

    @classmethod
    def from_poly(cls, grid: CircleGrid, poly_coeffs) -> "BoundaryFunction":
        """Analytic polynomial sum_k c_k z**k from ascending coefficients."""
        poly_coeffs = np.asarray(poly_coeffs, dtype=complex)
        if poly_coeffs.ndim != 1:
            raise ValueError("polynomial coefficients must be a 1-d sequence")
        if poly_coeffs.size > grid.n + 1:
            raise ValueError(
                f"polynomial degree {poly_coeffs.size - 1} exceeds band limit n={grid.n}"
            )
        coeffs = np.zeros(2 * grid.n + 1, dtype=complex)
        coeffs[grid.n: grid.n + poly_coeffs.size] = poly_coeffs
        return cls(grid, coeffs)

    @classmethod
    def zero(cls, grid: CircleGrid) -> "BoundaryFunction":
        return cls(grid, np.zeros(2 * grid.n + 1, dtype=complex))

    # -- representation ----------------------------------------------------

    @cached_property
    def samples(self) -> np.ndarray:
        full = np.zeros(self.grid.m, dtype=complex)
        n = self.grid.n
        full[: n + 1] = self.coeffs[n:]
        full[self.grid.m - n:] = self.coeffs[:n]
        out = np.fft.ifft(full) * self.grid.m
        out.flags.writeable = False
        return out

    def coeff(self, k: int) -> complex:
        """Fourier coefficient c_k, zero outside the band."""
        if abs(k) > self.grid.n:
            return 0.0 + 0.0j
        return complex(self.coeffs[self.grid.n + k])

    def poly_coeffs(self, degree: int) -> np.ndarray:
        """Ascending coefficients c_0..c_degree of the analytic part."""
        return np.array(self.coeffs[self.grid.n: self.grid.n + degree + 1])

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def negative_mass(self) -> float:
        """Relative L2 mass on strictly negative Fourier indices."""
        total = self.l2_norm()
        if total == 0.0:
            return 0.0
        return float(np.linalg.norm(self.coeffs[: self.grid.n]) / total)

    def positive_mass(self) -> float:
        """Relative L2 mass on Fourier indices >= 0."""
        total = self.l2_norm()
        if total == 0.0:
            return 0.0
        return float(np.linalg.norm(self.coeffs[self.grid.n:]) / total)

    def eval_disc(self, w) -> complex:
        """Evaluate the analytic extension sum_{k>=0} c_k w**k at |w| < 1."""
        w = complex(w)
        if abs(w) >= 1.0:
            raise UnitDiscError(f"|w|={abs(w)} must be < 1")
        return complex(np.polynomial.polynomial.polyval(w, self.coeffs[self.grid.n:]))

    # -- arithmetic --------------------------------------------------------

    def _check_grid(self, other: "BoundaryFunction") -> None:
        if self.grid != other.grid:
            raise GridMismatchError(
                f"grids differ: ({self.grid.m},{self.grid.n}) vs "
                f"({other.grid.m},{other.grid.n})"
            )

    def conj(self) -> "BoundaryFunction":
        return BoundaryFunction(self.grid, np.conj(self.coeffs[::-1]), self.tail_mass)

    def __add__(self, other):
        if isinstance(other, BoundaryFunction):
            self._check_grid(other)
            return BoundaryFunction(
                self.grid, self.coeffs + other.coeffs, self.tail_mass + other.tail_mass
            )
        coeffs = np.array(self.coeffs)
        coeffs[self.grid.n] += complex(other)
        return BoundaryFunction(self.grid, coeffs, self.tail_mass)

    __radd__ = __add__

    def __neg__(self):
        return BoundaryFunction(self.grid, -self.coeffs, self.tail_mass)

    def __sub__(self, other):
        return self + (-other if isinstance(other, BoundaryFunction) else -complex(other))

    def __rsub__(self, other):
        return (-self) + complex(other)

    def __mul__(self, other):
        if isinstance(other, BoundaryFunction):
            self._check_grid(other)
            out = BoundaryFunction.from_samples(self.grid, self.samples * other.samples)
            return BoundaryFunction(
                self.grid, out.coeffs, out.tail_mass + self.tail_mass + other.tail_mass
            )
        return BoundaryFunction(self.grid, self.coeffs * complex(other), self.tail_mass)

    __rmul__ = __mul__

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "grid_m": self.grid.m,
            "band_n": self.grid.n,
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "BoundaryFunction":
        grid = CircleGrid(m=int(doc["grid_m"]), n=int(doc["band_n"]))
        coeffs = np.array([complex(re, im) for re, im in doc["coeffs"]])
        return cls(grid, coeffs)


def monomial(grid: CircleGrid, k: int) -> BoundaryFunction:
    """The basis function z**k on the circle (k may be negative)."""
    if abs(k) > grid.n:
        raise ValueError(f"monomial index {k} outside band -{grid.n}..{grid.n}")
    coeffs = np.zeros(2 * grid.n + 1, dtype=complex)
    coeffs[grid.n + k] = 1.0
    return BoundaryFunction(grid, coeffs)


def require_analytic(f: BoundaryFunction, what: str = "input") -> None:
    mass = f.negative_mass()
    if mass > ANALYTIC_TOL:
        raise NotAnalyticError(
            f"{what} has relative negative Fourier mass {mass:.3e} > {ANALYTIC_TOL:.1e}"
        )


# -- operations -----------------------------------------------------------


def pairing(f: BoundaryFunction, g: BoundaryFunction) -> complex:
    """Duality pairing (1/2pi) integral of f * conj(g), summed spectrally.

    The second argument is conjugated; all adjoint computations in the
    operator layer rely on this convention.
    """
    f._check_grid(g)
    return complex(np.sum(f.coeffs * np.conj(g.coeffs)))


def p_mean(values, p: float):
    """(mean of |values|**p)**(1/p) along the last axis, taken relative to
    the largest modulus so that no power overflows or underflows for large p."""
    mod = np.abs(values)
    top = np.maximum(mod.max(axis=-1, keepdims=True), np.finfo(float).tiny)
    return top[..., 0] * np.mean((mod / top) ** p, axis=-1) ** (1.0 / p)


def hp_norm(f: BoundaryFunction, params) -> float:
    """Boundary p-norm ((1/2pi) integral |f|**p)**(1/p) by grid quadrature
    through `p_mean`.

    Exact for even integer p with band(|f|**p) < m; spectrally convergent
    quadrature otherwise.
    """
    return float(p_mean(f.samples, _as_params(params).p))


def riesz_split(f: BoundaryFunction) -> tuple[BoundaryFunction, BoundaryFunction]:
    """Split f into (P_plus f, P_minus f): indices >= 0 and < 0.

    The two parts re-sum to f exactly at the coefficient level.
    """
    n = f.grid.n
    plus = np.zeros_like(f.coeffs)
    minus = np.zeros_like(f.coeffs)
    plus[n:] = f.coeffs[n:]
    minus[:n] = f.coeffs[:n]
    return (
        BoundaryFunction(f.grid, plus, f.tail_mass),
        BoundaryFunction(f.grid, minus, f.tail_mass),
    )


def shifts(f: BoundaryFunction) -> tuple[BoundaryFunction, BoundaryFunction]:
    """Forward and backward shift (z*f, (f - f(0))/z) of an analytic f."""
    require_analytic(f)
    n = f.grid.n
    fwd = np.zeros_like(f.coeffs)
    fwd[n + 1:] = f.coeffs[n: 2 * n]
    lost = abs(complex(f.coeffs[2 * n]))
    bwd = np.zeros_like(f.coeffs)
    bwd[n: 2 * n] = f.coeffs[n + 1:]
    return (
        BoundaryFunction(f.grid, fwd, f.tail_mass + lost),
        BoundaryFunction(f.grid, bwd, f.tail_mass),
    )


def sup_norm(f: BoundaryFunction) -> float:
    """max |f| over the grid points."""
    return float(np.max(np.abs(f.samples)))
