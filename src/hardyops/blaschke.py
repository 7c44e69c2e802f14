"""Finite Blaschke products and the rational-function carrier.

A finite Blaschke product is a product of degree-1 factors
(z - z_k)/(1 - conj(z_k) z) over zeros z_k in the open disc, times a
unimodular constant.  Factor difference quotients, normalized reproducing
kernels, and inner-outer splitting of polynomials all live here because
they are exact rational-function algebra.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import IllConditionedError, UnitDiscError
from .hardy import BoundaryFunction, CircleGrid, _as_params

#: Zeros closer than this to the circle are rejected; every downstream
#: quantity conditions like 1/(1 - |z_k|).
ZERO_MARGIN = 1e-9

#: Roots of a polynomial within this distance of the circle make the
#: inner-outer split ill-conditioned and are rejected; numerator and
#: denominator roots this close (relative) cancel in a RationalFunction.
CIRCLE_ROOT_TOL = 1e-8

_CHECK_POINTS = np.exp(2j * np.pi * np.arange(512) / 512)

#: Points on the circle where boundary sup norms are taken.
SUP_POINTS = np.exp(2j * np.pi * np.arange(4096) / 4096)


def as_poly(coeffs) -> np.ndarray:
    """Ascending complex coefficient array with trailing zeros trimmed."""
    arr = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if arr.ndim != 1:
        raise ValueError("polynomial coefficients must be one-dimensional")
    arr = P.polytrim(arr, tol=0.0)
    return arr


def _synthetic_div(coeffs: np.ndarray, root: complex) -> np.ndarray:
    """Exact quotient coeffs / (z - root); the remainder is discarded."""
    n = len(coeffs) - 1
    out = np.zeros(n, dtype=complex)
    acc = coeffs[n]
    for i in range(n - 1, -1, -1):
        out[i] = acc
        acc = coeffs[i] + root * acc
    return out


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product: zeros (with multiplicity) and a unimodular
    constant; the degree is the number of zeros.  Compares and hashes by
    value, so one product can key caches or label several bases."""

    zeros: tuple
    constant: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        zeros = tuple(complex(z) for z in self.zeros)
        for z in zeros:
            if not cmath.isfinite(z):
                raise UnitDiscError(f"Blaschke zero {z} is not a finite number")
            if abs(z) >= 1.0 - ZERO_MARGIN:
                raise UnitDiscError(
                    f"Blaschke zero {z} has |z|={abs(z):.12f} >= {1.0 - ZERO_MARGIN}"
                )
        c = complex(self.constant)
        if not cmath.isfinite(c) or abs(abs(c) - 1.0) > 1e-12:
            raise UnitDiscError(f"constant {c} has modulus {abs(c)} != 1")
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "constant", c)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    @cached_property
    def sup_data(self) -> tuple:
        """(c * Pz, Q, the roots of Q, I on SUP_POINTS) for I = c * Pz / Q,
        computed once per product: every Bezout solve on this inner reads
        them.  The arrays are read-only."""
        q = as_poly(self.denominator())
        data = (self.numerator(), q, P.polyroots(q), blaschke_eval(self, SUP_POINTS))
        for arr in data:
            arr.flags.writeable = False
        return data

    def __call__(self, z):
        return blaschke_eval(self, z)

    def boundary(self, grid: CircleGrid) -> BoundaryFunction:
        return BoundaryFunction.from_samples(grid, blaschke_eval(self, grid.points))

    def numerator(self) -> np.ndarray:
        """Ascending coefficients of c * prod (z - z_k)."""
        return self.constant * P.polyfromroots(self.zeros)

    def denominator(self) -> np.ndarray:
        """Ascending coefficients of prod (1 - conj(z_k) z)."""
        out = np.array([1.0 + 0.0j])
        for z in self.zeros:
            out = P.polymul(out, np.array([1.0, -np.conj(z)]))
        return out

    def as_rational(self) -> "RationalFunction":
        return RationalFunction(self.numerator(), self.denominator())

    def to_json_dict(self) -> dict:
        return {
            "zeros": [[z.real, z.imag] for z in self.zeros],
            "constant": [self.constant.real, self.constant.imag],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "BlaschkeProduct":
        zeros = [complex(re, im) for re, im in doc["zeros"]]
        const = complex(*doc.get("constant", (1.0, 0.0)))
        return cls(tuple(zeros), const)


def sorted_zeros(inner: BlaschkeProduct) -> tuple:
    """Zeros ordered by (modulus, argument) so bases are reproducible."""
    return tuple(sorted(inner.zeros, key=lambda z: (abs(z), np.angle(z))))


def blaschke_make(zeros, constant: complex = 1.0) -> BlaschkeProduct:
    """Build a finite Blaschke product from zeros in the open disc."""
    return BlaschkeProduct(tuple(complex(z) for z in zeros), complex(constant))


def blaschke_eval(inner: BlaschkeProduct, z):
    """Evaluate factor by factor; stable on the closed disc."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) > 1.0 + 1e-12):
        raise UnitDiscError("evaluation points must lie in the closed unit disc")
    out = np.full(z.shape, inner.constant, dtype=complex)
    for zk in inner.zeros:
        out *= (z - zk) / (1.0 - np.conj(zk) * z)
    return out if out.shape else complex(out)


def blaschke_factor(z_n: complex) -> "RationalFunction":
    """The single factor (z - z_n)/(1 - conj(z_n) z)."""
    z_n = complex(z_n)
    if abs(z_n) >= 1.0:
        raise UnitDiscError(f"factor zero {z_n} must lie in the open disc")
    return RationalFunction(np.array([-z_n, 1.0]), np.array([1.0, -np.conj(z_n)]))


@dataclass(frozen=True, eq=False)
class RationalFunction:
    """Quotient of polynomials (ascending coefficients), reduced to lowest
    terms, with all denominator roots outside the closed unit disc."""

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self) -> None:
        num = as_poly(self.num)
        den = as_poly(self.den)
        if np.all(den == 0):
            raise ValueError("denominator is identically zero")
        roots = P.polyroots(den) if len(den) > 1 else np.empty(0, dtype=complex)
        self._settle(*_lowest_terms(num, den, roots))

    @classmethod
    def _reduced(cls, num: np.ndarray, den: np.ndarray, roots) -> "RationalFunction":
        """num/den as `_lowest_terms` returns it with the roots `roots` of
        den: the constructor's disc check without its root solves."""
        out = object.__new__(cls)
        out._settle(num, den, roots)
        return out

    def _settle(self, num: np.ndarray, den: np.ndarray, roots) -> None:
        """Refuse a denominator root in or near the closed disc, then hold
        num and den read-only."""
        roots = np.asarray(roots, dtype=complex)
        bad = np.abs(roots) <= 1.0 + ZERO_MARGIN
        if np.any(bad):
            raise UnitDiscError(
                f"denominator roots {roots[bad]} lie in or too near the closed unit disc"
            )
        num.flags.writeable = False
        den.flags.writeable = False
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __call__(self, z):
        return self.evaluate(z)

    def evaluate(self, z):
        z = np.asarray(z, dtype=complex)
        out = P.polyval(z, self.num) / P.polyval(z, self.den)
        return out if out.shape else complex(out)

    def boundary(self, grid: CircleGrid) -> BoundaryFunction:
        return BoundaryFunction.from_samples(grid, self.evaluate(grid.points))

    def sup_on_circle(self) -> float:
        return float(np.max(np.abs(self.evaluate(SUP_POINTS))))

    def is_polynomial(self) -> bool:
        return len(self.den) == 1

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return RationalFunction(P.polymul(self.num, other.num), P.polymul(self.den, other.den))
        return RationalFunction(self.num * complex(other), self.den)

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        return {
            "num": [[c.real, c.imag] for c in self.num],
            "den": [[c.real, c.imag] for c in self.den],
        }


def _lowest_terms(num: np.ndarray, den: np.ndarray, den_roots: np.ndarray, num_roots=None):
    """(num, den, roots) as the RationalFunction of num/den carries them.

    `num` and `den` are trimmed (`as_poly`) and `den_roots` is
    `P.polyroots(den)`.  Pairs of roots within CIRCLE_ROOT_TOL cancel by
    synthetic division, matched greedily in the order of `den_roots`; the
    root solve on `num`, unless the caller passes its result as
    `num_roots`, is the only one made.  Both polynomials are then divided
    by the leading coefficient of the denominator left, and `roots` holds
    the entries of `den_roots` that did not cancel."""
    if len(num) > 1 and len(den) > 1 and not np.all(num == 0):
        num_roots = list(P.polyroots(num) if num_roots is None else num_roots)
        kept = []
        for r_d in den_roots:
            if num_roots:
                dists = [abs(r_d - r_n) for r_n in num_roots]
                i = int(np.argmin(dists))
                if dists[i] <= CIRCLE_ROOT_TOL * max(1.0, abs(r_d)):
                    shared = 0.5 * (r_d + num_roots.pop(i))
                    num = _synthetic_div(num, shared)
                    den = _synthetic_div(den, shared)
                    continue
            kept.append(r_d)
        den_roots = np.array(kept, dtype=complex)
    lead = den[-1]
    return num / lead, den / lead, den_roots


def factor_difference(F, z_n: complex) -> RationalFunction:
    """The quotient G with b_n * G = F - F(z_n), where b_n is the Blaschke
    factor at z_n.  G is analytic in the closed disc: the zero of the
    difference at z_n cancels the zero of the factor.

    F may be a BlaschkeProduct or an ascending polynomial coefficient
    sequence.
    """
    z_n = complex(z_n)
    if abs(z_n) >= 1.0:
        raise UnitDiscError(f"difference point {z_n} must lie in the open disc")
    if isinstance(F, BlaschkeProduct):
        num = F.numerator()
        den = F.denominator()
        value = blaschke_eval(F, z_n)
        # (F - F(z_n)) = (num - value*den)/den vanishes at z_n
        diff = P.polysub(num, value * den)
        quot = _synthetic_div(as_poly(diff), z_n) if len(as_poly(diff)) > 1 else np.array([0.0 + 0j])
        g_num = P.polymul(quot, np.array([1.0, -np.conj(z_n)]))
        result = RationalFunction(g_num, den)
        f_check = blaschke_eval(F, _CHECK_POINTS)
    else:
        poly = as_poly(F)
        value = complex(P.polyval(z_n, poly))
        diff = P.polysub(poly, np.array([value]))
        diff = as_poly(diff)
        if len(diff) == 1:
            return RationalFunction(np.array([0.0 + 0j]), np.array([1.0 + 0j]))
        quot = _synthetic_div(diff, z_n)
        g_num = P.polymul(quot, np.array([1.0, -np.conj(z_n)]))
        result = RationalFunction(g_num, np.array([1.0 + 0j]))
        f_check = P.polyval(_CHECK_POINTS, poly)
    b_vals = (_CHECK_POINTS - z_n) / (1.0 - np.conj(z_n) * _CHECK_POINTS)
    residual = np.max(np.abs(b_vals * result.evaluate(_CHECK_POINTS) - (f_check - value)))
    scale = max(1.0, float(np.max(np.abs(f_check))))
    if residual > 1e-10 * scale:
        raise IllConditionedError(
            f"difference-quotient residual {residual:.3e} exceeds 1e-10 (scale {scale:.3e})"
        )
    return result


def normalized_kernel(z_n: complex, params) -> RationalFunction:
    """Reproducing kernel (1 - |z_n|**2)**(1/q) / (1 - conj(z_n) z).

    The normalizing exponent is 1/q with q conjugate to p; at p = 2 this is
    the unit-norm kernel of the Hilbert-space pairing.
    """
    params = _as_params(params)
    z_n = complex(z_n)
    if abs(z_n) >= 1.0:
        raise UnitDiscError(f"kernel point {z_n} must lie in the open disc")
    scale = (1.0 - abs(z_n) ** 2) ** (1.0 / params.q)
    return RationalFunction(np.array([scale]), np.array([1.0, -np.conj(z_n)]))


def unnormalized_kernel(w: complex) -> RationalFunction:
    """The raw Cauchy kernel 1 / (1 - conj(w) z)."""
    w = complex(w)
    if abs(w) >= 1.0:
        raise UnitDiscError(f"kernel point {w} must lie in the open disc")
    return RationalFunction(np.array([1.0]), np.array([1.0, -np.conj(w)]))


def inner_outer_of_polynomial(a) -> tuple[BlaschkeProduct, RationalFunction]:
    """Split a polynomial into its Blaschke (inner) part over the zeros
    inside the disc and the zero-free-in-the-closed-disc outer part.

    Roots within CIRCLE_ROOT_TOL of the circle are rejected: the split is
    ill-conditioned there.
    """
    poly = as_poly(a)
    if len(poly) == 1 and poly[0] == 0:
        raise ValueError("polynomial is identically zero")
    if len(poly) == 1:
        return BlaschkeProduct(()), RationalFunction(poly, np.array([1.0 + 0j]))
    roots = P.polyroots(poly)
    on_circle = np.abs(np.abs(roots) - 1.0) <= CIRCLE_ROOT_TOL
    if np.any(on_circle):
        raise UnitDiscError(
            f"roots {roots[on_circle]} lie within {CIRCLE_ROOT_TOL} of the unit circle; "
            "the inner-outer split is ill-conditioned"
        )
    inside = roots[np.abs(roots) < 1.0]
    outside = roots[np.abs(roots) > 1.0]
    lead = poly[-1]
    inner = BlaschkeProduct(sorted_zeros(BlaschkeProduct(tuple(inside))))
    outer_num = lead * P.polyfromroots(outside) if len(outside) else np.array([lead])
    outer = RationalFunction(P.polymul(outer_num, inner.denominator()), np.array([1.0 + 0j]))
    return inner, outer
