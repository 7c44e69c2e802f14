"""Seeded inputs for the four workloads.

A workload is a pool of rounds; a round is a fixed list of items, and a
run attempts whole rounds, cycling through the pool.  An item is one call
of `hardyops report` or `hardyops sweep` on one config (and family) file.
Every workload holds a single inner degree per item position, so the
median item time of a run does not depend on which items fit into it.

The seeded inputs stay inside the region where today's program succeeds
on every seed tried: zeros well inside the disc and apart from each other,
symbols bounded away from zero at the inner zeros, no Bezout row closer
than 2e-3 to a common zero, no projection check at degree 40 (README.md
says why).  The one planned failure is the named `symbol_zero` sweeps
below: they do not depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALL_CHECKS = ["corona", "bezout", "compressed", "commutant", "adjoint", "projection"]
WIDE_CHECKS = ["corona", "compressed", "adjoint"]
EXPONENTS = [1.5, 2.0, 4.0]
SWEEP_OFFSETS = [0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.0]
PROBE_RADII = [0.9, 0.99, 0.999, 0.9999]

#: Fixed degree-6 inners whose `symbol_zero` sweep continues to offset
#: 1e-6 from their first zero.  `bezout_solve` fails its absolute 1e-9
#: residual gate on that row (residual about 1e-6 and 5e-7) and `run_sweep`
#: aborts the whole table with exit 3, every time; one of these closes
#: each round of `sweep_symbol_zero` as a counted failure.
NAMED_FAILING_SWEEPS = {
    "near_zero_a": (-0.13 + 0.06j, -0.54 - 0.08j, 0.11 - 0.11j, -0.18 + 0.26j, -0.75 - 0.48j, -0.3 - 0.67j),
    "near_zero_b": (-0.38 + 0.34j, -0.28 - 0.56j, -0.37 + 0.54j, -0.59 - 0.47j, -0.7 + 0.18j, -0.68 - 0.28j),
}
FAILING_OFFSET = 1e-6


@dataclass(frozen=True)
class Item:
    """One call of the command line: `kind` is report or sweep."""

    name: str
    kind: str
    config: dict
    family: dict | None = None


def _pairs(values) -> list:
    return [[float(complex(v).real), float(complex(v).imag)] for v in values]


def _zeros(rng, count, radius, min_sep, avoid=()) -> list:
    """Points drawn uniformly from the disc of `radius`, at least `min_sep`
    from each other and from every point of `avoid`."""
    out = []
    while len(out) < count:
        z = radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - w) >= min_sep for w in list(out) + list(avoid)):
            out.append(complex(z))
    return out


def _symbol(rng, zeros, floor=0.1) -> list:
    """Degree-2 symbol with |a(lambda_k)| >= floor at every inner zero."""
    while True:
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        if np.abs(np.polyval(coeffs[::-1], np.array(zeros))).min() >= floor:
            return list(coeffs)


def _report(name, zeros, symbol, p, checks, rng) -> Item:
    config = {
        "inner": {"zeros": _pairs(zeros)},
        "symbol": _pairs(symbol),
        "p": p,
        "checks": checks,
        "seed": int(rng.integers(0, 2**31)),
    }
    return Item(name, "report", config)


def _sweep_config(zeros) -> dict:
    return {"inner": {"zeros": _pairs(zeros)}, "symbol": [1.0], "p": 2.0, "checks": ["corona"]}


def _report_rounds(rng, degree, radius, min_sep, checks, rounds) -> list:
    pool = []
    for r in range(rounds):
        items = []
        for p in EXPONENTS:
            zeros = _zeros(rng, degree, radius, min_sep)
            items.append(_report(f"r{r}.p{p:g}", zeros, _symbol(rng, zeros), p, checks, rng))
        pool.append(items)
    return pool


def _symbol_zero_item(rng, name) -> Item:
    """Degree-6 inner whose first zero is the sweep's target; the other
    zeros keep 0.3 away from each other and from the swept segment
    [zero, zero + 0.5]."""
    base = _zeros(rng, 1, 0.9, 0.0)[0]
    segment = base + np.linspace(0.0, 0.5, 26)
    zeros = [base] + _zeros(rng, 5, 0.9, 0.3, avoid=segment)
    family = {"kind": "symbol_zero", "zero": _pairs([base])[0], "offsets": SWEEP_OFFSETS}
    return Item(name, "sweep", _sweep_config(zeros), family)


def _named_failing_item(name) -> Item:
    zeros = NAMED_FAILING_SWEEPS[name]
    offsets = SWEEP_OFFSETS + [FAILING_OFFSET]
    family = {"kind": "symbol_zero", "zero": _pairs(zeros[:1])[0], "offsets": offsets}
    return Item(name, "sweep", _sweep_config(zeros), family)


def _probe_item(rng, name, degree) -> Item:
    zeros = _zeros(rng, degree, 0.9, 0.1)
    config = {
        "inner": {"zeros": _pairs(zeros)},
        "symbol": _pairs(_symbol(rng, zeros)),
        "p": 2.0,
        "checks": ["corona"],
    }
    family = {"kind": "probe_radius", "radii": PROBE_RADII, "angle": float(2 * np.pi * rng.uniform())}
    return Item(name, "sweep", config, family)


def _report_commutant(rng) -> list:
    return _report_rounds(rng, 10, 0.9, 0.3, ALL_CHECKS, rounds=2)


def _report_wide(rng) -> list:
    return _report_rounds(rng, 40, 0.95, 0.05, WIDE_CHECKS, rounds=4)


def _sweep_symbol_zero(rng) -> list:
    names = sorted(NAMED_FAILING_SWEEPS)
    return [
        [_symbol_zero_item(rng, f"r{r}.s{k}") for k in range(3)]
        + [_named_failing_item(names[r % len(names)])]
        for r in range(4)
    ]


def _probe_boundary(rng) -> list:
    return [[_probe_item(rng, f"r{r}.d{d}", d) for d in range(2, 6)] for r in range(2)]


WORKLOADS = {
    "report_commutant": _report_commutant,
    "report_wide": _report_wide,
    "sweep_symbol_zero": _sweep_symbol_zero,
    "probe_boundary": _probe_boundary,
}


def rounds_for(workload: str, seed: int) -> list:
    """The pool of rounds of `workload` for `seed`; the same seed gives the
    same items."""
    return WORKLOADS[workload](np.random.default_rng([seed, 0x5EED]))
