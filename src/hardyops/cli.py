"""Deterministic command line front end.

Two subcommands: `report` runs a configurable battery of checks for one
symbol/inner pair and emits canonical JSON (sorted keys, two-space indent,
LF endings), `sweep` tabulates a one-parameter family as CSV with 12
significant digits.  Identical configs produce byte-identical artifacts;
randomized checks draw from a generator seeded by the config.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure; a
report also exits 3 when a defect it prints exceeds its printed tolerance,
and when a check's entry would hold a number that is NaN or infinite.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii

import numpy as np

from .blaschke import BlaschkeProduct, as_poly, blaschke_eval
from .corona import (
    BEZOUT_TOL,
    ZERO_TOL,
    bezout_solve,
    corona_delta,
    min_abs_at_zeros,
    near_degenerate_probe,
)
from .errors import (
    CommonZeroError,
    ConfigError,
    HardyOpsError,
    IllConditionedError,
    NonFiniteError,
)
from .hardy import DEFAULT_N, HardyParams
from .model_space import _tm_rows, clark_rule
from .operators import (
    RECOVERY_TOL,
    _poly_of_matrix,
    _powers,
    _poly_stack,
    adjoint_defect,
    symbol_recover,
    tm_project,
)

SCHEMA_VERSION = 1

#: sigma_min above this counts as invertible in reports.
INVERTIBILITY_TOL = 1e-10

#: Largest adjoint defect a passing report may print.
ADJOINT_TOL = 1e-8

#: Largest idempotence, complement or annihilator defect a passing report
#: may print.
PROJECTION_TOL = 1e-9

#: The tolerances a report prints, each the constant its enforcing code reads.
TOLERANCES = {
    "bezout_residual": BEZOUT_TOL,
    "invertibility_sigma": INVERTIBILITY_TOL,
    "adjoint_defect": ADJOINT_TOL,
    "projection_defect": PROJECTION_TOL,
    "recovery_residual": RECOVERY_TOL,
}

_PROJECTION_SAMPLES = 5
_PROJECTION_DEGREE = 12


def _finite(value) -> float | None:
    """A JSON number (not a boolean) as a float, or None when it is not a
    number or not finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        x = float(value)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _parse_complex(value, where: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    numbers = [_finite(c) for c in parts]
    if None in numbers:
        raise ConfigError(f"{where}: expected a finite number or [re, im] pair, got {value!r}")
    return complex(*numbers)


def _complex_list(z) -> list:
    return [[w.real, w.imag] for w in z]


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated run description: the pair (symbol, inner), the exponent,
    the selected checks, and the seed for randomized checks."""

    inner: BlaschkeProduct
    symbol: np.ndarray
    params: HardyParams
    checks: tuple
    seed: int

    @cached_property
    def delta(self) -> float:
        """corona_delta of (symbol, inner), computed at most once per run."""
        return corona_delta(self.symbol, self.inner)

    @cached_property
    def symbol_matrix(self) -> np.ndarray:
        """a(S_I) for the config symbol a, built at most once per run:
        `compressed` reads its adjoint, `adjoint` its closed side and
        `commutant` its row 0.  A matrix that overflows raises
        NonFiniteError in each check that reads it."""
        with np.errstate(over="ignore", invalid="ignore"):
            A = _poly_of_matrix(self.symbol, self.inner.tm_shift)
        if not np.all(np.isfinite(A)):
            raise NonFiniteError("a(S_I) overflows: the symbol's coefficients are too large")
        return A

    @cached_property
    def clark(self) -> tuple:
        """(nodes, weights, e_k at the nodes) of one `clark_rule` of
        z^extra * I, built at most once per run for every selected check
        that pairs on one; extra is the largest need among them
        (_CLARK_EXTRA)."""
        extra = max(need(self) for name, need in _CLARK_EXTRA.items() if name in self.checks)
        nodes, weights = clark_rule(self.inner, extra=extra)
        return nodes, weights, _tm_rows(self.inner, nodes)

    def to_json_dict(self) -> dict:
        return {
            "inner": self.inner.to_json_dict(),
            "symbol": _complex_list(self.symbol),
            "p": self.params.p,
            "checks": list(self.checks),
            "seed": self.seed,
        }


def parse_config(doc) -> RunConfig:
    """Build a RunConfig from a decoded JSON document; every defect is a
    ConfigError raised before any computation starts."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    known = {"inner", "symbol", "p", "checks", "seed"}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key in ("inner", "symbol"):
        if key not in doc:
            raise ConfigError(f"config key '{key}' is required")

    inner_doc = doc["inner"]
    if not isinstance(inner_doc, dict) or "zeros" not in inner_doc:
        raise ConfigError("config 'inner' must be an object with a 'zeros' list")
    extra = sorted(set(inner_doc) - {"zeros", "constant"})
    if extra:
        raise ConfigError(f"unknown inner keys: {', '.join(extra)}")
    if not isinstance(inner_doc["zeros"], list) or not inner_doc["zeros"]:
        raise ConfigError("inner 'zeros' must be a nonempty list")
    zeros = [
        _parse_complex(z, f"inner zero {i}") for i, z in enumerate(inner_doc["zeros"])
    ]
    constant = (
        _parse_complex(inner_doc["constant"], "inner constant")
        if "constant" in inner_doc
        else 1.0 + 0.0j
    )

    if not isinstance(doc["symbol"], list) or not doc["symbol"]:
        raise ConfigError("config 'symbol' must be a nonempty coefficient list")
    symbol = np.array(
        [_parse_complex(c, f"symbol coefficient {i}") for i, c in enumerate(doc["symbol"])]
    )
    if np.all(symbol == 0.0):
        raise ConfigError("symbol polynomial is identically zero")
    if len(symbol) - 1 > DEFAULT_N:
        raise ConfigError(f"symbol degree {len(symbol) - 1} exceeds {DEFAULT_N}")

    p = _finite(doc.get("p", 2.0))
    if p is None:
        raise ConfigError(f"config 'p' must be a finite number, got {doc['p']!r}")

    checks_doc = doc.get("checks", list(CHECKS))
    if not isinstance(checks_doc, list) or not all(isinstance(c, str) for c in checks_doc):
        raise ConfigError("config 'checks' must be a list of check names")
    bad = sorted(set(checks_doc) - set(CHECKS))
    if bad:
        raise ConfigError(f"unknown checks: {', '.join(bad)}; allowed: {', '.join(CHECKS)}")
    checks = tuple(c for c in CHECKS if c in checks_doc)
    if not checks:
        raise ConfigError("config 'checks' selects nothing")

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"config 'seed' must be a nonnegative integer, got {seed!r}")

    try:
        inner = BlaschkeProduct(tuple(zeros), constant)
        params = HardyParams(p)
    except HardyOpsError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(inner, symbol, params, checks, seed)


def load_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{what} file {path} nests too deeply to decode") from exc


def _check_corona(config: RunConfig) -> dict:
    bound = min_abs_at_zeros(config.symbol, config.inner)
    return {
        "delta": config.delta,
        "min_abs_at_inner_zeros": bound,
        "invertible": config.delta > 0.0,
        "consistent": (config.delta > 0.0) == (bound > ZERO_TOL),
    }


def _check_bezout(config: RunConfig) -> dict:
    try:
        cert = bezout_solve(config.symbol, config.inner, delta=config.delta)
    except CommonZeroError as exc:
        return {"error": "common_zero", "message": str(exc)}
    return {
        "delta": cert.delta,
        "u": cert.u.to_json_dict(),
        "v": cert.v.to_json_dict(),
        "residual": cert.residual,
        "sup_u": cert.sup_u,
        "sup_v": cert.sup_v,
        "consistent": cert.consistent,
    }


def _check_compressed(config: RunConfig) -> dict:
    # a(S_I)^* as `tm_compression` sums it, with a zero analytic part; it
    # is upper triangular, so its eigenvalues are its diagonal conj(a(lambda_k))
    M = 0.0 + config.symbol_matrix.conj().T
    sv = np.linalg.svd(M, compute_uv=False)
    return {
        "sigma_min": float(sv[-1]),
        "singular_values": [float(s) for s in sv],
        "eigenvalues": _complex_list(np.sort_complex(np.diagonal(M))),
        "invertible": float(sv[-1]) > INVERTIBILITY_TOL,
    }


def _check_commutant(config: RunConfig) -> dict:
    """Recover the symbols of a(S_I) and of n - 1 seeded combinations of
    I, S_I, ..., S_I^(n-1) in one batched `symbol_recover` pass; the
    commutant has dimension n because k_0 is cyclic, with the Newton
    matrix's condition number as the margin.

    Row 0 is the run's shared a(S_I).  One stack of the powers S_I^j,
    j < n, builds the n - 1 combinations by one tensordot and serves both
    of `symbol_recover`'s rebuilds, so the check costs O(n^4).
    """
    inner = config.inner
    n = inner.degree
    rng = np.random.default_rng(config.seed)
    combos = rng.standard_normal((n - 1, n)) + 1j * rng.standard_normal((n - 1, n))
    powers = _powers(inner.tm_shift)
    mats = np.concatenate(([config.symbol_matrix], _poly_stack(combos, powers)))
    coeffs, residuals, condition = symbol_recover(inner, mats, powers)
    return {
        "dimension": n,
        "cyclicity_condition": condition,
        "symbols": [_complex_list(c) for c in coeffs],
        "recovery_residuals": residuals.tolist(),
    }


def _check_adjoint(config: RunConfig) -> dict:
    """The adjoint defect of a(S_I) on the run's shared a(S_I) and Clark
    rule, which is also the projection check's when both run."""
    defect = adjoint_defect(config.inner, config.symbol, config.symbol_matrix, config.clark)
    return {"defect": defect, "p": config.params.p, "q": config.params.q}


def _check_projection(config: RunConfig) -> dict:
    """P_I f in closed form, f(S_I) k_0 from `tm_project`, checked by exact
    pairings for seeded random polynomials f and h of degree 12.

    The pairings sum over the run's shared Clark rule: the n + 13 points
    of `clark_rule(inner, extra=13)`, or more when the adjoint check needs
    more, which are exact on K_{z^13 I}: that space holds f, I * h and
    every e_k.  For the coordinates c of P_I f, the idempotence defect is
    the norm over j of <P_I f, e_j> - c_j, the complement defect that of
    <f - P_I f, e_j>, and the annihilator defect |<I * h, P_I f>|, each
    relative to max(1, ||f||).  No grid enters.
    """
    inner = config.inner
    rng = np.random.default_rng(config.seed)
    # real then imaginary parts of f, then of h, for each sample in turn
    draws = rng.standard_normal((_PROJECTION_SAMPLES, 2, 2, _PROJECTION_DEGREE + 1))
    f, h = np.moveaxis(draws[:, :, 0] + 1j * draws[:, :, 1], 1, 0)
    scale = np.maximum(1.0, np.linalg.norm(f, axis=-1))
    c = tm_project(inner, f)
    nodes, weights, e = config.clark
    pf = c @ e
    f_vals = np.polynomial.polynomial.polyval(nodes, f.T)
    ih_vals = blaschke_eval(inner, nodes) * np.polynomial.polynomial.polyval(nodes, h.T)
    pairings = (weights * np.stack((pf, f_vals - pf))) @ e.conj().T
    idem = np.linalg.norm(pairings[0] - c, axis=-1) / scale
    complement = np.linalg.norm(pairings[1], axis=-1) / scale
    annihilator = np.abs((weights * ih_vals * pf.conj()).sum(axis=-1)) / scale
    return {
        "samples": _PROJECTION_SAMPLES,
        "seed": config.seed,
        "idempotence_defect": float(idem.max()),
        "complement_defect": float(complement.max()),
        "annihilator_defect": float(annihilator.max()),
    }


#: The `extra` of the shared Clark rule each pairing check needs: deg(a)
#: for `adjoint`, and 13 for `projection`, whose degree-12 f, I * h and
#: e_k lie in K_{z^13 I}.
_CLARK_EXTRA = {
    "adjoint": lambda config: len(as_poly(config.symbol)) - 1,
    "projection": lambda config: _PROJECTION_DEGREE + 1,
}


#: Report checks in canonical order: name -> (check, gated keys, tolerance
#: name).  A check maps a RunConfig to its entry; a gated value above
#: TOLERANCES[tolerance name] makes the report a numerical failure.  The
#: other printed tolerances are enforced by the library calls themselves.
CHECKS = {
    "corona": (_check_corona, (), None),
    "bezout": (_check_bezout, (), None),
    "compressed": (_check_compressed, (), None),
    "commutant": (_check_commutant, (), None),
    "adjoint": (_check_adjoint, ("defect",), "adjoint_defect"),
    "projection": (
        _check_projection,
        ("idempotence_defect", "complement_defect", "annihilator_defect"),
        "projection_defect",
    ),
}


def _non_finite(value, path: str):
    """The path of the first number in `value` that is NaN or infinite, in
    the order the report prints it, or None.  A list that numpy reads as an
    array of finite floats holds no such number and is passed over whole,
    which spares the walk over its entries; any other list is walked."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else key, value[key]) for key in sorted(value))
    elif isinstance(value, (list, tuple)):
        try:
            if np.all(np.isfinite(np.asarray(value, dtype=float))):
                return None
        except (TypeError, ValueError, OverflowError):
            pass
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    for where, v in items:
        found = _non_finite(v, where)
        if found is not None:
            return found
    return None


def run_report(config: RunConfig) -> tuple[dict, bool]:
    """Execute the selected checks; returns (document, numerical_failure).

    A check that raises, or whose entry holds a number that is NaN or
    infinite, becomes an error entry and a numerical failure; the second
    kind names the check and the key."""
    doc = {
        "schema": SCHEMA_VERSION,
        "config": config.to_json_dict(),
        "tolerances": dict(TOLERANCES),
        "checks": {},
    }
    failure = False
    for name in config.checks:
        check, keys, tol = CHECKS[name]
        try:
            entry = check(config)
            where = _non_finite(entry, "")
            if where is not None:
                raise NonFiniteError(f"{name} check: {where} is not a finite number")
        except HardyOpsError as exc:
            entry = {"error": type(exc).__name__, "message": str(exc)}
            failure = True
        else:
            failure |= not all(entry[key] <= TOLERANCES[tol] for key in keys)
        doc["checks"][name] = entry
    return doc, failure


def canonical_json(doc) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)` plus a
    final newline, byte for byte, written without the pure-Python indent
    encoder: strings by the C `encode_basestring_ascii`, numbers by
    `int.__repr__` and `float.__repr__`.  NaN and infinities raise
    ValueError, any other type than the JSON ones TypeError."""
    parts = []
    _write_json(doc, parts, "\n")
    parts.append("\n")
    return "".join(parts)


def _write_json(value, parts: list, newline: str) -> None:
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        parts.append(float.__repr__(value))
    elif isinstance(value, (dict, list, tuple)):
        if not value:
            parts.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = newline + "  "
        if isinstance(value, dict):
            open_, close = "{", "}"
            for key in sorted(value):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                parts.append(open_ + inner + encode_basestring_ascii(key) + ": ")
                _write_json(value[key], parts, inner)
                open_ = ","
        else:
            open_, close = "[", "]"
            for item in value:
                parts.append(open_ + inner)
                _write_json(item, parts, inner)
                open_ = ","
        parts.append(newline + close)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("1" if cell else "0")
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                cells.append(format(float(cell), ".12g"))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def run_sweep(config: RunConfig, family) -> str:
    """Tabulate a one-parameter family as CSV.

    `symbol_zero` sweeps a degree-one symbol z - w over w = zero + offset
    and records invertibility data for each member.  `probe_radius` runs
    the near-degenerate kernel probe at z = r * exp(i * angle) over the
    given radii.
    """
    if not isinstance(family, dict) or "kind" not in family:
        raise ConfigError("family must be a JSON object with a 'kind'")
    kind = family["kind"]
    if kind == "symbol_zero":
        extra = sorted(set(family) - {"kind", "zero", "offsets"})
        if extra:
            raise ConfigError(f"unknown family keys: {', '.join(extra)}")
        if "zero" not in family or "offsets" not in family:
            raise ConfigError("symbol_zero family needs 'zero' and 'offsets'")
        base = _parse_complex(family["zero"], "family zero")
        if not isinstance(family["offsets"], list) or not family["offsets"]:
            raise ConfigError("family 'offsets' must be a nonempty list")
        offsets = [
            _parse_complex(t, f"family offset {i}") for i, t in enumerate(family["offsets"])
        ]
        inner = config.inner
        symbols = np.array([[-(base + t), 1.0] for t in offsets])
        if not np.all(np.isfinite(symbols)):
            raise ConfigError("family zero + offset overflows")
        # every row's a(S_I)^* in one stacked SVD
        adjoints = _poly_of_matrix(symbols, inner.tm_shift).conj().swapaxes(-1, -2)
        sigmas = np.linalg.svd(adjoints, compute_uv=False)[:, -1]
        # every row's delta and Bezout pair from one stacked call each
        certs = bezout_solve(symbols, inner)
        bounds = min_abs_at_zeros(symbols, inner)
        rows = []
        for t, cert, bound, sigma in zip(offsets, certs, bounds, sigmas):
            w = base + t
            if isinstance(cert, IllConditionedError):
                raise IllConditionedError(
                    f"symbol_zero row at offset {t:.12g}, zero {w:.12g}: {cert}"
                ) from cert
            if isinstance(cert, CommonZeroError):
                delta, sup_u, sup_v = 0.0, float("nan"), float("nan")
            else:
                delta, sup_u, sup_v = cert.delta, cert.sup_u, cert.sup_v
            rows.append(
                (
                    t.real,
                    t.imag,
                    w.real,
                    w.imag,
                    delta,
                    bound,
                    sigma,
                    sigma > INVERTIBILITY_TOL,
                    sup_u,
                    sup_v,
                )
            )
        header = (
            "offset_re",
            "offset_im",
            "zero_re",
            "zero_im",
            "delta",
            "min_abs_at_inner_zeros",
            "sigma_min",
            "invertible",
            "sup_u",
            "sup_v",
        )
        return _csv(header, rows)
    if kind == "probe_radius":
        extra = sorted(set(family) - {"kind", "radii", "angle"})
        if extra:
            raise ConfigError(f"unknown family keys: {', '.join(extra)}")
        if "radii" not in family:
            raise ConfigError("probe_radius family needs 'radii'")
        radii = family["radii"]
        if not isinstance(radii, list) or not radii or None in map(_finite, radii):
            raise ConfigError("family 'radii' must be a nonempty list of finite numbers")
        if not all(0.0 <= r < 1.0 for r in radii):
            raise ConfigError("family radii must lie in [0, 1)")
        angle = _finite(family.get("angle", 0.0))
        if angle is None:
            raise ConfigError(f"family 'angle' must be a finite number, got {family['angle']!r}")
        probes = [r * np.exp(1j * angle) for r in radii]
        report = near_degenerate_probe(
            config.inner, config.symbol, probes, config.params
        )
        return report.to_csv()
    raise ConfigError(f"unknown family kind {kind!r}; allowed: symbol_zero, probe_radius")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {out}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardyops",
        description="checks and sweeps for Toeplitz operators on model spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rp = sub.add_parser("report", help="run checks for one symbol/inner pair")
    rp.add_argument("--config", required=True, help="path to the run config JSON")
    rp.add_argument("--out", help="output path (stdout when omitted)")
    sp = sub.add_parser("sweep", help="tabulate a one-parameter family as CSV")
    sp.add_argument("--config", required=True, help="path to the run config JSON")
    sp.add_argument("--family", required=True, help="path to the family JSON")
    sp.add_argument("--out", help="output path (stdout when omitted)")
    return parser


#: Built once per process; `parse_args` keeps no state between calls, and
#: a build costs several times a parse.
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        config = parse_config(load_json(args.config, "config"))
        if args.command == "report":
            doc, failure = run_report(config)
            _emit(canonical_json(doc), args.out)
            return 3 if failure else 0
        family = load_json(args.family, "family")
        _emit(run_sweep(config, family), args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HardyOpsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
