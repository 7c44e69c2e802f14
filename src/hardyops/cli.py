"""Deterministic command line front end.

Two subcommands: `report` runs a configurable battery of checks for one
symbol/inner pair and emits canonical JSON (sorted keys, two-space indent,
LF endings), `sweep` tabulates a one-parameter family as CSV with 12
significant digits.  Identical configs produce byte-identical artifacts;
randomized checks draw from a generator seeded by the config.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct
from .corona import (
    bezout_solve,
    corona_delta,
    min_abs_at_zeros,
    near_degenerate_probe,
)
from .errors import (
    CommonZeroError,
    ConfigError,
    HardyOpsError,
)
from .hardy import (
    BoundaryFunction,
    CircleGrid,
    DEFAULT_GRID,
    HardyParams,
    hp_norm,
    pairing,
)
from .model_space import _project_samples, tm_basis
from .operators import (
    commutant_basis,
    commutation_singular_values,
    compressed_matrix,
    symbol_recover,
)

SCHEMA_VERSION = 1

ALLOWED_CHECKS = ("corona", "bezout", "compressed", "commutant", "adjoint", "projection")

#: sigma_min above this counts as invertible in reports.
INVERTIBILITY_TOL = 1e-10

TOLERANCES = {
    "bezout_residual": 1e-9,
    "invertibility_sigma": INVERTIBILITY_TOL,
    "adjoint_defect": 1e-8,
    "projection_defect": 1e-9,
    "recovery_residual": 1e-7,
}

_PROJECTION_SAMPLES = 5
_PROJECTION_DEGREE = 12


def _parse_complex(value, where: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in value)
    ):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def _complex_list(z) -> list:
    return [[w.real, w.imag] for w in z]


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated run description: the pair (symbol, inner), the exponent,
    the grid, the selected checks, and the seed for randomized checks."""

    inner: BlaschkeProduct
    symbol: np.ndarray
    params: HardyParams
    grid: CircleGrid
    checks: tuple
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "inner": self.inner.to_json_dict(),
            "symbol": _complex_list(self.symbol),
            "p": self.params.p,
            "grid": {"m": self.grid.m, "n": self.grid.n},
            "checks": list(self.checks),
            "seed": self.seed,
        }


def parse_config(doc) -> RunConfig:
    """Build a RunConfig from a decoded JSON document; every defect is a
    ConfigError raised before any computation starts."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    known = {"inner", "symbol", "p", "grid", "checks", "seed"}
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

    p = doc.get("p", 2.0)
    if not isinstance(p, (int, float)) or isinstance(p, bool):
        raise ConfigError(f"config 'p' must be a number, got {p!r}")

    grid_doc = doc.get("grid", {"m": DEFAULT_GRID.m, "n": DEFAULT_GRID.n})
    if (
        not isinstance(grid_doc, dict)
        or set(grid_doc) != {"m", "n"}
        or not all(isinstance(grid_doc[k], int) for k in ("m", "n"))
    ):
        raise ConfigError("config 'grid' must be an object {\"m\": int, \"n\": int}")

    checks_doc = doc.get("checks", list(ALLOWED_CHECKS))
    if not isinstance(checks_doc, list) or not all(isinstance(c, str) for c in checks_doc):
        raise ConfigError("config 'checks' must be a list of check names")
    bad = sorted(set(checks_doc) - set(ALLOWED_CHECKS))
    if bad:
        raise ConfigError(
            f"unknown checks: {', '.join(bad)}; allowed: {', '.join(ALLOWED_CHECKS)}"
        )
    checks = tuple(c for c in ALLOWED_CHECKS if c in checks_doc)
    if not checks:
        raise ConfigError("config 'checks' selects nothing")

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"config 'seed' must be a nonnegative integer, got {seed!r}")

    try:
        inner = BlaschkeProduct(tuple(zeros), constant)
        params = HardyParams(float(p))
        grid = CircleGrid(m=grid_doc["m"], n=grid_doc["n"])
    except (HardyOpsError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if len(symbol) - 1 > grid.n:
        raise ConfigError(
            f"symbol degree {len(symbol) - 1} exceeds the grid band n={grid.n}"
        )
    return RunConfig(inner, symbol, params, grid, checks, seed)


def load_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from exc


def _check_corona(config: RunConfig) -> dict:
    delta = corona_delta(config.symbol, config.inner)
    bound = min_abs_at_zeros(config.symbol, config.inner)
    return {
        "delta": delta,
        "min_abs_at_inner_zeros": bound,
        "invertible": delta > 0.0,
        "consistent": (delta > 0.0) == (bound > 1e-10),
    }


def _check_bezout(config: RunConfig) -> dict:
    try:
        cert = bezout_solve(config.symbol, config.inner)
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


def _check_compressed(config: RunConfig, basis, a_bar) -> dict:
    M = compressed_matrix(config.inner, a_bar, basis)
    sv = M.singular_values()
    ev = M.eigenvalues()
    return {
        "sigma_min": float(sv[-1]),
        "singular_values": [float(s) for s in sv],
        "eigenvalues": _complex_list(np.sort_complex(ev)),
        "invertible": float(sv[-1]) > INVERTIBILITY_TOL,
    }


def _check_commutant(config: RunConfig, basis) -> dict:
    mats = commutant_basis(config.inner, basis)
    sv = commutation_singular_values(config.inner, basis)
    n2 = basis.dimension ** 2
    dim = len(mats)
    entry = {
        "dimension": dim,
        "sigma_kept_min": float(sv[n2 - dim - 1]) if dim < n2 else 0.0,
        "sigma_dropped_max": float(sv[n2 - dim]) if dim > 0 else 0.0,
    }
    symbols = []
    residuals = []
    for X in mats:
        phi, resid = symbol_recover(config.inner, X, basis)
        symbols.append(_complex_list(phi.poly_coeffs(basis.dimension - 1)))
        residuals.append(resid)
    entry["symbols"] = symbols
    entry["recovery_residuals"] = residuals
    return entry


def _check_adjoint(config: RunConfig) -> dict:
    from .operators import adjoint_defect

    defect = adjoint_defect(config.inner, config.symbol, config.params, config.grid)
    return {"defect": defect, "p": config.params.p, "q": config.params.q}


def _random_analytic(rng, grid, degree) -> BoundaryFunction:
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return BoundaryFunction.from_poly(grid, coeffs)


def _check_projection(config: RunConfig) -> dict:
    rng = np.random.default_rng(config.seed)
    ib = config.inner.boundary(config.grid)
    ib_bar = ib.conj()
    idem = 0.0
    complement = 0.0
    annihilator = 0.0
    for _ in range(_PROJECTION_SAMPLES):
        f = _random_analytic(rng, config.grid, _PROJECTION_DEGREE)
        h = _random_analytic(rng, config.grid, _PROJECTION_DEGREE)
        pf = _project_samples(ib, f)
        ppf = _project_samples(ib, pf)
        scale = max(1.0, f.l2_norm())
        idem = max(idem, (ppf - pf).l2_norm() / scale)
        g = f - pf
        complement = max(complement, (ib_bar * g).negative_mass() / scale)
        annihilator = max(annihilator, abs(pairing(ib * h, pf)) / scale)
    return {
        "samples": _PROJECTION_SAMPLES,
        "seed": config.seed,
        "idempotence_defect": idem,
        "complement_defect": complement,
        "annihilator_defect": annihilator,
    }


def run_report(config: RunConfig) -> tuple[dict, bool]:
    """Execute the selected checks; returns (document, numerical_failure)."""
    doc = {
        "schema": SCHEMA_VERSION,
        "config": config.to_json_dict(),
        "tolerances": dict(TOLERANCES),
        "checks": {},
    }
    needs_basis = {"compressed", "commutant"} & set(config.checks)
    basis = tm_basis(config.inner, config.params, config.grid) if needs_basis else None
    a_bar = (
        BoundaryFunction.from_poly(config.grid, config.symbol).conj()
        if "compressed" in config.checks
        else None
    )
    failure = False
    for name in config.checks:
        try:
            if name == "corona":
                entry = _check_corona(config)
            elif name == "bezout":
                entry = _check_bezout(config)
            elif name == "compressed":
                entry = _check_compressed(config, basis, a_bar)
            elif name == "commutant":
                entry = _check_commutant(config, basis)
            elif name == "adjoint":
                entry = _check_adjoint(config)
            else:
                entry = _check_projection(config)
        except HardyOpsError as exc:
            entry = {"error": type(exc).__name__, "message": str(exc)}
            failure = True
        doc["checks"][name] = entry
    return doc, failure


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


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
        basis = tm_basis(config.inner, config.params, config.grid)
        rows = []
        for t in offsets:
            w = base + t
            symbol = np.array([-w, 1.0])
            bound = min_abs_at_zeros(symbol, config.inner)
            a_bar = BoundaryFunction.from_poly(config.grid, symbol).conj()
            sigma = compressed_matrix(config.inner, a_bar, basis).sigma_min()
            try:
                cert = bezout_solve(symbol, config.inner)
                delta, sup_u, sup_v = cert.delta, cert.sup_u, cert.sup_v
            except CommonZeroError:
                delta, sup_u, sup_v = 0.0, float("nan"), float("nan")
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
        if (
            not isinstance(radii, list)
            or not radii
            or not all(isinstance(r, (int, float)) and not isinstance(r, bool) for r in radii)
        ):
            raise ConfigError("family 'radii' must be a nonempty list of numbers")
        if not all(0.0 <= r < 1.0 for r in radii):
            raise ConfigError("family radii must lie in [0, 1)")
        angle = family.get("angle", 0.0)
        if not isinstance(angle, (int, float)) or isinstance(angle, bool):
            raise ConfigError(f"family 'angle' must be a number, got {angle!r}")
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
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def main(argv=None) -> int:
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
    args = parser.parse_args(argv)

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
