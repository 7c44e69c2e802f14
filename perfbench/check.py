"""Output checker for the benchmark, computed apart from hardyops.

Everything here is rebuilt from the benchmark's own inputs (the zeros of
the inner function and the symbol coefficients) with numpy alone; nothing
is compared against a stored copy of an earlier output and nothing is
imported from the package under test.

The exact algebra is the compressed shift S_I in the Takenaka-Malmquist
basis, which has a closed lower-triangular form, and a(S_I) for a
polynomial symbol a.  The compressed coanalytic operator of a report is
a(S_I)^*, so its eigenvalues are conj(a(lambda_k)) and its singular values
are those of a(S_I).

Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

#: Assumed bound on the entry error of a matrix the program builds on its
#: FFT route, relative to max(1, ||A||); eigenvalue tolerances scale it by
#: each eigenvalue's condition number.
MATRIX_ERROR = 1e-10

#: Relative slack for quantities that are exact up to rounding.
ROUNDING = 1e-9

#: CSV cells carry 12 significant digits.
CSV_DIGITS = 1e-11

_BEZOUT_POINTS = 4096

#: Thresholds held here rather than read from the output under test, so
#: that a looser tolerance printed by the program cannot loosen a check; a
#: report that prints another value for one of them is rejected.  The
#: adjoint and projection defects are held to the tolerances the report
#: prints.
FIXED_TOLERANCES = {
    "bezout_residual": 1e-9,
    "recovery_residual": 1e-7,
    "invertibility_sigma": 1e-10,
}


def complex_of(value) -> complex:
    """A config number or [re, im] pair as a complex number."""
    if isinstance(value, (list, tuple)):
        return complex(value[0], value[1])
    return complex(value)


def horner(coeffs, z):
    """Ascending polynomial coefficients evaluated at z by Horner's rule."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape, dtype=complex)
    for c in reversed(list(coeffs)):
        out = out * z + c
    return out


def blaschke(zeros, z, constant=1.0):
    """Finite Blaschke product from its zeros, factor by factor."""
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, complex(constant), dtype=complex)
    for lam in zeros:
        out = out * (z - lam) / (1.0 - np.conj(lam) * z)
    return out


def tm_shift(zeros) -> np.ndarray:
    """Compressed shift S_I in the Takenaka-Malmquist basis of the zeros,
    taken in the given order.

    Diagonal entry i is lambda_i; below it, entry (i, j) is
    sqrt(1-|lambda_i|^2) * sqrt(1-|lambda_j|^2) * prod_{j<l<i} (-conj(lambda_l)).
    """
    lam = np.asarray(zeros, dtype=complex)
    n = len(lam)
    w = np.sqrt(1.0 - np.abs(lam) ** 2)
    S = np.diag(lam)
    for j in range(n):
        run = 1.0 + 0.0j
        for i in range(j + 1, n):
            S[i, j] = w[i] * w[j] * run
            run *= -np.conj(lam[i])
    return S


def poly_of_matrix(coeffs, S) -> np.ndarray:
    """a(S) for ascending coefficients, by Horner's rule."""
    out = np.zeros_like(S)
    eye = np.eye(S.shape[0], dtype=complex)
    for c in reversed(list(coeffs)):
        out = out @ S + c * eye
    return out


def eigen_conditions(A):
    """Eigenvalues of A and the condition number of each."""
    values, right = np.linalg.eig(A)
    left = np.linalg.inv(right).conj().T
    num = np.linalg.norm(left, axis=0) * np.linalg.norm(right, axis=0)
    den = np.abs(np.sum(left.conj() * right, axis=0))
    return values, num / den


def match_problems(what, expected, tols, got) -> list:
    """Match each expected value to a distinct reported one, nearest first,
    and report every pair further apart than its tolerance."""
    got = list(got)
    if len(got) != len(expected):
        return [f"{what}: {len(got)} values reported, {len(expected)} expected"]
    dist = np.abs(np.subtract.outer(np.asarray(expected), np.asarray(got)))
    free_rows, free_cols = set(range(len(expected))), set(range(len(got)))
    problems = []
    while free_rows:
        i, j = min(
            ((i, j) for i in free_rows for j in free_cols), key=lambda ij: dist[ij]
        )
        if dist[i, j] > tols[i]:
            problems.append(
                f"{what}: expected {expected[i]:.12g}, nearest reported "
                f"{got[j]:.12g} (off by {dist[i, j]:.3e} > {tols[i]:.3e})"
            )
        free_rows.discard(i)
        free_cols.discard(j)
    return problems


class Pair:
    """The symbol a and the inner function I of one config, with the exact
    matrices built from them."""

    def __init__(self, config):
        self.zeros = [complex_of(z) for z in config["inner"]["zeros"]]
        self.constant = complex_of(config["inner"].get("constant", 1.0))
        self.symbol = [complex_of(c) for c in config["symbol"]]
        self.p = float(config.get("p", 2.0))
        self.S = tm_shift(self.zeros)

    def min_abs_at_zeros(self) -> float:
        return float(np.abs(horner(self.symbol, self.zeros)).min())

    def symbol_matrix(self) -> np.ndarray:
        return poly_of_matrix(self.symbol, self.S)


def _delta_problems(where, delta, bound) -> list:
    """delta = inf |a| + |I| over the disc is positive and at most the value
    min |a(lambda_k)| it takes at the zeros of I."""
    if 0.0 < delta <= bound * (1.0 + ROUNDING) + CSV_DIGITS:
        return []
    return [f"{where}: delta {delta!r} outside (0, min|a(lambda_k)| = {bound!r}]"]


def _corona_problems(pair: Pair, entry) -> list:
    bound = pair.min_abs_at_zeros()
    problems = []
    if abs(entry["min_abs_at_inner_zeros"] - bound) > ROUNDING * max(1.0, bound):
        problems.append(
            f"corona: min |a| at zeros {entry['min_abs_at_inner_zeros']!r} != {bound!r}"
        )
    problems += _delta_problems("corona", entry["delta"], bound)
    if entry["invertible"] is not True or entry["consistent"] is not True:
        problems.append("corona: pair not reported invertible and consistent")
    return problems


def _rational(doc):
    num = [complex_of(c) for c in doc["num"]]
    den = [complex_of(c) for c in doc["den"]]
    return lambda z: horner(num, z) / horner(den, z)


def _bezout_problems(pair: Pair, entry, tol) -> list:
    u, v = _rational(entry["u"]), _rational(entry["v"])
    # Half a step off the program's own check points.
    pts = np.exp(2j * np.pi * (np.arange(_BEZOUT_POINTS) + 0.5) / _BEZOUT_POINTS)
    lhs = horner(pair.symbol, pts) * u(pts) + blaschke(pair.zeros, pts, pair.constant) * v(pts)
    residual = float(np.abs(lhs - 1.0).max())
    problems = _delta_problems("bezout", entry["delta"], pair.min_abs_at_zeros())
    if entry["consistent"] is not True:
        problems.append("bezout: certificate not consistent")
    if not residual <= tol:
        problems.append(f"bezout: a*u + I*v - 1 reaches {residual:.3e} > {tol:.1e}")
    if not entry["residual"] <= tol:
        problems.append(f"bezout: reported residual {entry['residual']!r} > {tol:.1e}")
    floor = (1.0 - ROUNDING) / pair.min_abs_at_zeros()
    if not entry["sup_u"] >= floor:
        problems.append(f"bezout: sup|u| {entry['sup_u']!r} < 1/min|a(lambda_k)| = {floor!r}")
    return problems


def _compressed_problems(pair: Pair, entry, sigma_tol) -> list:
    A = pair.symbol_matrix()
    sv = np.linalg.svd(A, compute_uv=False)
    scale = max(1.0, float(sv[0]))
    problems = match_problems(
        "compressed singular values",
        list(sv),
        [MATRIX_ERROR * scale] * len(sv),
        entry["singular_values"],
    )
    expected = np.conj(horner(pair.symbol, pair.zeros))
    # Each exact eigenvalue takes the condition number of the nearest
    # computed eigenvalue of the exact matrix.
    computed, kappa = eigen_conditions(A.conj().T)
    kappa = np.array([kappa[int(np.argmin(np.abs(computed - e)))] for e in expected])
    problems += match_problems(
        "compressed eigenvalues",
        list(expected),
        list(MATRIX_ERROR * scale * kappa + ROUNDING * scale),
        [complex_of(z) for z in entry["eigenvalues"]],
    )
    if entry["sigma_min"] != entry["singular_values"][-1]:
        problems.append("compressed: sigma_min is not the last singular value")
    if entry["invertible"] != (entry["sigma_min"] > sigma_tol):
        problems.append("compressed: invertible flag disagrees with sigma_min")
    return problems


def _commutant_problems(pair: Pair, entry, tol) -> list:
    n = len(pair.zeros)
    problems = []
    if entry["dimension"] != n:
        problems.append(f"commutant: dimension {entry['dimension']} != {n}")
    symbols = np.array([[complex_of(c) for c in s] for s in entry["symbols"]])
    if symbols.shape != (n, n):
        return problems + [f"commutant: symbols have shape {symbols.shape}, expected {(n, n)}"]
    sv = np.linalg.svd(symbols, compute_uv=False)
    if not sv[-1] > n * np.finfo(float).eps * sv[0]:
        problems.append(f"commutant: recovered symbols have rank < {n} (sigma {sv[-1]:.3e})")
    worst = max(entry["recovery_residuals"])
    if not worst <= tol:
        problems.append(f"commutant: recovery residual {worst:.3e} > {tol:.1e}")
    return problems


def _defect_problems(name, entry, keys, tol) -> list:
    return [
        f"{name}: {key} {entry[key]!r} > tolerance {tol:.1e}"
        for key in keys
        if not entry[key] <= tol
    ]


def check_report(text: str, config) -> list:
    """Problems with one `hardyops report` output for `config`."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    pair = Pair(config)
    tols = doc["tolerances"]
    checks = doc["checks"]
    if sorted(checks) != sorted(config["checks"]):
        return [f"report has checks {sorted(checks)}, asked for {sorted(config['checks'])}"]
    problems = [
        f"report prints tolerance {key} = {tols.get(key)!r}, not {value!r}"
        for key, value in FIXED_TOLERANCES.items()
        if tols.get(key) != value
    ]
    for name, entry in checks.items():
        if "error" in entry:
            problems.append(f"{name}: error entry {entry['error']}: {entry.get('message')}")
        elif name == "corona":
            problems += _corona_problems(pair, entry)
        elif name == "bezout":
            problems += _bezout_problems(pair, entry, FIXED_TOLERANCES["bezout_residual"])
        elif name == "compressed":
            problems += _compressed_problems(pair, entry, FIXED_TOLERANCES["invertibility_sigma"])
        elif name == "commutant":
            problems += _commutant_problems(pair, entry, FIXED_TOLERANCES["recovery_residual"])
        elif name == "adjoint":
            problems += _defect_problems("adjoint", entry, ["defect"], tols["adjoint_defect"])
            if entry["p"] != pair.p or abs(1 / entry["p"] + 1 / entry["q"] - 1.0) > ROUNDING:
                problems.append(f"adjoint: exponents p={entry['p']}, q={entry['q']} for p={pair.p}")
        elif name == "projection":
            problems += _defect_problems(
                "projection",
                entry,
                ["idempotence_defect", "complement_defect", "annihilator_defect"],
                tols["projection_defect"],
            )
    return problems


def _rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def _cell(row, key) -> float:
    return float(row[key])


def check_symbol_zero_csv(text: str, config, family) -> list:
    """Problems with one `symbol_zero` sweep table.

    Row by row: the zero column is the family zero plus the offset,
    min |a| at the inner zeros is recomputed, sigma_min is that of
    a(S_I) with a(z) = z - w, delta lies in (0, min |a(lambda_k)|] and is
    exactly 0 on the common-zero row, and sup|u| >= 1/min |a(lambda_k)|
    on every other row.  Only the common-zero row may have nan sup-norms.
    """
    pair = Pair(config)
    base = complex_of(family["zero"])
    offsets = [complex_of(t) for t in family["offsets"]]
    rows = _rows(text)
    if len(rows) != len(offsets):
        return [f"symbol_zero: {len(rows)} rows for {len(offsets)} offsets"]
    problems = []
    for t, row in zip(offsets, rows):
        where = f"symbol_zero offset {t}"
        w = base + t
        got_t = complex(_cell(row, "offset_re"), _cell(row, "offset_im"))
        got_w = complex(_cell(row, "zero_re"), _cell(row, "zero_im"))
        if abs(got_t - t) > CSV_DIGITS * max(1.0, abs(t)) or abs(got_w - w) > CSV_DIGITS:
            problems.append(f"{where}: row labelled offset {got_t}, zero {got_w}")
        bound = float(np.abs(np.array(pair.zeros) - w).min())
        if abs(_cell(row, "min_abs_at_inner_zeros") - bound) > CSV_DIGITS * max(1.0, bound):
            problems.append(f"{where}: min |a| {row['min_abs_at_inner_zeros']} != {bound!r}")
        A = pair.S - w * np.eye(len(pair.zeros))
        sv = np.linalg.svd(A, compute_uv=False)
        sigma = _cell(row, "sigma_min")
        if abs(sigma - sv[-1]) > MATRIX_ERROR * max(1.0, sv[0]) + CSV_DIGITS * sigma:
            problems.append(f"{where}: sigma_min {row['sigma_min']} != {float(sv[-1]):.12g}")
        if row["invertible"] != ("1" if sigma > FIXED_TOLERANCES["invertibility_sigma"] else "0"):
            problems.append(f"{where}: invertible flag {row['invertible']} for sigma {sigma}")
        delta = _cell(row, "delta")
        sup_u = _cell(row, "sup_u")
        if t == 0:
            if delta != 0.0:
                problems.append(f"{where}: delta {row['delta']} on the common-zero row")
            if not (math.isnan(sup_u) and math.isnan(_cell(row, "sup_v"))):
                problems.append(f"{where}: finite sup-norms on the common-zero row")
            continue
        problems += _delta_problems(where, delta, bound)
        if not sup_u >= (1.0 - ROUNDING) / bound:
            problems.append(f"{where}: sup|u| {row['sup_u']} < 1/min|a(lambda_k)| = {1.0 / bound!r}")
    return problems


def check_probe_csv(text: str, config, family) -> list:
    """Problems with one `probe_radius` sweep table at p = 2.

    Each probe point is r * exp(i * angle); |a(z)| + |I(z)| is recomputed,
    sigma_min is that of a(S_I), and the probe obeys the lower bound
    ||T_conj(a) f|| >= sigma_min * ||f||.
    """
    pair = Pair(config)
    sv = np.linalg.svd(pair.symbol_matrix(), compute_uv=False)
    angle = float(family.get("angle", 0.0))
    radii = family["radii"]
    rows = _rows(text)
    if len(rows) != len(radii):
        return [f"probe: {len(rows)} rows for {len(radii)} radii"]
    problems = []
    for r, row in zip(radii, rows):
        where = f"probe r={r}"
        z = r * np.exp(1j * angle)
        got_z = complex(_cell(row, "z_re"), _cell(row, "z_im"))
        if abs(got_z - z) > CSV_DIGITS:
            problems.append(f"{where}: row labelled z={got_z}, expected {z}")
        value = abs(horner(pair.symbol, z)) + abs(blaschke(pair.zeros, z, pair.constant))
        if abs(_cell(row, "corona_value") - value) > CSV_DIGITS * max(1.0, value):
            problems.append(f"{where}: corona_value {row['corona_value']} != {float(value):.12g}")
        sigma = _cell(row, "sigma_min")
        if abs(sigma - sv[-1]) > MATRIX_ERROR * max(1.0, sv[0]) + CSV_DIGITS * sigma:
            problems.append(f"{where}: sigma_min {row['sigma_min']} != {float(sv[-1]):.12g}")
        if _cell(row, "p") != pair.p:
            problems.append(f"{where}: p column {row['p']} for p={pair.p}")
        f_norm, taf = _cell(row, "f_norm"), _cell(row, "Taf_norm")
        if not (f_norm > 0.0 and taf >= (1.0 - ROUNDING) * sv[-1] * f_norm):
            problems.append(f"{where}: Taf_norm {taf} < sigma_min * f_norm = {float(sv[-1]) * f_norm:.12g}")
    return problems
