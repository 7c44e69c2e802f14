"""Command line front end: config validation, report structure, byte
determinism, exit codes, and sweep CSV output."""

import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import GRID_TAIL, quad_probe_norms, random_zeros, reference_grid, separated_zeros

import hardyops
from hardyops import ConfigError, IllConditionedError
from hardyops import cli, hardy, model_space
from hardyops.cli import (
    CHECKS,
    TOLERANCES,
    canonical_json,
    main,
    parse_config,
    run_report,
    run_sweep,
)
from hardyops.model_space import _project_samples


def base_config():
    return {
        "inner": {"zeros": [0.3, -0.5]},
        "symbol": [-0.7, 1.0],
        "seed": 7,
    }


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_parse_config_defaults():
    config = parse_config(base_config())
    assert config.params.p == 2.0
    assert config.checks == tuple(CHECKS)
    assert config.seed == 7
    assert config.inner.degree == 2
    np.testing.assert_allclose(config.symbol, [-0.7, 1.0])


def test_parse_config_checks_canonical_order():
    doc = base_config()
    doc["checks"] = ["projection", "corona"]
    config = parse_config(doc)
    assert config.checks == ("corona", "projection")


def test_parse_config_complex_entries():
    doc = base_config()
    doc["inner"] = {"zeros": [[0.2, 0.4]], "constant": [0.0, 1.0]}
    doc["symbol"] = [[-0.1, 0.2], 1.0]
    config = parse_config(doc)
    assert config.inner.zeros == (0.2 + 0.4j,)
    assert config.inner.constant == 1j
    assert config.symbol[0] == -0.1 + 0.2j


def bad_configs():
    def mutate(**kw):
        doc = base_config()
        doc.update(kw)
        return doc

    return [
        [1, 2],
        mutate(extra=1),
        {"symbol": [1.0]},
        {"inner": {"zeros": [0.3]}},
        mutate(inner={"constant": 1.0}),
        mutate(inner={"zeros": [0.3], "radius": 1}),
        mutate(inner={"zeros": []}),
        mutate(inner={"zeros": [1.0]}),
        mutate(inner={"zeros": ["x"]}),
        mutate(symbol=[]),
        mutate(symbol=[0.0, 0.0]),
        mutate(symbol=["x"]),
        mutate(p=True),
        mutate(p=1.0),
        mutate(p="2"),
        mutate(grid={"m": 2048, "n": 1000}),
        mutate(symbol=[0.0] * 1001 + [1.0]),
        mutate(checks=["corona", "spectral"]),
        mutate(checks=[]),
        mutate(checks="corona"),
        mutate(seed=-1),
        mutate(seed=True),
        mutate(seed="0"),
        mutate(inner=[0.3]),
        mutate(inner={"zeros": [0.3, float("nan")]}),
        mutate(inner={"zeros": [[0.3, float("inf")]]}),
        mutate(inner={"zeros": [0.3], "constant": float("nan")}),
        mutate(inner={"zeros": [10**400]}),
        mutate(symbol=[float("inf"), 1.0]),
        mutate(symbol=[[1.0, float("-inf")]]),
        mutate(p=float("nan")),
        mutate(p=10**400),
        mutate(inner={"zeros": 0.3}),
        mutate(inner={"zeros": [[0.1, 0.2, 0.3]]}),
        mutate(inner={"zeros": [0.3], "constant": 2.0}),
        mutate(symbol=[True]),
        mutate(checks=[1]),
    ]


@pytest.mark.parametrize("doc", bad_configs())
def test_parse_config_rejections(doc):
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_report_document_structure():
    config = parse_config(base_config())
    doc, failure = run_report(config)
    assert not failure
    assert set(doc) == {"schema", "config", "tolerances", "checks"}
    assert doc["schema"] == 1
    assert doc["tolerances"] == TOLERANCES
    assert set(doc["checks"]) == set(CHECKS)

    corona = doc["checks"]["corona"]
    assert corona["invertible"] and corona["consistent"]
    assert 0.0 < corona["delta"] <= corona["min_abs_at_inner_zeros"] + 1e-9

    bezout = doc["checks"]["bezout"]
    assert bezout["residual"] < TOLERANCES["bezout_residual"]
    assert bezout["consistent"]

    compressed = doc["checks"]["compressed"]
    assert compressed["invertible"]
    assert compressed["sigma_min"] == pytest.approx(
        min(compressed["singular_values"])
    )
    assert len(compressed["eigenvalues"]) == 2

    commutant = doc["checks"]["commutant"]
    assert commutant["dimension"] == 2
    assert len(commutant["symbols"]) == 2
    assert all(r < TOLERANCES["recovery_residual"] for r in commutant["recovery_residuals"])

    assert doc["checks"]["adjoint"]["defect"] < TOLERANCES["adjoint_defect"]

    projection = doc["checks"]["projection"]
    assert projection["seed"] == 7
    for key in ("idempotence_defect", "complement_defect", "annihilator_defect"):
        assert projection[key] < TOLERANCES["projection_defect"]


def test_report_byte_determinism(tmp_path):
    cfg = write_json(tmp_path, "cfg.json", base_config())
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["report", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["report", "--config", cfg, "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert b"\r" not in b1 and b1.endswith(b"\n")
    json.loads(b1)


def test_report_stdout_matches_file(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json", base_config())
    out = tmp_path / "r.json"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    assert main(["report", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.out == out.read_text(encoding="utf-8")


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_exit_code_config_errors(tmp_path, capsys):
    assert main(["report", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["report", "--config", str(bad)]) == 2
    doc = base_config()
    doc["surprise"] = 1
    cfg = write_json(tmp_path, "cfg.json", doc)
    assert main(["report", "--config", cfg]) == 2
    capsys.readouterr()
    # json reads NaN, Infinity and 1e999 (as inf); each is a config error naming its field
    for text, field in [
        ('{"inner": {"zeros": [0.3, NaN]}, "symbol": [1.0]}', "inner zero 1:"),
        ('{"inner": {"zeros": [0.3]}, "symbol": [1e999, 1.0]}', "symbol coefficient 0:"),
    ]:
        bad.write_text(text, encoding="utf-8")
        assert main(["report", "--config", str(bad)]) == 2
        assert f"config error: {field}" in capsys.readouterr().err


@pytest.mark.parametrize("what", ["config", "family"])
def test_non_utf8_input_is_a_config_error(tmp_path, capsys, what):
    cfg = write_json(tmp_path, "cfg.json", base_config())
    fam = write_json(tmp_path, "fam.json", {"kind": "symbol_zero", "zero": 0.3, "offsets": [0.1]})
    if what == "config":
        # a 0xE9 byte (Latin-1 e-acute) inside a key
        bad = Path(cfg)
        bad.write_bytes(bad.read_bytes().replace(b'"seed"', b'"s\xe9ed"'))
        argv = ["report", "--config", cfg]
    else:
        bad = Path(fam)
        bad.write_bytes(bad.read_bytes() + b"\xff")
        argv = ["sweep", "--config", cfg, "--family", fam]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {what} file {bad} is not valid UTF-8: ")


def test_deeply_nested_input_is_a_config_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    assert main(["report", "--config", str(deep)]) == 2
    assert capsys.readouterr().err == f"config error: config file {deep} nests too deeply to decode\n"


def test_exit_code_numerical_failure(tmp_path, monkeypatch):
    def boom(config):
        raise IllConditionedError("synthetic failure")

    monkeypatch.setitem(cli.CHECKS, "corona", (boom,) + cli.CHECKS["corona"][1:])
    cfg = write_json(tmp_path, "cfg.json", base_config())
    out = tmp_path / "r.json"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 3
    doc = json.loads(out.read_text(encoding="utf-8"))
    entry = doc["checks"]["corona"]
    assert entry["error"] == "IllConditionedError"
    assert entry["message"] == "synthetic failure"
    assert doc["checks"]["bezout"]["residual"] < 1e-9


def test_report_runs_corona_delta_once(tmp_path, monkeypatch):
    from hardyops import corona

    real = corona.corona_delta
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    doc = base_config()
    doc["checks"] = ["bezout"]
    alone = tmp_path / "bezout.json"
    assert main(["report", "--config", write_json(tmp_path, "b.json", doc), "--out", str(alone)]) == 0
    monkeypatch.setattr(corona, "corona_delta", counted)
    monkeypatch.setattr(cli, "corona_delta", counted)
    doc["checks"] = ["corona", "bezout"]
    both = tmp_path / "both.json"
    assert main(["report", "--config", write_json(tmp_path, "cb.json", doc), "--out", str(both)]) == 0
    assert len(calls) == 1
    report = json.loads(both.read_text(encoding="utf-8"))
    assert report["checks"]["bezout"] == json.loads(alone.read_text(encoding="utf-8"))["checks"]["bezout"]
    assert report["checks"]["bezout"]["delta"] == report["checks"]["corona"]["delta"]


def test_grid_key_is_unknown(tmp_path, capsys):
    doc = base_config()
    doc["grid"] = {"m": 2048, "n": 1000}
    assert main(["report", "--config", write_json(tmp_path, "cfg.json", doc)]) == 2
    assert "unknown config keys: grid" in capsys.readouterr().err


PROJECTION_KEYS = ("idempotence_defect", "complement_defect", "annihilator_defect")


def test_projection_defect_above_tolerance_exits_3(tmp_path, monkeypatch):
    doc = base_config()
    doc["inner"] = {"zeros": [0.999, -0.5]}
    doc["checks"] = ["projection"]
    cfg = write_json(tmp_path, "cfg.json", doc)
    out = tmp_path / "r.json"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    entry = json.loads(out.read_text(encoding="utf-8"))["checks"]["projection"]
    assert all(entry[key] <= TOLERANCES["projection_defect"] for key in PROJECTION_KEYS)
    # a closed form that is off by one percent disagrees with the pairings;
    # its image still lies in K_I, so only the complement defect sees it
    closed = cli.tm_project
    monkeypatch.setattr(cli, "tm_project", lambda inner, f: 1.01 * closed(inner, f))
    assert main(["report", "--config", cfg, "--out", str(out)]) == 3
    entry = json.loads(out.read_text(encoding="utf-8"))["checks"]["projection"]
    assert entry["complement_defect"] > TOLERANCES["projection_defect"]
    assert entry["idempotence_defect"] <= TOLERANCES["projection_defect"]
    # a pairing projection sum_j <g, e_j> e_j off by one percent in each e_j
    # is not idempotent
    monkeypatch.setattr(cli, "tm_project", closed)
    rows = cli._tm_rows
    monkeypatch.setattr(cli, "_tm_rows", lambda inner, points: 1.01 * rows(inner, points))
    assert main(["report", "--config", cfg, "--out", str(out)]) == 3
    entry = json.loads(out.read_text(encoding="utf-8"))["checks"]["projection"]
    assert entry["idempotence_defect"] > TOLERANCES["projection_defect"]


def test_projection_needs_no_grid_for_repeated_zero(tmp_path, monkeypatch):
    # a double zero at 0.98 needed 8192 FFT nodes; the check now builds no
    # grid and samples nothing
    doc = base_config()
    doc["inner"] = {"zeros": [0.98, 0.98]}
    doc["checks"] = ["projection"]
    cfg = write_json(tmp_path, "cfg.json", doc)
    out = tmp_path / "r.json"

    def refuse(*args):
        raise AssertionError("the projection check sampled a grid function")

    monkeypatch.setattr(hardy.BoundaryFunction, "from_samples", classmethod(refuse))
    monkeypatch.setattr(hardyops.BlaschkeProduct, "boundary", refuse)
    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    entry = json.loads(out.read_text(encoding="utf-8"))["checks"]["projection"]
    assert all(entry[key] <= TOLERANCES["projection_defect"] for key in PROJECTION_KEYS)


def _fft_projection_defects(inner, seed):
    """The three projection defects by FFT products, for the report's seeded
    f and h: P_I f = I * P_minus(conj(I) f) on the grid of max |lambda_k|,
    doubled until I's samples leave a tail of at most GRID_TAIL (a k-fold
    zero's coefficients decay like N**(k-1) * r**N)."""
    grid = reference_grid(max(abs(z) for z in inner.zeros))
    ib = inner.boundary(grid)
    while ib.tail_mass > GRID_TAIL:
        grid = hardy.CircleGrid(m=2 * grid.m, n=2 * grid.n)
        ib = inner.boundary(grid)
    rng = np.random.default_rng(seed)

    def draw():
        coeffs = rng.standard_normal(cli._PROJECTION_DEGREE + 1)
        return hardy.BoundaryFunction.from_poly(grid, coeffs + 1j * rng.standard_normal(len(coeffs)))

    defects = np.zeros(3)
    for _ in range(cli._PROJECTION_SAMPLES):
        f, h = draw(), draw()
        pf = _project_samples(ib, f)
        scale = max(1.0, f.l2_norm())
        defects = np.maximum(
            defects,
            [
                (_project_samples(ib, pf) - pf).l2_norm() / scale,
                (ib.conj() * (f - pf)).negative_mass() / scale,
                abs(hardy.pairing(ib * h, pf)) / scale,
            ],
        )
    return defects


def _projection_cross_check_cases():
    rng = np.random.default_rng(74)
    seeded = [list(random_zeros(rng, 10, 0.9)) for _ in range(4)]
    return [[0.999, -0.5], [0.98, 0.98]] + seeded


@pytest.mark.parametrize("zeros", _projection_cross_check_cases())
def test_projection_fft_route_within_tolerance(zeros):
    # the FFT route the report check replaced, held to the same tolerance
    # on the inputs where its grid resolves I, next to the report itself
    inner = hardyops.blaschke_make(zeros)
    assert np.all(_fft_projection_defects(inner, 7) <= cli.PROJECTION_TOL)
    doc = base_config()
    doc["inner"] = {"zeros": [[z.real, z.imag] for z in map(complex, zeros)]}
    doc["checks"] = ["projection"]
    report, failure = run_report(parse_config(doc))
    assert not failure
    assert all(report["checks"]["projection"][key] <= cli.PROJECTION_TOL for key in PROJECTION_KEYS)


def test_adjoint_defect_above_tolerance_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "adjoint_defect", lambda *args: 3e-8)
    doc = base_config()
    doc["checks"] = ["corona", "adjoint"]
    out = tmp_path / "r.json"
    assert main(["report", "--config", write_json(tmp_path, "cfg.json", doc), "--out", str(out)]) == 3
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["checks"]["adjoint"] == {"defect": 3e-8, "p": 2.0, "q": 2.0}
    assert report["checks"]["corona"]["invertible"]


def test_compressed_eigenvalues_are_the_sorted_diagonal():
    # a(S_I)^* is upper triangular: the sorted diagonal the check prints is
    # the sorted output of eigvals, to the bit
    rng = np.random.default_rng(91)
    for k in range(60):
        zeros = random_zeros(rng, int(rng.integers(1, 16)), radius=0.95)
        if k % 4 == 1 and len(zeros) > 1:
            zeros[-1] = zeros[0]
        symbol = rng.standard_normal((int(rng.integers(1, 5)), 2))
        zeros = [[z.real, z.imag] for z in zeros]
        config = parse_config({"inner": {"zeros": zeros}, "symbol": symbol.tolist()})
        M = 0.0 + config.symbol_matrix.conj().T
        assert np.array_equal(np.triu(M), M)
        eigenvalues = [complex(*z) for z in cli._check_compressed(config)["eigenvalues"]]
        np.testing.assert_array_equal(eigenvalues, np.sort_complex(np.linalg.eigvals(M)))


def test_compressed_check_near_circle_zero():
    doc = base_config()
    doc["inner"] = {"zeros": [0.99, 0.2]}
    doc["symbol"] = [0.3, 1.0]
    report, failure = run_report(parse_config(doc))
    compressed = report["checks"]["compressed"]
    np.testing.assert_allclose(
        [complex(*z) for z in compressed["eigenvalues"]], [0.5, 1.29], atol=1e-14
    )
    assert compressed["invertible"]
    assert set(report["checks"]) == set(CHECKS)
    assert not any("error" in entry for entry in report["checks"].values()) and not failure


def _forbid_everywhere(monkeypatch, originals):
    """Make every hardyops binding of the given functions raise."""

    def boom(*args, **kwargs):
        raise AssertionError("grid basis, FFT compression or basis expansion called")

    for original in originals:
        for module in list(sys.modules.values()):
            if module is not None and module.__name__.split(".")[0] == "hardyops":
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, boom)


def test_production_paths_skip_fft_compressions(tmp_path, monkeypatch):
    from hardyops import model_space, operators

    _forbid_everywhere(monkeypatch, (operators.compressed_matrix, model_space.expand))
    doc = base_config()
    doc["checks"] = ["corona", "compressed", "adjoint"]
    cfg = write_json(tmp_path, "cfg.json", doc)
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
    for i, family in enumerate(
        [
            {"kind": "symbol_zero", "zero": 0.3, "offsets": [0.0, 0.2]},
            {"kind": "probe_radius", "radii": [0.2, 0.9], "angle": 0.4},
        ]
    ):
        fam = write_json(tmp_path, f"fam{i}.json", family)
        out = tmp_path / f"sweep{i}.csv"
        assert main(["sweep", "--config", cfg, "--family", fam, "--out", str(out)]) == 0


def test_commutant_report_needs_no_grid(tmp_path, monkeypatch):
    from hardyops import model_space, operators

    rng = np.random.default_rng(71)
    zeros = 0.9 * np.sqrt(rng.uniform(size=20)) * np.exp(2j * np.pi * rng.uniform(size=20))
    doc = base_config()
    doc["inner"] = {"zeros": [[z.real, z.imag] for z in zeros]}
    doc["checks"] = ["commutant"]

    def commutant_entry():
        out = tmp_path / "r.json"
        assert main(["report", "--config", write_json(tmp_path, "cfg.json", doc), "--out", str(out)]) == 0
        return json.loads(out.read_text(encoding="utf-8"))["checks"]["commutant"]

    default = commutant_entry()
    assert default["dimension"] == 20
    _forbid_everywhere(
        monkeypatch, (model_space.tm_basis, operators.compressed_matrix, model_space.expand)
    )
    assert commutant_entry() == default


def _commutant_report(tmp_path, zeros, symbol=(-0.7, 1.0), seed=7):
    doc = {
        "inner": {"zeros": [[z.real, z.imag] for z in zeros]},
        "symbol": [[c.real, c.imag] for c in np.asarray(symbol, dtype=complex)],
        "checks": ["commutant"],
        "seed": seed,
    }
    out = tmp_path / "r.json"
    code = main(["report", "--config", write_json(tmp_path, "cfg.json", doc), "--out", str(out)])
    return code, doc, json.loads(out.read_text(encoding="utf-8"))["checks"]["commutant"]


@pytest.mark.parametrize("case", ["degree_40", "tenfold_zero"])
def test_commutant_report_large_and_clustered(tmp_path, monkeypatch, case):
    rng = np.random.default_rng(76)
    if case == "degree_40":
        zeros = separated_zeros(rng, 40, 0.95, 0.05)
    else:
        zeros = separated_zeros(rng, 20, 0.9, 0.0)
        zeros[:10] = 0.99 * np.exp(2j * np.pi * rng.uniform())

    def boom(*args, **kwargs):
        raise AssertionError("n^2 x n^2 commutation map or stacked-powers lstsq used")

    monkeypatch.setattr(np, "kron", boom)
    monkeypatch.setattr(np.linalg, "lstsq", boom)
    code, _, entry = _commutant_report(tmp_path, zeros)
    n = len(zeros)
    assert code == 0 and "error" not in entry
    assert entry["dimension"] == n
    assert all(r <= TOLERANCES["recovery_residual"] for r in entry["recovery_residuals"])
    assert len(entry["recovery_residuals"]) == n
    assert np.isfinite(entry["cyclicity_condition"]) and entry["cyclicity_condition"] >= 1.0
    symbols = np.array([[complex(*c) for c in row] for row in entry["symbols"]])
    assert symbols.shape == (n, n)
    sv = np.linalg.svd(symbols, compute_uv=False)
    assert sv[-1] > n * np.finfo(float).eps * sv[0]


@pytest.mark.parametrize("degree,seed", [(1, 0), (3, 1), (6, 2), (10, 3), (14, 4)])
def test_commutant_symbols_reproduce_their_matrices(tmp_path, degree, seed):
    rng = np.random.default_rng([77, seed])
    zeros = separated_zeros(rng, degree, 0.9, 0.05)
    symbol = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    code, doc, entry = _commutant_report(tmp_path, zeros, symbol, seed)
    assert code == 0
    inner = parse_config(doc).inner
    # row 0 is a(S_I); the others are combinations of I, S_I, ..., S_I^(n-1)
    # with coefficients drawn from the config's seed
    draws = np.random.default_rng(seed)
    combos = draws.standard_normal((degree - 1, degree)) + 1j * draws.standard_normal((degree - 1, degree))
    for row, coeffs in zip(entry["symbols"], [symbol, *combos], strict=True):
        X = hardyops.tm_compression(inner, analytic=coeffs).entries
        rebuilt = hardyops.tm_compression(inner, analytic=[complex(*c) for c in row]).entries
        misfit = np.linalg.norm(rebuilt - X) / max(1.0, np.linalg.norm(X))
        assert misfit <= TOLERANCES["recovery_residual"]


def test_adjoint_report_needs_no_grid_basis(tmp_path, monkeypatch):
    from hardyops import model_space, operators

    _forbid_everywhere(
        monkeypatch,
        (
            model_space.tm_basis,
            operators.toeplitz_apply,
            model_space._project_samples,
            operators.compressed_matrix,
            model_space.expand,
        ),
    )
    doc = base_config()
    doc["inner"] = {"zeros": [0.99, 0.2, [0.1, -0.6]]}
    doc["checks"] = ["adjoint"]
    out = tmp_path / "r.json"
    assert main(["report", "--config", write_json(tmp_path, "cfg.json", doc), "--out", str(out)]) == 0
    entry = json.loads(out.read_text(encoding="utf-8"))["checks"]["adjoint"]
    assert entry["defect"] <= TOLERANCES["adjoint_defect"]


def test_common_zero_reported_not_fatal(tmp_path):
    doc = base_config()
    doc["symbol"] = [-0.3, 1.0]
    cfg = write_json(tmp_path, "cfg.json", doc)
    out = tmp_path / "r.json"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["checks"]["bezout"]["error"] == "common_zero"
    assert report["checks"]["corona"]["delta"] == 0.0
    assert not report["checks"]["corona"]["invertible"]
    assert not report["checks"]["compressed"]["invertible"]


def test_sweep_symbol_zero(tmp_path):
    cfg = write_json(tmp_path, "cfg.json", base_config())
    fam = write_json(
        tmp_path,
        "fam.json",
        {"kind": "symbol_zero", "zero": 0.3, "offsets": [0.0, 0.2, [0.0, 0.4]]},
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--family", fam, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").split("\n")
    assert lines[0] == (
        "offset_re,offset_im,zero_re,zero_im,delta,min_abs_at_inner_zeros,"
        "sigma_min,invertible,sup_u,sup_v"
    )
    assert len(lines) == 5 and lines[-1] == ""
    degenerate = lines[1].split(",")
    assert degenerate[4] == "0" and degenerate[7] == "0"
    assert degenerate[8] == "nan" and degenerate[9] == "nan"
    healthy = lines[2].split(",")
    assert healthy[7] == "1" and float(healthy[4]) > 0.0


def test_sweep_symbol_zero_one_stacked_call_per_sweep(tmp_path, monkeypatch):
    # every row's delta and Bezout pair come from one stacked call each,
    # and the delta column is the one-row calls' floats
    from hardyops import blaschke_make, corona

    one_row = corona.corona_delta
    calls = {"corona_delta": [], "bezout_solve": []}
    for name in calls:
        real = getattr(corona, name)

        def counted(*args, _real=real, _calls=calls[name], **kwargs):
            _calls.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(corona, name, counted)
        monkeypatch.setattr(cli, name, counted)
    offsets = [0.0, 0.2, [0.0, 0.4], 0.05]
    cfg = write_json(tmp_path, "cfg.json", base_config())
    fam = write_json(
        tmp_path, "fam.json", {"kind": "symbol_zero", "zero": 0.3, "offsets": offsets}
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--family", fam, "--out", str(out)]) == 0
    assert len(calls["corona_delta"]) == len(calls["bezout_solve"]) == 1
    assert np.shape(calls["corona_delta"][0][0]) == (len(offsets), 2)
    inner = blaschke_make([0.3, -0.5])
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    for row, t in zip(rows, offsets):
        w = 0.3 + (complex(*t) if isinstance(t, list) else t)
        assert row.split(",")[4] == format(one_row([-w, 1.0], inner), ".12g")


def test_sweep_run_memory_is_bounded():
    # a 10-row degree-6 sweep: the stacked passes run in row blocks, so
    # the traced peak stays near the per-row route's 1.1 MB
    zeros = [0.52 + 0.1j, -0.31 - 0.62j, 0.05 + 0.7j, -0.75 + 0.2j, 0.4 - 0.55j, -0.1 + 0.15j]
    doc = {"inner": {"zeros": [[z.real, z.imag] for z in zeros]}, "symbol": [1.0]}
    offsets = [0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.0, [0.0, 0.3]]
    family = {"kind": "symbol_zero", "zero": [0.52, 0.1], "offsets": offsets}
    run_sweep(parse_config(doc), family)  # first-call imports and caches
    config = parse_config(doc)
    tracemalloc.start()
    try:
        table = run_sweep(config, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.splitlines()) == len(offsets) + 1
    assert peak <= 1_200_000


@pytest.mark.parametrize("command", ["report", "sweep"])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, command):
    cfg = write_json(tmp_path, "cfg.json", base_config())
    argv = [command, "--config", cfg, "--out", str(tmp_path / "missing" / "x.out")]
    if command == "sweep":
        fam = {"kind": "symbol_zero", "zero": 0.3, "offsets": [0.1]}
        argv[3:3] = ["--family", write_json(tmp_path, "fam.json", fam)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output file ")
    assert "x.out" in err


def test_sweep_ill_conditioned_row_exits_3(tmp_path, capsys):
    zeros = [
        -0.13 + 0.06j, -0.54 - 0.08j, 0.11 - 0.11j,
        -0.18 + 0.26j, -0.75 - 0.48j, -0.3 - 0.67j,
    ]
    doc = {"inner": {"zeros": [[z.real, z.imag] for z in zeros]}, "symbol": [1.0]}
    cfg = write_json(tmp_path, "cfg.json", doc)
    fam = write_json(
        tmp_path,
        "fam.json",
        {"kind": "symbol_zero", "zero": [-0.13, 0.06], "offsets": [0.1, 1e-6]},
    )
    assert main(["sweep", "--config", cfg, "--family", fam]) == 3
    err = capsys.readouterr().err
    assert "Bezout identity residual" in err
    assert "symbol_zero row at offset 1e-06+0j, zero -0.129999+0.06j:" in err
    # the message names 1/sigma_min of a(S_I), here from a(S_I)^*
    inverse = re.search(r"; 1/sigma_min of a\(S_I\) is (\S+)\n", err)
    adjoint = hardyops.tm_compression(parse_config(doc).inner, coanalytic=[-(-0.13 + 0.06j + 1e-6), 1.0])
    assert inverse and float(inverse.group(1)) == pytest.approx(1.0 / adjoint.sigma_min(), rel=1e-3)


def _symbol_zero_inners(rng):
    """Seeded inners of degree 1 to 8 whose first zero is the swept one; the
    degree-5 one repeats it."""
    for degree in range(1, 9):
        radii = 0.8 * np.sqrt(rng.uniform(size=degree))
        zeros = list(radii * np.exp(2j * np.pi * rng.uniform(size=degree)))
        if degree == 5:
            zeros[1] = zeros[0]
        yield zeros


def test_sweep_symbol_zero_cells_match_the_per_row_route():
    from hardyops import CommonZeroError, bezout_solve, min_abs_at_zeros, tm_compression

    offsets = [0.5, [0.1, -0.2], 0.05, [0.0, 0.02], 0.0]
    for zeros in _symbol_zero_inners(np.random.default_rng(131)):
        doc = {"inner": {"zeros": [[z.real, z.imag] for z in zeros]}, "symbol": [1.0]}
        config = parse_config(doc)
        zero = [zeros[0].real, zeros[0].imag]
        family = {"kind": "symbol_zero", "zero": zero, "offsets": offsets}
        rows = run_sweep(config, family).splitlines()[1:]
        assert len(rows) == len(offsets)
        for row, t in zip(rows, offsets):
            t = complex(*t) if isinstance(t, list) else complex(t)
            w = config.inner.zeros[0] + t
            symbol = np.array([-w, 1.0])
            sigma = tm_compression(config.inner, coanalytic=symbol).sigma_min()
            try:
                cert = bezout_solve(symbol, config.inner)
                delta, sup_u, sup_v = cert.delta, cert.sup_u, cert.sup_v
            except CommonZeroError:
                delta, sup_u, sup_v = 0.0, float("nan"), float("nan")
            bound = min_abs_at_zeros(symbol, config.inner)
            expected = [t.real, t.imag, w.real, w.imag, delta, bound, sigma]
            cells = row.split(",")
            assert cells[:7] == [format(x, ".12g") for x in expected]
            assert cells[7] == ("1" if sigma > cli.INVERTIBILITY_TOL else "0")
            assert cells[8:] == [format(sup_u, ".12g"), format(sup_v, ".12g")]
        assert rows[-1].split(",")[8:] == ["nan", "nan"]


def test_sweep_symbol_zero_builds_no_rational_function(tmp_path, monkeypatch):
    from hardyops import blaschke, corona

    def refuse(*args, **kwargs):
        raise AssertionError("a symbol_zero row built a RationalFunction")

    monkeypatch.setattr(corona, "RationalFunction", refuse)
    monkeypatch.setattr(blaschke, "RationalFunction", refuse)
    cfg = write_json(tmp_path, "cfg.json", base_config())
    fam = write_json(
        tmp_path, "fam.json", {"kind": "symbol_zero", "zero": 0.3, "offsets": [0.5, 0.1, 0.0]}
    )
    assert main(["sweep", "--config", cfg, "--family", fam]) == 0


def test_sweep_symbol_zero_evaluates_inner_on_sup_points_once(tmp_path, monkeypatch):
    from hardyops import blaschke, corona
    from hardyops.blaschke import SUP_POINTS

    real = blaschke.blaschke_eval
    calls = []

    def counted(inner, z):
        calls.append(z is SUP_POINTS)
        return real(inner, z)

    monkeypatch.setattr(blaschke, "blaschke_eval", counted)
    monkeypatch.setattr(corona, "blaschke_eval", counted)
    offsets = [0.5, 0.2, [0.0, 0.4], 0.05, 0.0]
    cfg = write_json(tmp_path, "cfg.json", base_config())
    fam = write_json(
        tmp_path, "fam.json", {"kind": "symbol_zero", "zero": 0.3, "offsets": offsets}
    )
    assert main(["sweep", "--config", cfg, "--family", fam]) == 0
    assert calls.count(True) == 1


def test_sweep_probe_radius(tmp_path):
    cfg = write_json(tmp_path, "cfg.json", base_config())
    fam = write_json(
        tmp_path,
        "fam.json",
        {"kind": "probe_radius", "radii": [0.2, 0.9], "angle": 0.4},
    )
    out = tmp_path / "probe.csv"
    assert main(["sweep", "--config", cfg, "--family", fam, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").split("\n")
    assert lines[0] == "z_re,z_im,corona_value,f_norm,Taf_norm,sigma_min,p"
    assert len(lines) == 4 and lines[-1] == ""
    row = lines[1].split(",")
    assert float(row[0]) == pytest.approx(0.2 * np.cos(0.4))
    assert row[6] == "2"


def test_sweep_probe_radius_zero_near_circle_at_p_1_5(tmp_path):
    # an FFT grid would need 2^26 nodes here; the Clark sums of I^k settle
    # at 256 nodes and match quad to 1e-9
    doc = base_config()
    doc["inner"] = {"zeros": [1.0 - 1e-6, -0.5]}
    doc["p"] = 1.5
    cfg = write_json(tmp_path, "cfg.json", doc)
    fam = write_json(tmp_path, "fam.json", {"kind": "probe_radius", "radii": [0.2]})
    out = tmp_path / "probe.csv"
    assert main(["sweep", "--config", cfg, "--family", fam, "--out", str(out)]) == 0
    row = out.read_text(encoding="utf-8").split("\n")[1].split(",")
    f_ref, taf_ref = quad_probe_norms(parse_config(doc).inner, doc["symbol"], 0.2, 1.5)
    assert float(row[3]) == pytest.approx(f_ref, rel=1e-9)
    assert float(row[4]) == pytest.approx(taf_ref, rel=1e-9)


def test_sweep_probe_radius_cap_exits_3_with_nodes_and_difference(tmp_path, capsys, monkeypatch):
    # at 64 nodes the sums of the test above still move by 7.3e-7
    monkeypatch.setattr(model_space, "CLARK_MAX_NODES", 64)
    doc = base_config()
    doc["inner"] = {"zeros": [1.0 - 1e-6, -0.5]}
    doc["p"] = 1.5
    cfg = write_json(tmp_path, "cfg.json", doc)
    fam = write_json(tmp_path, "fam.json", {"kind": "probe_radius", "radii": [0.2]})
    assert main(["sweep", "--config", cfg, "--family", fam]) == 3
    err = capsys.readouterr().err
    assert "did not settle within CLARK_MAX_NODES=64 Clark nodes" in err
    moved = re.search(r"the doubling to 64 nodes moved them by (\S+) relative", err)
    assert moved and float(moved.group(1)) > model_space.NORM_TOL


def test_sweep_probe_radius_overflowing_image_exits_3_without_warnings(tmp_path, capsys):
    # the sums bounding the symbol are finite, but its image overflows on
    # the Clark nodes: one typed error line and exit 3, no RuntimeWarning
    doc = {"inner": {"zeros": [[0.5, 0], [0.1, 0.2]]}, "symbol": [1.5e308], "p": 1.5}
    cfg = write_json(tmp_path, "cfg.json", doc)
    fam = write_json(tmp_path, "fam.json", {"kind": "probe_radius", "radii": [0.2, 0.9]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "--config", cfg, "--family", fam]) == 3
    assert not caught, [str(w.message) for w in caught]
    out, err = capsys.readouterr()
    assert err == "numerical failure: p-norms at p=1.5 on 4 Clark nodes are not finite\n"


def test_sweep_probe_radius_zero_near_circle_at_p2(tmp_path):
    # at p = 2 the norms come from the n Clark points of I, with no grid;
    # rounding grows like eps / (1 - |lambda|), about 2e-10 here
    doc = base_config()
    doc["inner"] = {"zeros": [1.0 - 1e-6, -0.5]}
    cfg = write_json(tmp_path, "cfg.json", doc)
    fam = write_json(tmp_path, "fam.json", {"kind": "probe_radius", "radii": [0.2]})
    out = tmp_path / "probe.csv"
    assert main(["sweep", "--config", cfg, "--family", fam, "--out", str(out)]) == 0
    row = out.read_text(encoding="utf-8").split("\n")[1].split(",")
    inner = parse_config(doc).inner
    assert float(row[3]) == pytest.approx(np.sqrt(1.0 - abs(inner(0.2)) ** 2), rel=1e-9)


def test_sweep_probe_radius_zero_near_circle_large_even_p(tmp_path):
    # k*n = 2^25 Clark points of I^k would be more than CLARK_MAX_NODES, so
    # the rule of I^k doubles until it settles, at 131 072 nodes; they
    # reach the sums window by window (traced peak 5.3 MB)
    doc = base_config()
    doc["inner"] = {"zeros": [1.0 - 1e-6, -0.5]}
    doc["p"] = float(2**25)
    cfg = write_json(tmp_path, "cfg.json", doc)
    fam = write_json(tmp_path, "fam.json", {"kind": "probe_radius", "radii": [0.2]})
    out = tmp_path / "probe.csv"
    tracemalloc.start()
    try:
        code = main(["sweep", "--config", cfg, "--family", fam, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 << 20
    row = out.read_text(encoding="utf-8").split("\n")[1].split(",")
    assert all(0.0 < float(x) < np.inf for x in row[3:5])


def test_sweep_probe_radius_large_even_p_memory_is_bounded(tmp_path):
    # p = 10^6 takes the k*n = 10^6 Clark points of I^k; they reach the
    # norms window by window, so the traced peak stays under 8 MB (whole
    # arrays of nodes peaked at 61 MB)
    doc = base_config()
    zero = 0.99999 * np.exp(0.3j)
    doc["inner"] = {"zeros": [[zero.real, zero.imag], -0.5]}
    doc["symbol"] = [1.0, 0.3]
    doc["p"] = 1e6
    cfg = write_json(tmp_path, "cfg.json", doc)
    family = {"kind": "probe_radius", "radii": [0.0, 0.5, 0.9, 0.99], "angle": 0.3}
    fam = write_json(tmp_path, "fam.json", family)
    out = tmp_path / "probe.csv"
    tracemalloc.start()
    try:
        code = main(["sweep", "--config", cfg, "--family", fam, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 << 20
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert len(rows) == 4 and all(row[6] == "1000000" for row in rows)
    assert all(0.0 < float(row[3]) < float(row[4]) < np.inf for row in rows)


def test_sweep_determinism(tmp_path):
    cfg = write_json(tmp_path, "cfg.json", base_config())
    fam = write_json(
        tmp_path,
        "fam.json",
        {"kind": "symbol_zero", "zero": 0.0, "offsets": [0.1, 0.5]},
    )
    o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--family", fam, "--out", str(o1)]) == 0
    assert main(["sweep", "--config", cfg, "--family", fam, "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def bad_families():
    return [
        [1],
        {"radii": [0.2]},
        {"kind": "mystery"},
        {"kind": "symbol_zero", "zero": 0.3},
        {"kind": "symbol_zero", "zero": 0.3, "offsets": []},
        {"kind": "symbol_zero", "zero": 0.3, "offsets": [0.1], "step": 2},
        {"kind": "probe_radius"},
        {"kind": "probe_radius", "radii": [1.5]},
        {"kind": "probe_radius", "radii": [0.2], "angle": "x"},
        {"kind": "symbol_zero", "zero": 0.3, "offsets": [float("nan")]},
        {"kind": "symbol_zero", "zero": 0.3, "offsets": [0.1, [0.0, float("inf")]]},
        {"kind": "symbol_zero", "zero": float("-inf"), "offsets": [0.1]},
        {"kind": "probe_radius", "radii": [0.2], "angle": float("nan")},
        {"kind": "probe_radius", "radii": [0.2], "angle": float("inf")},
        {"kind": "probe_radius", "radii": [float("nan")]},
        {"kind": "symbol_zero", "zero": 1e308, "offsets": [0.1, 1e308]},
    ]


@pytest.mark.parametrize("family", bad_families())
def test_sweep_rejects_bad_family(family):
    config = parse_config(base_config())
    with pytest.raises(ConfigError):
        run_sweep(config, family)


def test_sweep_bad_family_exit_code(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json", base_config())
    fam = write_json(tmp_path, "fam.json", {"kind": "mystery"})
    assert main(["sweep", "--config", cfg, "--family", fam]) == 2
    capsys.readouterr()
    nan_angle = tmp_path / "nan.json"
    nan_angle.write_text('{"kind": "probe_radius", "radii": [0.2], "angle": NaN}', encoding="utf-8")
    assert main(["sweep", "--config", cfg, "--family", str(nan_angle)]) == 2
    assert "config error: family 'angle'" in capsys.readouterr().err


def test_printed_tolerances_are_the_enforced_constants():
    from hardyops import corona, operators

    assert TOLERANCES == {
        "bezout_residual": 1e-9,
        "invertibility_sigma": 1e-10,
        "adjoint_defect": 1e-8,
        "projection_defect": 1e-9,
        "recovery_residual": 1e-7,
    }
    assert TOLERANCES["bezout_residual"] is corona.BEZOUT_TOL
    assert TOLERANCES["recovery_residual"] is operators.RECOVERY_TOL
    assert TOLERANCES["invertibility_sigma"] is cli.INVERTIBILITY_TOL
    assert TOLERANCES["adjoint_defect"] is cli.ADJOINT_TOL
    assert TOLERANCES["projection_defect"] is cli.PROJECTION_TOL
    assert CHECKS["adjoint"][2] == "adjoint_defect"
    assert CHECKS["projection"][2] == "projection_defect"


def _run_module(argv, **env):
    """`python -m hardyops.cli argv` in a fresh process that imports the
    same sources as this one."""
    src = str(Path(hardyops.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hardyops.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )


def test_module_entry_point(tmp_path):
    doc = base_config()
    doc["checks"] = ["corona"]
    cfg = write_json(tmp_path, "cfg.json", doc)
    proc = _run_module(["report", "--config", cfg])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["schema"] == 1
    assert report["checks"]["corona"]["invertible"]


@pytest.fixture(scope="module")
def parser_calls(tmp_path_factory):
    """A report, a sweep, two argv errors, a config error and --help, each
    with its exit code, stdout and stderr from a fresh process."""
    tmp = tmp_path_factory.mktemp("parser_calls")
    doc = dict(base_config(), checks=["corona", "compressed"])
    cfg = write_json(tmp, "cfg.json", doc)
    fam = write_json(tmp, "fam.json", {"kind": "symbol_zero", "zero": 0.3, "offsets": [0.2, 0.1]})
    calls = {
        "report": ["report", "--config", cfg],
        "no_config": ["report"],
        "unknown_command": ["frobnicate", "--config", cfg],
        "sweep": ["sweep", "--config", cfg, "--family", fam],
        "config_error": ["report", "--config", str(tmp / "missing.json")],
        "help": ["--help"],
    }
    fresh = {}
    for name, argv in calls.items():
        proc = _run_module(argv, COLUMNS="80")
        fresh[name] = (proc.returncode, proc.stdout, proc.stderr)
    return calls, fresh


@pytest.mark.parametrize(
    "order",
    [
        ["report", "no_config", "unknown_command", "sweep", "config_error", "help"],
        ["help", "config_error", "no_config", "sweep", "unknown_command", "report"],
    ],
)
def test_shared_parser_carries_nothing_between_calls(parser_calls, capsys, monkeypatch, order):
    calls, fresh = parser_calls
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at the width of a fresh process
    for name in order:
        try:
            code = main(calls[name])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == fresh[name], name
    assert [fresh[name][0] for name in calls] == [0, 2, 2, 0, 2, 0]


def test_main_builds_no_parser(tmp_path, monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    # argparse looks its own class up by name, so the count wraps __init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cfg = write_json(tmp_path, "cfg.json", dict(base_config(), checks=["corona"]))
    for k in range(50):
        if k % 5:
            assert main(["report", "--config", cfg]) == 0
        else:
            with pytest.raises(SystemExit):
                main(["report"])
    assert built == []
    # the wrapper does see a build: the parser and its two subparsers
    cli._build_parser()
    assert len(built) == 3


# -- one closed-form pass per report ------------------------------------------


def test_six_check_report_builds_each_closed_form_once(tmp_path, monkeypatch):
    from hardyops import blaschke, model_space, operators

    counts = {"shift": 0, "clark": 0, "powers": 0}
    horner_rows = []

    def counted(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        return wrapper

    def horner(coeffs, S):
        horner_rows.append(np.shape(coeffs)[:-1])
        return real_horner(coeffs, S)

    real_horner = operators._poly_of_matrix
    monkeypatch.setattr(blaschke, "_tm_shift", counted("shift", blaschke._tm_shift))
    monkeypatch.setattr(model_space, "_clark_solve", counted("clark", model_space._clark_solve))
    monkeypatch.setattr(cli, "_powers", counted("powers", operators._powers))
    monkeypatch.setattr(operators, "_powers", counted("powers", operators._powers))
    monkeypatch.setattr(cli, "_poly_of_matrix", horner)
    monkeypatch.setattr(operators, "_poly_of_matrix", horner)
    doc = base_config()
    doc["inner"] = {"zeros": [0.3, -0.5, [0.1, 0.6], [-0.2, -0.4], 0.7]}
    doc["symbol"] = [[-0.4, 0.1], 0.0, 1.0]
    out = tmp_path / "r.json"
    assert main(["report", "--config", write_json(tmp_path, "cfg.json", doc), "--out", str(out)]) == 0
    assert set(json.loads(out.read_text(encoding="utf-8"))["checks"]) == set(CHECKS)
    assert counts == {"shift": 1, "clark": 1, "powers": 1}
    # a(S_I) alone goes through Horner's rule, once, for three checks
    assert horner_rows == [()]


def test_adjoint_shares_the_projection_rule(tmp_path):
    # the shared rule of z^13 I is exact for the degree-2 symbol too, so
    # the defect moves only at rounding level, and the projection entry
    # is the one it prints alone
    doc = base_config()
    doc["inner"] = {"zeros": [0.9, [0.1, -0.6], -0.3]}
    doc["symbol"] = [0.2, [0.5, 0.1], 1.0]
    entries = {}
    for checks in (["adjoint"], ["projection"], ["adjoint", "projection"]):
        doc["checks"] = checks
        report, failure = run_report(parse_config(doc))
        assert not failure
        entries[tuple(checks)] = report["checks"]
    both = entries["adjoint", "projection"]
    assert both["projection"] == entries["projection",]["projection"]
    alone = entries["adjoint",]["adjoint"]["defect"]
    assert both["adjoint"]["defect"] <= TOLERANCES["adjoint_defect"]
    assert abs(both["adjoint"]["defect"] - alone) <= 1e-13


@pytest.mark.parametrize("degree,seed", [(10, 0), (20, 1)])
def test_commutant_row_0_is_the_fft_compression_of_the_symbol(tmp_path, degree, seed):
    # row 0 of the printed symbols, rebuilt on the FFT route's own basis,
    # reproduces the FFT compression of a: no closed form is shared
    rng = np.random.default_rng([78, seed])
    zeros = separated_zeros(rng, degree, 0.9, 0.05)
    symbol = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    code, doc, entry = _commutant_report(tmp_path, zeros, symbol, seed)
    assert code == 0
    inner = parse_config(doc).inner
    basis = hardyops.tm_basis(inner, 2.0)
    row = [complex(*c) for c in entry["symbols"][0]]
    fft = hardyops.compressed_matrix(inner, hardy.BoundaryFunction.from_poly(basis.grid, symbol), basis)
    rebuilt = hardyops.compressed_matrix(inner, hardy.BoundaryFunction.from_poly(basis.grid, row), basis)
    scale = np.linalg.norm(fft.entries)
    assert np.linalg.norm(rebuilt.entries - fft.entries) <= 1e-10 * scale
    # and it is not some other element of the commutant, such as the identity
    assert np.linalg.norm(fft.entries - np.eye(degree)) > 0.1 * scale


# -- non-finite numbers -----------------------------------------------------------

BIG_INNER = {"zeros": [[0.5, 0.0], [0.1, 0.2]]}


def _big_symbol_report(tmp_path, scale, checks, zeros=BIG_INNER):
    doc = {"inner": zeros, "symbol": [[scale, 0.0]] * 3, "checks": checks}
    out = tmp_path / "r.json"
    code = main(["report", "--config", write_json(tmp_path, "cfg.json", doc), "--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))["checks"]


@pytest.mark.parametrize("name", list(CHECKS))
def test_non_finite_entry_becomes_error(tmp_path, monkeypatch, name):
    real = CHECKS[name][0]

    def overflowing(config):
        entry = real(config)
        entry["zz"] = {"values": [1.0, [2.0, float("inf")]], "nan": float("nan")}
        return entry

    monkeypatch.setitem(CHECKS, name, (overflowing,) + CHECKS[name][1:])
    doc = base_config()
    doc["symbol"] = [0.2, 1.0]
    doc["checks"] = ["corona", name]
    out = tmp_path / "r.json"
    assert main(["report", "--config", write_json(tmp_path, "cfg.json", doc), "--out", str(out)]) == 3
    checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
    # the first non-finite key in printed order is named
    assert checks[name] == {
        "error": "NonFiniteError",
        "message": f"{name} check: zz.nan is not a finite number",
    }
    if name != "corona":
        assert "error" not in checks["corona"]


def test_non_finite_paths():
    inf, nan = float("inf"), float("nan")
    assert cli._non_finite({"b": [[1.0, 0.0], [2.0, inf]], "a": [None, "nan", 1]}, "") == "b[1][1]"
    assert cli._non_finite({"a": [[1.0], [2.0, -inf]], "c": nan}, "") == "a[1][1]"
    assert cli._non_finite([{"x": 10**400}, (True, nan)], "u") == "u[1][1]"
    assert cli._non_finite({"a": [None, "inf", [1.0, 2.0]], "b": {"c": 1e308}}, "") is None


@pytest.mark.parametrize(
    "check,key", [("compressed", "singular_values[0]"), ("adjoint", "defect")]
)
def test_overflowing_check_exits_3_with_its_key(tmp_path, capsys, check, key):
    code, checks = _big_symbol_report(tmp_path, 1e308, [check])
    assert code == 3
    assert checks[check] == {
        "error": "NonFiniteError",
        "message": f"{check} check: {key} is not a finite number",
    }
    assert capsys.readouterr().err == ""


def test_commutant_of_large_symbols_is_judged(tmp_path, capsys):
    # the norms of 1e200 entries overflowed and the residual printed nan;
    # scaled by each matrix's largest entry they stay at rounding level
    inner = parse_config({"inner": BIG_INNER, "symbol": [1.0]}).inner
    lam0, lam1 = inner.zeros
    for scale in (1e200, 1e308):
        code, checks = _big_symbol_report(tmp_path, scale, ["commutant"])
        entry = checks["commutant"]
        assert code == 0 and "error" not in entry
        assert max(entry["recovery_residuals"]) <= 1e-15
        # 1 + z + z^2 reduced modulo (z - lam0)(z - lam1)
        row = [complex(*c) / scale for c in entry["symbols"][0]]
        np.testing.assert_allclose(row, [1 - lam0 * lam1, 1 + lam0 + lam1], rtol=1e-15)
    assert capsys.readouterr().err == ""


def test_overflowing_symbol_matrix_is_a_typed_error(tmp_path, capsys):
    # a(S_I) = 1e308 (1 + S_I + S_I^2) has diagonal entries near 2.5e308
    zeros = {"zeros": [0.9, 0.8]}
    code, checks = _big_symbol_report(tmp_path, 1e308, ["compressed", "commutant", "adjoint"], zeros)
    assert code == 3
    for name in ("compressed", "commutant", "adjoint"):
        assert checks[name]["error"] == "NonFiniteError"
        assert "a(S_I) overflows" in checks[name]["message"]
    assert "nan" not in json.dumps(checks).lower()
    assert capsys.readouterr().err == ""


def test_overflowing_symbol_sums_are_a_typed_error(tmp_path, capsys):
    # sum |c_k| = 3e308 overflows: corona printed delta = 1.28e292 as
    # consistent and bezout a nan residual, after six RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, checks = _big_symbol_report(tmp_path, 1e308, ["corona", "bezout"])
    assert code == 3
    for name in ("corona", "bezout"):
        assert checks[name]["error"] == "NonFiniteError"
        assert "sum |c_k| = inf" in checks[name]["message"]
    # the probe refuses it too, before a doubling that could never settle
    doc = {"inner": BIG_INNER, "symbol": [[1e308, 0.0]] * 3, "p": 1.5}
    fam = write_json(tmp_path, "fam.json", {"kind": "probe_radius", "radii": [0.2, 0.9]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sweep", "--config", write_json(tmp_path, "cfg.json", doc), "--family", fam])
    assert code == 3
    assert "sum |c_k| = inf" in capsys.readouterr().err


# -- the JSON writer ---------------------------------------------------------------


def _json_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _workload_configs():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [
        (f"{name}.{seed}.{r}.{k}", item.config)
        for name in workloads.WORKLOADS
        for seed in (1, 2, 3)
        for r, items in enumerate(workloads.rounds_for(name, seed))
        for k, item in enumerate(items)
    ]


def test_canonical_json_matches_json_dumps_on_workload_reports():
    configs = _workload_configs()
    assert len(configs) == 126
    for tag, doc in configs:
        report, _ = run_report(parse_config(doc))
        assert canonical_json(report) == _json_dumps(report), tag


def test_canonical_json_refuses_non_finite_floats():
    for bad in (float("nan"), float("inf"), -float("inf"), np.float64("nan")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            canonical_json({"a": [1.0, {"b": bad}]})
    with pytest.raises(TypeError):
        canonical_json({"a": np.int64(1)})
