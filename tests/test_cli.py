"""Command line front end: config validation, report structure, byte
determinism, exit codes, and sweep CSV output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hardyops
from hardyops import ConfigError, IllConditionedError
from hardyops import cli, hardy
from hardyops.cli import (
    CHECKS,
    TOLERANCES,
    canonical_json,
    main,
    parse_config,
    run_report,
    run_sweep,
)


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


def test_projection_defect_above_tolerance_exits_3(tmp_path, monkeypatch):
    doc = base_config()
    doc["inner"] = {"zeros": [0.999, -0.5]}
    doc["checks"] = ["projection"]
    cfg = write_json(tmp_path, "cfg.json", doc)
    out = tmp_path / "r.json"
    keys = ("idempotence_defect", "complement_defect", "annihilator_defect")
    # the grid of the zero nearest the circle resolves this inner
    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    entry = json.loads(out.read_text(encoding="utf-8"))["checks"]["projection"]
    assert all(entry[key] <= TOLERANCES["projection_defect"] for key in keys)
    # a projection that is off by one percent is not idempotent
    project = cli._project_samples
    monkeypatch.setattr(cli, "_project_samples", lambda ib, f: 1.01 * project(ib, f))
    assert main(["report", "--config", cfg, "--out", str(out)]) == 3
    entry = json.loads(out.read_text(encoding="utf-8"))["checks"]["projection"]
    assert entry["idempotence_defect"] > TOLERANCES["projection_defect"]


def test_projection_grid_doubles_for_repeated_zero(tmp_path, monkeypatch):
    # a double zero at 0.98 leaves a tail of 7.6e-10 on the radius's 4096
    # nodes, so the check doubles once; a cap below 8192 nodes stops it
    doc = base_config()
    doc["inner"] = {"zeros": [0.98, 0.98]}
    doc["checks"] = ["projection"]
    cfg = write_json(tmp_path, "cfg.json", doc)
    out = tmp_path / "r.json"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    monkeypatch.setattr(hardy, "GRID_MAX_M", 4096)
    assert main(["report", "--config", cfg, "--out", str(out)]) == 3
    entry = json.loads(out.read_text(encoding="utf-8"))["checks"]["projection"]
    assert entry["error"] == "UnitDiscError"
    assert "radius 0.98 " in entry["message"] and "m=8192" in entry["message"]


def test_adjoint_defect_above_tolerance_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "adjoint_defect", lambda *args: 3e-8)
    doc = base_config()
    doc["checks"] = ["corona", "adjoint"]
    out = tmp_path / "r.json"
    assert main(["report", "--config", write_json(tmp_path, "cfg.json", doc), "--out", str(out)]) == 3
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["checks"]["adjoint"] == {"defect": 3e-8, "p": 2.0, "q": 2.0}
    assert report["checks"]["corona"]["invertible"]


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


def test_sweep_symbol_zero_one_corona_delta_per_row(tmp_path, monkeypatch):
    from hardyops import blaschke_make, corona

    real = corona.corona_delta
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(corona, "corona_delta", counted)
    monkeypatch.setattr(cli, "corona_delta", counted)
    offsets = [0.0, 0.2, [0.0, 0.4], 0.05]
    cfg = write_json(tmp_path, "cfg.json", base_config())
    fam = write_json(
        tmp_path, "fam.json", {"kind": "symbol_zero", "zero": 0.3, "offsets": offsets}
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--family", fam, "--out", str(out)]) == 0
    assert len(calls) == len(offsets)
    inner = blaschke_make([0.3, -0.5])
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    for row, t in zip(rows, offsets):
        w = 0.3 + (complex(*t) if isinstance(t, list) else t)
        assert row.split(",")[4] == format(real([-w, 1.0], inner), ".12g")


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
    assert "Bezout identity residual" in capsys.readouterr().err


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


def test_sweep_probe_radius_zero_too_close_to_circle_exits_3(tmp_path, capsys):
    doc = base_config()
    doc["inner"] = {"zeros": [1.0 - 1e-6, -0.5]}
    cfg = write_json(tmp_path, "cfg.json", doc)
    fam = write_json(tmp_path, "fam.json", {"kind": "probe_radius", "radii": [0.2]})
    assert main(["sweep", "--config", cfg, "--family", fam]) == 3
    assert "too close to the circle" in capsys.readouterr().err


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


def test_module_entry_point(tmp_path):
    doc = base_config()
    doc["checks"] = ["corona"]
    cfg = write_json(tmp_path, "cfg.json", doc)
    # the child imports the same sources as this process
    src = str(Path(hardyops.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hardyops.cli", "report", "--config", cfg],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["schema"] == 1
    assert report["checks"]["corona"]["invertible"]
