"""Tests for the benchmark's output checker.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import workloads  # noqa: E402
from hardyops import blaschke_make, compressed_shift, tm_basis  # noqa: E402
from hardyops.cli import main  # noqa: E402
from hardyops.model_space import sorted_zeros  # noqa: E402


@pytest.mark.parametrize("seed", range(6))
def test_closed_form_shift_matches_compressed_shift(seed):
    rng = np.random.default_rng(seed)
    degree = 1 + seed
    inner = blaschke_make(workloads._zeros(rng, degree, 0.9, 0.05))
    program = compressed_shift(inner, tm_basis(inner, 2.0)).entries
    closed = check.tm_shift(sorted_zeros(inner))
    assert np.abs(program - closed).max() < 1e-12


def _run(tmp_path, item):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(item.config))
    out = tmp_path / "out"
    argv = [item.kind, "--config", str(config), "--out", str(out)]
    if item.family is not None:
        family = tmp_path / "family.json"
        family.write_text(json.dumps(item.family))
        argv += ["--family", str(family)]
    assert main(argv) == 0
    return out.read_text()


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    rng = np.random.default_rng(3)
    zeros = workloads._zeros(rng, 4, 0.9, 0.1)
    item = workloads._report("r", zeros, workloads._symbol(rng, zeros), 2.0, workloads.ALL_CHECKS, rng)
    return item.config, json.loads(_run(tmp_path_factory.mktemp("report"), item))


def _problems(config, doc):
    return check.check_report(json.dumps(doc), config)


def test_program_report_passes(report):
    config, doc = report
    assert _problems(config, doc) == []


def test_perturbed_eigenvalue_is_rejected(report):
    config, doc = report
    bad = copy.deepcopy(doc)
    bad["checks"]["compressed"]["eigenvalues"][1][0] += 1e-6
    assert any("eigenvalues" in p for p in _problems(config, bad))


def test_perturbed_singular_value_is_rejected(report):
    config, doc = report
    bad = copy.deepcopy(doc)
    bad["checks"]["compressed"]["singular_values"][0] *= 1.0 + 1e-7
    assert any("singular values" in p for p in _problems(config, bad))


def test_perturbed_bezout_coefficient_is_rejected(report):
    config, doc = report
    bad = copy.deepcopy(doc)
    bad["checks"]["bezout"]["u"]["num"][0][1] += 1e-8
    assert any("a*u + I*v - 1" in p for p in _problems(config, bad))


def test_looser_printed_bezout_tolerance_is_rejected(report):
    config, doc = report
    bad = copy.deepcopy(doc)
    bad["tolerances"]["bezout_residual"] = 1e-6
    bad["checks"]["bezout"]["residual"] = 1e-7
    problems = _problems(config, bad)
    assert any("tolerance bezout_residual" in p for p in problems)
    assert any("reported residual" in p for p in problems)


def test_commutant_of_lower_rank_is_rejected(report):
    config, doc = report
    bad = copy.deepcopy(doc)
    symbols = bad["checks"]["commutant"]["symbols"]
    symbols[-1] = symbols[0]
    assert any("rank" in p for p in _problems(config, bad))


def test_defect_above_printed_tolerance_is_rejected(report):
    config, doc = report
    bad = copy.deepcopy(doc)
    bad["checks"]["projection"]["idempotence_defect"] = 3.3e-3
    assert any("idempotence_defect" in p for p in _problems(config, bad))


def test_symbol_zero_sweep(tmp_path):
    item = workloads._symbol_zero_item(np.random.default_rng(5), "s")
    text = _run(tmp_path, item)
    assert check.check_symbol_zero_csv(text, item.config, item.family) == []
    lines = text.splitlines()
    header = lines[0].split(",")
    row = lines[-1].split(",")
    row[header.index("delta")] = "1e-12"
    bad = "\n".join(lines[:-1] + [",".join(row)]) + "\n"
    assert any("delta" in p for p in check.check_symbol_zero_csv(bad, item.config, item.family))
    row = lines[1].split(",")
    row[header.index("sup_u")] = "nan"
    bad = "\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n"
    assert any("sup|u|" in p for p in check.check_symbol_zero_csv(bad, item.config, item.family))


def test_probe_sweep(tmp_path):
    item = workloads._probe_item(np.random.default_rng(6), "p", 3)
    item.family["radii"] = [0.5, 0.9]
    text = _run(tmp_path, item)
    assert check.check_probe_csv(text, item.config, item.family) == []
    bad = text.replace(text.splitlines()[1].split(",")[2], "0.5", 1)
    assert any("corona_value" in p for p in check.check_probe_csv(bad, item.config, item.family))
