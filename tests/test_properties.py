"""Property tests: the adjoint defect and the projection check hold their
tolerances on inners of degree 1-8, repeated zeros included, with radii up
to 0.999; a zero too close to the circle is a typed failure."""

import json
import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyops import adjoint_defect, blaschke_make
from hardyops.cli import ADJOINT_TOL, PROJECTION_TOL, main, parse_config, run_report

#: Radii 1 - 10**u for u in [-3, 0], so distances to the circle from
#: 1e-3 to 1 are drawn alike; each zero repeats 1-4 times, and the list is
#: cut to degree 8.
ZEROS = st.lists(
    st.tuples(st.floats(-3.0, 0.0), st.floats(0.0, 2.0 * np.pi), st.integers(1, 4)),
    min_size=1,
    max_size=8,
).map(lambda drawn: [(1.0 - 10.0**u) * np.exp(1j * t) for u, t, k in drawn for _ in range(k)][:8])

COEFF = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))

PROJECTION_KEYS = ("idempotence_defect", "complement_defect", "annihilator_defect")


@settings(derandomize=True, deadline=None, max_examples=60)
@given(zeros=ZEROS, symbol=st.lists(COEFF, min_size=1, max_size=6))
def test_adjoint_defect_within_tolerance(zeros, symbol):
    assert adjoint_defect(blaschke_make(zeros), symbol) <= ADJOINT_TOL


@settings(derandomize=True, deadline=None, max_examples=25)
@given(zeros=ZEROS, seed=st.integers(0, 2**31))
def test_projection_report_within_tolerance(zeros, seed):
    doc = {
        "inner": {"zeros": [[z.real, z.imag] for z in zeros]},
        "symbol": [1.0],
        "checks": ["projection"],
        "seed": seed,
    }
    report, failure = run_report(parse_config(doc))
    entry = report["checks"]["projection"]
    assert not failure
    assert all(entry[key] <= PROJECTION_TOL for key in PROJECTION_KEYS)


def test_zero_too_close_to_circle_exits_3(tmp_path):
    # grid_for_radius(1 - 1e-6) would need m = 2^26 nodes; it refuses
    # before any node is allocated
    doc = {"inner": {"zeros": [1.0 - 1e-6, 0.2]}, "symbol": [0.3, 1.0], "checks": ["adjoint", "projection"]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "r.json"
    tracemalloc.start()
    try:
        code = main(["report", "--config", str(cfg), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 1 << 20
    for entry in json.loads(out.read_text(encoding="utf-8"))["checks"].values():
        assert entry["error"] == "UnitDiscError"
        assert "too close to the circle" in entry["message"] and f"m={2**26}" in entry["message"]
