"""Property tests: the adjoint defect and the projection check hold their
tolerances on inners of degree 1-8, repeated zeros included, with radii up
to 1 - 1e-5; a zero at 1 - 1e-6 passes both in small memory.  The report
writer matches `json.dumps` on generated documents."""

import json
import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyops import adjoint_defect, blaschke_make
from hardyops.cli import ADJOINT_TOL, PROJECTION_TOL, canonical_json, main, parse_config, run_report

def zeros_within(lowest: float):
    """Radii 1 - 10**u for u in [lowest, 0], so distances to the circle
    from 10**lowest to 1 are drawn alike; each zero repeats 1-4 times, and
    the list is cut to degree 8."""
    return st.lists(
        st.tuples(st.floats(lowest, 0.0), st.floats(0.0, 2.0 * np.pi), st.integers(1, 4)),
        min_size=1,
        max_size=8,
    ).map(lambda drawn: [(1.0 - 10.0**u) * np.exp(1j * t) for u, t, k in drawn for _ in range(k)][:8])


COEFF = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))

PROJECTION_KEYS = ("idempotence_defect", "complement_defect", "annihilator_defect")


@settings(derandomize=True, deadline=None, max_examples=60)
@given(zeros=zeros_within(-5.0), symbol=st.lists(COEFF, min_size=1, max_size=6))
def test_adjoint_defect_within_tolerance(zeros, symbol):
    assert adjoint_defect(blaschke_make(zeros), symbol) <= ADJOINT_TOL


@settings(derandomize=True, deadline=None, max_examples=25)
@given(zeros=zeros_within(-5.0), seed=st.integers(0, 2**31))
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


def test_zero_near_circle_passes_in_small_memory(tmp_path):
    # both checks run on Clark points, n + 1 for the adjoint and n + 13 for
    # the projection; a grid for radius 1 - 1e-6 would need m = 2^26 nodes
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
    assert code == 0
    assert peak < 1 << 20
    checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
    assert checks["adjoint"]["defect"] <= ADJOINT_TOL
    assert all(checks["projection"][key] <= PROJECTION_TOL for key in PROJECTION_KEYS)


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1.7e308, -1.7e308, 1e-7, 1e16])
    | st.text()
    | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é ü ß", "€ 日本 😀", "\ud800"])
)
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(doc=JSON_DOCS)
def test_canonical_json_matches_json_dumps(doc):
    assert canonical_json(doc) == json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
