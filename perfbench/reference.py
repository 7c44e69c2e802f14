"""Reference figures for the README, from one traced pass; nothing gates on them.

    python3 perfbench/reference.py   # from the repository root, about a minute

Times one `hardyops report` per inner degree 3, 10, 20 and 40, and one
commutant-only report at degree 20 (the commutant basis plus n symbol
recoveries), with BLAS threads held at one.  Degrees 3 and 10 run all six
checks; degrees 20 and 40 leave out bezout, which fails on about half of
the inners of degree 20, and commutant, which takes minutes at degree 40.
For each it prints the wall time and the layers with the largest self time.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import ROOT, import_program  # noqa: E402

CASES = [
    (3, workloads.ALL_CHECKS),
    (10, workloads.ALL_CHECKS),
    (20, workloads.WIDE_CHECKS),
    (40, workloads.WIDE_CHECKS),
    (20, ["commutant"]),
]


def main() -> int:
    program = import_program()
    work = ROOT / ".perfbench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for degree, checks in CASES:
            rng = np.random.default_rng(degree)
            zeros = workloads._zeros(rng, degree, 0.9, 0.05)
            item = workloads._report("ref", zeros, workloads._symbol(rng, zeros), 2.0, checks, rng)
            path = work / "config.json"
            path.write_text(json.dumps(item.config))
            tracer = Tracer()
            tracer.install()
            tracer.begin_item()
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    start = time.perf_counter()
                    code = program(["report", "--config", str(path), "--out", str(work / "out.json")])
                    wall = time.perf_counter() - start
            finally:
                tracer.uninstall()
            layers = sorted(
                ((stats[1], name) for name, stats in tracer.per_item[0].items() if name != "hardy.grid_m"),
                reverse=True,
            )
            top = ", ".join(f"{name} {self_s:.3f}" for self_s, name in layers[:4])
            print(f"degree {degree:>2} {'+'.join(checks):<45} exit {code} {wall:7.3f} s  self s: {top}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
