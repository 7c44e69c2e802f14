"""Benchmark of `hardyops report` and `hardyops sweep`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It starts the worker (worker.py) several times in a row with BLAS threads
held at one.  Each start is timed from process launch until the worker has
imported hardyops, written its inputs and run one warm-up item; the median
of these is `setup_s`.  The last worker then runs the closed loop for S
seconds and checks every output.  A run slowed down so far that it would
not end within DEADLINE_S stops starting items early, reports the
figures of the items it did run, and says so.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with `--trace 0`, its
per-layer metrics with `--trace 1`.  The same object, with the failure
messages and any output problems, is written to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

#: Worker starts timed per run; the last one also runs the loop.
SETUP_STARTS = 3

#: Every run must end by then.  Setup starts after the first are skipped
#: once the starts have used SETUP_SHARE of it; the loop starts no item
#: that, at the length of the longest item so far, would end later than
#: CHECK_RESERVE_S before it; a worker still running at the deadline is
#: killed.
DEADLINE_S = 170.0
SETUP_SHARE = 0.25
CHECK_RESERVE_S = 15.0

_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _start_worker(argv: list, deadline: float):
    """Launch one worker; returns (process, seconds until it was ready)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")] + argv,
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, **_ONE_THREAD},
    )
    timer = threading.Timer(max(0.0, deadline - start), proc.kill)
    timer.start()
    proc.timer = timer
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    try:
        event = json.loads(line).get("event")
    except ValueError:
        event = None
    if event != "ready":
        proc.kill()
        _finish(proc)
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def _finish(proc) -> str:
    """Wait for a worker to end; returns the rest of its standard output."""
    rest = proc.stdout.read()
    proc.wait()
    proc.timer.cancel()
    return rest


def run(args, spec) -> dict:
    begin = time.perf_counter()
    deadline = begin + DEADLINE_S
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    for _ in range(SETUP_STARTS - 1):
        if setups and time.perf_counter() - begin > SETUP_SHARE * DEADLINE_S:
            break
        proc, ready = _start_worker(argv + ["--setup-only"], deadline)
        setups.append(ready)
        _finish(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"setup worker exited {proc.returncode}")
    # perf_counter is CLOCK_MONOTONIC on Linux, shared with the worker.
    stop_by = deadline - CHECK_RESERVE_S
    proc, ready = _start_worker(argv + ["--stop-by", repr(stop_by)], deadline)
    setups.append(ready)
    lines = _finish(proc).splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    worker = json.loads(lines[-1])

    if args.trace:
        metrics = {}
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": worker["layers"].get(m["name"], 0), "unit": m["unit"]}
    else:
        values = dict(worker, setup_s=statistics.median(setups))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    return {
        "correct": worker["correct"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
        "setup_starts_s": setups,
        "cut_at_deadline": worker["cut_at_deadline"],
        "failures": worker["failures"],
        "problems": worker["problems"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark of hardyops report and sweep")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hardyops" / "cli.py").is_file():
        print(f"perfbench: no hardyops sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(names)}", file=sys.stderr)
        return 2
    try:
        result = run(args, spec)
    except (RuntimeError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(dict(result, workload=args.workload, seed=args.seed), indent=2) + "\n")
    for line in result["failures"] + result["problems"]:
        print(line)
    if result["cut_at_deadline"]:
        print(f"perfbench: the loop stopped starting items {DEADLINE_S - CHECK_RESERVE_S:.0f} s after "
              f"launch, so its last round is partial; the figures are those of the items it ran")
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
