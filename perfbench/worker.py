"""One worker process of the benchmark: a single closed-loop caller.

Started by run.py from the root of a checkout, with BLAS threads held at
one.  It imports hardyops from the checkout's `src`, writes the workload's
config and family files, runs one untimed warm-up item and prints
`{"event": "ready"}`.  A `--setup-only` worker stops there.  Otherwise it
attempts whole rounds of items, each started when the previous one has
returned, and starts no round after `--seconds` have passed; then it
checks every output and prints one JSON result line.  Only a run so slow
that its next item would end after `--stop-by` (a `time.perf_counter`
reading) stops inside a round; its result says `cut_at_deadline`.

With `--trace 1` the first half of the time runs untraced and the second
half under the span wrappers of spans.py, so that the tracing overhead is
the difference of the two median item times.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def import_program():
    """hardyops.cli.main from the checkout's own sources, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hardyops.cli

    if Path(hardyops.cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"perfbench: hardyops imported from {hardyops.cli.__file__}, not {src}")
    return hardyops.cli.main


class Runner:
    """Writes the input files of a pool of rounds and runs their items."""

    def __init__(self, main, pool, work: Path):
        self.main = main
        self.pool = pool
        self.work = work
        self.argv = {}
        for r, items in enumerate(pool):
            for k, item in enumerate(items):
                config = work / f"{r}.{k}.config.json"
                config.write_text(json.dumps(item.config))
                argv = [item.kind, "--config", str(config)]
                if item.family is not None:
                    family = work / f"{r}.{k}.family.json"
                    family.write_text(json.dumps(item.family))
                    argv += ["--family", str(family)]
                self.argv[r, k] = argv
        self.attempts = []
        self.stop_by = float("inf")
        self.cut_at_deadline = False

    def run(self, r: int, k: int, tag: str) -> dict:
        """Call main on item k of pool round r; the wall time runs from the
        call to the returned exit code."""
        out = self.work / f"{tag}.out"
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(stream):
            start = time.perf_counter()
            code = self.main(self.argv[r, k] + ["--out", str(out)])
            wall = time.perf_counter() - start
        attempt = {"round": r, "item": k, "code": code, "wall": wall, "out": out,
                   "message": stream.getvalue(), "start": start}
        self.attempts.append(attempt)
        return attempt

    def run_rounds(self, seconds: float, first_round: int, tracer=None) -> int:
        """Whole rounds, starting another while less than `seconds` have
        passed, and at least one item; returns the index of the next pool
        round."""
        start = time.perf_counter()
        first = len(self.attempts)
        r = first_round
        while True:
            pool_r = r % len(self.pool)
            for k in range(len(self.pool[pool_r])):
                longest = max((a["wall"] for a in self.attempts), default=0.0)
                if len(self.attempts) > first and time.perf_counter() + longest > self.stop_by:
                    self.cut_at_deadline = True
                    return r
                if tracer is not None:
                    tracer.begin_item()
                self.run(pool_r, k, f"a{len(self.attempts)}")
            r += 1
            if time.perf_counter() - start >= seconds:
                return r

    def item(self, attempt: dict):
        return self.pool[attempt["round"]][attempt["item"]]

    def problems(self, attempt: dict) -> list:
        """Output problems of one attempt that exited 0."""
        item = self.item(attempt)
        text = attempt["out"].read_text(encoding="utf-8")
        if item.kind == "report":
            found = check.check_report(text, item.config)
        elif item.family["kind"] == "symbol_zero":
            found = check.check_symbol_zero_csv(text, item.config, item.family)
        else:
            found = check.check_probe_csv(text, item.config, item.family)
        return [f"{item.name}: {p}" for p in found]


def _median_layers(per_item: list) -> dict:
    names = sorted({name for stats in per_item for name in stats if name != "hardy.grid_m"})
    layers = {"hardy.grid_m": statistics.median(s["hardy.grid_m"] for s in per_item)}
    for name in names:
        layers[f"{name}.calls"] = statistics.median(s.get(name, [0, 0.0])[0] for s in per_item)
        layers[f"{name}.self_s"] = statistics.median(s.get(name, [0, 0.0])[1] for s in per_item)
    return layers


def _write_trace(path: Path, runner: Runner, tracer: Tracer, traced: list) -> None:
    by_item = [[] for _ in traced]
    for item, name, start, end, parent in tracer.spans:
        by_item[item].append([name, round(start - traced[item]["start"], 7),
                              round(end - traced[item]["start"], 7), parent])
    with open(path, "w", encoding="utf-8") as fh:
        for attempt, spans in zip(traced, by_item):
            name = runner.item(attempt).name
            fh.write(json.dumps({"item": name, "wall_s": attempt["wall"], "spans": spans}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--stop-by", type=float, default=float("inf"))
    args = ap.parse_args(argv)

    program = import_program()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(program, workloads.rounds_for(args.workload, args.seed), work)
        warm = runner.run(0, 0, "warmup")
        runner.attempts.clear()
        runner.stop_by = args.stop_by
        print(json.dumps({"event": "ready"}), flush=True)
        if args.setup_only:
            return 0

        tracer = None
        loop_start = time.perf_counter()
        if args.trace:
            next_round = runner.run_rounds(args.seconds / 2, 0)
            untraced = len(runner.attempts)
            tracer = Tracer()
            tracer.install()
            try:
                runner.run_rounds(args.seconds / 2, next_round, tracer)
            finally:
                tracer.uninstall()
        else:
            runner.run_rounds(args.seconds, 0)
            untraced = len(runner.attempts)
        loop_s = time.perf_counter() - loop_start

        attempts = runner.attempts
        problems = runner.problems(warm) if warm["code"] == 0 else []
        ok = 0
        for attempt in attempts:
            if attempt["code"] == 0:
                found = runner.problems(attempt)
                problems += found
                ok += not found
        failures = [a for a in attempts if a["code"] != 0]
        first = attempts[0]
        if warm["code"] != first["code"] or (
            warm["code"] == 0 and warm["out"].read_bytes() != first["out"].read_bytes()
        ):
            problems.append("the warm-up item and its first timed run differ")
        walls = [a["wall"] for a in attempts[:untraced]]
        result = {
            "event": "result",
            "correct": not problems,
            "problems": problems[:20],
            "attempted": len(attempts),
            "cut_at_deadline": runner.cut_at_deadline,
            "failed": len(failures),
            "failures": sorted({f"{runner.item(a).name}: {a['message'].strip()}" for a in failures}),
            "item_p50_s": statistics.median(walls),
            "ok_items_per_s": ok / loop_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if tracer is not None:
            traced = attempts[untraced:]
            result["layers"] = _median_layers(tracer.per_item)
            result["layers"]["trace.overhead_s"] = (
                statistics.median(a["wall"] for a in traced) - result["item_p50_s"]
            )
            OUT_DIR.mkdir(exist_ok=True)
            _write_trace(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl", runner, tracer, traced)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
