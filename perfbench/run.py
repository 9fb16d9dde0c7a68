"""End-to-end benchmark of dld: workloads run through `dld.cli.main`.

    python3 perfbench/run.py --workload list-build --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Run from a checkout of the repository; dld is imported from its `src`
directory, in this process, and called exactly as `dld run` and `dld
check` are.  A run sets up several times, then times whole passes until
the next one would overrun `--seconds`, checks every pass's output, and
prints one JSON object as its last line: the end-to-end metrics with
`--trace 0`, the per-layer metrics (with the tracing overhead) with
`--trace 1`.  Inputs, results and traces go to `.perfbench/` in the
checkout.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from layers import METRICS, Tracer, traced
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUPS = 9       # set-ups per run; setup_s is their median
MIN_PASSES = 3   # timed passes per run, however long they take
PROBLEMS_SHOWN = 20


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def set_up(workload: str, seed: int, smoke: bool):
    """Import dld afresh from the checkout and make the workload's
    inputs.  Returns dld's `cli.main` and the pass plan."""
    if not (SRC / "dld" / "cli.py").is_file():
        raise BenchError(f"no dld sources under {SRC}")
    for name in [m for m in sys.modules if m == "dld" or m.startswith("dld.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("dld.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"dld was imported from {cli.__file__}, not {SRC}")
    workdir = WORK / workload
    workdir.mkdir(parents=True, exist_ok=True)
    plan = WORKLOADS[workload][1 if smoke else 0](seed, workdir)
    return cli.main, plan


def timed_pass(main, plan):
    """Run one pass; returns (wall seconds, Verdict).  An invocation
    that raises fails every operation of the pass."""
    gc.collect()
    outputs = []
    start = time.perf_counter()
    try:
        for argv in plan.argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            outputs.append((code, buf.getvalue()))
    except Exception:
        wall = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return wall, None
    wall = time.perf_counter() - start
    return wall, plan.check(outputs)


class Tally:
    """Operations attempted and failed, and output problems, of a run."""

    def __init__(self, plan):
        self.plan = plan
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, verdict):
        self.attempted += self.plan.ops
        if verdict is None:
            self.failed += self.plan.ops
        else:
            self.failed += verdict.failed
            self.problems.extend(verdict.problems)

    def result(self, metrics: dict) -> dict:
        for problem in self.problems[:PROBLEMS_SHOWN]:
            print(f"problem: {problem}")
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def measure(main, plan, seconds: float, setups: list) -> dict:
    """Timed passes with tracing off: the end-to-end metrics."""
    tally = Tally(plan)
    walls = []
    start = time.perf_counter()
    while (len(walls) < MIN_PASSES or time.perf_counter() - start
           + statistics.median(walls) <= seconds):
        wall, verdict = timed_pass(main, plan)
        walls.append(wall)
        tally.add(verdict)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return tally.result({
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "ops_per_s": {"value": statistics.median(plan.ops / w for w in walls),
                      "unit": "1/s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    })


def measure_traced(main, plan, seconds: float, trace_file: Path) -> dict:
    """Untraced and traced passes in turn: the per-layer metrics, each
    the median over traced passes, and the tracing overhead."""
    tally = Tally(plan)
    plain, walls, per_pass = [], [], []
    start = time.perf_counter()
    while (not walls or time.perf_counter() - start
           + statistics.median(plain) + statistics.median(walls) <= seconds):
        wall, verdict = timed_pass(main, plan)
        plain.append(wall)
        tally.add(verdict)
        tracer = Tracer()
        with traced(tracer) as traced_main:
            wall, verdict = timed_pass(traced_main, plan)
        walls.append(wall)
        tally.add(verdict)
        per_pass.append(tracer.values())
    trace_file.write_text(json.dumps(
        {"untraced_wall_s": plain, "traced_wall_s": walls,
         "passes": per_pass}, indent=1) + "\n")
    metrics = {name: {"value": statistics.median(p[name] for p in per_pass),
                      "unit": unit}
               for name, (unit, _) in METRICS.items()}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(walls) - statistics.median(plain),
        "unit": "s"}
    return tally.result(metrics)


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setups = []
    for _ in range(SETUPS):
        gc.collect()
        start = time.perf_counter()
        main, plan = set_up(workload, seed, smoke=False)
        setups.append(time.perf_counter() - start)
    if trace:
        return measure_traced(main, plan, seconds,
                              WORK / workload / f"trace-{seed}.json")
    return measure(main, plan, seconds, setups)


def smoke(seed: int) -> bool:
    """Every workload at its smallest size: one untraced and one traced
    pass each, checked.  True when all are correct and none failed."""
    ok = True
    for workload in WORKLOADS:
        main, plan = set_up(workload, seed, smoke=True)
        tally = Tally(plan)
        tally.add(timed_pass(main, plan)[1])
        with traced(Tracer()) as traced_main:
            tally.add(timed_pass(traced_main, plan)[1])
        result = tally.result({})
        print(json.dumps({"workload": workload, **result}))
        ok = ok and result["correct"] and result["failed"] == 0
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at its smallest size")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.smoke:
            return 0 if smoke(args.seed) else 1
        result = bench(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    line = json.dumps(result)
    (WORK / args.workload / f"result-{args.seed}-trace{args.trace}.json"
     ).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
