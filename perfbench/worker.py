"""One measured run of one workload, in a fresh interpreter.

A closed loop with one client: the next iteration starts when the previous
one has returned and been checked.  One untimed warm-up iteration comes
first, so timing starts in a process whose set-up has finished; it counts
towards `--seconds`.  Writes its
samples as JSON to `--result`; run.py turns them into metrics.

Between iterations the worker asks run.py for set-up probes: it prints a
count on stdout and waits for a line on stdin.  run.py times that many
fresh interpreters, so the probes spread over the run like the iterations,
overlap none of them and stay out of this process's peak RSS.

With `--trace 1` the loop runs untraced for half the time, then traced
(sumfree's public functions wrapped from outside, see spans.py) for the
other half, and reports the per-layer metrics of the traced iterations.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
import traceback

import numpy
import sumfree
from sumfree import census, checks

from layers import CACHE_CALLS, layer_metrics, probes, ratio
from spans import SpanTree, Tracer
from workloads import CHECK_NAMES, EXPECTED, WORKLOADS

MIN_ITERATIONS = 3


class Loop:
    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seeds = random.Random(seed)  # one corpus seed per iteration
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def tally(self, ops: int, failures: list[str]) -> None:
        self.attempted += ops
        self.failed += min(ops, len(failures))
        self.errors.extend(failures)

    def once(self) -> float:
        seed = self.seeds.randrange(2**31)
        started = time.perf_counter()
        try:
            failures = self.workload.run(seed)
        except Exception as exc:  # a crashing operation is a failed one
            traceback.print_exc()
            failures = [f"{type(exc).__name__}: {exc}"] * self.workload.ops
        wall = time.perf_counter() - started
        self.tally(self.workload.ops, failures)
        return wall

    def run_for(self, seconds: float, on_iteration=None) -> list[float]:
        """Iterate for about `seconds`: stop before an iteration that would
        likely end past the deadline, but never before MIN_ITERATIONS."""
        walls: list[float] = []
        end = time.perf_counter() + seconds
        while (len(walls) < MIN_ITERATIONS
               or time.perf_counter() + statistics.median(walls) <= end):
            walls.append(self.once())
            if on_iteration is not None:
                on_iteration()
        return walls


class SetupProbes:
    """Asks for `total` set-up probes, in step with the elapsed share of
    `seconds`."""

    def __init__(self, total: int, seconds: float) -> None:
        self.total = total
        self.seconds = seconds
        self.done = 0
        self.started = time.perf_counter()

    def ask(self, count: int) -> None:
        if count > 0:
            print(count, flush=True)
            sys.stdin.readline()
            self.done += count

    def __call__(self) -> None:
        share = (time.perf_counter() - self.started) / self.seconds
        self.ask(min(self.total, round(self.total * share)) - self.done)

    def finish(self) -> None:
        self.ask(self.total - self.done)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its pool children."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def walk_one_worker(loop: Loop, tracer: Tracer) -> dict[str, float]:
    """The walk's f/f_max pair at workers=1, in this process, so the walk's
    mask_can_add calls are counted (in the pool they are lost)."""
    n = EXPECTED["walk"]["n"]
    tracer.reset()
    started = time.perf_counter()
    f = census.f_branch(n, workers=1)
    can_add = tracer.counts["intset.mask_can_add"]
    f_max = census.f_max_branch(n, workers=1)
    wall = time.perf_counter() - started
    loop.tally(2, [f"workers=1 {k} = {got}, expected {EXPECTED['walk'][k]}"
                   for k, got in (("f", f), ("f_max", f_max))
                   if got != EXPECTED["walk"][k]])
    return {"census.walk_1w_s": wall, "census.can_add_tests": can_add,
            "census.child_yield": ratio(f, can_add)}


def traced(loop: Loop, seconds: float) -> tuple[dict[str, float], int, dict[str, int]]:
    """Per-layer metrics (medians over the traced iterations), the number
    of traced iterations and the result cache's calls over all of them."""
    untraced = loop.run_for(seconds / 2)
    tracer = Tracer()
    tracer.install(probes(checks.ALL_CHECKS))
    per_iteration: list[dict[str, float]] = []
    cache_calls = dict.fromkeys(CACHE_CALLS, 0)

    def collect() -> None:
        per_iteration.append(layer_metrics(SpanTree(tracer.spans), tracer.counts, CHECK_NAMES))
        for key in cache_calls:
            cache_calls[key] += tracer.counts[key]
        tracer.reset()

    try:
        tracer.reset()
        walls = loop.run_for(seconds / 2, collect)
        metrics = {k: statistics.median(d[k] for d in per_iteration)
                   for k in per_iteration[0]}
        walk = {"census.walk_1w_s": 0.0, "census.can_add_tests": 0,
                "census.child_yield": 0.0}
        if loop.workload.name == "walk":
            walk = walk_one_worker(loop, tracer)
    finally:
        tracer.uninstall()
    metrics.update(walk)
    metrics["census.pool_speedup"] = ratio(
        walk["census.walk_1w_s"],
        metrics["census.f_branch_s"] + metrics["census.f_max_branch_s"])
    metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(untraced)
    return metrics, len(walls), cache_calls


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-probes", type=int, default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    loop = Loop(WORKLOADS[args.workload], args.seed)
    started = time.perf_counter()
    loop.once()  # warm-up: checked, not timed, inside the run's --seconds
    seconds = args.seconds - (time.perf_counter() - started)
    out = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "sumfree_file": sumfree.__file__,
    }
    if args.trace:
        out["layers"], out["traced_iterations"], out["cache_calls"] = traced(loop, seconds)
    else:
        setup = SetupProbes(args.setup_probes, seconds)
        out["walls"] = loop.run_for(seconds, setup)
        setup.finish()
        out["peak_rss_mb"] = peak_rss_mb()
    out.update(attempted=loop.attempted, failed=loop.failed, errors=loop.errors[:20])
    with open(args.result, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
