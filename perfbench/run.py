"""Benchmark of sumfree's exact counts.

    python3 perfbench/run.py --workload walk --seed 1 --seconds 15 --trace 0

Run from the root of a sumfree checkout; the package is imported from its
`src/`.  Workloads, metrics and bounds are declared in BENCHMARK.json.

For each workload this script starts one fresh worker interpreter
(worker.py) that runs the workload in a closed loop for `--seconds` and
checks every count exactly.  Between iterations the worker asks this script
to time set-up in fresh interpreters, so set-up probes spread through the
run's time window like the iterations do and never overlap one.  With
`--trace 0` it reports the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run.  The last line of stdout is one JSON
object; the lines above it give each metric with its unit and sample count,
the error rate, provenance and what cannot be measured from outside.
`--workload all` runs the four in turn and prefixes each metric with its
workload name.

Exit code 0 when every operation returned its expected result, 1 when one
did not, 2 when the benchmark could not run (no `src/sumfree` here, a
worker crashed or timed out).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
# set-up probes per run, requested by the worker between its iterations;
# one more unrecorded probe comes first to write the bytecode caches
SETUP_SAMPLES = 30
NUMPY_SAMPLES = 5
WORKER_TIMEOUT_S = 150  # the whole command must end within 180 s

# set-up: fresh interpreter start until `import sumfree.cli` returns.  The
# child prints CLOCK_MONOTONIC, which on Linux is one clock for all processes.
SETUP_PROBE = "import sumfree.cli, time; print(time.monotonic())"
NUMPY_PROBE = ("import time; t = time.perf_counter(); import numpy; "
               "print(time.perf_counter() - t)")

# per-layer metrics that rest on the single workers=1 pass of the walk
WALK_1W = ("census.walk_1w_s", "census.can_add_tests", "census.child_yield",
           "census.pool_speedup")

NOTES = [
    "error_rate is failed / attempted; it is printed here and carried by the "
    "result's failed/attempted fields, not as a metric, because it is 0 on "
    "every correct run",
    "cache lookups and stores are a gate, not metrics: --trace 1 fails the "
    "run unless both are 0",
    "spans and counts inside forked pool workers are lost: census.f_branch_s "
    "and census.f_max_branch_s are the pool calls as the caller sees them, "
    "census.can_add_tests and census.child_yield come from the workers=1 "
    "pass, and census.pool_speedup stands in for per-worker load",
    "not measurable from outside: per-worker task balance and time waiting "
    "on the pool (inside the workers), memo sizes of the MIS recursion "
    "(locals of mis._count_component); both need in-program tracing",
    "peak_rss_mb is this run's worker process plus its largest pool child "
    "(getrusage maxima), an upper bound where they share pages",
]


class BenchError(Exception):
    """The benchmark itself could not run."""


def probe(code: str, env: dict) -> tuple[float, str]:
    started = time.monotonic()
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise BenchError(f"probe failed: {done.stderr.strip()}")
    return started, done.stdout.strip()


def setup_seconds(env: dict, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        started, out = probe(SETUP_PROBE, env)
        samples.append(float(out) - started)
    return samples


def run_worker(args, workload: str, env: dict, result: Path,
               setup: list[float]) -> dict:
    """Run worker.py to the end.  Each line it prints asks for that many
    set-up probes, appended to `setup`; an empty reply lets it go on."""
    probes = 0 if args.trace else SETUP_SAMPLES
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--setup-probes", str(probes),
           "--result", str(result)]
    # own session, so a timeout can stop the worker and its pool together
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    timed_out = threading.Event()

    def stop() -> None:
        if proc.poll() is None:
            timed_out.set()
            os.killpg(proc.pid, signal.SIGKILL)

    watchdog = threading.Timer(WORKER_TIMEOUT_S, stop)
    watchdog.start()
    try:
        for line in proc.stdout:
            setup += setup_seconds(env, int(line))
            proc.stdin.write("\n")
            proc.stdin.flush()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if timed_out.is_set():
        raise BenchError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s")
    if rc != 0:
        raise BenchError(f"{workload}: worker exited with {rc}")
    return json.loads(result.read_text())


def run_one(args, workload: str, tmp: Path, units: dict) -> dict:
    cache_dir = tmp / "cache"  # --no-cache must leave this uncreated
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, SUMFREE_CACHE_DIR=str(cache_dir))
    # set-up is an end-to-end metric only: a traced run skips the probes
    if not args.trace:
        setup_seconds(env, 1)
    setup: list[float] = []
    res = run_worker(args, workload, env, tmp / f"{workload}.json", setup)
    problems = list(res["errors"])
    if not Path(res["sumfree_file"]).resolve().is_relative_to(ROOT / "src"):
        problems.append(f"imported sumfree from {res['sumfree_file']}, not from src/")
    if cache_dir.exists():
        problems.append("the run wrote to the result cache")

    if args.trace:
        metrics = dict(res["layers"])
        samples = dict.fromkeys(metrics, res["traced_iterations"])
        samples.update(dict.fromkeys(WALK_1W, 1))
        for key, calls in res["cache_calls"].items():
            if calls:
                problems.append(f"{key} = {calls}, expected 0")
        numpy_s = [float(probe(NUMPY_PROBE, env)[1]) for _ in range(NUMPY_SAMPLES)]
        metrics["setup.numpy_import_s"] = statistics.median(numpy_s)
        samples["setup.numpy_import_s"] = NUMPY_SAMPLES
    else:
        metrics = {
            "wall_s": statistics.median(res["walls"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        samples = {"wall_s": len(res["walls"]), "setup_s": len(setup), "peak_rss_mb": 1}
    mismatch = set(units) ^ set(metrics)
    if mismatch:
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    return {
        "workload": workload,
        "correct": res["failed"] == 0 and not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples": samples,
        "cache_calls": res.get("cache_calls", {}),
        "provenance": {"python": res["python"], "numpy": res["numpy"]},
    }


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def report(r: dict, args) -> None:
    print(f"== {r['workload']}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    for name, m in r["metrics"].items():
        n = r["samples"].get(name)
        how = f"median of {n}" if n > 1 else "one value"
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} {how}")
    rate = r["failed"] / r["attempted"]
    print(f"  {'error_rate':<40} {rate:>14.6g} {'1':<6} "
          f"{r['failed']} failed of {r['attempted']} operations")
    for key, calls in r["cache_calls"].items():
        print(f"  {key:<40} {calls:>14} {'count':<6} gate: must be 0")
    for p in r["problems"]:
        print(f"  FAILED: {p}")


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True,
                    help="feeds verify's random corpora; the other workloads are fixed")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sumfree" / "cli.py").is_file():
        print(f"error: no sumfree sources under {ROOT / 'src'}; "
              "run from the root of a sumfree checkout", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    workloads = names if args.workload == "all" else [args.workload]

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        results = [run_one(args, w, tmp, units) for w in workloads]
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    provenance = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        **results[0]["provenance"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": {r["workload"]: r["samples"] for r in results},
    }
    for r in results:
        report(r, args)
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for note in NOTES:
        print(f"note: {note}")

    single = len(results) == 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(k if single else f"{r['workload']}.{k}"): v
                    for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
