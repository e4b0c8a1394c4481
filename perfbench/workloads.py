"""The four workloads and the exact outputs each one must reproduce.

Every workload calls sumfree's public entry points the way a user does.
Only `verify` takes a seed: it feeds the check harness's random corpora
(`link-triangle-free`, `mis-bounds`).  The other three have fixed inputs by
definition, because their outputs are the exact counts being timed.

Each workload runs one iteration and returns its failure messages, one per
failed operation; `Workload.ops` is the number of operations attempted.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

from sumfree import census, cli
from sumfree.intset import IntSubset

WORKERS = min(2, len(os.sched_getaffinity(0)))

CHECK_NAMES = [
    "link-triangle-free", "two-step-mis", "mis-bounds", "even-link-decomposition",
    "even-link-constants", "shift-isomorphism", "single-even-sandwich",
    "cycle-recurrence", "group-two-step-bound",
]

# Expected outputs, each pinned by a second, independent route.
# perfbench/tests/test_expected.py re-derives every pairing at small n and
# the cheap ones at full size.
EXPECTED = {
    # f_max(32): the two-step route at n = 32 (0.7 s).  f(32): no second
    # route reaches n = 32 (the oracle stops at 26); walk and oracle agree on
    # f(n) for n <= 18 in the tests.
    "walk": {"n": 32, "f": 849877, "f_max": 8547},
    # the walk at n = 24 (0.1 s)
    "oracle": {"n": 24, "f": 45417, "f_max": 1043},
    # census.f_max_branch(36, workers=2), computed once rather than every
    # run: 23404 in 8.2 s on a 2-core Intel Xeon, Python 3.11.7, numpy 2.4.6,
    # sumfree at commit 233b66e
    "two-step": {"n": 36, "f_max": 23404},
    # instances_checked per check: fixed corpus sizes, whatever the seed
    "verify": dict(zip(CHECK_NAMES, [400, 1450, 517, 60, 25, 126, 15, 100, 7])),
}


def halves(n: int) -> tuple[IntSubset, IntSubset]:
    """[n/2] and (n/2, n]: the two-step route's seed and extension parts."""
    return IntSubset.of(n, range(1, n // 2 + 1)), IntSubset.of(n, range(n // 2 + 1, n + 1))


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(argv)  # attribute lookup, so a traced rebinding is used
    return rc, out.getvalue()


def _check_counts(rc: int, out: str, want: dict) -> list[str]:
    if rc != 0:
        return [f"f: exit {rc}", f"f_max: exit {rc}"]
    got = json.loads(out)
    return [f"{k} = {got.get(k)}, expected {want[k]}"
            for k in ("f", "f_max") if got.get(k) != want[k]]


def walk(seed: int) -> list[str]:
    want = EXPECTED["walk"]
    rc, out = _cli(["--no-cache", "--workers", str(WORKERS),
                    "enumerate", "--n", str(want["n"])])
    return _check_counts(rc, out, want)


def oracle(seed: int) -> list[str]:
    want = EXPECTED["oracle"]
    rc, out = _cli(["--no-cache", "enumerate", "--n", str(want["n"]), "--oracle"])
    return _check_counts(rc, out, want)


def two_step(seed: int) -> list[str]:
    want = EXPECTED["two-step"]
    got = len(census.two_step_enumerate(*halves(want["n"]), want["n"]))
    return [] if got == want["f_max"] else [f"{got} sets, expected {want['f_max']}"]


def verify(seed: int) -> list[str]:
    rc, out = _cli(["--no-cache", "verify", "--all", "--seed", str(seed)])
    reports = {r["name"]: r for r in map(json.loads, out.splitlines())}
    failures = []
    for name, instances in EXPECTED["verify"].items():
        r = reports.get(name)
        if r is None:
            failures.append(f"{name}: no report")
        elif not r["passed"] or r["instances_checked"] != instances:
            failures.append(f"{name}: passed={r['passed']}, "
                            f"instances={r['instances_checked']} (expected {instances})")
    if rc != 0 and not failures:
        failures.append(f"exit {rc} with every check passing")
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    ops: int  # operations per iteration
    run: Callable[[int], list[str]]  # iteration seed -> failure messages


WORKLOADS = {w.name: w for w in (
    Workload("walk", 2, walk),
    Workload("oracle", 2, oracle),
    Workload("two-step", 1, two_step),
    Workload("verify", len(CHECK_NAMES), verify),
)}
