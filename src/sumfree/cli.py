"""Command-line front end.

One binary, subcommand style; JSON lines are the machine format, CSV for
tabulations.  Identical invocation and seed produce byte-identical primary
output regardless of worker count: `--workers` spreads only `enumerate`'s
seed chunks over a process pool, whose counts merge associatively, and every
listing is canonically sorted before printing.  Only `enumerate` caches its
record, which it also formats as CSV and table; the rest always recompute.

Exit codes: 0 success, 1 a verification check failed, 2 usage or limit error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import census, checks, constructions
from .cache import cache_lookup, cache_store, default_cache_dir
from .graph import (
    Graph,
    complete,
    cycle,
    from_text,
    matching,
    path,
    prism,
    to_text,
)
from .group import AbelianGroup, f_group, f_max_group, mu
from .linkgraph import link_family, link_pair_even, link_single_even
from .mis import EnumerationLimitError, check_vertex_limit, count_mis, enumerate_mis


# the branch route with 2 workers on a 2-core Intel Xeon (Python 3.11.7):
# 202 s at n = 67 and 422 s at n = 70, about 1.28x per +1 there, so n = 71
# extrapolates to about 540 s, too close to 600 s
ENUMERATE_MAX_N = 70
# link graphs are built in element space, so memory grows as n^2: --n 20000
# took 0.29-0.55 s and 56-67 MB (S of 1 to 10 members), 40000 took 0.6-1.5 s
# and 158-180 MB, on a 2-core Intel Xeon; the budget is 1 s and 100 MB
LINK_MAX_N = 20000
MAX_WORKERS = 64  # each a whole interpreter process, and a pool may start all at once
_GRAPH_FAMILIES = "path:N, cycle:N, matching:K, complete:N, prism"  # mis --family
# value types of the record `enumerate` prints and caches
_RECORD_TYPES = {"ground": str, "f": int, "f_max": int, "method": str, "elapsed_ms": float}


_GLOBAL_DEFAULTS = {
    "workers": 1,
    "seed": 0,
    "cache_dir": None,
    "no_cache": False,
    "output": "json",
}


def _global_options() -> argparse.ArgumentParser:
    # accepted both before and after the subcommand; SUPPRESS keeps a
    # subcommand's unset flags from clobbering ones given up front
    g = argparse.ArgumentParser(add_help=False)
    g.add_argument("--workers", type=int, default=argparse.SUPPRESS)
    g.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    g.add_argument("--cache-dir", type=Path, default=argparse.SUPPRESS)
    g.add_argument("--no-cache", action="store_true", default=argparse.SUPPRESS)
    g.add_argument(
        "--output", choices=("json", "csv", "table"), default=argparse.SUPPRESS
    )
    return g


@functools.cache  # built at the first run; a dropped parser is cyclic garbage
def _parser() -> argparse.ArgumentParser:
    common = _global_options()
    top = argparse.ArgumentParser(
        prog="sumfree",
        description="exact sum-free set enumeration, link graphs, and MIS counts",
        parents=[common],
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="f(n) and f_max(n)", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--oracle", action="store_true",
                   help=f"count by a depth-first walk of every sum-free subset of [n], "
                        f"on --workers stripes (n <= {census.ORACLE_MAX_N})")

    p = sub.add_parser("mis", help="count maximal independent sets", parents=[common])
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", type=Path, help="graph text file")
    src.add_argument("--family", help=_GRAPH_FAMILIES)
    p.add_argument("--enumerate", action="store_true", dest="list_sets")

    p = sub.add_parser("link", help="emit a link graph in text format", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--s", help="comma-separated extra linked elements")
    p.add_argument("--even", type=int)
    p.add_argument("--even2", type=int)

    p = sub.add_parser("construct", help="lower-bound families", parents=[common])
    p.add_argument(
        "--family",
        required=True,
        choices=tuple(_FAMILIES),
    )
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--group", metavar="GROUP_DESC")

    p = sub.add_parser("group", help="abelian group computations", parents=[common])
    p.add_argument("--desc", required=True, help='group descriptor, e.g. "Z4xZ2xZ2"')
    p.add_argument("--op", required=True, choices=("mu", "f", "fmax"))

    p = sub.add_parser("verify", help="run the named checks", parents=[common])
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--check", choices=sorted(checks.ALL_CHECKS))
    which.add_argument("--all", action="store_true")

    p = sub.add_parser("constants", help="even-link sums by residue class", parents=[common])
    p.add_argument("--dprime", action="store_true", required=True)
    p.add_argument("--n-max", type=int, default=28)

    p = sub.add_parser("sumset-census", help="sets with small sumset", parents=[common])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--delta", type=float, default=1 / 9)
    return top


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")


def _family_graph(spec: str) -> Graph:
    name, _, arg = spec.partition(":")
    builders = {"path": path, "cycle": cycle, "matching": matching, "complete": complete}
    if spec == "prism":
        return prism()
    if name in builders and arg.isdecimal():
        # none has loops, and a matching on K edges has 2K vertices
        check_vertex_limit(int(arg) * (2 if name == "matching" else 1))
        return builders[name](int(arg))
    raise ValueError(f"graph family {spec!r} is not one of {_GRAPH_FAMILIES}")


def _load_kernel() -> None:
    """Load the compiled kernel, so a timer started next leaves out a first build (0.15 s)."""
    from . import kernel
    kernel.load()


def _cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.n
    limit = census.ORACLE_MAX_N if args.oracle else ENUMERATE_MAX_N
    if not 1 <= n <= limit:
        raise ValueError(f"n must lie in [1, {limit}]")
    method = "oracle" if args.oracle else "branch"
    params = {"n": n, "method": method}
    payload = (
        cache_lookup(args.cache_dir, "enumerate", params, valid=lambda p: (
            isinstance(p, dict) and {k: type(v) for k, v in p.items()} == _RECORD_TYPES
            and (p["ground"], p["method"]) == (str(n), method)))
        if not args.no_cache else None
    )
    if payload is None:
        _load_kernel()
        started = time.perf_counter()
        if args.oracle:
            f, fmax = census.oracle_counts(n, workers=args.workers)
        else:
            f, fmax = census.branch_counts(n, workers=args.workers)
        elapsed = (time.perf_counter() - started) * 1000.0
        payload = {"ground": str(n), "f": f, "f_max": fmax, "method": method,
                   "elapsed_ms": round(elapsed, 1)}
        if not args.no_cache:
            cache_store(args.cache_dir, "enumerate", params, payload)
    f, fmax = payload["f"], payload["f_max"]
    if args.output == "csv":
        _emit("n,residue_mod_4,f,f_max,ratio_fmax_over_2_pow_n_quarter,method,elapsed_ms")
        _emit(f"{n},{n % 4},{f},{fmax},{fmax / 2 ** (n / 4):.6f},"
              f"{method},{payload['elapsed_ms']:.1f}")
    elif args.output == "table":
        _emit(f"n={n}  f={f}  f_max={fmax}  [{method}]")
    else:
        _emit(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_mis(args: argparse.Namespace) -> int:
    if args.graph:
        g = from_text(Path(args.graph).read_text())
    else:
        g = _family_graph(args.family)
    if args.list_sets:
        sets = enumerate_mis(g)
        out = {"vertices": g.num_vertices, "count": str(len(sets)),
               "sets": [list(s) for s in sets]}
    else:
        out = {"vertices": g.num_vertices, "count": str(count_mis(g))}
    _emit(json.dumps(out, sort_keys=True))
    return 0


def _cmd_link(args: argparse.Namespace) -> int:
    if args.n > LINK_MAX_N:
        raise EnumerationLimitError(f"n = {args.n} exceeds the link limit {LINK_MAX_N}")
    if args.even is not None:
        if args.even2 is not None:
            g = link_pair_even(args.n, args.even, args.even2)
        else:
            g = link_single_even(args.n, args.even)
    elif args.m is not None:
        try:
            s = [int(v) for v in args.s.split(",")] if args.s else []
        except ValueError:
            raise ValueError(f"--s must be comma-separated integers, not {args.s!r}") from None
        g = link_family(args.n, args.m, s)
    else:
        raise ValueError("link needs --m or --even")
    sys.stdout.write(to_text(g))
    return 0


# family -> (the option it needs, what builds it from that option's value)
_FAMILIES = {
    "ce-odd": ("n", constructions.ce_odd_family),
    "interval": ("n", constructions.interval_family),
    "z2k": ("k", constructions.z2k_family),
    "zn-prism": ("n", constructions.zn_prism_census),
    "index3": ("group", lambda d: constructions.index3_family(AbelianGroup.parse(d))),
    "exponent7": ("group", lambda d: constructions.exponent7_family(AbelianGroup.parse(d))),
}


def _cmd_construct(args: argparse.Namespace) -> int:
    option, build = _FAMILIES[args.family]
    value = getattr(args, option)
    if value is None:
        raise ValueError(f"{args.family} needs --{option}")
    family = build(value)
    if isinstance(family, constructions.PrismCensus):
        _emit(json.dumps({
            "n": family.n,
            "window": family.window_size,
            "prism_components": family.prism_components,
            "other_components": family.other_components,
            "mis": str(family.mis),
        }, sort_keys=True))
        return 0
    problems = constructions.verify_family(family)
    if problems:
        for pr in problems:
            print(pr, file=sys.stderr)
        return 1
    for member in family.members:
        _emit(json.dumps(member.members))
    return 0


def _cmd_group(args: argparse.Namespace) -> int:
    grp = AbelianGroup.parse(args.desc)
    if args.op == "mu":
        value = mu(grp)
    elif args.op == "f":
        value = f_group(grp)
    else:
        value = f_max_group(grp)
    _emit(json.dumps({"group": grp.describe(), "op": args.op, "value": value},
                     sort_keys=True))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    _load_kernel()
    if args.all:
        reports = checks.run_all(seed=args.seed)
    else:
        reports = [checks.run_check(args.check, seed=args.seed)]
    ok = True
    for r in reports:
        ok &= r.passed
        if args.output == "table":
            status = "PASS" if r.passed else "FAIL"
            _emit(
                f"{r.name:<26} {status}  instances={r.instances_checked}"
                f"  elapsed={r.elapsed_ms:.0f}ms"
            )
            for f in r.failures:
                _emit(f"    failure: {f}")
            for note in r.notes:
                _emit(f"    note: {note}")
        else:
            _emit(json.dumps({
                "name": r.name,
                "passed": r.passed,
                "instances_checked": r.instances_checked,
                "failures": list(r.failures),
                "notes": list(r.notes),
                "elapsed_ms": round(r.elapsed_ms, 1),
            }, sort_keys=True))
    return 0 if ok else 1


def _cmd_constants(args: argparse.Namespace) -> int:
    rows = []
    for n in range(4, args.n_max + 1):
        sums = census.dprime_sum(n)
        limit = census.EVEN_LINK_LIMITS[n % 4]
        rows.append({
            "n": n,
            "residue_mod_4": n % 4,
            "total": str(sums.total),
            "restricted": str(sums.restricted),
            "geometric_closed_form": str(sums.geometric_closed_form),
            "ratio": round(sums.ratio(), 6),
            "limit": round(limit, 6),
            # the fitted envelope: |ratio - limit| shrinks about as 2^{-n/12}
            "deviation": round(abs(sums.ratio() - limit) * 2 ** (n / 12), 6),
        })
    if args.output == "csv":
        _emit("n,residue_mod_4,total,restricted,geometric_closed_form,ratio,limit,deviation")
        for row in rows:
            _emit(",".join(str(v) for v in row.values()))
    else:
        for row in rows:
            _emit(json.dumps(row, sort_keys=True))
    return 0


def _cmd_sumset_census(args: argparse.Namespace) -> int:
    result = census.small_sumset_count(args.d, args.s, args.r, delta=args.delta)
    _emit(json.dumps({
        "d": result.d,
        "s": result.s,
        "r": str(result.r),
        "count": str(result.count),
        "bound": result.bound,
        "delta": result.delta,
    }, sort_keys=True))
    return 0


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "mis": _cmd_mis,
    "link": _cmd_link,
    "construct": _cmd_construct,
    "group": _cmd_group,
    "verify": _cmd_verify,
    "constants": _cmd_constants,
    "sumset-census": _cmd_sumset_census,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for key, default in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, default)
    if args.workers < 1:
        print("error: workers must be >= 1", file=sys.stderr)
        return 2
    if args.workers > MAX_WORKERS:
        print(f"error: workers must be <= {MAX_WORKERS}", file=sys.stderr)
        return 2
    if args.cache_dir is None:
        args.cache_dir = default_cache_dir()
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError, EnumerationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
