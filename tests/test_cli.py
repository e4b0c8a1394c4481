"""Command-line behaviour: subcommands, formats, cache, exit codes."""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sumfree
from sumfree import cache, checks, cli, constructions, kernel
from sumfree.cache import cache_key, cache_lookup, cache_store
from sumfree.cli import ENUMERATE_MAX_N, MAX_WORKERS, run
from sumfree.constructions import FAMILY_MAX_MEMBERS, FAMILY_MAX_ORDER
from sumfree.graph import from_text, path


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "cache"


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_json(capsys, cache_dir):
    code, out, _ = invoke(
        capsys, "--cache-dir", str(cache_dir), "enumerate", "--n", "12"
    )
    assert code == 0
    record = json.loads(out)
    assert record["f"] == 369 and record["f_max"] == 37
    assert record["method"] == "branch"


def test_enumerate_oracle_and_csv(capsys, cache_dir):
    code, out, _ = invoke(
        capsys,
        "--cache-dir", str(cache_dir), "--output", "csv",
        "enumerate", "--n", "10", "--oracle",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == (
        "n,residue_mod_4,f,f_max,ratio_fmax_over_2_pow_n_quarter,method,elapsed_ms"
    )
    fields, elapsed = row.rsplit(",", 1)
    assert fields == "10,2,151,23,4.065864,oracle"  # 23 / 2**2.5 to 6 places
    assert elapsed == f"{float(elapsed):.1f}"


def test_enumerate_cache_round_trip(capsys, cache_dir):
    _, first, _ = invoke(
        capsys, "--cache-dir", str(cache_dir), "enumerate", "--n", "14"
    )
    assert list(cache_dir.glob("*.json"))
    _, second, _ = invoke(
        capsys, "--cache-dir", str(cache_dir), "enumerate", "--n", "14"
    )
    assert first == second  # byte-identical, served from cache


def test_corrupt_cache_recovers(capsys, cache_dir):
    invoke(capsys, "--cache-dir", str(cache_dir), "enumerate", "--n", "9")
    entry = next(cache_dir.glob("*.json"))
    # not JSON, then JSON that is not an object
    for text in ("{ not json", "[]", '"x"'):
        entry.write_text(text)
        code, out, err = invoke(
            capsys, "--cache-dir", str(cache_dir), "enumerate", "--n", "9"
        )
        assert code == 0, text
        assert json.loads(out)["f"] == 108
        assert "corrupt cache entry" in err
        assert json.loads(entry.read_text())["payload"]["f"] == 108  # overwritten


def test_cache_dir_that_is_a_file_only_warns(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    for target in (blocker, blocker / "sub"):
        code, out, err = invoke(capsys, "--cache-dir", str(target), "enumerate", "--n", "9")
        assert code == 0, target
        assert (json.loads(out)["f"], json.loads(out)["f_max"]) == (108, 17)
        assert err.startswith("warning: cache entry ") and "not stored" in err
    assert blocker.read_text() == "not a directory"


_RECORD_5 = {"ground": "5", "f": 16, "f_max": 5, "method": "branch", "elapsed_ms": 0.1}


@pytest.mark.parametrize(
    "argv, operation, params, stored_params, payload",
    [
        (["enumerate", "--n", "5"], "enumerate", {"n": 5, "method": "branch"},
         None, {"f": 1}),
        (["enumerate", "--n", "5"], "enumerate", {"n": 5, "method": "branch"},
         None, {**_RECORD_5, "ground": "6"}),
        (["enumerate", "--n", "5"], "enumerate", {"n": 5, "method": "branch"},
         None, {**_RECORD_5, "f": "16"}),
        (["enumerate", "--n", "5"], "enumerate", {"n": 5, "method": "branch"},
         {"n": 6, "method": "branch"}, _RECORD_5),
    ],
    ids=["enum-not-a-record", "enum-wrong-ground", "enum-string-count",
         "enum-other-params"],
)
def test_misshapen_cache_entry_is_recomputed(
    capsys, cache_dir, argv, operation, params, stored_params, payload
):
    cache_store(cache_dir, operation, params, payload)
    if stored_params is not None:
        entry = cache_dir / f"{cache_key(operation, params)}.json"
        entry.write_text(json.dumps({**json.loads(entry.read_text()), "params": stored_params}))
    code, out, err = invoke(capsys, "--cache-dir", str(cache_dir), *argv)
    assert code == 0 and "corrupt cache entry" in err
    # the recomputed entry overwrote the bad one and is served from now on
    assert invoke(capsys, "--cache-dir", str(cache_dir), *argv) == (0, out, "")

    def rows(text):
        return [{k: v for k, v in json.loads(line).items() if k != "elapsed_ms"}
                for line in text.splitlines()]

    assert rows(out) == rows(invoke(capsys, "--no-cache", *argv)[1])


def test_no_cache_flag(capsys, cache_dir):
    code, out, _ = invoke(
        capsys, "--cache-dir", str(cache_dir), "--no-cache",
        "enumerate", "--n", "8",
    )
    assert code == 0 and json.loads(out)["f"] == 61
    assert not cache_dir.exists()


def test_env_var_cache_dir(capsys, tmp_path, monkeypatch):
    target = tmp_path / "env-cache"
    monkeypatch.setenv("SUMFREE_CACHE_DIR", str(target))
    code, out, _ = invoke(capsys, "enumerate", "--n", "7")
    assert code == 0 and json.loads(out)["f"] == 42
    assert list(target.glob("*.json"))


def test_cache_version_tag_invalidates(cache_dir, monkeypatch):
    monkeypatch.setattr(cache, "VERSION_TAG", "v1")
    cache_store(cache_dir, "enumerate", {"n": 5}, {"f": 1})
    assert cache_lookup(cache_dir, "enumerate", {"n": 5}) == {"f": 1}
    key = cache_key("op", {"n": 5})
    monkeypatch.setattr(cache, "VERSION_TAG", "v2")
    assert cache_lookup(cache_dir, "enumerate", {"n": 5}) is None
    assert cache_key("op", {"n": 5}) != key


def test_workers_flag_same_output(capsys, cache_dir):
    _, one, _ = invoke(
        capsys, "--cache-dir", str(cache_dir), "--no-cache",
        "enumerate", "--n", "16",
    )
    _, four, _ = invoke(
        capsys, "--cache-dir", str(cache_dir), "--no-cache", "--workers", "4",
        "enumerate", "--n", "16",
    )
    assert json.loads(one)["f"] == json.loads(four)["f"]
    assert json.loads(one)["f_max"] == json.loads(four)["f_max"]


def test_mis_family_and_graph_file(capsys, tmp_path, cache_dir):
    code, out, _ = invoke(capsys, "mis", "--family", "cycle:6", "--enumerate")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == "5" and len(data["sets"]) == 5
    code, text, _ = invoke(capsys, "link", "--n", "16", "--m", "4")
    gfile = tmp_path / "g.txt"
    gfile.write_text(text)
    code, out, _ = invoke(capsys, "mis", "--graph", str(gfile))
    assert code == 0 and json.loads(out)["count"] == "16"
    assert from_text(text).num_vertices == 8


@pytest.mark.parametrize(
    "text",
    [
        "g 2\nv 0 1\nv 1 2\ne 0 5\n",
        "g\n",
        "g 2\nv 0 1\nv 1 2\ne 0\n",
        "g 2\nv 0 1\nv 1 2\ne 0 -1\n",
        "g 2\nv 0 1\nv 0 3\nv 1 2\n",
        "g 2\ng 2\nv 0 1\nv 1 2\n",
    ],
)
def test_malformed_graph_file_is_a_usage_error(capsys, tmp_path, text):
    gfile = tmp_path / "bad.txt"
    gfile.write_text(text)
    code, out, err = invoke(capsys, "--no-cache", "mis", "--graph", str(gfile))
    assert code == 2 and out == ""
    assert err.startswith("error: graph line ") and err.count("\n") == 1


def test_link_even_pair(capsys):
    code, out, _ = invoke(capsys, "link", "--n", "12", "--even", "8", "--even2", "10")
    assert code == 0 and out.startswith("g 6")


def test_group_command(capsys):
    code, out, _ = invoke(capsys, "group", "--desc", "Z2xZ2xZ2", "--op", "mu")
    assert code == 0 and json.loads(out)["value"] == 4
    code, out, _ = invoke(capsys, "group", "--desc", "Z2xZ2", "--op", "fmax")
    assert json.loads(out)["value"] == 3


def test_construct_families(capsys):
    code, out, _ = invoke(capsys, "construct", "--family", "interval", "--n", "8")
    assert code == 0
    members = [json.loads(line) for line in out.strip().splitlines()]
    assert members == [[2, 5, 6], [2, 5, 8], [2, 6, 7], [2, 7, 8]]
    code, out, _ = invoke(capsys, "construct", "--family", "ce-odd", "--n", "9")
    assert (code, out) == (0, "[1, 3, 8]\n[1, 5, 8]\n[3, 7, 8]\n[5, 7, 8]\n")
    code, out, _ = invoke(capsys, "construct", "--family", "z2k", "--k", "3")
    assert code == 0 and len(out.strip().splitlines()) == 4
    code, out, _ = invoke(capsys, "construct", "--family", "zn-prism", "--n", "27")
    assert json.loads(out)["prism_components"] == 1


@pytest.mark.parametrize("argv", [
    ["--family", "ce-odd", "--n", "19"],
    ["--family", "interval", "--n", "16"],
    ["--family", "z2k", "--k", "4"],
    ["--family", "index3", "--group", "Z3xZ9"],
    ["--family", "exponent7", "--group", "Z7xZ7"],
])
def test_construct_prints_members_in_sorted_order(capsys, argv):
    code, out, err = invoke(capsys, "construct", *argv)
    assert (code, err) == (0, "")
    members = [json.loads(line) for line in out.splitlines()]
    assert len(members) > 4 and members == sorted(members)


def test_verify_single_check(capsys):
    code, out, _ = invoke(capsys, "verify", "--check", "cycle-recurrence")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_table_output(capsys):
    code, out, _ = invoke(
        capsys, "--output", "table", "verify", "--check", "group-two-step-bound"
    )
    assert code == 0 and "PASS" in out


def test_constants_csv(capsys, cache_dir):
    code, out, _ = invoke(
        capsys, "--cache-dir", str(cache_dir), "--output", "csv",
        "constants", "--dprime", "--n-max", "16",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("n,residue_mod_4,total,restricted,geometric_closed_form,ratio,"
                        "limit,deviation")
    last = lines[-1].split(",")
    assert last[0] == "16" and last[2] == "69" and last[6] == "3.0"


def test_constants_are_not_cached(capsys, cache_dir):
    cache_dir.mkdir()
    argv = ("constants", "--dprime", "--n-max", "12")
    code, out, err = invoke(capsys, "--cache-dir", str(cache_dir), *argv)
    assert (code, err) == (0, "")
    assert list(cache_dir.iterdir()) == []
    assert invoke(capsys, "--no-cache", *argv) == (0, out, "")
    assert [json.loads(line)["n"] for line in out.splitlines()] == list(range(4, 13))


def test_sumset_census_command(capsys):
    code, out, _ = invoke(
        capsys, "sumset-census", "--d", "10", "--s", "3", "--r", "2"
    )
    assert code == 0 and json.loads(out)["count"] == "120"


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("--r", "1e12"), "r = 1000000000000.0 must lie in [0, 3]"),
        (("--r", "inf"), "r = inf must lie in [0, 3]"),
        (("--r", "nan"), "r = nan must lie in [0, 3]"),
        (("--r", "1e6"), "r = 1000000.0 must lie in [0, 3]"),
        (("--r", "-1"), "r = -1.0 must lie in [0, 3]"),
        (("--r", "2", "--delta", "inf"), "delta = inf must lie in [0, 1]"),
        (("--r", "2", "--delta", "1e6"), "delta = 1000000.0 must lie in [0, 1]"),
        (("--r", "2", "--delta", "-0.5"), "delta = -0.5 must lie in [0, 1]"),
    ],
)
def test_sumset_census_rejects_large_or_non_finite_parameters(capsys, argv, reason):
    code, out, err = invoke(capsys, "sumset-census", "--d", "5", "--s", "2", *argv)
    assert (code, out, err) == (2, "", f"error: {reason}\n")


def test_sumset_census_work_and_bound_limits(capsys):
    # s(s+1)/2 sums per s-subset count towards the limit before C(d, s) does
    code, out, err = invoke(
        capsys, "sumset-census", "--d", str(10**18), "--s", str(10**9), "--r", "1")
    assert code == 2 and out == "" and "exceed the census limit" in err
    # 1e8 one-element sets: refused before the first one, not minutes later
    started = time.perf_counter()
    code, out, err = invoke(
        capsys, "sumset-census", "--d", str(10**8), "--s", "1", "--r", "1")
    assert time.perf_counter() - started < 1
    assert code == 2 and out == "" and "exceed the census limit" in err
    # one s-subset, but a bound near C(s^2/2, s) d^s is past any float
    code, out, err = invoke(capsys, "sumset-census", "--d", "300", "--s", "300", "--r", "301")
    assert (code, out, err) == (2, "", "error: the bound exceeds the float range\n")


def test_graph_file_that_is_a_directory_is_a_usage_error(capsys, tmp_path):
    code, out, err = invoke(capsys, "mis", "--graph", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1


def test_usage_errors(capsys):
    assert invoke(capsys, "no-such-command")[0] == 2
    assert invoke(capsys, "enumerate")[0] == 2  # missing --n
    assert invoke(capsys, "enumerate", "--n", "80")[0] == 2  # beyond ENUMERATE_MAX_N
    code, _, err = invoke(capsys, "group", "--desc", "K4", "--op", "mu")
    assert code == 2 and "error" in err
    code, out, err = invoke(capsys, "construct", "--family", "z2k", "--n", "8")
    assert (code, out, err) == (2, "", "error: z2k needs --k\n")
    code, out, err = invoke(capsys, "construct", "--family", "index3")
    assert (code, out, err) == (2, "", "error: index3 needs --group\n")
    code, out, err = invoke(capsys, "link", "--n", "12")
    assert (code, out, err) == (2, "", "error: link needs --m or --even\n")


@pytest.mark.parametrize("argv, reason", [
    (("mis", "--family", "path"), "graph family 'path' is not one of "
     "path:N, cycle:N, matching:K, complete:N, prism"),
    (("mis", "--family", "prism:5"), "graph family 'prism:5' is not one of "
     "path:N, cycle:N, matching:K, complete:N, prism"),
    (("link", "--n", "10", "--m", "3", "--s", "1,,2"),
     "--s must be comma-separated integers, not '1,,2'"),
])
def test_malformed_spec_names_the_spec(capsys, argv, reason):
    assert invoke(capsys, *argv) == (2, "", f"error: {reason}\n")


def test_enumerate_work_limit_is_a_usage_error(capsys):
    code, out, err = invoke(capsys, "enumerate", "--n", str(ENUMERATE_MAX_N + 1))
    assert (code, out) == (2, "")
    assert err == f"error: n must lie in [1, {ENUMERATE_MAX_N}]\n"


def test_bad_workers_is_a_usage_error(capsys):
    code, out, err = invoke(capsys, "--workers", "0", "enumerate", "--n", "5")
    assert code == 2 and out == ""
    assert err == "error: workers must be >= 1\n"


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a pool was started")


def test_too_many_workers_is_a_usage_error(capsys, monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    for argv in (["enumerate", "--n", "48"], ["verify", "--all"]):
        code, out, err = invoke(capsys, "--workers", str(MAX_WORKERS + 1), *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: workers must be <= {MAX_WORKERS}\n"


class _Unbuilt:
    """Stands in for what builds members and graphs; any use fails."""

    def __getattr__(self, name):
        raise AssertionError(f"built {name} past the limit")

    def __call__(self, *args, **kwargs):
        raise AssertionError("built a graph past the limit")


@pytest.fixture()
def nothing_built(monkeypatch):
    for name in ("IntSubset", "GroupSubset", "link_graph_ints", "link_graph_group",
                 "enumerate_mis", "coset_partition"):
        monkeypatch.setattr(constructions, name, _Unbuilt())


@pytest.mark.parametrize("argv", [
    # the smallest inputs past 2^16 members: 2^17 for ce-odd, interval and
    # index3, 2^32 for z2k and 2^48 for exponent7
    ["--family", "ce-odd", "--n", "68"],
    ["--family", "interval", "--n", "68"],
    ["--family", "z2k", "--k", "7"],
    ["--family", "index3", "--group", "Z3xZ35"],
    ["--family", "exponent7", "--group", "Z7xZ7xZ7"],
])
def test_family_member_limit(capsys, nothing_built, argv):
    assert FAMILY_MAX_MEMBERS == 1 << 16
    code, out, err = invoke(capsys, "construct", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and f"family limit {FAMILY_MAX_MEMBERS}" in err


@pytest.mark.parametrize("argv", [
    ["--family", "zn-prism", "--n", str(FAMILY_MAX_ORDER + 1)],
])
def test_family_order_limit(capsys, nothing_built, argv):
    assert FAMILY_MAX_ORDER == 251
    code, out, err = invoke(capsys, "construct", *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: group order {FAMILY_MAX_ORDER + 1} exceeds the family "
                   f"limit {FAMILY_MAX_ORDER}\n")


@pytest.fixture()
def no_graph_built(monkeypatch):
    for name in ("path", "cycle", "matching", "complete",
                 "link_family", "link_single_even", "link_pair_even"):
        monkeypatch.setattr(cli, name, _Unbuilt())


@pytest.mark.parametrize("spec, vertices", [
    ("path:81", 81), ("cycle:81", 81), ("complete:3000", 3000), ("matching:41", 82),
    ("path:2000000", 2000000),
])
def test_mis_family_vertex_limit(capsys, no_graph_built, spec, vertices):
    for extra in ([], ["--enumerate"]):
        code, out, err = invoke(capsys, "mis", "--family", spec, *extra)
        assert (code, out) == (2, "")
        assert err == f"error: {vertices} loop-free vertices exceeds the limit 80\n"


def test_mis_family_at_the_vertex_limit(capsys):
    # MIS(C_80) is the Perrin number P(80)
    for spec, count in (("matching:40", 2**40), ("cycle:80", 5886726725)):
        code, out, _ = invoke(capsys, "mis", "--family", spec)
        assert code == 0 and json.loads(out) == {"count": str(count), "vertices": 80}


@pytest.mark.parametrize("opts", [["--m", "1"], ["--even", "2"], ["--even", "2", "--even2", "4"]])
def test_link_size_limit(capsys, monkeypatch, no_graph_built, opts):
    n = cli.LINK_MAX_N + 1
    code, out, err = invoke(capsys, "link", "--n", str(n), *opts)
    assert (code, out) == (2, "")
    assert err == f"error: n = {n} exceeds the link limit {cli.LINK_MAX_N}\n"
    # at the limit the graph is built; a two-vertex stand-in keeps it small
    built = []

    def stand_in(size, *rest):
        built.append(size)
        return path(2)

    for name in ("link_family", "link_single_even", "link_pair_even"):
        monkeypatch.setattr(cli, name, stand_in)
    code, out, _ = invoke(capsys, "link", "--n", str(cli.LINK_MAX_N), *opts)
    assert (code, built) == (0, [cli.LINK_MAX_N]) and out.startswith("g 2")


def test_enumeration_limit_is_a_usage_error(capsys):
    code, out, err = invoke(capsys, "mis", "--family", "path:100")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "exceeds the limit" in err
    code, out, err = invoke(capsys, "mis", "--family", "path:100", "--enumerate")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "exceeds the limit" in err


def test_cache_store_leaves_no_temp_file(cache_dir):
    cache_store(cache_dir, "enumerate", {"n": 5}, {"f": 16})
    cache_store(cache_dir, "enumerate", {"n": 5}, {"f": 16})  # overwrite
    assert [p.name for p in cache_dir.iterdir()] == [
        f"{cache_key('enumerate', {'n': 5})}.json"
    ]
    assert cache_lookup(cache_dir, "enumerate", {"n": 5}) == {"f": 16}


def test_deterministic_verify_output(capsys):
    _, a, _ = invoke(capsys, "--seed", "7", "verify", "--check", "link-triangle-free")
    _, b, _ = invoke(capsys, "--seed", "7", "verify", "--check", "link-triangle-free")
    a_data, b_data = json.loads(a), json.loads(b)
    for key in ("name", "passed", "instances_checked", "failures"):
        assert a_data[key] == b_data[key]


def test_verify_all_through_a_pool_matches_serial(capsys):
    # `--workers` spreads only enumerate's seeds, so verify's output is the
    # serial one
    def records(*argv):
        code, out, _ = invoke(capsys, "--seed", "3", *argv, "verify", "--all")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        for row in rows:
            del row["elapsed_ms"]
        return rows

    serial = records()
    assert len(serial) == len(checks.ALL_CHECKS)
    assert records("--workers", "2") == serial


def test_verify_pool_hands_the_seed_to_every_check(capsys, monkeypatch):
    import concurrent.futures

    def note_seed(name):
        return lambda seed: checks.CheckReport(name, 1, (), 0.0, (f"seed={seed}",))

    # verify runs its checks in this process whatever `--workers` says
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    monkeypatch.setattr(checks, "ALL_CHECKS", {
        name: note_seed(name) for name in sorted(checks.SEEDED_CHECKS)
    })
    code, out, _ = invoke(capsys, "--seed", "5", "--workers", "2", "verify", "--all")
    assert code == 0
    assert [(r["name"], r["notes"]) for r in map(json.loads, out.splitlines())] == [
        (name, ["seed=5"]) for name in sorted(checks.SEEDED_CHECKS)
    ]


def test_global_flags_accepted_after_subcommand(capsys):
    # flag placement must not matter: `verify --check ... --seed 7`
    _, a, _ = invoke(capsys, "verify", "--check", "link-triangle-free", "--seed", "7")
    _, b, _ = invoke(capsys, "--seed", "7", "verify", "--check", "link-triangle-free")
    assert json.loads(a)["instances_checked"] == json.loads(b)["instances_checked"]
    code, out, _ = invoke(capsys, "enumerate", "--n", "10", "--no-cache", "--output", "table")
    assert code == 0 and "f_max=23" in out


def fresh_python(*args: str) -> str:
    src = str(Path(sumfree.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout


def test_start_up_loads_only_what_the_route_needs():
    loaded = fresh_python(
        "-c",
        "import sys, sumfree.cli; print(sorted(m for m in ('numpy', 'ctypes', "
        "'multiprocessing', 'concurrent.futures.process') if m in sys.modules))",
    )
    assert loaded.strip() == "[]"
    # the routes that import them on first use still give the same counts,
    # and no route imports numpy
    for argv, counts in (
        (["enumerate", "--n", "12", "--oracle"], (369, 37)),
        (["--workers", "2", "enumerate", "--n", "16"], (1954, 118)),
    ):
        code = ("import json, sys; from sumfree import cli; cli.run(sys.argv[1:]); "
                "print(json.dumps('numpy' in sys.modules))")
        record, numpy_loaded = fresh_python("-c", code, "--no-cache", *argv).splitlines()
        record = json.loads(record)
        assert (record["f"], record["f_max"], json.loads(numpy_loaded)) == (*counts, False)
        if "--oracle" in argv:
            # the n = 12 DFS takes about 10 us, and the record times only it
            assert record["elapsed_ms"] < 50


def test_enumerate_times_the_count_not_the_kernel_build(tmp_path):
    # with an empty build directory (under HOME) the first run builds the
    # kernel, about 0.15 s, before its timer starts; n = 16 counts in 1 ms
    # by either route
    src = str(Path(sumfree.__file__).resolve().parent.parent)
    for route in ([], ["--oracle"]):
        home = tmp_path / ("oracle" if route else "branch")
        done = subprocess.run(
            [sys.executable, "-m", "sumfree.cli", "--no-cache", "enumerate", "--n", "16", *route],
            env={**os.environ, "HOME": str(home), "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120, check=True,
        )
        record = json.loads(done.stdout)
        assert (record["f"], record["f_max"], done.stderr) == (1954, 118, ""), route
        assert record["elapsed_ms"] < 50, route
        if shutil.which(kernel._compiler()[0]):
            assert any((home / ".cache" / "sumfree-kernel").iterdir()), route


def test_verify_times_the_checks_not_the_kernel_build(tmp_path):
    # cycle-recurrence counts the MIS of cycles of up to 24 vertices on the
    # kernel in about 2 ms; an empty build directory (under HOME) makes this
    # run build the kernel first, about 0.15 s, before the check's timer
    src = str(Path(sumfree.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "sumfree.cli", "verify", "--check", "cycle-recurrence"],
        env={**os.environ, "HOME": str(tmp_path), "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, check=True,
    )
    record = json.loads(done.stdout)
    assert (record["passed"], done.stderr) == (True, "")
    assert record["elapsed_ms"] < 50
    if shutil.which(kernel._compiler()[0]):
        assert any((tmp_path / ".cache" / "sumfree-kernel").iterdir())


SCRIPTS =Path(__file__).resolve().parent.parent / "scripts"


def _table_rows(out: str) -> list[list[str]]:
    # table rows start with n, right-aligned in four columns
    return [line.split() for line in out.splitlines() if line[:4].strip().isdigit()]


def test_scripts_run():
    # fmax_ratio_table exits 1 if the branch route and the oracle disagree
    out = fresh_python(str(SCRIPTS / "fmax_ratio_table.py"), "--n-max", "14")
    rows = _table_rows(out)
    assert [int(r[0]) for r in rows] == list(range(1, 15))
    out = fresh_python("-m", "sumfree.cli", "constants", "--dprime", "--n-max", "12")
    rows = [json.loads(line) for line in out.splitlines()][4:]
    assert [r["n"] for r in rows] == list(range(8, 13))
    # limit column: 3, 3 * 2^(-1/4), 2^(3/2), 2^(5/4) by n mod 4
    assert [f"{r['limit']:.4f}" for r in rows] == [
        "3.0000", "2.5227", "2.8284", "2.3784", "3.0000"]
    for r in rows:
        scaled = abs(r["ratio"] - r["limit"]) * 2 ** (r["n"] / 12)
        assert r["deviation"] == pytest.approx(scaled, abs=1e-5)


def test_ratio_table_checks_the_cameron_erdos_bound(capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "fmax_ratio_table", SCRIPTS / "fmax_ratio_table.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    real = script.branch_counts
    # f_max(8) = 13 against 2^2; report 3 there
    monkeypatch.setattr(script, "branch_counts", lambda n, workers: (
        (real(n, workers)[0], 3) if n == 8 else real(n, workers)))
    monkeypatch.setattr(sys, "argv", ["fmax_ratio_table.py", "--n-max", "10"])
    assert script.main() == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "n = 8: f = 61, f_max = 3 is below the Cameron-Erdos bound 2^2\n"
