"""Counts of sum-free and maximal sum-free subsets of [n]: the counting-DFS
oracle, the branch route, and the censuses built on link graphs."""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumfree import census, cli, kernel, linkgraph
from sumfree.census import (
    ORACLE_MAX_N,
    branch_counts,
    dprime_sum,
    enumerate_maximal_sum_free,
    even_link_term,
    f_branch,
    f_max_branch,
    f_max_oracle,
    f_oracle,
    oracle_counts,
    single_even_census,
    small_sumset_count,
    sum_free_mask_table,
    sum_free_subsets_of,
    two_step_enumerate,
)
from sumfree.intset import (
    GroundSet,
    IntSubset,
    is_maximal_sum_free,
    iter_mask,
    mask_blocked,
    mask_is_sum_free,
)
from sumfree.linkgraph import link_masks
from sumfree.mis import EnumerationLimitError, count_covering_mis, mis_masks

# frozen by running the oracle
F_VALUES = [2, 3, 6, 9, 16, 24, 42, 61, 108, 151, 253, 369, 607, 847]
F_MAX_VALUES = [1, 2, 2, 4, 5, 6, 8, 13, 17, 23, 29, 37, 51, 66]


def test_oracle_frozen_values():
    assert [f_oracle(n) for n in range(1, 15)] == F_VALUES
    assert [f_max_oracle(n) for n in range(1, 15)] == F_MAX_VALUES
    assert f_oracle(22) == 20982
    assert f_max_oracle(22) == 598


def test_oracle_table_matches_definition():
    for n in range(1, 15):
        table = sum_free_mask_table(n)
        assert table == [m for m in range(1 << n) if mask_is_sum_free(m)], n
        # maximality by the definition, one mask at a time
        f_max = sum(
            all(m >> x & 1 or not mask_is_sum_free(m | 1 << x) for x in range(n))
            for m in table
        )
        assert oracle_counts(n) == (len(table), f_max)


def test_oracle_carries_each_masks_joinable_elements():
    for n in range(1, 15):
        for m, joinable in census._dfs_nodes(n, 0, 0, 1):
            want = sum(1 << x for x in range(n)
                       if not m >> x & 1 and mask_is_sum_free(m | 1 << x))
            assert joinable == want, (n, m)


def test_oracle_maximal_masks_are_the_walks():
    # the DFS nodes with no joinable element are the maximal sets, each
    # found once: the same masks as the listing
    for n in range(1, 21):
        maximal = [m for m, joinable in census._dfs_nodes(n, 0, 0, 1) if not joinable]
        want = {s.mask for s in enumerate_maximal_sum_free(n)}
        assert len(maximal) == len(want) and set(maximal) == want, n


def test_oracle_limit(capsys):
    # refused before any work: the CLI before its cache and kernel, and
    # oracle_counts before its pool
    with pytest.raises(ValueError):
        f_oracle(ORACLE_MAX_N + 1)
    assert cli.run(["--no-cache", "enumerate", "--n", str(ORACLE_MAX_N + 1), "--oracle"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: n must lie in [1, {ORACLE_MAX_N}]\n")


def test_oracle_is_a_second_route_for_the_walk_at_32():
    # the walk's f(32) and f_max(32), as pinned by the walk workload
    assert oracle_counts(32) == (849877, 8547)


def test_oracle_is_a_second_route_for_the_two_step_listing_at_36():
    # the two-step workload's 23404 maximal sets, otherwise pinned by the
    # branch route alone
    assert oracle_counts(36) == (3540355, 23404)


def test_branch_matches_oracle():
    for n in range(1, 19):
        assert f_branch(n) == f_oracle(n)
        assert f_max_branch(n) == f_max_oracle(n)


def test_workers_do_not_change_counts():
    for n in (16, 24):
        serial = branch_counts(n)
        for workers in (2, 3):
            assert branch_counts(n, workers) == serial, (n, workers)


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _brute_maximal(n):
    universe = (1 << n) - 1
    return sorted(
        m
        for m in _submasks(universe)
        if mask_is_sum_free(m)
        and not any(
            not m >> x & 1 and mask_is_sum_free(m | 1 << x) for x in range(n)
        )
    )


def _dfs_maximal(n):
    # the maximal sets of [n] as the oracle's DFS finds them: the nodes with
    # no joinable element, in the DFS's order
    return [m for m, joinable in census._dfs_nodes(n, 0, 0, 1) if not joinable]


def test_listing_and_branch_counts_match_definitions():
    # the listing's content and order and the branch route's counts, against
    # the sum-free and maximal masks of [n] found by the definitions
    nodes = 0
    for n in range(1, 15):
        universe = (1 << n) - 1
        maximal = _brute_maximal(n)
        sets = [m for m in _submasks(universe) if mask_is_sum_free(m)]
        nodes += len(sets)
        assert [s.mask for s in enumerate_maximal_sum_free(n)] == sorted(
            maximal, key=lambda m: tuple(iter_mask(m))
        )
        assert branch_counts(n) == (len(sets), len(maximal))
    assert nodes == 2498


def test_seed_counts_match_brute_force(monkeypatch):
    # each seed's share: the sum-free M of [n] with M ∩ [n/2] = S, and how
    # many of them are maximal, by the definitions; the shares sum to the
    # oracle's totals.  _seed_counts is the kernel's reference, so it runs
    # with every way into the compiled code raising (the oracle, which may
    # run on the kernel, counts first)
    def compiled(*args, **kwargs):
        raise AssertionError("the compiled kernel was called")

    oracle = oracle_counts(24)
    monkeypatch.setattr(kernel, "load", compiled)
    monkeypatch.setattr(kernel, "mis_search", compiled)
    for n in range(1, 21):
        half = n // 2
        for seed in sum_free_subsets_of(range(1, half + 1)):
            share = [m for m in (seed | i << half for i in range(1 << n - half))
                     if mask_is_sum_free(m)]
            maximal = sum(all(m >> x & 1 or not mask_is_sum_free(m | 1 << x) for x in range(n))
                          for m in share)
            assert census._seed_counts(n, [seed]) == (len(share), maximal), (n, seed)
    seeds = sum_free_subsets_of(range(1, 13))
    assert census._seed_counts(24, seeds) == oracle == (45417, 1043)


def test_seed_f_max_matches_the_walk_from_each_seed():
    # each seed's share of f_max, from the maximal independent sets of its
    # link graph, is the number of maximal sets the oracle's DFS walk finds
    # with that part in [n/2], for n past the reach of the brute force
    for n in range(1, 27):
        shares = Counter(m & (1 << n // 2) - 1 for m in _dfs_maximal(n))
        for seed in sum_free_subsets_of(range(1, n // 2 + 1)):
            assert census._seed_counts(n, [seed])[1] == shares.pop(seed, 0), (n, seed)
        assert not shares, n


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 22))
def test_routes_agree(n):
    # the oracle, the branch route, the listing of every sum-free set and
    # the listing of maximal sets
    f, f_max = oracle_counts(n)
    assert branch_counts(n) == (f, f_max)
    assert len(sum_free_subsets_of(range(1, n + 1))) == f
    assert len(enumerate_maximal_sum_free(n)) == f_max


@settings(max_examples=60, deadline=None)
@given(
    st.sets(st.integers(1, 24), min_size=2, max_size=12).filter(
        lambda s: max(s) - min(s) + 1 > len(s)
    )
)
def test_sum_free_subsets_of_non_interval(members):
    allowed = sum(1 << (x - 1) for x in members)
    got = sum_free_subsets_of(members)
    assert sorted(got) == sorted(m for m in _submasks(allowed) if mask_is_sum_free(m))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 14).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_sub_universe_walks_match_brute_force(args):
    # the sum-free subsets of U, each once and by increasing size
    _, universe = args
    subsets = sum_free_subsets_of(iter_mask(universe))
    sizes = [m.bit_count() for m in subsets]
    want = [m for m in _submasks(universe) if mask_is_sum_free(m)]
    assert len(subsets) == len(set(subsets)) and sorted(subsets) == sorted(want)
    assert sizes == sorted(sizes)


@st.composite
def _two_parts(draw):
    # disjoint F1, F2 in [n], F2 made sum-free greedily; F1 may lie above F2
    n = draw(st.integers(1, 12))
    side = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    f1 = f2 = 0
    for x, part in enumerate(side, 1):
        if part == 1:
            f1 |= 1 << (x - 1)
        elif part == 2 and mask_is_sum_free(f2 | 1 << (x - 1)):
            f2 |= 1 << (x - 1)
    return n, f1, f2


@settings(max_examples=150, deadline=None)
@given(_two_parts())
def test_two_step_matches_brute_force(parts):
    n, f1, f2 = parts
    got = two_step_enumerate(IntSubset(GroundSet(n), f1), IntSubset(GroundSet(n), f2), n)
    want = [m for m in _brute_maximal(n) if not m & ~(f1 | f2)]
    assert [s.mask for s in got] == sorted(want, key=lambda m: tuple(iter_mask(m)))


@st.composite
def _wide_parts(draw):
    # disjoint F1, F2 in [n] past the brute force's reach: F1 above, below
    # or interleaved with a greedily sum-free F2, or the evens and the odds
    n = draw(st.integers(13, 22))
    layout = draw(st.sampled_from(["above", "below", "interleaved", "parity"]))
    if layout == "parity":
        return n, sum(1 << x - 1 for x in range(2, n + 1, 2)), sum(1 << x - 1 for x in range(1, n + 1, 2))
    cut = draw(st.integers(n // 3, 2 * n // 3))
    upper = [layout != "below" if x > cut else layout == "below" for x in range(1, n + 1)]
    if layout == "interleaved":
        upper = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    kept = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    f1 = f2 = 0
    for x, in_f1, keep in zip(range(1, n + 1), upper, kept):
        if not keep:  # in neither part
            continue
        if in_f1:
            f1 |= 1 << (x - 1)
        elif mask_is_sum_free(f2 | 1 << (x - 1)):
            f2 |= 1 << (x - 1)
    return n, f1, f2


def _unpruned_listing(n, f1, f2):
    # every MIS of every seed's link graph, kept iff the union is maximal
    ground = GroundSet(n)
    want = []
    for seed in sum_free_subsets_of(iter_mask(f1)):
        free = f2 & ~mask_blocked(seed)
        want += [seed | ind for ind in mis_masks(link_masks(seed, f2), free)
                 if is_maximal_sum_free(IntSubset(ground, seed | ind))]
    return sorted(want, key=lambda m: tuple(iter_mask(m)))


@settings(max_examples=100, deadline=None)
@given(_wide_parts())
def test_two_step_matches_the_unpruned_listing(parts):
    # a set the cover wrongly prunes would be missing, and a union kept
    # without its re-test at an unpaired open y may not be maximal
    n, f1, f2 = parts
    ground = GroundSet(n)
    got = two_step_enumerate(IntSubset(ground, f1), IntSubset(ground, f2), n)
    assert [s.mask for s in got] == _unpruned_listing(n, f1, f2)


def test_two_step_listings_without_the_kernel():
    # the two listings above again, on the kernel's Python twin
    with mock.patch.object(kernel, "load", lambda: None):
        test_two_step_matches_brute_force()
        test_two_step_matches_the_unpruned_listing()


@st.composite
def _paired_parts(draw):
    # F2 a nonempty part of (n/2, n], so 2 min F2 > n and every open y has
    # its pair, F1 any part of the rest, and some elements in neither part
    n = draw(st.integers(13, 22))
    side = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    f1 = f2 = 0
    for x, part in enumerate(side, 1):
        if part == 2 and 2 * x > n:
            f2 |= 1 << (x - 1)
        elif part:
            f1 |= 1 << (x - 1)
    if not f2:
        f2, f1 = 1 << (n - 1), f1 & ~(1 << (n - 1))
    return n, f1, f2


@settings(max_examples=100, deadline=None)
@given(_paired_parts())
def test_two_step_without_unpaired_elements_matches_the_unpruned_listing(parts):
    # no union is re-tested here, so the pairs alone must keep exactly the
    # maximal unions
    n, f1, f2 = parts
    ground = GroundSet(n)
    got = two_step_enumerate(IntSubset(ground, f1), IntSubset(ground, f2), n)
    assert [s.mask for s in got] == _unpruned_listing(n, f1, f2)


def test_mask_sort_key_orders_as_member_tuples():
    rng = random.Random(7)
    for masks in (range(1 << 12),
                  [0, *(rng.getrandbits(rng.randint(1, 40)) for _ in range(3000))]):
        assert sorted(masks, key=census._mask_sort_key) == sorted(
            masks, key=lambda m: tuple(iter_mask(m)))


class _RecordingPool:
    """Stands in for ProcessPoolExecutor in this process and keeps the
    tasks it is handed."""

    tasks = []

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        _RecordingPool.tasks = list(tasks)
        return map(fn, _RecordingPool.tasks)


def _upper_mis_count(n, seed):
    # the maximal independent sets of one seed's link graph on the upper
    # half: the leaves of the unpruned search, so a bound on the cover-pruned
    # one `_seed_counts` runs for the seed's share of f_max
    upper = (1 << n) - (1 << n // 2)
    return count_covering_mis(link_masks(seed, upper), upper & ~mask_blocked(seed))


def test_split_balance(monkeypatch):
    # the pool's tasks are chunks of seeds that together give f(24) and
    # f_max(24), and no chunk holds more than an eighth of the maximal
    # independent sets of the seeds' link graphs on the upper half
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    n = 24
    assert branch_counts(n, workers=2) == (45417, 1043)
    chunks = _RecordingPool.tasks
    sets = [sum(_upper_mis_count(n, s) for s in chunk) for chunk in chunks]
    assert len(chunks) >= 16
    assert sorted(s for chunk in chunks for s in chunk) == sorted(
        sum_free_subsets_of(range(1, n // 2 + 1))
    )
    assert 8 * max(sets) <= sum(sets)


# ---------------------------------------------------------------------------
# the compiled kernel against the Python route
# ---------------------------------------------------------------------------


def _has_compiler():
    return shutil.which(kernel._compiler()[0]) is not None


def _require_kernel():
    if kernel.load() is None:
        pytest.skip("the compiled kernel does not load here")


def test_kernel_compiles_without_warnings():
    cc = kernel._compiler()
    if shutil.which(cc[0]) is None:
        pytest.skip("no C compiler on PATH")
    done = subprocess.run([*cc, "-Wall", "-Wextra", "-Werror", "-fsyntax-only", str(kernel.SOURCE)],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


def test_kernel_loads_where_a_compiler_is():
    # the branch route falls back to Python when the kernel does not load,
    # so a broken build would pass every count: with a compiler on PATH,
    # not loading fails here
    if _has_compiler():
        assert kernel.load() is not None


def test_kernel_matches_seed_counts_seed_by_seed():
    _require_kernel()
    for n in range(1, 27):
        seeds = sum_free_subsets_of(range(1, n // 2 + 1))
        compiled = [kernel.seed_counts(n, [seed]) for seed in seeds]
        assert compiled == [census._seed_counts(n, [seed]) for seed in seeds], n


@st.composite
def _drawn_seeds(draw):
    # a sum-free seed in [n/2]: drawn elements, each kept if it leaves the
    # seed sum-free
    n = draw(st.integers(27, 70))
    seed = 0
    for x in draw(st.lists(st.integers(1, n // 2), max_size=8)):
        if mask_is_sum_free(seed | 1 << x - 1):
            seed |= 1 << x - 1
    return n, seed


@settings(max_examples=20, deadline=None)
@given(_drawn_seeds())
def test_kernel_matches_seed_counts_on_drawn_seeds(case):
    _require_kernel()
    n, seed = case
    assert kernel.seed_counts(n, [seed]) == census._seed_counts(n, [seed])


def _upper_half(n):
    return (1 << n) - 1 >> n // 2 << n // 2


def _halves(n):
    # the upper half (n/2, n] and the seeds in [n/2]
    return _upper_half(n), sum_free_subsets_of(range(1, n // 2 + 1))


def _odds_and_single_evens(n, low=1):
    # the odds from `low` up and the seeds {x}, x even
    return (sum(1 << x - 1 for x in range(low, n + 1, 2)),
            [1 << x - 1 for x in range(2, n + 1, 2)])


def _both_listings(n, part, seeds, cap=census._SEED_CAP):
    # the kernel's listing and its twin's, seed by seed
    return ([kernel.seed_listing(n, part, [seed], cap) for seed in seeds],
            [census._seed_listings(n, part, [seed], cap) for seed in seeds])


def test_kernel_listing_matches_the_twin_seed_by_seed():
    # the same sets in the same order, on the halves (no open y unpaired)
    # and on the odds with the seeds {x} (every even y past 2 unpaired, so
    # the unions are re-tested); past 64 the masks take two words
    _require_kernel()
    cases = [(n, *_halves(n)) for n in range(1, 41)]
    cases += [(n, *_odds_and_single_evens(n)) for n in range(1, 31)]
    for n in (100, 127, 128):
        half = n // 2
        cases.append((n, _upper_half(n), sum_free_subsets_of(range(half - 7, half + 1))))
    cases.append((90, *_odds_and_single_evens(90, 27)))
    for n, part, seeds in cases:
        compiled, python = _both_listings(n, part, seeds)
        assert compiled == python, n
    assert sum(map(len, compiled)) == 2155


@settings(max_examples=100, deadline=None)
@given(st.one_of(_wide_parts(), _paired_parts()))
def test_kernel_listing_matches_the_twin_on_drawn_parts(parts):
    _require_kernel()
    n, f1, f2 = parts
    assert kernel.listing_fits(n, f2)
    compiled, python = _both_listings(n, f2, sum_free_subsets_of(iter_mask(f1)))
    assert compiled == python


def test_listing_routes_refuse_bad_input():
    _require_kernel()
    half = _upper_half(12)
    for n, part, seeds in ((0, 0, [0]), (12, half, [1 << 6]), (12, half, [1 << 12]),
                           (12, half, [-1]), (12, half | 1 << 12, [0])):
        for route in (kernel.seed_listing, census._seed_listings):
            with pytest.raises(ValueError):
                route(n, part, seeds, 10)
    # past n = 128 or 64 bits of part the kernel refuses and the dispatch
    # falls back to the twin, which lists them
    for n, part, seeds in ((129, _upper_half(129), [1 << 63]),
                           (100, _odds_and_single_evens(100, 35)[0], [1 << 1])):
        assert not kernel.listing_fits(n, part)
        with pytest.raises(ValueError):
            kernel.seed_listing(n, part, seeds, 10)
        assert census._listings(n, part, seeds) == census._seed_listings(n, part, seeds, 10)


def test_listing_routes_refuse_past_the_cap():
    # the seed {4} of [16] has 5 maximal sets under its cover
    part = _upper_half(16)
    routes = [census._seed_listings, *([kernel.seed_listing] if kernel.load() else [])]
    for route in routes:
        for cap in (4, 0):
            with pytest.raises(EnumerationLimitError):
                route(16, part, [0, 1 << 3], cap)
        assert len(route(16, part, [1 << 3], 5)) == 5


def test_branch_counts_with_and_without_the_kernel(monkeypatch):
    _require_kernel()
    compiled = {(n, w): branch_counts(n, w) for n in range(1, 37) for w in (1, 2)}
    monkeypatch.setattr(kernel, "load", lambda: None)
    for (n, w), counts in compiled.items():
        assert branch_counts(n, w) == counts, (n, w)


def test_kernel_reproduces_the_oracle_at_40_and_44():
    # both kernels: the branch route's and the oracle's DFS (0.2 and 0.7 s)
    _require_kernel()
    assert branch_counts(40) == oracle_counts(40) == (14158720, 62759)
    assert branch_counts(44, workers=2) == oracle_counts(44) == (55560183, 164835)


def test_kernel_limits():
    _require_kernel()
    # at 126 the empty seed's share of f is 2^63, the i(G) of 63 isolated
    # vertices; at 127 it is 2^64, and two of them at 126 sum to 2^64
    assert kernel.seed_counts(126, [0]) == (2**63, 1)
    for n, seeds in ((127, [0]), (126, [0, 0])):
        with pytest.raises(OverflowError):
            kernel.seed_counts(n, seeds)
    with pytest.raises(ValueError, match="n - n//2 <= 64"):
        kernel.seed_counts(129, [])
    with pytest.raises(ValueError, match=r"masks of \[n/2\]"):
        kernel.seed_counts(10, [1 << 5])  # the element 6 lies past 10/2


def test_dfs_kernel_matches_its_twin_stripe_by_stripe():
    # every stripe split at the oracle's own cut, which leaves no task
    # below n = 17, and at every cut for small n
    _require_kernel()
    cases = [(n, max(n - census._ORACLE_CUT, 0)) for n in range(1, 31)]
    cases += [(n, cut) for n in range(1, 13) for cut in range(n + 1)]
    for n, cut in cases:
        totals = set()
        for stripes in (1, 2, 3):
            got = [census._dfs_counts(n, cut, i, stripes) for i in range(stripes)]
            assert [kernel.dfs_counts(n, cut, i, stripes) for i in range(stripes)] == got
            totals.add(tuple(map(sum, zip(*got))))
        assert len(totals) == 1, (n, cut, totals)


@pytest.mark.parametrize("args", [(0, 0, 0, 1), (129, 0, 0, 1), (10, 0, 2, 2),
                                  (10, 0, -1, 2), (10, 11, 0, 1), (10, -1, 0, 1)])
def test_dfs_refuses_bad_input(args):
    with pytest.raises(ValueError):
        census._dfs_counts(*args)
    if kernel.load() is not None:
        with pytest.raises(ValueError):
            kernel.dfs_counts(*args)


@pytest.fixture()
def build_dir(monkeypatch, tmp_path):
    # an empty build directory, and no kernel loaded yet in this process
    monkeypatch.setattr(kernel, "build_dir", lambda: tmp_path / "build")
    kernel.load.cache_clear()
    yield tmp_path / "build"
    kernel.load.cache_clear()


@pytest.mark.parametrize("failure", ["no compiler", "exit 1", "timeout", "unwritable"])
def test_failed_build_falls_back_to_python(monkeypatch, build_dir, capsys, failure):
    from sumfree import cli

    compilers = {
        "no compiler": ["/nonexistent/cc"],
        "exit 1": [sys.executable, "-c", "raise SystemExit(1)"],
        "timeout": [sys.executable, "-c", "import time; time.sleep(30)"],
    }
    if failure == "unwritable":
        # the build directory would lie under a file
        build_dir.parent.joinpath("file").write_text("")
        monkeypatch.setattr(kernel, "build_dir", lambda: build_dir.parent / "file" / "build")
    else:
        monkeypatch.setattr(kernel, "_compiler", lambda: compilers[failure])
    monkeypatch.setattr(kernel, "BUILD_TIMEOUT_S", 0.5)
    assert kernel.load() is None
    assert branch_counts(24) == branch_counts(24, workers=2) == (45417, 1043)
    assert cli.run(["--no-cache", "enumerate", "--n", "20"]) == 0
    out, err = capsys.readouterr()
    assert (json.loads(out)["f"], json.loads(out)["f_max"], err) == (9583, 359, "")
    assert not build_dir.exists() or not any(build_dir.iterdir())


@pytest.mark.parametrize("damage", [lambda lib: lib[: len(lib) // 2],
                                    lambda lib: b"\x7fELF, but not this library"])
def test_truncated_or_foreign_library_is_rebuilt(build_dir, damage):
    if not _has_compiler():
        pytest.skip("no C compiler on PATH")
    assert kernel.load() is not None
    (path,) = build_dir.iterdir()
    built = path.read_bytes()
    path.unlink()  # this process maps the library: writing over it in place would fault
    path.write_bytes(damage(built))
    kernel.load.cache_clear()
    assert kernel.load() is not None
    assert path.read_bytes()[-64:] == built[-64:]  # the digest of the compiled bytes
    seeds = sum_free_subsets_of(range(1, 13))
    assert kernel.seed_counts(24, seeds) == census._seed_counts(24, seeds)


def test_loading_a_built_kernel_imports_no_subprocess():
    # only a build runs the compiler: a process that finds the library whole
    # loads it without importing subprocess
    _require_kernel()
    src = str(Path(census.__file__).resolve().parent.parent)
    code = ("import sys; from sumfree import kernel; assert kernel.load() is not None; "
            "print('subprocess' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout == "False\n"


def test_concurrent_builders_each_finish_one_build(tmp_path):
    # two fresh processes with one empty build directory (under HOME)
    if not _has_compiler():
        pytest.skip("no C compiler on PATH")
    src = str(Path(census.__file__).resolve().parent.parent)
    env = {**os.environ, "HOME": str(tmp_path), "PYTHONPATH": src}
    code = "from sumfree import kernel; assert kernel.load() is not None"
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env) for _ in range(2)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0]
    built = list((tmp_path / ".cache" / "sumfree-kernel").iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"


def test_enumeration_examples():
    assert [s.members for s in enumerate_maximal_sum_free(1)] == [(1,)]
    assert [s.members for s in enumerate_maximal_sum_free(2)] == [(1,), (2,)]
    assert [s.members for s in enumerate_maximal_sum_free(4)] == [
        (1, 3),
        (1, 4),
        (2, 3),
        (3, 4),
    ]


def test_enumerated_sets_are_maximal():
    for n in (6, 9, 12):
        sets = enumerate_maximal_sum_free(n)
        assert len(sets) == F_MAX_VALUES[n - 1]
        assert all(is_maximal_sum_free(s) for s in sets)
        members = [s.members for s in sets]
        assert members == sorted(members)


def test_enumeration_limit():
    with pytest.raises(EnumerationLimitError):
        enumerate_maximal_sum_free(census._ENUMERATE_MAX_N + 1)


def test_enumeration_against_the_oracle_at_44():
    # the oracle's Python twin would take about a minute here
    _require_kernel()
    assert len(enumerate_maximal_sum_free(44)) == oracle_counts(44)[1] == 164835


def test_two_step_full_reproduction():
    # the listing, the two-step join on the halves, against the maximal
    # sets the oracle's DFS finds: the same sets in member-tuple order
    for n in range(1, 21):
        got = [s.mask for s in enumerate_maximal_sum_free(n)]
        assert got == sorted(_dfs_maximal(n), key=lambda m: tuple(iter_mask(m))), n


def test_two_step_halves_against_the_oracle():
    # the halves listing past the reach of the listings compared above:
    # every maximal set, each once
    for n, f_max in ((24, 1043), (30, 5017)):
        got = two_step_enumerate(
            IntSubset.of(n, range(1, n // 2 + 1)),
            IntSubset.of(n, range(n // 2 + 1, n + 1)),
            n,
        )
        assert len({s.mask for s in got}) == len(got) == oracle_counts(n)[1] == f_max
        if n == 24:
            assert all(is_maximal_sum_free(s) for s in got)


def test_two_step_restriction():
    got = two_step_enumerate(
        IntSubset.of(12, []), IntSubset.of(12, range(7, 13)), 12
    )
    assert [s.members for s in got] == [(7, 8, 9, 10, 11, 12)]
    assert [s.members for s in two_step_enumerate(
        IntSubset.of(1, [1]), IntSubset.of(1, []), 1
    )] == [(1,)]


def test_two_step_preconditions():
    with pytest.raises(ValueError):
        two_step_enumerate(IntSubset.of(8, [3]), IntSubset.of(8, [3, 7]), 8)
    with pytest.raises(ValueError):
        two_step_enumerate(IntSubset.of(8, [5]), IntSubset.of(8, [1, 2]), 8)


def test_two_step_refuses_parts_outside_the_ground_before_listing(monkeypatch):
    def listed(*args):
        raise AssertionError("a seed was listed")

    monkeypatch.setattr(census, "_seed_graph", listed)
    for load in (kernel.load, lambda: None):
        monkeypatch.setattr(kernel, "load", load)
        with pytest.raises(ValueError, match=r"masks of \[n\]"):
            two_step_enumerate(IntSubset.of(12, [1, 2, 3]), IntSubset.of(12, [9, 10, 11, 12]), 8)


def test_two_step_seed_slice():
    # the maximal sets of [16] whose lower half is the seed {4}
    got = two_step_enumerate(
        IntSubset.of(16, range(1, 9)), IntSubset.of(16, range(9, 17)), 16
    )
    assert sum(1 for s in got if [x for x in s if x <= 8] == [4]) == 5


def test_single_even_census_values():
    assert single_even_census(4) == type(single_even_census(4))(4, 3, 1, 3)
    census = single_even_census(12)
    assert (census.f_prime_max, census.lower, census.upper) == (6, -76, 28)
    for n in range(4, 15):
        c = single_even_census(n)
        assert c.lower <= c.f_prime_max <= c.upper


def test_single_even_census_limit():
    c = single_even_census(30)
    assert (c.f_prime_max, c.lower, c.upper) == (515, -4963, 901)
    with pytest.raises(EnumerationLimitError):
        single_even_census(31)


def test_single_even_census_matches_the_walk():
    # the census takes f'_max from the seeds {x} on the odds; the oracle's
    # DFS walk, its maximal sets filtered to those with exactly one even
    # member, is the independent count
    for n in range(1, 25):
        evens = sum(1 << x - 1 for x in range(2, n + 1, 2))
        want = sum((m & evens).bit_count() == 1 for m in _dfs_maximal(n))
        assert single_even_census(n).f_prime_max == want, n
    assert [single_even_census(n).f_prime_max for n in (20, 24, 27, 30)] == [
        58, 144, 286, 515]


def test_one_blocked_mask_per_seed(monkeypatch):
    # a seed's blocked mask gives both its open elements and its link
    # graph's loops, so it is computed once per seed on the Python route
    calls = []

    def counting(mask):
        calls.append(mask)
        return mask_blocked(mask)

    for module in (census, linkgraph):
        monkeypatch.setattr(module, "mask_blocked", counting)
    n = 24
    seeds = sum_free_subsets_of(range(1, n // 2 + 1))
    assert len(seeds) == 369
    census._seed_counts(n, seeds)
    assert len(calls) == len(seeds)
    calls.clear()
    census._seed_listings(n, _upper_half(n), seeds, census._SEED_CAP)
    assert len(calls) == len(seeds)


def test_even_link_sums():
    sums = dprime_sum(16)
    assert (sums.total, sums.restricted) == (69, 32)
    assert sums.restricted == sums.restricted_formula
    assert sums.geometric_closed_form == 45 == 3 * 2**4 - 3
    for n in (12, 20, 24):
        s = dprime_sum(n)
        assert s.restricted <= s.geometric_closed_form
        assert s.geometric_closed_form == 3 * 2 ** (n // 4) - 3


def test_even_link_term():
    assert even_link_term(8) == 4
    assert even_link_term(10) == 4
    assert even_link_term(20) == 32
    with pytest.raises(ValueError):
        even_link_term(7)


def test_small_sumset_census():
    assert small_sumset_count(6, 2, 3).count == 15
    assert small_sumset_count(10, 3, 2).count == 120
    # the whole interval: |[d] + [d]| = 2d - 1
    assert small_sumset_count(5, 5, 2).count == 1  # 9 <= 10
    assert small_sumset_count(5, 5, 1).count == 0  # 9 > 5
    assert small_sumset_count(12, 3, Fraction(5, 3)).count == sum(
        1
        for a in range(1, 13)
        for b in range(a + 1, 13)
        for c in range(b + 1, 13)
        if len({a + a, a + b, a + c, b + b, b + c, c + c}) <= 5
    )
    with pytest.raises(EnumerationLimitError):
        small_sumset_count(40, 20, 3)


def test_restriction_monotone():
    # counting maximal sets of [n] inside S never exceeds the count inside
    # any superset T
    n = 14
    maximal = [set(s.members) for s in enumerate_maximal_sum_free(n)]
    rng = random.Random(3)
    for _ in range(40):
        t = {x for x in range(1, n + 1) if rng.random() < 0.7}
        s = {x for x in t if rng.random() < 0.7}
        inside_s = sum(1 for m in maximal if m <= s)
        inside_t = sum(1 for m in maximal if m <= t)
        assert inside_s <= inside_t
