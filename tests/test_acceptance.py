"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Every tolerance is pinned here: exact equality unless a criterion names a
runtime budget.  Criterion 4 carries one deliberately expected-to-fail
reading; see the note on test_criterion_4_literal_restricted_equality.
"""

from __future__ import annotations

import time

import pytest

from sumfree import checks, cli
from sumfree.census import (
    dprime_sum,
    enumerate_maximal_sum_free,
    f_branch,
    f_max_branch,
    f_max_oracle,
    f_oracle,
    single_even_census,
)
from sumfree.constructions import (
    exponent7_family,
    interval_family,
    verify_family,
    z2k_family,
    zn_prism_census,
)
from sumfree.graph import cycle, matching, path, prism, relabel, disjoint_union
from sumfree.group import AbelianGroup, mu
from sumfree.linkgraph import link_family, link_single_even
from sumfree.mis import count_mis


def _announce(num: int, message: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS - {message}")


def test_criterion_1_oracle_agreement():
    started = time.perf_counter()
    for n in range(1, 23):
        assert len(enumerate_maximal_sum_free(n)) == f_max_oracle(n), n
    for n in range(1, 25):
        assert f_branch(n) == f_oracle(n), n
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _announce(1, f"branch and oracle agree (f to n=24, f_max to n=22) in {elapsed:.1f}s")


def test_criterion_2_lower_bound():
    for n in range(4, 23):
        assert f_max_branch(n) >= 2 ** (n // 4), n
    for n in (8, 12, 16, 20):
        fam = interval_family(n)
        assert len(fam.members) == 2 ** (n // 4), n
        assert verify_family(fam) == [], n
    _announce(2, "f_max(n) >= 2^{floor(n/4)} for n <= 22; interval family exact")


def test_criterion_3_even_link_decomposition():
    cases = 0
    for n in (16, 20, 24, 28, 32):
        for m in range(2, n + 1, 2):
            if 3 * m <= 2 * n:
                continue
            got = count_mis(link_single_even(n, m))
            if (m // 2) % 2 == 0:
                assert got == 2 ** (m // 4), (n, m)
            else:
                assert got == 2 ** ((m - 2) // 4), (n, m)
            cases += 1
    assert cases == 22
    _announce(3, f"per-term closed form exact for {cases} (n, m) pairs")


def test_criterion_4_finite_geometric_sums():
    ratios_full = []
    ratios_restricted = []
    for n in (16, 20, 24, 28, 32):
        sums = dprime_sum(n)
        # the finite geometric-series form of the per-term closed sums
        assert sums.geometric_closed_form == 3 * 2 ** (n // 4) - 3, n
        # the restricted sum matches its per-term closed form exactly and
        # stays below the full geometric value
        assert sums.restricted == sums.restricted_formula, n
        assert sums.restricted <= 3 * 2 ** (n // 4) - 3, n
        ratios_full.append(sums.total / 2 ** (n / 4))
        ratios_restricted.append(sums.restricted / 2 ** (n / 4))
    assert all(a < b for a, b in zip(ratios_full, ratios_full[1:]))
    assert all(a <= b for a, b in zip(ratios_restricted, ratios_restricted[1:]))
    assert all(r < 3 for r in ratios_restricted)
    _announce(
        4,
        "geometric sums exact (= 3*2^{n/4} - 3); restricted sum matches its "
        f"closed form; ratio trend {ratios_full[0]:.3f} -> {ratios_full[-1]:.3f}",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated reading 'restricted sum equals 3*2^{n/4} - 3' is arithmetically"
        " false: at n=16 the sum over even m > 2n/3 is 32, the geometric form"
        " 45.  The geometric identity holds for the per-term closed form"
        " summed over all even m (asserted above); the restricted sum only"
        " satisfies <=.  Kept here as an expected failure for transparency."
    ),
)
def test_criterion_4_literal_restricted_equality():
    for n in (16, 20, 24, 28, 32):
        sums = dprime_sum(n)
        assert sums.restricted == 3 * 2 ** (n // 4) - 3, n


def test_criterion_5_single_even_sandwich():
    for n in range(4, 19):
        c = single_even_census(n)
        assert c.lower <= c.f_prime_max <= c.upper, n
    _announce(5, "inclusion-exclusion sandwich exact for 4 <= n <= 18")


def test_criterion_6_bound_suite():
    report = checks.check_mis_bounds(seed=0, random_count=420)
    assert report.instances_checked >= 500
    assert report.failures == ()
    _announce(6, f"all bounds hold on {report.instances_checked} graphs")


def test_criterion_7_cycle_recurrence():
    report = checks.check_cycle_recurrence(m_max=24, bound_max=64)
    assert report.failures == ()
    _announce(7, "cycle recurrence exact to m=24; 2^{0.49m} bound to m=64")


def test_criterion_8_shift_isomorphism():
    grid = checks.default_shift_grid()
    assert len(grid) >= 50
    assert all(w <= 3 and n <= 96 and ell <= 4 for w, n, t, s0, ell in grid)
    report = checks.check_shift_isomorphism(grid)
    assert report.failures == ()
    _announce(8, f"explicit interval map verified on {len(grid)} tuples")


def test_criterion_9_group_propositions():
    for k in range(1, 5):
        assert mu(AbelianGroup((2,) * k)) == 2 ** (k - 1), k
    for k in (2, 3, 4):
        fam = z2k_family(k)
        assert len(fam.members) == 2 ** (2**k // 4), k
        assert verify_family(fam) == [], k
    assert count_mis(prism()) == 6
    for n in (27, 36, 45):
        c = zn_prism_census(n)
        assert c.other_components <= 2, n  # boundedly many exceptions
        assert c.prism_components >= c.window_size // 6 - 2, n
        assert c.mis >= 6 ** (c.window_size // 6 - 2), n
    fam = exponent7_family(AbelianGroup((7, 7)))
    assert len(fam.members) == 2**6
    assert verify_family(fam) == []
    _announce(9, "group family sizes, prism censuses and MIS counts exact")


def test_criterion_10_performance(tmp_path, capsys):
    started = time.perf_counter()
    code = cli.run(
        ["--workers", "8", "--cache-dir", str(tmp_path), "enumerate", "--n", "28"]
    )
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0 and '"f_max": 3064' in out
    assert elapsed <= 60.0
    ten_prisms = relabel(prism(), {v: v for v in range(6)})
    for i in range(1, 10):
        ten_prisms = disjoint_union(
            ten_prisms, relabel(prism(), {v: v + 6 * i for v in range(6)})
        )
    sixty_vertex = [
        cycle(60),
        path(60),
        matching(30),
        link_family(120, 30),
        link_family(120, 28, [55, 60]),
        ten_prisms,
    ]
    worst = 0.0
    for g in sixty_vertex:
        t0 = time.perf_counter()
        count_mis(g)
        worst = max(worst, time.perf_counter() - t0)
    assert worst <= 10.0
    _announce(
        10,
        f"n=28 branch enumeration in {elapsed:.1f}s; worst 60-vertex MIS count"
        f" {worst:.2f}s",
    )
