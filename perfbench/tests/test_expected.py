"""The expected-count table against its second routes.

Each workload's count is pinned by an independent route: the oracle and
the walk agree on f and f_max, and the two-step route (seed in [n/2] plus a
maximal independent set of its link graph on the upper half) agrees with
the walk on f_max.  Checked here at small n, and at full size where the
second route is cheap.
"""

import pytest
from sumfree import census, checks

from workloads import CHECK_NAMES, EXPECTED, halves


def two_step_f_max(n):
    return len(census.two_step_enumerate(*halves(n), n))


@pytest.mark.parametrize("n", range(1, 19))
def test_walk_matches_oracle(n):
    assert census.f_branch(n) == census.f_oracle(n)
    assert census.f_max_branch(n) == census.f_max_oracle(n)


@pytest.mark.parametrize("n", range(2, 25))
def test_two_step_matches_walk(n):
    assert two_step_f_max(n) == census.f_max_branch(n)


def test_oracle_entry_matches_walk():
    want = EXPECTED["oracle"]
    assert census.f_branch(want["n"]) == want["f"]
    assert census.f_max_branch(want["n"]) == want["f_max"]


def test_walk_entry_f_max_matches_two_step():
    want = EXPECTED["walk"]
    assert two_step_f_max(want["n"]) == want["f_max"]


def test_verify_entry_is_the_harness_and_independent_of_seed():
    assert list(checks.ALL_CHECKS) == CHECK_NAMES == list(EXPECTED["verify"])
    for seed in (0, 987654321):
        for name in checks.SEEDED_CHECKS:
            assert checks.run_check(name, seed).instances_checked == EXPECTED["verify"][name]
