"""The named check harness: reports, determinism, witness emission."""

from __future__ import annotations

import random

import pytest

from sumfree import checks
from sumfree.checks import (
    ALL_CHECKS,
    _random_sum_free,
    _two_step_terms,
    check_cycle_recurrence,
    check_even_link_constants,
    check_even_link_decomposition,
    check_group_two_step_bound,
    check_link_triangle_free,
    check_mis_bounds,
    check_shift_isomorphism,
    check_single_even_sandwich,
    check_two_step_mis,
    default_group_splits,
    default_shift_grid,
    run_check,
    shift_iso_instance,
    shift_iso_preconditions,
)
from sumfree.group import (
    AbelianGroup,
    enumerate_maximal_sum_free_group,
    enumerate_sum_free_group,
    max_sum_free,
)
from sumfree.intset import IntSubset, iter_mask, mask_can_add


def test_registry_names():
    # registry order is the order `verify --all` prints
    assert list(ALL_CHECKS) == [
        "link-triangle-free",
        "two-step-mis",
        "mis-bounds",
        "even-link-decomposition",
        "even-link-constants",
        "shift-isomorphism",
        "single-even-sandwich",
        "cycle-recurrence",
        "group-two-step-bound",
    ]
    assert checks.SEEDED_CHECKS == {"link-triangle-free", "mis-bounds"}
    assert run_check("cycle-recurrence").name == "cycle-recurrence"
    with pytest.raises(KeyError):
        run_check("no-such-check")


def test_link_triangle_free_deterministic():
    a = check_link_triangle_free(trials=60, n_max=30, seed=11)
    b = check_link_triangle_free(trials=60, n_max=30, seed=11)
    assert a.passed and b.passed
    assert a.instances_checked == b.instances_checked == 60


def test_random_sum_free_draws_are_pinned():
    # `verify` output depends on these draws
    r = random.Random(5)
    assert [_random_sum_free(r, n) for n in (5, 9, 13)] == [
        [1, 3, 5], [2, 5, 6, 9], [2, 6, 9, 10, 13]
    ]


def test_random_sum_free_draws_as_mask_can_add():
    # the blocked mask kept beside the set gives the sets, and leaves the
    # generator in the state, of a `mask_can_add` test on every draw
    for seed in range(10):
        rng, ref = random.Random(seed), random.Random(seed)
        for n in (2, 7, 13, 40):
            mask = 0
            for _ in range(60):
                x = ref.randint(1, n)
                if mask_can_add(mask, x):
                    mask |= 1 << x - 1
            assert _random_sum_free(rng, n) == list(iter_mask(mask)), (seed, n)
        assert rng.random() == ref.random(), seed


def test_two_step_mis_small():
    report = check_two_step_mis(n_max=12)
    assert report.passed
    assert report.instances_checked == 146  # sum of f_max(n) for n = 2..12


def test_two_step_mis_reports_a_set_either_route_lacks(monkeypatch):
    join = checks.two_step_enumerate

    def broken_join(f1, f2, n):  # at n = 6: drops {1, 3, 5}, adds {1}
        found = join(f1, f2, n)
        return found[1:] + [IntSubset.of(n, [1])] if n == 6 else found

    monkeypatch.setattr(checks, "two_step_enumerate", broken_join)
    report = check_two_step_mis(n_max=7)
    assert report.failures == (
        "n=6, M=(1, 3, 5): found by the oracle's DFS but missing from the join",
        "n=6, M=(1,): joined but not found by the oracle's DFS",
    )


def test_mis_bounds_small_corpus():
    report = check_mis_bounds(seed=3, random_count=40)
    assert report.passed
    assert report.instances_checked >= 100


def test_even_link_decomposition():
    report = check_even_link_decomposition((16, 20))
    assert report.passed


def test_even_link_decomposition_rejects_bad_n():
    report = check_even_link_decomposition((14,))
    assert not report.passed
    assert "not divisible by 4" in report.failures[0]


def test_even_link_constants():
    report = check_even_link_constants(n_max=24)
    assert report.passed
    assert any("fitted err" in note for note in report.notes)


def test_shift_preconditions():
    assert shift_iso_preconditions(1, 36, 0, (1,), 2)
    assert not shift_iso_preconditions(1, 26, 0, (1,), 2)  # n not 0 mod 4
    assert not shift_iso_preconditions(1, 20, 0, (1,), 2)  # window too tight
    assert not shift_iso_preconditions(2, 36, 3, (1,), 1)  # |t| > W
    with pytest.raises(ValueError):
        shift_iso_instance(1, 20, 0, (1,), 2)


def test_shift_identity_case():
    map_ok, search_ok = shift_iso_instance(1, 36, 0, (1,), 0)
    assert map_ok and search_ok


def test_shift_grid_size_and_pass():
    grid = default_shift_grid()
    assert len(grid) >= 50
    report = check_shift_isomorphism(grid[:12])
    assert report.passed


def test_single_even_sandwich_small():
    report = check_single_even_sandwich(n_max=10)
    assert report.passed


def test_cycle_recurrence():
    report = check_cycle_recurrence(m_max=18)
    assert report.passed


def test_group_two_step_bound():
    report = check_group_two_step_bound(["Z2xZ2", "Z5", "Z7"])
    assert report.passed


def test_group_two_step_terms_match_the_three_searches():
    for desc in default_group_splits():
        grp = AbelianGroup.parse(desc)
        b = max_sum_free(grp).members
        c = frozenset(g for g in grp.elements() if g not in b and any(g))
        seeds = sum(frozenset(s.members) <= c for s in enumerate_sum_free_group(grp))
        fmax = len(enumerate_maximal_sum_free_group(grp))
        assert _two_step_terms(grp) == (len(b), seeds, fmax), desc


def test_failure_reports_carry_witnesses():
    report = check_shift_isomorphism([(1, 20, 0, (1,), 2)])
    assert not report.passed
    assert "W=1" in report.failures[0]
