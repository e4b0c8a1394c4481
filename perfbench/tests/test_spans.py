"""Self-time arithmetic and outside-in rebinding of the benchmark's tracer."""

import sys
import types
from collections import Counter

import pytest

from layers import layer_metrics
from spans import COUNT, Probe, Span, SpanTree, Tracer


def tree(*rows):
    """Spans from (id, parent, name, start, end, size) rows."""
    return SpanTree([Span(i, p, name, a, b, size) for i, p, name, a, b, size in rows])


def test_self_time_subtracts_only_direct_children():
    t = tree(
        (0, None, "root", 0.0, 10.0, None),
        (1, 0, "a", 1.0, 4.0, None),
        (2, 1, "b", 2.0, 3.5, None),   # grandchild: inside a, not subtracted again
        (3, 0, "a", 6.0, 9.0, None),
    )
    root, a1, b, a2 = t.spans
    assert t.self_time(root) == pytest.approx(10 - 3 - 3)
    assert t.self_time(a1) == pytest.approx(3 - 1.5)
    assert t.self_time(b) == pytest.approx(1.5)
    assert t.self_total("a") == pytest.approx(1.5 + 3)


def test_total_counts_nested_calls_once():
    t = tree(
        (0, None, "f", 0.0, 10.0, None),
        (1, 0, "g", 1.0, 9.0, None),
        (2, 1, "f", 2.0, 5.0, None),   # f inside g inside f
        (3, None, "g", 20.0, 21.0, None),
    )
    assert t.total("f") == pytest.approx(10)
    assert t.total("g") == pytest.approx(8 + 1)
    assert t.total("f", "g") == pytest.approx(10 + 1)
    assert t.calls("f") == 2 and t.calls("f", parent="g") == 1


def test_layer_metrics_on_a_synthetic_two_step_tree():
    two = "census.two_step_enumerate"
    t = tree(
        (0, None, two, 0.0, 10.0, 6),
        (1, 0, "linkgraph.link_graph_ints", 1.0, 2.0, None),
        (2, 0, "mis.enumerate_mis", 2.0, 5.0, 10),
        (3, 2, "mis.count_mis", 2.0, 3.0, None),
        (4, 0, "linkgraph.link_graph_ints", 5.0, 6.0, None),
        (5, 0, "mis.enumerate_mis", 6.0, 8.0, 5),
        (6, 5, "mis.count_mis", 6.0, 6.5, None),
        (7, None, "mis.count_mis", 11.0, 12.0, None),
    )
    m = layer_metrics(t, Counter({"graph.induced_subgraph": 7}), [])
    assert m["census.two_step_s"] == pytest.approx(10 - 1 - 3 - 1 - 2)
    assert m["census.two_step_seeds"] == 2
    assert m["census.two_step_yield"] == pytest.approx(6 / 15)
    assert m["mis.sets_enumerated"] == 15
    assert m["mis.count_mis_s"] == pytest.approx(2.5)
    assert m["mis.cap_count_s"] == pytest.approx(1.5)
    assert m["linkgraph.graphs_built"] == 2
    assert m["graph.induced_subgraph_calls"] == 7
    assert m["census.walk_nodes_per_s"] == 0  # a layer the tree never reached


@pytest.fixture
def fake_package():
    """pkg.core defines the functions; pkg.user binds them by from-import
    and keeps one in a registry dict, as sumfree.checks does."""
    core = types.ModuleType("pkg.core")

    def work(x):
        return [hot(i) for i in range(x)]

    def hot(i):
        return i

    core.work, core.hot = work, hot
    user = types.ModuleType("pkg.user")
    user.work = work
    user.REGISTRY = {"w": work}
    pkg = types.ModuleType("pkg")
    mods = {"pkg": pkg, "pkg.core": core, "pkg.user": user}
    sys.modules.update(mods)
    yield core, user
    for key in mods:
        del sys.modules[key]


def test_install_rebinds_every_reference_and_uninstall_restores(fake_package):
    core, user = fake_package
    original = core.work
    tracer = Tracer()
    tracer.install([Probe("core", "work", "core.work", size=len)], package="pkg")
    assert core.work is not original
    assert user.work is core.work and user.REGISTRY["w"] is core.work
    user.REGISTRY["w"](3)
    user.work(2)
    spans = SpanTree(tracer.spans)
    assert spans.calls("core.work") == 2 and spans.sizes("core.work") == 5
    tracer.uninstall()
    assert core.work is user.work is user.REGISTRY["w"] is original


def test_count_probe_counts_without_spans(fake_package):
    core, _ = fake_package
    tracer = Tracer()
    tracer.install([Probe("core", "hot", "core.hot", COUNT)], package="pkg")
    try:
        core.hot(1)
        core.hot(2)
    finally:
        tracer.uninstall()
    assert tracer.counts == Counter({"core.hot": 2}) and tracer.spans == []
