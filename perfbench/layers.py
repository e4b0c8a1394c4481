"""Which sumfree functions the traced run wraps, and the per-layer metrics
computed from the spans and counts they record.

Metric names are `<module>.<name>`.  A `_s` metric is wall time inside the
layer's outermost spans (nested calls counted once) unless its entry below
says self time.  Layers a workload never reaches read 0.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

from spans import COUNT, Probe, SpanTree

LINK_BUILDERS = (
    "link_graph_ints", "link_family", "link_single_even", "link_pair_even",
    "link_graph_group",
)
# counted to prove the run bypasses the result cache: a gate, not metrics
CACHE_CALLS = ("cache.lookups", "cache.stores")
GROUP_ENTRIES = (
    ("group", "mu"), ("group", "max_sum_free"), ("group", "f_group"),
    ("group", "f_max_group"), ("group", "enumerate_sum_free_group"),
    ("group", "enumerate_maximal_sum_free_group"), ("group", "coset_partition"),
    ("group", "unique_half"), ("group", "is_sum_free_group"),
    ("engine", "sum_free_subsets"), ("engine", "maximal_sum_free_subsets"),
)


def _instances(report) -> int:
    return report.instances_checked


def probes(check_registry: Mapping[str, object]) -> list[Probe]:
    """Every wrapped function.  `check_registry` maps check names to their
    functions (sumfree.checks.ALL_CHECKS)."""
    return [
        Probe("census", "f_branch", "census.f_branch", size=int),
        Probe("census", "f_max_branch", "census.f_max_branch", size=int),
        Probe("census", "f_oracle", "census.f_oracle"),
        Probe("census", "f_max_oracle", "census.f_max_oracle"),
        Probe("census", "sum_free_mask_table", "census.sum_free_mask_table"),
        Probe("census", "two_step_enumerate", "census.two_step_enumerate", size=len),
        Probe("census", "enumerate_maximal_sum_free", "census.enumerate_maximal_sum_free"),
        Probe("census", "single_even_census", "census.single_even_census"),
        Probe("census", "dprime_sum", "census.dprime_sum"),
        # about 2M calls per walk: counted, not spanned
        Probe("intset", "mask_can_add", "intset.mask_can_add", COUNT),
        Probe("intset", "mask_is_sum_free", "intset.mask_is_sum_free", COUNT),
        *(Probe("linkgraph", a, f"linkgraph.{a}") for a in LINK_BUILDERS),
        Probe("graph", "connected_components", "graph.connected_components", size=len),
        Probe("graph", "induced_subgraph", "graph.induced_subgraph", COUNT),
        Probe("graph", "are_isomorphic", "graph.are_isomorphic"),
        Probe("graph", "disjoint_p3_packing", "graph.disjoint_p3_packing"),
        Probe("mis", "count_mis", "mis.count_mis"),
        Probe("mis", "enumerate_mis", "mis.enumerate_mis", size=len),
        Probe("mis", "bound_certificates", "mis.bound_certificates"),
        *(Probe(m, a, f"{m}.{a}") for m, a in GROUP_ENTRIES),
        *(Probe("checks", fn.__name__, f"checks.{name}", size=_instances)
          for name, fn in check_registry.items()),
        Probe("checks", "run_all", "checks.run_all"),
        Probe("cli", "run", "cli.run"),
        Probe("cache", "cache_lookup", "cache.lookups", COUNT),
        Probe("cache", "cache_store", "cache.stores", COUNT),
    ]


def ratio(a: float, b: float) -> float:
    """a / b, or 0 when the layer did no work (b = 0)."""
    return a / b if b else 0.0


def layer_metrics(
    tree: SpanTree, counts: Counter, check_names: list[str]
) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    t = tree
    walk_nodes = t.sizes("census.f_branch")
    f_branch_s = t.total("census.f_branch")
    two = "census.two_step_enumerate"
    m = {
        "census.f_branch_s": f_branch_s,
        "census.f_max_branch_s": t.total("census.f_max_branch"),
        # the walk visits one prefix-tree node per sum-free set: nodes = f(n)
        "census.walk_nodes": walk_nodes,
        "census.walk_nodes_per_s": ratio(walk_nodes, f_branch_s),
        "census.leaf_yield": ratio(t.sizes("census.f_max_branch"), walk_nodes),
        "census.mask_table_s": t.total("census.sum_free_mask_table"),
        "census.mask_table_calls": t.calls("census.sum_free_mask_table"),
        # self time: the Python maximality filter after the table is built
        "census.oracle_filter_s": t.self_total("census.f_max_oracle"),
        "census.two_step_s": t.self_total(two),
        "census.two_step_seeds": t.calls("linkgraph.link_graph_ints", parent=two),
        "census.two_step_yield": ratio(
            t.sizes(two), t.sizes("mis.enumerate_mis", parent=two)),
        "census.enumerate_maximal_sum_free_s": t.total("census.enumerate_maximal_sum_free"),
        "census.single_even_census_s": t.total("census.single_even_census"),
        "census.dprime_sum_s": t.total("census.dprime_sum"),
        "intset.mask_is_sum_free_calls": counts["intset.mask_is_sum_free"],
        "linkgraph.link_graph_ints_s": t.total("linkgraph.link_graph_ints"),
        "linkgraph.graphs_built": len(t.outermost(*(f"linkgraph.{a}" for a in LINK_BUILDERS))),
        "graph.connected_components_s": t.total("graph.connected_components"),
        "graph.components": t.sizes("graph.connected_components"),
        "graph.induced_subgraph_calls": counts["graph.induced_subgraph"],
        "graph.are_isomorphic_s": t.total("graph.are_isomorphic"),
        "graph.disjoint_p3_packing_s": t.total("graph.disjoint_p3_packing"),
        "mis.count_mis_s": t.total("mis.count_mis"),
        "mis.count_mis_calls": t.calls("mis.count_mis"),
        "mis.enumerate_mis_s": t.total("mis.enumerate_mis"),
        "mis.enumerate_mis_calls": t.calls("mis.enumerate_mis"),
        "mis.sets_enumerated": t.sizes("mis.enumerate_mis"),
        # the full count enumerate_mis runs only to apply its cap
        "mis.cap_count_s": sum(
            s.duration for s in t.named("mis.count_mis", parent="mis.enumerate_mis")),
        "mis.bound_certificates_s": t.total("mis.bound_certificates"),
        "mis.bound_certificates_calls": t.calls("mis.bound_certificates"),
        "group.s": t.total(*(f"{mod}.{a}" for mod, a in GROUP_ENTRIES)),
        "checks.instances": sum(t.sizes(f"checks.{c}") for c in check_names),
        # argparse, payload and JSON: cli.run minus the layers it calls
        "cli.self_s": t.self_total("cli.run"),
    }
    for c in check_names:
        m[f"checks.{c}_s"] = t.total(f"checks.{c}")
    return m
