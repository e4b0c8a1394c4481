"""The benchmark's traced run wraps sumfree functions by name; every name it
probes must still exist, or `perfbench/run.py --trace 1` breaks."""

from __future__ import annotations

import importlib
from pathlib import Path

from sumfree.checks import ALL_CHECKS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_probe_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    probes = layers.probes(ALL_CHECKS)
    assert probes
    for probe in probes:
        module = importlib.import_module(f"sumfree.{probe.module}")
        assert callable(getattr(module, probe.attr, None)), probe
