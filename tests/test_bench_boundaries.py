"""The benchmark's traced boundaries still name functions of the program.

perfbench/layers.py patches each target where its caller looks it up; a
target that no longer resolves breaks the traced benchmark run.
"""

import importlib
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_traced_boundary_resolves(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    layers = importlib.import_module("layers")
    targets = [target for target, _, _ in layers.BOUNDARIES]
    targets.append("kginfuse.pipeline.update_kg")
    unresolved = []
    for target in targets:
        module_name, attr = target.rsplit(".", 1)
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            unresolved.append(target)
    assert not unresolved
