"""The benchmark's span table must name bindings the package still has."""

import importlib
import pathlib
import runpy

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _owner(path: str):
    # "kcrit.graph.Graph" is the Graph class of module kcrit.graph
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        head, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(head), attr)


def test_every_traced_binding_resolves():
    # run_path compiles the file in memory: nothing is written beside it
    layers = runpy.run_path(str(SPANS))["LAYERS"]
    missing = [f"{path}.{attr}" for targets in layers.values()
               for path, attr in targets if not hasattr(_owner(path), attr)]
    assert missing == []
