"""The benchmark's tracing shims still name the program's callables."""

import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_traced_target_exists(monkeypatch):
    # a renamed callable would otherwise fail only in a traced bench run
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)  # its dataclasses look it up
    spec.loader.exec_module(layers)
    targets = layers._targets()
    assert targets
    missing = [(owner, attr) for owner, attr, *_ in targets if attr not in vars(owner)]
    assert missing == []
