"""The per-layer metrics of BENCHMARK.json name functions that exist.

``perfbench/tracer.py`` wraps the public functions of the traced modules
and ``perfbench/run.py --trace 1`` looks each metric up by its
``module.func`` prefix, so deleting or renaming a traced name breaks the
benchmark with a KeyError.  This test fails first.
"""

import importlib
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_per_layer_metrics_name_public_entkit_attributes():
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer"] if not m["name"].startswith("trace.")]
    assert names
    missing = []
    for name in names:
        module, func, _field = name.split(".")
        mod = importlib.import_module(f"entkit.{module}")
        if func.startswith("_") or not callable(getattr(mod, func, None)):
            missing.append(name)
    assert not missing, f"metrics naming no public entkit function: {missing}"
