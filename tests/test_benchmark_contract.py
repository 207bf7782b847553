"""The benchmark's view of entkit: traced names exist and return what it counts.

``perfbench/tracer.py`` wraps the public functions of the traced modules
and ``perfbench/run.py --trace 1`` looks each metric up by its
``module.func`` prefix, so deleting or renaming a traced name breaks the
benchmark with a KeyError.  The tracer also applies a counter to the
return value of some functions (``RETURN_COUNTS``); a changed return type
breaks the traced run there.  These tests fail first.
"""

import importlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np

import entkit
from entkit import cli, dynamics, kernels, maps, measures, states

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def _load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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


def _eof_step():
    state = states.random_density(2, 3, rank=3, seed=1)
    base = measures._spectral_rows(state)
    u = next(measures._random_isometries(6, 3, 0, 0, 1))
    objective = kernels._Entropy(base, 2, 3)
    value, parts = objective.value(u, None)
    grad = objective.gradient(u, None, parts)
    return kernels.eof_sweep(u, grad, -grad, np.array([value, 1.0]), base, 2, 3)


def _small_returns():
    """One real return value per function the tracer counts, on small inputs."""
    bell = states.bell_state(1)
    sz = np.diag([1.0, -1.0])
    fam = dynamics.family_catalog("depolarizing_flow", d=2, rate=1.0)
    return {
        "kernels.eof_sweep": _eof_step(),
        "measures.eof_upper": measures.eof_upper(
            states.isotropic_state(0.5, 3), K=9, restarts=1, iters=2
        ),
        "measures.dcoef": measures.dcoef(bell, sz, sz, K=4, restarts=1, iters=2),
        "maps.is_decomposable": maps.is_decomposable(maps.catalog("transpose", d=2)),
        "maps.is_block_positive": maps.is_block_positive(
            maps.catalog("reduction", d=2), restarts=2, iters=5
        ),
        "dynamics.evolve_track": dynamics.evolve_track(bell, fam, [0.0, 0.5]),
    }


def test_return_counters_yield_real_numbers():
    counters = _load_tracer().RETURN_COUNTS
    returns = _small_returns()
    assert set(counters) == set(returns)
    for name, counter in counters.items():
        counts = counter(returns[name])
        assert counts, name
        for key, val in counts.items():
            assert key.startswith(name + "."), key
            assert np.ndim(val) == 0 and np.isrealobj(val), (key, val)
            assert math.isfinite(float(val)), (key, val)


def test_traced_cli_reads_its_input_through_state_from_json(tmp_path):
    # the CLI looks the reader up when it loads a file, so the tracer's
    # wrapper runs and states.state_from_json.s counts the reads
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(states.state_to_json(states.bell_state(1))))
    tracer = _load_tracer().Tracer(entkit)
    tracer.install()
    try:
        assert cli.main(["state", "info", "--in", str(path)]) == 0
    finally:
        tracer.uninstall()
    assert tracer.summary()["states.state_from_json"]["calls"] == 1
