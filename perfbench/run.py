#!/usr/bin/env python3
"""entkit benchmark: three workloads, closed loop, outputs checked.

    python3 perfbench/run.py --workload ensemble-search --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each workload runs in its own process as a
closed loop: one caller, each operation issued after the previous one
returns, BLAS pinned to one thread.  The run repeats whole passes over the
workload's fixed operation list while another pass still fits in
``--seconds``, and checks every output against the reference computations
in ``reference.py``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` the run
alternates untraced and traced passes and reports the per-layer ones.
``--workload all`` runs the three workloads one after another, each in a
child process, and prints a line per workload.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = {
    "ensemble-search": "ensemble_search",
    "map-hierarchy": "map_hierarchy",
    "cli-session": "cli_session",
}
SETUP_PROBES = 5


def load_entkit():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import entkit
    import entkit.cli  # noqa: F401  (not imported by the package itself)

    if Path(entkit.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"entkit was imported from {entkit.__file__}, not from {src}")
    return entkit


def set_up(workload, seed, workdir):
    """Import entkit and build the workload's inputs; returns (seconds, ...)."""
    t0 = time.perf_counter()
    ek = load_entkit()
    mod = importlib.import_module(WORKLOADS[workload])
    inputs = mod.build(ek, seed, workdir)
    return time.perf_counter() - t0, ek, mod, inputs


def setup_seconds(workload, seed):
    """Median set-up time over fresh interpreter processes, in reference seconds."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_pass(ops, ratios, cal, tracer, op_base, notes):
    """One pass over the operations; returns (raw seconds, failed, problems).

    Only the calls into entkit are timed, not the checks.
    """
    ratios.clear()
    cal.reset()
    busy, failed, problems = 0.0, 0, []
    for k, op in enumerate(ops):
        cal.maybe_sample()
        if tracer is not None:
            tracer.op_id = op_base + k
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception:  # a fault of the program: the operation failed
            busy += time.perf_counter() - t0
            failed += 1
            notes.setdefault(op.name, "raised " + traceback.format_exc().strip())
            continue
        busy += time.perf_counter() - t0
        errs = op.check(out)
        if errs and op.rejection:
            failed += 1
            notes.setdefault(op.name, "; ".join(errs))
        elif errs:
            problems += [f"{op.name}: {e}" for e in errs]
    return busy, failed, problems


def layer_metrics(spec, tracer, passes, overhead):
    summary = tracer.summary()
    out = {}
    for metric in spec:
        name = metric["name"]
        func, field = name.rsplit(".", 1)
        if name == "trace.overhead_s":
            value = overhead
        elif field in ("calls", "s", "self_s"):
            value = summary[func][field] / passes
        elif field == "useful_ratio":
            calls = summary[func]["calls"]
            value = tracer.counts.get(func + ".useful", 0.0) / calls if calls else 0.0
        else:
            value = tracer.counts.get(name, 0.0) / passes
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def run_workload(args, spec):
    import reference
    from calibrate import Calibrator

    reference.self_check()
    setup_s = setup_seconds(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        _, ek, mod, inputs = set_up(args.workload, args.seed, workdir)
        ratios = []
        ops = mod.operations(ek, inputs, args.seed, ratios)
        cal = Calibrator()
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(ek)
        modes = (False, True) if args.trace else (False,)
        busy = {False: [], True: []}  # passes in reference seconds
        raw_busy = {False: [], True: []}  # the same passes in wall seconds
        tightness, problems, notes = [], [], {}
        attempted = failed = 0
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start + statistics.median(rounds) <= args.seconds:
            t_round = time.perf_counter()
            for traced in modes:
                if traced:
                    tracer.install()
                try:
                    raw, n_failed, errs = run_pass(
                        ops, ratios, cal, tracer if traced else None, len(ops) * len(rounds), notes)
                finally:
                    if traced:
                        tracer.uninstall()
                secs = raw * cal.factor()
                busy[traced].append(secs)
                raw_busy[traced].append(raw)
                attempted += len(ops)
                failed += n_failed
                problems += errs
                if not traced:
                    tightness.append(statistics.fmean(ratios) if ratios else 1.0)
                print(f"pass {len(busy[False]) + len(busy[True])} "
                      f"({'traced' if traced else 'untraced'}): {secs:.3f} s "
                      f"({raw:.3f} s at {1 / cal.factor():.3f}x reference time), "
                      f"{len(ops)} operations, {n_failed} failed", flush=True)
            rounds.append(time.perf_counter() - t_round)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, note in notes.items():
        print(f"failed: {name}: {note}", file=sys.stderr)
    for line in dict.fromkeys(problems):
        print(f"WRONG: {line}", file=sys.stderr)
    if args.trace:
        # Spans are wall seconds, so the overhead is too: the calibration
        # kernel runs slower next to traced operations and would hide it.
        overhead = statistics.median(raw_busy[True]) - statistics.median(raw_busy[False])
        metrics = layer_metrics(spec["per_layer"], tracer, len(busy[True]), overhead)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(busy[False]),
            "peak_rss_mib": peak_rss_mib,
            "eof_tightness": statistics.median(tightness),
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args):
    """Each workload in its own child process; one summary line per workload."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} exited with {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results[workload] = res
        vals = " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"{workload}: {vals} attempted={res['attempted']} failed={res['failed']} "
              f"correct={str(res['correct']).lower()}", flush=True)
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        OUT.mkdir(exist_ok=True)
        workdir = OUT / f"probe-{os.getpid()}"
        workdir.mkdir()
        try:
            secs = set_up(args.workload, args.seed, workdir)[0]
            from calibrate import Calibrator

            cal = Calibrator()
            for _ in range(10):
                cal.sample()
            print(secs * cal.factor())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return
    if args.workload == "all":
        result = run_all(args)
    else:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            result = run_workload(args, json.load(fh))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
