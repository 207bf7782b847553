"""cli-session: a seeded session through ``entkit.cli.main(argv)``, in process.

``cli``, ``dynamics`` and the JSON reads and writes do the work.
``measures`` shows up as many short searches (the Bell track) instead of a
few long ones.  Every command runs twice and the two runs must agree byte
for byte.  Three more operations hand the CLI a state file with a NaN entry
and expect exit code 2.

The workload seed draws the isotropic fidelity, the Werner parameter, the
depolarizing weight, the random states and the CLI ``--seed``.  The Bell
track runs at a fixed ``--seed``, so its EOF values, which enter
``eof_tightness``, are a property of the code and not of the workload seed.
"""

import contextlib
import io
import json
import math

import numpy as np

import reference as ref
from common import Op

ISO_DIM = 5
EVOLVE_STEPS = 100
BELL_TRACK = dict(t_max=1.5, steps=6, K=4, restarts=2, seed=7)


def _write_json(path, mat, d1, d2):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"d1": d1, "d2": d2, "re": mat.real.tolist(), "im": mat.imag.tolist()}, fh)


def build(ek, seed, workdir):
    rng = np.random.default_rng([seed, 3])
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    rand2q = g @ g.conj().T
    rand2q /= np.trace(rand2q).real
    nan_state = np.eye(4, dtype=complex) / 4.0
    nan_state[0, 0] = math.nan
    inp = {
        "F": float(rng.uniform(0.5, 0.9)),
        "p": float(rng.uniform(0.45, 0.95)),
        "lam": float(rng.uniform(0.1, 0.9)),
        "sep_seed": int(rng.integers(1_000_000)),
        "cli_seed": int(rng.integers(1_000_000)),
        "rand2q": rand2q,
        "files": {
            name: str(workdir / name)
            for name in (
                "bell.json", "iso.json", "werner.json", "sep.json", "rand2q.json",
                "nan.json", "eof.json", "dcoef.json", "choi_check.json", "applied.json",
                "depolarizing.csv", "transpose_mix.json", "bell_track.json",
            )
        },
    }
    _write_json(inp["files"]["rand2q.json"], rand2q, 2, 2)
    _write_json(inp["files"]["nan.json"], nan_state, 2, 2)
    return inp


def _run(cli, argv, outfile):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse refusing the command line
            rc = exc.code
    data = None
    if outfile is not None:
        with open(outfile, "rb") as fh:
            data = fh.read()
    return rc, out.getvalue(), err.getvalue(), data


def _kv(text):
    return dict(item.split("=", 1) for item in text.split())


def _matrix(obj):
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def _ensemble(cert):
    return [float(w) for w in cert["weights"]], [_matrix(c) for c in cert["components"]]


def _same_state(want):
    def check(stdout, data):
        got = _matrix(json.loads(data))
        miss = np.abs(got - want).max()
        return [] if miss <= 1e-12 else [f"state file off by {miss:.2e}"]

    return check


def _commands(inp, ratios):
    """(argv, output file, check(stdout, file bytes)) for each command."""
    f, p, lam, fl = inp["F"], inp["p"], inp["lam"], inp["files"]
    d = ISO_DIM
    s = str(inp["cli_seed"])
    bell = np.zeros((4, 4))
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    iso = ref.isotropic_matrix(f, d)

    def separable_file(stdout, data):
        rho = _matrix(json.loads(data))
        errs = []
        if abs(np.trace(rho).real - 1.0) > 1e-12 or ref.min_eig(rho) < -1e-12:
            errs.append("random separable state is not a state")
        if ref.min_eig(ref.ptranspose(rho, 2, 3, leg=2)) < -1e-12:
            errs.append("random separable state is NPT")
        return errs

    def info(stdout, data):
        rep = json.loads(stdout)
        want = {"d1": d, "d2": d, "trace": 1.0, "rank": d * d,
                "entropy_bits": ref.entropy_bits(iso),
                "marginal_entropy_1": math.log2(d), "marginal_entropy_2": math.log2(d)}
        return [f"{k}={rep[k]!r}, expected {v!r}" for k, v in want.items()
                if abs(rep[k] - v) > 1e-9]

    def ppt(stdout, data):
        kv = _kv(stdout)
        want = (1.0 - 3.0 * p) / 4.0
        errs = [] if kv["verdict"] == "NPT" else [f"verdict {kv['verdict']} for p={p}"]
        if abs(float(kv["lambda_min"]) - want) > 1e-9:
            errs.append(f"lambda_min {kv['lambda_min']}, closed form {want!r}")
        return errs

    def negativity(stdout, data):
        got, want = float(_kv(stdout)["negativity"]), ref.isotropic_negativity(f, d)
        return [] if abs(got - want) <= 1e-9 else [f"negativity {got!r}, closed form {want!r}"]

    def eof(stdout, data):
        rep = json.loads(data)
        exact = ref.wootters_eof(inp["rand2q"])
        weights, comps = _ensemble(rep["certificate"])
        if exact > 0.0:
            ratios.append(exact / rep["value"])
        return ref.check_eof(inp["rand2q"], 2, 2, rep["value"], weights, comps, exact)

    def dcoef_sup(stdout, data):
        rep = json.loads(data)
        weights, comps = _ensemble(rep["certificate"])
        return ref.check_dcoef_sup(ref.werner_matrix(p), 2, 2, rep["value"], weights, comps)

    def map_check(cp, co_cp, decomposable, cp_min):
        def check(stdout, data):
            kv = _kv(stdout)
            want = {"block_positive": "true", "cp": cp, "co_cp": co_cp,
                    "decomposable": decomposable}
            errs = [f"{k}={kv[k]}, expected {v}" for k, v in want.items() if kv[k] != v]
            if abs(float(kv["cp_min_eig"]) - cp_min) > 1e-9:
                errs.append(f"cp_min_eig {kv['cp_min_eig']}, expected {cp_min!r}")
            if decomposable == "false" and float(kv["residual"]) < 1e-3:
                errs.append(f"residual {kv['residual']} below 1e-3")
            if data is not None and json.loads(data)["decomposable"] is not False:
                errs.append("JSON report does not say decomposable=false")
            return errs

        return check

    def applied(stdout, data):
        want = lam * bell + (1.0 - lam) * np.eye(4) / 4.0
        miss = np.abs(_matrix(json.loads(data)) - want).max()
        return [] if miss <= 1e-12 else [f"map apply output off by {miss:.2e}"]

    def crossing(times, negs, tstar):
        hit = next((t for t, n in zip(times, negs) if n is not None and n <= 1e-12), None)
        step = times[1] - times[0]
        if hit is None or abs(hit - tstar) > step:
            return [f"first zero-negativity time {hit}, t* = {tstar!r}"]
        return []

    def depolarizing(stdout, data):
        rows = [line.split(",") for line in data.decode().strip().splitlines()]
        col = {name: i for i, name in enumerate(rows[0])}
        times = [float(r[col["t"]]) for r in rows[1:]]
        negs = [float(r[col["negativity"]]) if r[col["negativity"]] else None for r in rows[1:]]
        errs = [] if stdout == "first_negative_time=none\n" else [f"stdout {stdout!r}"]
        return errs + crossing(times, negs, ref.depolarizing_tstar(f, d))

    def transpose_mix(stdout, data):
        last = json.loads(data)[-1]
        want = ref.isotropic_witness_min("transpose", f, d)
        return [] if abs(last["min_eig"] - want) <= 1e-9 else [
            f"last min_eig {last['min_eig']!r}, closed form {want!r}"]

    def bell_track(stdout, data):
        pts = json.loads(data)
        errs = crossing([pt["t"] for pt in pts], [pt["negativity"] for pt in pts],
                        ref.depolarizing_tstar(1.0, 2))
        for pt in pts:
            lam_t = math.exp(-pt["t"])
            exact = ref.wootters_eof(lam_t * bell + (1.0 - lam_t) * np.eye(4) / 4.0)
            if pt["eof_upper"] is None or pt["eof_upper"] < exact - 1e-9:
                errs.append(f"eof_upper {pt['eof_upper']!r} at t={pt['t']} below {exact!r}")
            elif exact > 0.0:
                ratios.append(exact / pt["eof_upper"])
        return errs

    bt = BELL_TRACK
    return [
        (["state", "make", "--family", "bell", "--k", "1", "--seed", s,
          "--out", fl["bell.json"]], fl["bell.json"], _same_state(bell)),
        (["state", "make", "--family", "isotropic", "--f", repr(f), "--d", str(d),
          "--seed", s, "--out", fl["iso.json"]], fl["iso.json"], _same_state(iso)),
        (["state", "make", "--family", "werner", "--p", repr(p), "--seed", s,
          "--out", fl["werner.json"]], fl["werner.json"], _same_state(ref.werner_matrix(p))),
        (["state", "make", "--family", "random_separable", "--d1", "2", "--d2", "3",
          "--m", "3", "--seed", str(inp["sep_seed"]), "--out", fl["sep.json"]],
         fl["sep.json"], separable_file),
        (["state", "info", "--in", fl["iso.json"], "--seed", s], None, info),
        (["measure", "ppt", "--in", fl["werner.json"], "--seed", s], None, ppt),
        (["measure", "negativity", "--in", fl["iso.json"], "--seed", s], None, negativity),
        (["measure", "eof", "--in", fl["rand2q.json"], "--K", "8", "--restarts", "4",
          "--seed", s, "--out", fl["eof.json"]], fl["eof.json"], eof),
        (["measure", "dcoef-sup", "--in", fl["werner.json"], "--K", "8", "--restarts", "4",
          "--seed", s, "--out", fl["dcoef.json"]], fl["dcoef.json"], dcoef_sup),
        (["map", "check", "--catalog", "transpose", "--d", "3", "--restarts", "20",
          "--seed", s], None, map_check("false", "true", "true", -1.0)),
        (["map", "check", "--catalog", "reduction", "--d", "3", "--restarts", "20",
          "--seed", s], None, map_check("false", "true", "true", -2.0)),
        (["map", "check", "--catalog", "choi_map", "--restarts", "40", "--seed", s,
          "--out", fl["choi_check.json"]], fl["choi_check.json"],
         map_check("false", "false", "false", -1.0)),
        (["map", "apply", "--catalog", "depolarizing", "--d", "4", "--lam", repr(lam),
          "--state", fl["bell.json"], "--seed", s, "--out", fl["applied.json"]],
         fl["applied.json"], applied),
        (["evolve", "--in", fl["iso.json"], "--family", "depolarizing_flow", "--rate", "1",
          "--t-max", "3", "--steps", str(EVOLVE_STEPS), "--seed", s, "--format", "csv",
          "--out", fl["depolarizing.csv"]], fl["depolarizing.csv"], depolarizing),
        (["evolve", "--in", fl["iso.json"], "--family", "transpose_mix", "--speed", "1",
          "--t-max", "1", "--steps", str(EVOLVE_STEPS), "--seed", s, "--format", "json",
          "--out", fl["transpose_mix.json"]], fl["transpose_mix.json"], transpose_mix),
        (["evolve", "--in", fl["bell.json"], "--family", "depolarizing_flow", "--rate", "1",
          "--t-max", str(bt["t_max"]), "--steps", str(bt["steps"]), "--measures", "eof,dcoef",
          "--K", str(bt["K"]), "--restarts", str(bt["restarts"]), "--seed", str(bt["seed"]),
          "--format", "json", "--out", fl["bell_track.json"]], fl["bell_track.json"], bell_track),
    ]


def operations(ek, inp, seed, ratios):
    cli = ek.cli
    ops = []
    for argv, outfile, prop in _commands(inp, ratios):
        first = {}

        def check_first(res, prop=prop, first=first):
            rc, stdout, stderr, data = res
            first["out"] = (stdout, data)
            if rc != 0:
                return [f"exit code {rc}: {stderr.strip()}"]
            return prop(stdout, data)

        def check_again(res, first=first):
            rc, stdout, stderr, data = res
            if rc != 0:
                return [f"exit code {rc}: {stderr.strip()}"]
            if (stdout, data) != first.get("out"):
                return ["second run differs from the first"]
            return []

        call = lambda argv=argv, outfile=outfile: _run(cli, argv, outfile)
        name = " ".join(argv[:2])
        ops.append(Op(name, call, check_first))
        ops.append(Op(name + " (again)", call, check_again))

    def rejected(res):
        rc, stdout, stderr, _ = res
        return [] if rc == 2 else [f"NaN input accepted: exit {rc}, stdout {stdout.strip()!r}"]

    nan = inp["files"]["nan.json"]
    for argv in (["state", "info", "--in", nan], ["measure", "ppt", "--in", nan],
                 ["measure", "eof", "--in", nan]):
        ops.append(Op(" ".join(argv[:2]) + " (NaN entry)",
                      lambda argv=argv: _run(cli, argv, None), rejected, rejection=True))
    return ops
