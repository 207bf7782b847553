"""Command-line frontend: states, measures, map checks and evolutions.

All randomness flows from --seed through per-restart substreams, so
repeated invocations with the same arguments produce byte-identical
output.  Exit codes: 0 success, 2 input error, 3 non-convergence under
--strict.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import dynamics, maps, measures, states


def _write_output(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_state(path):
    with open(path, encoding="utf-8") as fh:
        return states.state_from_json(json.load(fh))


def _load_choi(path):
    with open(path, encoding="utf-8") as fh:
        return maps.choi_from_json(json.load(fh))


def _fmt(value):
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _kv_line(pairs):
    return " ".join(f"{k}={_fmt(v)}" for k, v in pairs) + "\n"


# ---------------------------------------------------------------------------
# state subcommand
# ---------------------------------------------------------------------------


def _cmd_state(args):
    if args.action == "make":
        params = {}
        for key in ("p", "f"):
            val = getattr(args, key)
            if val is not None:
                params[key] = val
        for key in ("k", "d", "d1", "d2", "m", "rank"):
            val = getattr(args, key)
            if val is not None:
                params[key] = val
        params["seed"] = args.seed
        if args.family == "product":
            if not args.in1 or not args.in2:
                raise ValueError("product needs --in1 and --in2 state files")
            params = {"rho1": _load_state(args.in1), "rho2": _load_state(args.in2)}
        state = states.make_named(args.family, **params)
        _write_output(args, _dump_json(state.to_json()))
        return 0
    if args.action == "info":
        if not args.infile:
            raise ValueError("state info needs --in FILE")
        state = _load_state(args.infile)
        report = {
            "d1": state.d1,
            "d2": state.d2,
            "trace": float(np.trace(state.mat).real),
            "rank": state.rank(),
            "entropy_bits": states.von_neumann_entropy(state),
            "marginal_entropy_1": states.von_neumann_entropy(states.restrict(state, 1)),
            "marginal_entropy_2": states.von_neumann_entropy(states.restrict(state, 2)),
        }
        _write_output(args, _dump_json(report))
        return 0
    raise ValueError(f"unknown state action {args.action!r}")


# ---------------------------------------------------------------------------
# measure subcommand
# ---------------------------------------------------------------------------


def _cmd_measure(args):
    state = _load_state(args.infile)
    if args.which == "ppt":
        rep = measures.ppt_test(state, tol=args.tol)
        sys.stdout.write(
            _kv_line([("lambda_min", rep.lambda_min), ("verdict", rep.verdict)])
        )
        if args.out:
            _write_output(
                args,
                _dump_json(
                    {"lambda_min": rep.lambda_min, "verdict": rep.verdict}
                ),
            )
        return 0
    if args.which == "negativity":
        val = measures.negativity(state)
        sys.stdout.write(_kv_line([("negativity", val)]))
        if args.out:
            _write_output(args, _dump_json({"negativity": val}))
        return 0
    if args.which == "eof":
        rep = measures.eof_upper(
            state, K=args.K, restarts=args.restarts, iters=args.iters, seed=args.seed
        )
    elif args.which == "dcoef-sup":
        rep = measures.dcoef_sup(
            state, K=args.K, restarts=args.restarts, iters=args.iters, seed=args.seed
        )
    else:
        raise ValueError(f"unknown measure {args.which!r}")
    sys.stdout.write(_kv_line([("value", rep.value), ("converged", rep.converged)]))
    if args.out:
        _write_output(args, _dump_json(rep.to_json()))
    if args.strict and not rep.converged:
        sys.stderr.write("measure did not converge within budget (--strict)\n")
        return 3
    return 0


# ---------------------------------------------------------------------------
# map subcommand
# ---------------------------------------------------------------------------


def _refuse_unread(when, given):
    # an option that the other options leave unread is an input error
    named = [flag for flag, value in given.items() if value is not None]
    if named:
        raise ValueError(f"{', '.join(named)} not read {when}")


def _get_choi(args):
    if args.catalog:
        _refuse_unread("with --catalog", {"--in": args.infile})
        params = {}
        if args.d is not None:
            params["d"] = args.d
        if args.lam is not None:
            params["lam"] = args.lam
        return maps.catalog(args.catalog, **params)
    _refuse_unread("without --catalog", {"--d": args.d, "--lam": args.lam})
    if args.infile:
        return _load_choi(args.infile)
    raise ValueError("need --catalog NAME or --in CHOI_FILE")


def _cmd_map(args):
    choi = _get_choi(args)
    if args.action == "check":
        cp = maps.is_cp(choi, tol=args.tol)
        cocp = maps.is_co_cp(choi, tol=args.tol)
        block = maps.is_block_positive(
            choi, restarts=args.restarts, iters=args.iters, tol=args.tol,
            seed=args.seed,
        )
        dec = maps.is_decomposable(choi, max_iter=args.max_iter)
        verdict = "indeterminate" if dec.decomposable is None else dec.decomposable
        sys.stdout.write(
            _kv_line(
                [
                    ("block_positive", block.block_positive),
                    ("cp", cp.ok),
                    ("co_cp", cocp.ok),
                    ("decomposable", verdict),
                    ("cp_min_eig", cp.min_eig),
                    ("co_cp_min_eig", cocp.min_eig),
                    ("product_min", block.min_value),
                    ("residual", dec.residual),
                ]
            )
        )
        if args.out:
            _write_output(
                args,
                _dump_json(
                    {
                        "block_positive": block.block_positive,
                        "cp": cp.ok,
                        "co_cp": cocp.ok,
                        "decomposable": verdict if isinstance(verdict, bool) else None,
                        "cp_min_eig": cp.min_eig,
                        "co_cp_min_eig": cocp.min_eig,
                        "product_min": block.min_value,
                        "residual": dec.residual,
                        "iterations": dec.iterations,
                    }
                ),
            )
        return 0
    if args.action == "apply":
        if not args.state:
            raise ValueError("map apply needs --state FILE")
        state = _load_state(args.state)
        if state.dim != choi.d_in:
            raise ValueError(
                f"state dimension {state.dim} does not match map input {choi.d_in}"
            )
        out = maps.apply_map(choi, state.mat)
        payload = {
            "d1": choi.d_out,
            "d2": 1,
            "re": out.real.tolist(),
            "im": out.imag.tolist(),
        }
        _write_output(args, _dump_json(payload))
        return 0
    raise ValueError(f"unknown map action {args.action!r}")


# ---------------------------------------------------------------------------
# evolve subcommand
# ---------------------------------------------------------------------------


def _cmd_evolve(args):
    wanted = {m.strip() for m in args.measures.split(",") if m.strip()}
    if not wanted:
        _refuse_unread("without --measures",
                       {"--K": args.K, "--restarts": args.restarts, "--iters": args.iters})
    unread = {}
    if args.family != "glauber_flip":
        unread.update({"--beta": args.beta, "--hz": args.hz})
    if args.family not in ("depolarizing_flow", "glauber_flip"):
        unread["--rate"] = args.rate
    if args.family != "transpose_mix":
        unread["--speed"] = args.speed
    _refuse_unread(f"by family {args.family}", unread)
    state = _load_state(args.infile)
    params = {"d": state.d1}
    if args.rate is not None:
        params["rate"] = args.rate
    if args.speed is not None:
        params["speed"] = args.speed
    if args.family == "glauber_flip":
        params["beta"] = args.beta if args.beta is not None else 1.0
        if args.rate is None:
            params["rate"] = 1.0
        if state.d1 != 2:
            raise ValueError("glauber_flip via the CLI assumes a qubit on leg 1")
        params["H"] = (1.0 if args.hz is None else args.hz) * np.diag([1.0, -1.0])
    family = dynamics.family_catalog(args.family, **params)
    if args.steps < 1:
        raise ValueError(f"steps must be >= 1, got {args.steps}")
    if not (np.isfinite(args.t_max) and args.t_max > 0):
        raise ValueError(f"t-max must be finite and > 0, got {args.t_max}")
    grid = np.linspace(0.0, args.t_max, args.steps + 1)
    unknown = wanted - {"eof", "dcoef"}
    if unknown:
        raise ValueError(f"unknown evolve measures: {sorted(unknown)}")
    record = dynamics.evolve_track(
        state,
        family,
        grid,
        measure_eof="eof" in wanted,
        measure_dcoef="dcoef" in wanted,
        K=args.K,
        restarts=8 if args.restarts is None else args.restarts,
        iters=40 if args.iters is None else args.iters,
        seed=args.seed,
    )
    sys.stdout.write(
        _kv_line([("first_negative_time", record.first_negative_time())])
    )
    if args.format == "csv":
        _write_output(args, record.to_csv())
    else:
        _write_output(args, _dump_json(record.to_json()))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _tolerance(text):
    # argparse turns the ArgumentTypeError into a usage error, exit code 2
    val = float(text)
    if not np.isfinite(val) or val < 0.0:
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and >= 0, got {text!r}"
        )
    return val


def _count(text, least=0):
    # an iteration or restart budget; negative ones are usage errors too
    val = int(text)
    if val < least:
        raise argparse.ArgumentTypeError(f"count must be >= {least}, got {text!r}")
    return val


def _positive_count(text):
    # a budget that needs at least one step to produce any result
    return _count(text, least=1)


@functools.cache  # built once per process: in-process sessions call main often
def _build_parser():
    # each action is its own subparser and takes only the options it reads,
    # so any other option is a usage error (exit 2) instead of being ignored
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="global random seed")
    common.add_argument("--out", type=str, default=None, help="output file path")
    verdict = argparse.ArgumentParser(add_help=False)
    verdict.add_argument("--tol", type=_tolerance, default=1e-9, help="verdict tolerance")
    state_in = argparse.ArgumentParser(add_help=False)
    state_in.add_argument("--in", dest="infile", type=str, required=True)
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--K", type=int, default=None)
    search.add_argument("--restarts", type=_count, default=32)
    search.add_argument("--iters", type=_count, default=60)
    search.add_argument("--strict", action="store_true")
    choi_src = argparse.ArgumentParser(add_help=False)
    choi_src.add_argument("--catalog", type=str, default=None)
    choi_src.add_argument("--in", dest="infile", type=str, default=None)
    choi_src.add_argument("--d", type=int, default=None)
    choi_src.add_argument("--lam", type=float, default=None)

    parser = argparse.ArgumentParser(
        prog="entkit",
        description="Bipartite entanglement and positive-map analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="build or inspect states")
    p_state.set_defaults(func=_cmd_state)
    state_act = p_state.add_subparsers(dest="action", required=True)
    s_make = state_act.add_parser("make", parents=[common])
    s_make.add_argument("--family", type=str, default=None)
    s_make.add_argument("--in1", type=str, default=None)
    s_make.add_argument("--in2", type=str, default=None)
    s_make.add_argument("--p", type=float, default=None)
    s_make.add_argument("--f", type=float, default=None)
    s_make.add_argument("--k", type=int, default=None)
    s_make.add_argument("--d", type=int, default=None)
    s_make.add_argument("--d1", type=int, default=None)
    s_make.add_argument("--d2", type=int, default=None)
    s_make.add_argument("--m", type=int, default=None)
    s_make.add_argument("--rank", type=int, default=None)
    s_info = state_act.add_parser("info", parents=[common])
    s_info.add_argument("--in", dest="infile", type=str, default=None)

    p_meas = sub.add_parser("measure", help="run a measure")
    p_meas.set_defaults(func=_cmd_measure)
    which = p_meas.add_subparsers(dest="which", required=True)
    which.add_parser("ppt", parents=[common, state_in, verdict])
    which.add_parser("negativity", parents=[common, state_in])
    which.add_parser("eof", parents=[common, state_in, search])
    which.add_parser("dcoef-sup", parents=[common, state_in, search])

    p_map = sub.add_parser("map", help="check or apply a map")
    p_map.set_defaults(func=_cmd_map)
    map_act = p_map.add_subparsers(dest="action", required=True)
    m_check = map_act.add_parser("check", parents=[common, choi_src, verdict])
    m_check.add_argument("--restarts", type=_count, default=64)
    m_check.add_argument("--iters", type=_count, default=200)
    m_check.add_argument("--max-iter", dest="max_iter", type=_positive_count, default=5000)
    m_apply = map_act.add_parser("apply", parents=[common, choi_src])
    m_apply.add_argument("--state", type=str, default=None)

    p_evo = sub.add_parser("evolve", parents=[common], help="track a map family")
    p_evo.add_argument("--in", dest="infile", type=str, required=True)
    p_evo.add_argument("--family", type=str, required=True)
    p_evo.add_argument("--rate", type=float, default=None)
    p_evo.add_argument("--speed", type=float, default=None)
    p_evo.add_argument("--beta", type=float, default=None)
    p_evo.add_argument("--hz", type=float, default=None)  # glauber_flip: 1.0
    p_evo.add_argument("--t-max", dest="t_max", type=float, required=True)
    p_evo.add_argument("--steps", type=int, required=True)
    p_evo.add_argument("--measures", type=str, default="")
    p_evo.add_argument("--K", type=int, default=None)
    p_evo.add_argument("--restarts", type=_count, default=None)  # with --measures: 8
    p_evo.add_argument("--iters", type=_count, default=None)  # with --measures: 40
    p_evo.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    p_evo.set_defaults(func=_cmd_evolve)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
