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

from . import dynamics, maps, matcore, measures, states


def _write_output(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load(path, reader=None):  # states.state_from_json, looked up at call time
    with open(path, encoding="utf-8") as fh:
        return (reader or states.state_from_json)(json.load(fh))


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


def _report(args, fields, payload=None):
    # the key=value line of fields; with --out, also payload (default: the
    # fields) as JSON
    sys.stdout.write(_kv_line(fields))
    if args.out:
        _write_output(args, _dump_json(dict(fields) if payload is None else payload))


def _refuse_unread(when, given):
    # an option that the other options leave unread is an input error
    named = [flag for flag, value in given.items() if value is not None]
    if named:
        raise ValueError(f"{', '.join(named)} not read {when}")


def _given(**options):
    # the options the user gave; the library keeps its defaults for the others
    return {key: value for key, value in options.items() if value is not None}


def _catalog_params(catalog, name, by, flags):
    # flags maps each option to (catalog parameter, value): the options given
    # become parameters, and those that entry name does not read are refused
    reads = catalog.reads(name)
    _refuse_unread(f"by {by} {name}",
                   {flag: value for flag, (key, value) in flags.items() if key not in reads})
    return {key: value for key, value in flags.values() if value is not None}


# state make's options named after the family parameter they set; --in1 and
# --in2 name the files of the product family's rho1 and rho2
_FAMILY_OPTIONS = {
    "p": float, "f": float, "k": int, "d": int, "d1": int, "d2": int, "m": int, "rank": int
}


# ---------------------------------------------------------------------------
# actions: each returns its exit code, or None for 0
# ---------------------------------------------------------------------------


def _state_make(args):
    flags = {f"--{key}": (key, getattr(args, key)) for key in _FAMILY_OPTIONS}
    flags.update({"--in1": ("rho1", args.in1), "--in2": ("rho2", args.in2)})
    params = _catalog_params(states.FAMILIES, args.family, "family", flags)
    for key in ("rho1", "rho2"):
        if key in params:
            params[key] = _load(params[key])
    state = states.make_named(args.family, seed=args.seed, **params)
    _write_output(args, _dump_json(state.to_json()))


def _state_info(args):
    state = _load(args.infile)
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


def _measure_ppt(args):
    rep = measures.ppt_test(_load(args.infile), tol=args.tol)
    _report(args, [("lambda_min", rep.lambda_min), ("verdict", rep.verdict)])


def _measure_negativity(args):
    _report(args, [("negativity", measures.negativity(_load(args.infile)))])


def _measure_search(args):
    # measure eof and dcoef-sup: args.search names eof_upper or dcoef_sup, found
    # at call time so that a replaced measures attribute is the one that runs
    search = getattr(measures, args.search)
    given = _given(K=args.K, restarts=args.restarts, iters=args.iters)
    rep = search(_load(args.infile), seed=args.seed, **given)
    _report(args, [("value", rep.value), ("converged", rep.converged)], rep.to_json())
    if args.strict and not rep.converged:
        sys.stderr.write("measure did not converge within budget (--strict)\n")
        return 3


def _get_choi(args):
    # argparse takes exactly one of --catalog and --in
    if args.catalog:
        flags = {"--d": ("d", args.d), "--lam": ("lam", args.lam)}
        params = _catalog_params(maps.CATALOG, args.catalog, "catalog", flags)
        return maps.catalog(args.catalog, **params)
    _refuse_unread("without --catalog", {"--d": args.d, "--lam": args.lam})
    return _load(args.infile, maps.choi_from_json)


def _map_check(args):
    choi = _get_choi(args)
    cp = maps.is_cp(choi, tol=args.tol)
    cocp = maps.is_co_cp(choi, tol=args.tol)
    block = maps.is_block_positive(
        choi, restarts=args.restarts, tol=args.tol, seed=args.seed, **_given(iters=args.iters)
    )
    dec = maps.is_decomposable(choi, **_given(max_iter=args.max_iter))
    fields = [
        ("block_positive", block.block_positive),
        ("certificate", block.certificate),
        ("cp", cp.ok),
        ("co_cp", cocp.ok),
        ("decomposable", "indeterminate" if dec.decomposable is None else dec.decomposable),
        ("cp_min_eig", cp.min_eig),
        ("co_cp_min_eig", cocp.min_eig),
        ("product_min", block.min_value),
        ("product_lower", block.lower),
        ("residual", dec.residual),
    ]
    _report(args, fields, dict(fields, decomposable=dec.decomposable, iterations=dec.iterations))


def _map_apply(args):
    choi = _get_choi(args)
    state = _load(args.state)
    if state.dim != choi.d_in:
        raise ValueError(
            f"state dimension {state.dim} does not match map input {choi.d_in}"
        )
    out = maps.apply_map(choi, state.mat)
    _write_output(args, _dump_json(matcore.matrix_to_json(out, d1=choi.d_out, d2=1)))


def _evolve(args):
    wanted = {m.strip() for m in args.measures.split(",") if m.strip()}
    search = {"K": args.K, "restarts": args.restarts, "iters": args.iters}
    if not wanted:
        _refuse_unread("without --measures", {f"--{key}": v for key, v in search.items()})
    sigma_z = np.diag([1.0, -1.0])
    flags = {
        "--rate": ("rate", args.rate),
        "--speed": ("speed", args.speed),
        "--beta": ("beta", args.beta),
        "--hz": ("H", None if args.hz is None else args.hz * sigma_z),
    }
    params = _catalog_params(dynamics.FAMILIES, args.family, "family", flags)
    state = _load(args.infile)
    reads = dynamics.FAMILIES.reads(args.family)
    if "d" in reads:
        params["d"] = state.d1
    if "H" in reads:  # the site Hamiltonian --hz times sigma_z, on a qubit
        if state.d1 != 2:
            raise ValueError(f"{args.family} via the CLI assumes a qubit on leg 1")
        params.setdefault("H", sigma_z)
    family = dynamics.family_catalog(args.family, **params)
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
        seed=args.seed,
        **_given(**search),
    )
    sys.stdout.write(
        _kv_line([("first_negative_time", record.first_negative_time())])
    )
    if args.format == "csv":
        _write_output(args, record.to_csv())
    else:
        _write_output(args, _dump_json(record.to_json()))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _finite(text):
    # argparse turns the ArgumentTypeError into a usage error, exit code 2
    val = float(text)
    if not np.isfinite(val):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return val


def _tolerance(text):
    val = _finite(text)
    if val < 0.0:
        raise argparse.ArgumentTypeError(f"tolerance must be >= 0, got {text!r}")
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
    # so any other option is a usage error (exit 2) instead of being ignored;
    # no parser takes a prefix of an option as the option
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="global random seed")
    common.add_argument("--out", type=str, default=None, help="output file path")
    verdict = argparse.ArgumentParser(add_help=False)
    verdict.add_argument("--tol", type=_tolerance, default=1e-9, help="verdict tolerance")
    state_in = argparse.ArgumentParser(add_help=False)
    state_in.add_argument("--in", dest="infile", type=str, required=True)
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--K", type=int, default=None)
    search.add_argument("--restarts", type=_count, default=None)
    search.add_argument("--iters", type=_count, default=None)
    search.add_argument("--strict", action="store_true")
    choi_src = argparse.ArgumentParser(add_help=False)
    choi_from = choi_src.add_mutually_exclusive_group(required=True)
    choi_from.add_argument("--catalog", type=str, default=None)
    choi_from.add_argument("--in", dest="infile", type=str, default=None)
    choi_src.add_argument("--d", type=int, default=None)
    choi_src.add_argument("--lam", type=float, default=None)

    parser = argparse.ArgumentParser(
        prog="entkit",
        allow_abbrev=False,
        description="Bipartite entanglement and positive-map analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", allow_abbrev=False, help="build or inspect states")
    state_act = p_state.add_subparsers(dest="action", required=True)
    s_make = state_act.add_parser("make", allow_abbrev=False, parents=[common])
    s_make.set_defaults(func=_state_make)
    s_make.add_argument("--family", type=str, required=True)
    s_make.add_argument("--in1", type=str, default=None)
    s_make.add_argument("--in2", type=str, default=None)
    for key, kind in _FAMILY_OPTIONS.items():
        s_make.add_argument(f"--{key}", type=kind, default=None)
    state_act.add_parser("info", allow_abbrev=False, parents=[common, state_in]).set_defaults(
        func=_state_info
    )

    p_meas = sub.add_parser("measure", allow_abbrev=False, help="run a measure")
    which = p_meas.add_subparsers(dest="which", required=True)
    which.add_parser("ppt", allow_abbrev=False, parents=[common, state_in, verdict]).set_defaults(
        func=_measure_ppt
    )
    which.add_parser("negativity", allow_abbrev=False, parents=[common, state_in]).set_defaults(
        func=_measure_negativity
    )
    for name, fn in (("eof", "eof_upper"), ("dcoef-sup", "dcoef_sup")):
        which.add_parser(name, allow_abbrev=False, parents=[common, state_in, search]).set_defaults(
            func=_measure_search, search=fn
        )

    p_map = sub.add_parser("map", allow_abbrev=False, help="check or apply a map")
    map_act = p_map.add_subparsers(dest="action", required=True)
    m_check = map_act.add_parser("check", allow_abbrev=False, parents=[common, choi_src, verdict])
    m_check.set_defaults(func=_map_check)
    m_check.add_argument("--restarts", type=_count, default=64)
    m_check.add_argument("--iters", type=_count, default=None)
    m_check.add_argument("--max-iter", dest="max_iter", type=_positive_count, default=None)
    m_apply = map_act.add_parser("apply", allow_abbrev=False, parents=[common, choi_src])
    m_apply.set_defaults(func=_map_apply)
    m_apply.add_argument("--state", type=str, required=True)

    p_evo = sub.add_parser(
        "evolve", allow_abbrev=False, parents=[common], help="track a map family"
    )
    p_evo.set_defaults(func=_evolve)
    p_evo.add_argument("--in", dest="infile", type=str, required=True)
    p_evo.add_argument("--family", type=str, required=True)
    p_evo.add_argument("--rate", type=float, default=None)
    p_evo.add_argument("--speed", type=float, default=None)
    p_evo.add_argument("--beta", type=float, default=None)
    p_evo.add_argument("--hz", type=_finite, default=None)
    p_evo.add_argument("--t-max", dest="t_max", type=float, required=True)
    p_evo.add_argument("--steps", type=_positive_count, required=True)
    p_evo.add_argument("--measures", type=str, default="")
    p_evo.add_argument("--K", type=int, default=None)
    p_evo.add_argument("--restarts", type=_count, default=None)
    p_evo.add_argument("--iters", type=_count, default=None)
    p_evo.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
