import contextlib
import io
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entkit import cli, maps, measures, states

from cli_env import cli_env
from matrix_files import MALFORMED, malformed


def _checked(proc, check):
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def run_cli(*args, check=True):
    """Run ``entkit.cli.main(args)`` in this process, as ``spawn_cli`` would.

    stdout and stderr are captured, and argparse's ``SystemExit`` gives the
    exit code, so the result has the ``returncode``, ``stdout`` and
    ``stderr`` of the child interpreter without its start-up cost.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return _checked(subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue()), check)


def spawn_cli(*args, check=True):
    """Run ``python -m entkit.cli`` in a child interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "entkit.cli", *args],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    return _checked(proc, check)


def _refuse_constant(name):
    raise AssertionError(f"output JSON holds {name}, which is not valid JSON")


def load_json(text):
    # NaN and Infinity are Python extensions that strict JSON readers refuse
    return json.loads(text, parse_constant=_refuse_constant)


def parse_kv(text):
    # key=value summary line (the first stdout line; payloads may follow)
    out = {}
    for chunk in text.strip().splitlines()[0].split():
        key, val = chunk.split("=", 1)
        out[key] = val
    return out


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    run_cli("state", "make", "--family", "bell", "--k", "1", "--out", str(path))
    return path


@pytest.mark.parametrize(
    "argv,code",
    [
        (("state", "make", "--family", "bell", "--k", "1"), 0),
        (("state", "info", "--format", "csv", "--in", "STATE"), 2),
    ],
    ids=["state-make", "unread-option"],
)
def test_entry_point_matches_in_process(bell_file, argv, code):
    # the other tests call main(argv) in process; the entry point must give
    # the same exit code, stdout and stderr
    argv = [str(bell_file) if a == "STATE" else a for a in argv]
    spawned = spawn_cli(*argv, check=False)
    local = run_cli(*argv, check=False)
    assert spawned.returncode == code
    assert (spawned.returncode, spawned.stdout, spawned.stderr) == (
        local.returncode, local.stdout, local.stderr
    )


class TestStateCommands:
    def test_make_bell(self, bell_file):
        obj = load_json(bell_file.read_text())
        assert set(obj) == {"d1", "d2", "re", "im"}
        st = states.state_from_json(obj)
        assert abs(np.trace(st.mat).real - 1.0) < 1e-9
        assert st.split == (2, 2)

    def test_info_bell(self, bell_file, tmp_path):
        proc = run_cli("state", "info", "--in", str(bell_file))
        rep = load_json(proc.stdout)
        assert rep["rank"] == 1
        assert abs(rep["entropy_bits"]) < 1e-9
        assert abs(rep["marginal_entropy_1"] - 1.0) < 1e-9
        # a product of pure states has pure marginals: every entropy prints
        # as 0.0, never -0.0
        legs = []
        for d, k in ((2, 0), (3, 1)):
            path = tmp_path / f"pure{d}.json"
            mat = np.zeros((d, d))
            mat[k, k] = 1.0
            path.write_text(json.dumps(
                {"d1": d, "d2": 1, "re": mat.tolist(), "im": np.zeros((d, d)).tolist()}
            ))
            legs.append(str(path))
        product = tmp_path / "product.json"
        run_cli("state", "make", "--family", "product", "--in1", legs[0], "--in2", legs[1],
                "--out", str(product))
        proc = run_cli("state", "info", "--in", str(product))
        assert "-0.0" not in proc.stdout
        rep = load_json(proc.stdout)
        for key in ("entropy_bits", "marginal_entropy_1", "marginal_entropy_2"):
            assert rep[key] == 0.0 and np.copysign(1.0, rep[key]) == 1.0

    def test_bad_parameter_exit_2(self):
        proc = spawn_cli("state", "make", "--family", "werner", "--p", "2", check=False)
        assert proc.returncode == 2
        assert "werner" in proc.stderr

    def test_product_family(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli("state", "make", "--family", "max_mixed", "--d1", "2", "--d2", "1", "--out", str(a))
        run_cli("state", "make", "--family", "max_mixed", "--d1", "3", "--d2", "1", "--out", str(b))
        proc = run_cli("state", "make", "--family", "product", "--in1", str(a), "--in2", str(b))
        st = states.state_from_json(load_json(proc.stdout))
        assert st.split == (2, 3)


@pytest.fixture
def nan_file(tmp_path):
    # I/4 with one NaN diagonal entry; json writes it as a bare NaN token
    mat = np.eye(4) / 4
    mat[0, 0] = np.nan
    path = tmp_path / "nan.json"
    path.write_text(
        json.dumps({"d1": 2, "d2": 2, "re": mat.tolist(), "im": np.zeros((4, 4)).tolist()})
    )
    return path


@pytest.fixture
def inf_im_file(tmp_path):
    # I/4 with an infinite imaginary part off the diagonal
    im = np.zeros((4, 4))
    im[0, 1] = np.inf
    path = tmp_path / "inf_im.json"
    path.write_text(
        json.dumps({"d1": 2, "d2": 2, "re": (np.eye(4) / 4).tolist(), "im": im.tolist()})
    )
    return path


@pytest.mark.parametrize(
    "argv", [("state", "info"), ("measure", "ppt"), ("measure", "eof")]
)
def test_non_finite_state_exit_2(nan_file, inf_im_file, argv):
    for path in (nan_file, inf_im_file):
        proc = run_cli(*argv, "--in", str(path), check=False)
        assert proc.returncode == 2
        assert "non-finite" in proc.stderr
        assert proc.stdout == ""


@pytest.mark.parametrize(
    "extra,option",
    [
        (("--family", "transpose_mix", "--t-max", "nan"), "t-max"),
        (("--family", "transpose_mix", "--t-max", "inf"), "t-max"),
        (("--family", "glauber_flip", "--t-max", "1", "--beta", "nan"), "beta"),
        (("--family", "depolarizing_flow", "--t-max", "1", "--rate", "inf"), "rate"),
        (("--family", "transpose_mix", "--t-max", "1", "--speed", "nan"), "speed"),
        (("--family", "glauber_flip", "--t-max", "1", "--hz", "inf"), "hz"),
        (("--family", "glauber_flip", "--t-max", "1", "--hz", "nan"), "hz"),
    ],
    ids=["t-max-nan", "t-max-inf", "beta-nan", "rate-inf", "speed-nan", "hz-inf", "hz-nan"],
)
def test_non_finite_evolve_input_exit_2(bell_file, extra, option):
    proc = run_cli("evolve", "--in", str(bell_file), *extra, "--steps", "2", check=False)
    assert proc.returncode == 2
    assert option in proc.stderr and "finite" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [("measure", "eof"), ("measure", "dcoef-sup")])
def test_non_positive_dimensions_exit_2(tmp_path, argv):
    path = tmp_path / "neg.json"
    mat = np.eye(4) / 4
    path.write_text(
        json.dumps({"d1": -2, "d2": -2, "re": mat.tolist(), "im": np.zeros((4, 4)).tolist()})
    )
    proc = run_cli(*argv, "--in", str(path), check=False)
    assert proc.returncode == 2
    assert "split -2x-2 has a dimension below 1" in proc.stderr
    assert proc.stdout == ""


# every command that reads a matrix file, with the size keys of the file it
# reads: BAD is the malformed file, STATE a valid state file, OUT the --out
STATE_KEYS, CHOI_KEYS = ("d1", "d2"), ("d_in", "d_out")
MATRIX_READERS = {
    "state-info": (STATE_KEYS, ("state", "info", "--in", "BAD")),
    "state-make-product": (STATE_KEYS, (
        "state", "make", "--family", "product", "--in1", "BAD", "--in2", "STATE", "--out", "OUT"
    )),
    "measure-ppt": (STATE_KEYS, ("measure", "ppt", "--in", "BAD")),
    "measure-negativity": (STATE_KEYS, ("measure", "negativity", "--in", "BAD")),
    "measure-eof": (STATE_KEYS, ("measure", "eof", "--in", "BAD", "--out", "OUT")),
    "measure-dcoef-sup": (STATE_KEYS, ("measure", "dcoef-sup", "--in", "BAD", "--out", "OUT")),
    "map-check-in": (CHOI_KEYS, ("map", "check", "--in", "BAD", "--out", "OUT")),
    "map-apply-in": (
        CHOI_KEYS, ("map", "apply", "--in", "BAD", "--state", "STATE", "--out", "OUT")
    ),
    "map-apply-state": (STATE_KEYS, (
        "map", "apply", "--catalog", "depolarizing", "--d", "4", "--lam", "0.5",
        "--state", "BAD", "--out", "OUT",
    )),
    "evolve": (STATE_KEYS, (
        "evolve", "--in", "BAD", "--family", "depolarizing_flow", "--rate", "1",
        "--t-max", "1", "--steps", "2", "--out", "OUT",
    )),
}


@pytest.mark.parametrize("row", sorted(MALFORMED))
@pytest.mark.parametrize("command", sorted(MATRIX_READERS))
def test_malformed_matrix_file_exit_2(bell_file, tmp_path, command, row):
    keys, argv = MATRIX_READERS[command]
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_text(malformed(row, keys))
    files = {"BAD": str(bad), "STATE": str(bell_file), "OUT": str(out)}
    proc = run_cli(*(files.get(a, a) for a in argv), check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: malformed ") and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.fixture
def near_psd_file(tmp_path):
    # eigenvalues -8e-10, twice: DensityMatrix accepts them, and the searches
    # drop them from the spectral rows
    e = 8e-10
    mat = np.diag([0.5 + e, 0.5 + e, -e, -e])
    path = tmp_path / "near_psd.json"
    path.write_text(
        json.dumps({"d1": 2, "d2": 2, "re": mat.tolist(), "im": np.zeros((4, 4)).tolist()})
    )
    return path


@pytest.mark.parametrize(
    "argv", [("measure", "ppt"), ("measure", "eof"), ("measure", "dcoef-sup")]
)
def test_searches_take_the_states_ppt_takes(near_psd_file, argv):
    proc = run_cli(*argv, "--in", str(near_psd_file))
    assert proc.returncode == 0 and proc.stderr == ""


def test_state_info_takes_the_states_ppt_takes(near_psd_file):
    # a marginal of this state reaches -1.6e-9, below -PSD_TOL: state info
    # projects it, where it used to exit 2
    proc = run_cli("state", "info", "--in", str(near_psd_file))
    assert proc.returncode == 0 and proc.stderr == ""
    info = load_json(proc.stdout)
    assert info["marginal_entropy_1"] == 0.0 and abs(info["marginal_entropy_2"] - 1.0) < 1e-12


def test_integral_float_sizes_read_as_integers(tmp_path):
    # sizes 2.0 and integer-valued re give the verdict that 2 and floats give
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(
        {"d1": 2.0, "d2": 2.0, "re": [[1, 0, 0, 0]] + [[0] * 4] * 3, "im": [[0] * 4] * 4}
    ))
    floats = tmp_path / "floats.json"
    pure = states.product_state(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
    floats.write_text(json.dumps(pure.to_json()))
    for argv in (("measure", "ppt"), ("measure", "negativity"), ("state", "info")):
        got, want = (run_cli(*argv, "--in", str(f)).stdout for f in (path, floats))
        assert got == want


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "argv",
    [("measure", "ppt"), ("map", "check", "--catalog", "transpose", "--d", "2")],
    ids=["measure-ppt", "map-check"],
)
def test_bad_tolerance_exit_2(bell_file, argv, tol):
    extra = ("--in", str(bell_file)) if argv[0] == "measure" else ()
    proc = run_cli(*argv, *extra, f"--tol={tol}", check=False)
    assert proc.returncode == 2
    assert "--tol" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv,option",
    [
        (("map", "check", "--catalog", "transpose", "--d", "2", "--restarts", "-3"), "--restarts"),
        (("map", "check", "--catalog", "transpose", "--d", "2", "--max-iter", "-1"), "--max-iter"),
        (("measure", "eof", "--iters", "-5"), "--iters"),
        (("measure", "dcoef-sup", "--restarts", "-1"), "--restarts"),
        (("evolve", "--family", "depolarizing_flow", "--t-max", "1", "--steps", "2",
          "--iters", "-2"), "--iters"),
    ],
    ids=["map-restarts", "map-max-iter", "measure-iters", "measure-restarts", "evolve-iters"],
)
def test_negative_count_exit_2(bell_file, argv, option):
    extra = () if argv[0] == "map" else ("--in", str(bell_file))
    proc = run_cli(*argv, *extra, check=False)
    assert proc.returncode == 2
    assert option in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("measure", "eof", "--K", "0"),
        ("measure", "dcoef-sup", "--K", "-2"),
        ("evolve", "--family", "depolarizing_flow", "--rate", "1", "--t-max", "1",
         "--steps", "2", "--measures", "eof", "--K", "0"),
        ("evolve", "--family", "depolarizing_flow", "--rate", "1", "--t-max", "1",
         "--steps", "2", "--measures", "dcoef", "--K", "0"),
    ],
    ids=["measure-eof", "measure-dcoef-sup", "evolve-eof", "evolve-dcoef"],
)
def test_ensemble_size_below_rank_exit_2_on_a_pure_state(bell_file, argv):
    # a Bell state has rank one, whose exact value needs no search; an
    # ensemble of fewer than one member is still refused
    proc = run_cli(*argv, "--in", str(bell_file), check=False)
    assert proc.returncode == 2
    assert "below state rank 1: infeasible" in proc.stderr
    assert proc.stdout == ""


IN = ("--in", "STATE")  # a Bell state file

UNREAD_OPTIONS = [
    ("state-format", ("state", "info", "--format", "csv", *IN), "--format"),
    ("evolve-tol", ("evolve", "--family", "depolarizing_flow", "--t-max", "1",
                    "--steps", "2", "--tol", "1e-3", *IN), "--tol"),
    ("eof-tol", ("measure", "eof", "--tol", "0.5", *IN), "--tol"),
    ("dcoef-sup-tol", ("measure", "dcoef-sup", "--tol", "0.5", *IN), "--tol"),
    ("negativity-tol", ("measure", "negativity", "--tol", "0.5", *IN), "--tol"),
] + [
    (f"{which}-{flag[2:]}", ("measure", which, flag, *value, *IN), flag)
    for which in ("ppt", "negativity")
    for flag, value in (("--K", ("4",)), ("--restarts", ("2",)), ("--iters", ("3",)),
                        ("--strict", ()))
] + [
    (f"map-apply-{flag[2:]}", ("map", "apply", "--catalog", "transpose", "--d", "4",
                               "--state", "STATE", flag, "1"), flag)
    for flag in ("--restarts", "--iters", "--max-iter", "--tol")
] + [
    ("map-check-state", ("map", "check", "--catalog", "transpose", "--d", "2",
                         "--state", "STATE"), "--state"),
] + [
    (f"state-info-{flag[2:]}", ("state", "info", flag, value, *IN), flag)
    for flag, value in (("--family", "werner"), ("--p", "0.3"), ("--rank", "2"))
] + [
    ("state-make-in", ("state", "make", "--family", "werner", "--p", "0.3", *IN), "--in"),
] + [
    (f"evolve-{flag[2:]}-without-measures", ("evolve", "--family", "depolarizing_flow",
                                             "--t-max", "1", "--steps", "2", flag, "3", *IN),
     flag)
    for flag in ("--K", "--restarts", "--iters")
] + [
    (f"evolve-{flag[2:]}-{family}", ("evolve", "--family", family, "--rate", "1",
                                     "--t-max", "1", "--steps", "2", flag, "1.0", *IN), flag)
    for flag, family in (("--beta", "depolarizing_flow"), ("--hz", "depolarizing_flow"),
                         ("--beta", "transpose_mix"), ("--hz", "identity"))
] + [
    (f"evolve-{option[2:]}-{family}", ("evolve", "--family", family, *extra,
                                       "--t-max", "1", "--steps", "2", *IN), option)
    for family, extra, option in (
        ("transpose_mix", ("--speed", "1", "--rate", "5"), "--rate"),
        ("depolarizing_flow", ("--rate", "1", "--speed", "7"), "--speed"),
        ("identity", ("--rate", "3", "--speed", "2"), "--rate, --speed"),
        ("glauber_flip", ("--rate", "1", "--speed", "2"), "--speed"),
    )
] + [
    (f"map-{action}-in-with-catalog", ("map", action, "--catalog", "transpose", "--d", "2",
                                       *extra, *IN), "--in")
    for action, extra in (("check", ()), ("apply", ("--state", "STATE")))
] + [
    (f"map-{action}-{flag[2:]}-without-catalog", ("map", action, flag, value, *extra, *IN),
     flag)
    for action, extra in (("check", ()), ("apply", ("--state", "STATE")))
    for flag, value in (("--d", "2"), ("--lam", "0.5"))
] + [
    ("state-make-p-bell", ("state", "make", "--family", "bell", "--p", "0.5"), "--p"),
    ("state-make-rank-werner", ("state", "make", "--family", "werner", "--p", "0.3",
                                "--rank", "2"), "--rank"),
    ("map-check-d-choi-map", ("map", "check", "--catalog", "choi_map", "--d", "5"), "--d"),
    ("map-check-lam-transpose", ("map", "check", "--catalog", "transpose", "--d", "2",
                                 "--lam", "0.3"), "--lam"),
] + [
    # unique prefixes of a command's own options (--rank, --seed, --max-iter,
    # --restarts, --iters) are not taken as those options
    ("state-make-prefixes", ("state", "make", "--family", "random_density", "--ra", "2",
                             "--see", "3"), "--ra 2 --see 3"),
    ("map-check-prefixes", ("map", "check", "--catalog", "transpose", "--d", "2", "--max",
                            "3", "--rest", "2", "--it", "1"), "--max 3 --rest 2 --it 1"),
]


@pytest.mark.parametrize(
    "argv,option", [c[1:] for c in UNREAD_OPTIONS], ids=[c[0] for c in UNREAD_OPTIONS]
)
def test_option_of_another_subcommand_exit_2(bell_file, argv, option):
    # --format belongs to evolve only, --tol to measure ppt and map check
    # only, the search budgets to measure eof / dcoef-sup and map check only,
    # --state to map apply only, the family parameters to state make only;
    # evolve reads the search budgets only with --measures; map reads --in
    # only without --catalog and --d / --lam only with it; and a state
    # family, catalog map or map family reads only the parameters of its
    # catalog entry (--beta / --hz only glauber_flip, --rate only
    # depolarizing_flow and glauber_flip, --speed only transpose_mix, --lam
    # only depolarizing, --d no choi_map, --p / --rank no bell); no prefix
    # of an option stands for the option
    argv = [str(bell_file) if a == "STATE" else a for a in argv]
    proc = run_cli(*argv, check=False)
    assert proc.returncode == 2
    # the error line, not the usage text, which lists every option
    assert option in proc.stderr.splitlines()[-1]
    assert proc.stdout == ""


def _recorded(monkeypatch, owner, name):
    # keyword arguments of every later call of owner.name, which still runs
    calls = []
    inner = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def test_search_is_looked_up_at_call_time(bell_file, monkeypatch):
    # the parser is built once per process; a measures function replaced
    # after that, as the benchmark's tracer does, is still the one that runs
    argv = ("measure", "dcoef-sup", "--in", str(bell_file), "--K", "4", "--restarts", "1")
    first = run_cli(*argv)
    calls = _recorded(monkeypatch, measures, "dcoef_sup")
    assert run_cli(*argv).stdout == first.stdout
    assert calls == [{"seed": 0, "K": 4, "restarts": 1}]


@pytest.mark.parametrize(
    "argv,called",
    [
        (("measure", "eof", "--in", "STATE"), {"eof_upper": {"seed": 0}}),
        (("measure", "dcoef-sup", "--in", "STATE"), {"dcoef_sup": {"seed": 0}}),
        (("map", "check", "--catalog", "transpose"), {
            "is_block_positive": {"restarts": 64, "tol": 1e-9, "seed": 0},
            "is_decomposable": {},
        }),
    ],
    ids=["eof", "dcoef-sup", "map-check"],
)
def test_unset_options_keep_library_defaults(bell_file, monkeypatch, argv, called):
    # an option left out is not passed, so the library's default applies;
    # map check passes its own --restarts (64) and --tol defaults
    owner = maps if argv[0] == "map" else measures
    calls = {name: _recorded(monkeypatch, owner, name) for name in called}
    run_cli(*[str(bell_file) if a == "STATE" else a for a in argv])
    assert calls == {name: [kwargs] for name, kwargs in called.items()}


class TestMeasureCommands:
    def test_ppt_on_bell(self, bell_file):
        proc = run_cli("measure", "ppt", "--in", str(bell_file))
        kv = parse_kv(proc.stdout)
        assert kv["verdict"] == "NPT"
        # round trip: file-based result matches the in-process value exactly
        expected = measures.ppt_test(states.bell_state(1)).lambda_min
        assert kv["lambda_min"] == repr(expected)

    def test_negativity(self, bell_file):
        proc = run_cli("measure", "negativity", "--in", str(bell_file))
        kv = parse_kv(proc.stdout)
        assert abs(float(kv["negativity"]) - 0.5) < 1e-9

    def test_eof_on_pure_product(self, tmp_path):
        path = tmp_path / "prod.json"
        st = states.product_state(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        path.write_text(json.dumps(st.to_json()))
        proc = run_cli("measure", "eof", "--in", str(path))
        kv = parse_kv(proc.stdout)
        assert float(kv["value"]) <= 1e-9

    def test_dcoef_sup_on_separable_werner(self, tmp_path):
        path = tmp_path / "w02.json"
        run_cli("state", "make", "--family", "werner", "--p", "0.2", "--out", str(path))
        proc = run_cli(
            "measure", "dcoef-sup", "--in", str(path),
            "--K", "16", "--restarts", "16", "--seed", "4",
        )
        kv = parse_kv(proc.stdout)
        assert float(kv["value"]) <= 0.02

    def test_strict_nonconvergence_exit_3(self, tmp_path):
        # a 3 x 3 state: two-qubit EOF is exact and always converged
        path = tmp_path / "iso07.json"
        run_cli(
            "state", "make", "--family", "isotropic", "--f", "0.7", "--d", "3",
            "--out", str(path),
        )
        proc = spawn_cli(
            "measure", "eof", "--in", str(path),
            "--K", "9", "--restarts", "1", "--iters", "1", "--strict",
            check=False,
        )
        assert proc.returncode == 3

    def test_dcoef_sup_value_is_a_float(self, bell_file):
        # the pure-state short circuit used to print value=np.float64(...)
        proc = run_cli("measure", "dcoef-sup", "--in", str(bell_file))
        assert abs(float(parse_kv(proc.stdout)["value"]) - 1.0) < 1e-9

    def test_report_file(self, bell_file, tmp_path):
        out = tmp_path / "rep.json"
        run_cli("measure", "eof", "--in", str(bell_file), "--out", str(out))
        rep = load_json(out.read_text())
        assert abs(rep["value"] - 1.0) < 1e-6
        assert rep["converged"] is True


class TestMapCommands:
    def test_check_transpose(self):
        proc = run_cli("map", "check", "--catalog", "transpose", "--d", "2", "--restarts", "20")
        kv = parse_kv(proc.stdout)
        assert kv["cp"] == "false"
        assert kv["co_cp"] == "true"
        assert kv["decomposable"] == "true"
        assert kv["block_positive"] == "true"
        # co-CP is a certificate: no see-saw, so no product minimum
        assert kv["certificate"] == "co_cp"
        assert kv["product_min"] == "none"
        assert kv["product_lower"] == kv["co_cp_min_eig"]

    def test_check_identity_d3(self):
        proc = run_cli("map", "check", "--catalog", "identity", "--d", "3", "--restarts", "10")
        kv = parse_kv(proc.stdout)
        assert kv["cp"] == "true"
        assert kv["decomposable"] == "true"
        assert kv["certificate"] == "cp"
        assert kv["product_min"] == "none"
        assert kv["product_lower"] == kv["cp_min_eig"]

    def test_check_choi_map(self):
        proc = run_cli("map", "check", "--catalog", "choi_map", "--restarts", "60")
        kv = parse_kv(proc.stdout)
        assert kv["decomposable"] == "false"
        assert float(kv["residual"]) >= 1e-3
        assert kv["block_positive"] == "true"
        # neither C nor C^PT is PSD, so the see-saw runs
        assert kv["certificate"] == "none"
        assert float(kv["product_min"]) >= -1e-9
        assert kv["product_lower"] == "none"

    @pytest.mark.parametrize("catalog", ["choi_map", "transpose"])
    def test_check_report_file(self, tmp_path, catalog):
        out = tmp_path / "check.json"
        run_cli("map", "check", "--catalog", catalog, "--restarts", "2", "--out", str(out))
        rep = load_json(out.read_text())
        assert rep["decomposable"] is (catalog == "transpose")
        assert rep["iterations"] >= 0
        if catalog == "transpose":
            assert rep["certificate"] == "co_cp"
            assert rep["product_min"] is None
            assert rep["product_lower"] == rep["co_cp_min_eig"]
        else:
            assert rep["certificate"] is None
            assert isinstance(rep["product_min"], float)
            assert rep["product_lower"] is None

    def test_check_zero_iteration_budget_exit_2(self, tmp_path):
        # refused before any search runs, so no report and no residual
        out = tmp_path / "check.json"
        proc = spawn_cli(
            "map", "check", "--catalog", "choi_map", "--max-iter", "0",
            "--restarts", "2", "--out", str(out), check=False,
        )
        assert proc.returncode == 2
        assert "--max-iter" in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()

    def test_check_from_file(self, tmp_path):
        path = tmp_path / "choi.json"
        path.write_text(json.dumps(maps.catalog("identity", d=2).to_json()))
        proc = run_cli("map", "check", "--in", str(path), "--restarts", "5")
        assert parse_kv(proc.stdout)["cp"] == "true"

    def test_malformed_choi_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d_in": 2}')
        proc = run_cli("map", "check", "--in", str(path), check=False)
        assert proc.returncode == 2

    def test_apply(self, bell_file, tmp_path):
        out = tmp_path / "out.json"
        run_cli(
            "map", "apply", "--catalog", "depolarizing", "--d", "4", "--lam", "0.5",
            "--state", str(bell_file), "--out", str(out),
        )
        obj = load_json(out.read_text())
        got = np.asarray(obj["re"]) + 1j * np.asarray(obj["im"])
        bell = states.bell_state(1)
        expected = maps.apply_map(
            maps.catalog("depolarizing", d=4, lam=0.5), bell.mat
        )
        assert np.abs(got - expected).max() < 1e-12

    @pytest.mark.parametrize("source", ["catalog", "file"])
    def test_apply_output_reads_back(self, bell_file, tmp_path, source):
        # the output is the JSON form of a (d_out, 1)-split state
        choi = maps.catalog("depolarizing", d=4, lam=0.5)
        if source == "catalog":
            given = ("--catalog", "depolarizing", "--d", "4", "--lam", "0.5")
        else:
            path = tmp_path / "choi.json"
            path.write_text(json.dumps(choi.to_json()))
            given = ("--in", str(path))
        out = tmp_path / "out.json"
        run_cli("map", "apply", *given, "--state", str(bell_file), "--out", str(out))
        obj = load_json(out.read_text())
        assert set(obj) == {"d1", "d2", "re", "im"}
        st = states.state_from_json(obj)
        assert st.split == (4, 1)
        assert np.array_equal(st.mat, maps.apply_map(choi, states.bell_state(1).mat))


class TestEvolveCommand:
    def test_depolarizing_csv(self, bell_file, tmp_path):
        out = tmp_path / "track.csv"
        proc = run_cli(
            "evolve", "--in", str(bell_file), "--family", "depolarizing_flow",
            "--rate", "1", "--t-max", "3", "--steps", "60",
            "--format", "csv", "--out", str(out),
        )
        kv = parse_kv(proc.stdout)
        assert kv["first_negative_time"] == "none"
        lines = out.read_text().splitlines()
        assert lines[0] == "t,min_eig,negativity,eof_upper,dcoef_sup,trace"
        assert len(lines) == 62
        neg = [float(r.split(",")[2]) for r in lines[1:]]
        crossing = next(t for t, v in zip(np.linspace(0, 3, 61), neg) if v <= 1e-12)
        assert abs(crossing - np.log(3)) <= 0.05

    def test_transpose_mix_first_negative(self, bell_file):
        proc = run_cli(
            "evolve", "--in", str(bell_file), "--family", "transpose_mix",
            "--speed", "1", "--t-max", "1", "--steps", "20",
        )
        kv = parse_kv(proc.stdout)
        t = float(kv["first_negative_time"])
        assert 0 < t <= 1.0

    def test_optional_measures_column(self, tmp_path):
        path = tmp_path / "sep.json"
        run_cli(
            "state", "make", "--family", "random_separable",
            "--d1", "2", "--d2", "2", "--m", "3", "--seed", "5",
            "--out", str(path),
        )
        out = tmp_path / "track.csv"
        run_cli(
            "evolve", "--in", str(path), "--family", "depolarizing_flow",
            "--rate", "1", "--t-max", "0.4", "--steps", "4",
            "--measures", "eof", "--restarts", "2", "--iters", "10",
            "--format", "csv", "--out", str(out),
        )
        lines = out.read_text().splitlines()
        eof_col = [row.split(",")[3] for row in lines[1:]]
        assert all(col != "" for col in eof_col)
        assert all(float(col) <= 0.05 for col in eof_col)

    def test_dimension_mismatch_exit_2(self, tmp_path):
        path = tmp_path / "m23.json"
        run_cli("state", "make", "--family", "max_mixed", "--d1", "3", "--d2", "2", "--out", str(path))
        proc = run_cli(
            "evolve", "--in", str(path), "--family", "glauber_flip",
            "--t-max", "1", "--steps", "5", check=False,
        )
        assert proc.returncode == 2


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        w = tmp_path / "w.json"
        outs = []
        for trial in (1, 2):
            out = tmp_path / f"w{trial}.json"
            proc = spawn_cli(
                "state", "make", "--family", "random_separable",
                "--d1", "2", "--d2", "2", "--m", "4", "--seed", "42",
                "--out", str(out),
            )
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        load_json(outs[0])
        w.write_text(outs[0])

        stdout = []
        files = []
        for trial in (1, 2):
            rep = tmp_path / f"rep{trial}.json"
            proc = spawn_cli(
                "measure", "dcoef-sup", "--in", str(w), "--seed", "42",
                "--K", "8", "--restarts", "4", "--out", str(rep),
            )
            stdout.append(proc.stdout)
            files.append(rep.read_text())
        assert stdout[0] == stdout[1]
        assert files[0] == files[1]
        load_json(files[0])


def readme_cli_lines():
    """The ``entkit`` lines of the README's CLI block, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = next(b for b in re.findall(r"```sh\n(.*?)```", text, re.S) if "entkit state make" in b)
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("entkit ")]


def test_readme_cli_block(tmp_path, monkeypatch):
    # every command of the README runs as written, and prints what its
    # comments say it prints
    monkeypatch.chdir(tmp_path)
    lines = readme_cli_lines()
    assert len(lines) == 13
    stdout = {}
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        proc = run_cli(*argv)
        stdout[" ".join(argv)] = proc.stdout
        claim = line.partition("# prints:")[2].strip()
        if claim:
            assert proc.stdout == claim + "\n"
    transpose = parse_kv(stdout["map check --catalog transpose --d 2"])
    assert (transpose["certificate"], transpose["product_min"], transpose["product_lower"]) == (
        "co_cp", "none", "0.0"
    )
    choi = parse_kv(stdout["map check --catalog choi_map"])
    assert (choi["certificate"], choi["decomposable"]) == ("none", "false")
    assert abs(float(choi["residual"]) - 0.34) < 0.005
