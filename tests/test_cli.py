import json
import subprocess
import sys

import numpy as np
import pytest

from entkit import maps, measures, states

from cli_env import cli_env


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "entkit.cli", *args],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


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


class TestStateCommands:
    def test_make_bell(self, bell_file):
        obj = load_json(bell_file.read_text())
        assert set(obj) == {"d1", "d2", "re", "im"}
        st = states.state_from_json(obj)
        assert abs(np.trace(st.mat).real - 1.0) < 1e-9
        assert st.split == (2, 2)

    def test_info_bell(self, bell_file):
        proc = run_cli("state", "info", "--in", str(bell_file))
        rep = load_json(proc.stdout)
        assert rep["rank"] == 1
        assert abs(rep["entropy_bits"]) < 1e-9
        assert abs(rep["marginal_entropy_1"] - 1.0) < 1e-9

    def test_bad_parameter_exit_2(self):
        proc = run_cli("state", "make", "--family", "werner", "--p", "2", check=False)
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


@pytest.mark.parametrize(
    "argv", [("state", "info"), ("measure", "ppt"), ("measure", "eof")]
)
def test_non_finite_state_exit_2(nan_file, argv):
    proc = run_cli(*argv, "--in", str(nan_file), check=False)
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
    ],
    ids=["t-max-nan", "t-max-inf", "beta-nan", "rate-inf", "speed-nan"],
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


UNREAD_OPTIONS = [
    ("state-format", ("state", "info", "--format", "csv"), "--format"),
    ("evolve-tol", ("evolve", "--family", "depolarizing_flow", "--t-max", "1",
                    "--steps", "2", "--tol", "1e-3"), "--tol"),
    ("eof-tol", ("measure", "eof", "--tol", "0.5"), "--tol"),
    ("dcoef-sup-tol", ("measure", "dcoef-sup", "--tol", "0.5"), "--tol"),
    ("negativity-tol", ("measure", "negativity", "--tol", "0.5"), "--tol"),
] + [
    (f"{which}-{flag[2:]}", ("measure", which, flag, *value), flag)
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
    (f"state-info-{flag[2:]}", ("state", "info", flag, value), flag)
    for flag, value in (("--family", "werner"), ("--p", "0.3"), ("--rank", "2"))
] + [
    ("state-make-in", ("state", "make", "--family", "werner", "--p", "0.3"), "--in"),
] + [
    (f"evolve-{flag[2:]}-without-measures", ("evolve", "--family", "depolarizing_flow",
                                             "--t-max", "1", "--steps", "2", flag, "3"), flag)
    for flag in ("--K", "--restarts", "--iters")
] + [
    (f"evolve-{flag[2:]}-{family}", ("evolve", "--family", family, "--rate", "1",
                                     "--t-max", "1", "--steps", "2", flag, "1.0"), flag)
    for flag, family in (("--beta", "depolarizing_flow"), ("--hz", "depolarizing_flow"),
                         ("--beta", "transpose_mix"), ("--hz", "identity"))
] + [
    (f"evolve-{option[2:]}-{family}", ("evolve", "--family", family, *extra,
                                       "--t-max", "1", "--steps", "2"), option)
    for family, extra, option in (
        ("transpose_mix", ("--speed", "1", "--rate", "5"), "--rate"),
        ("depolarizing_flow", ("--rate", "1", "--speed", "7"), "--speed"),
        ("identity", ("--rate", "3", "--speed", "2"), "--rate, --speed"),
        ("glauber_flip", ("--rate", "1", "--speed", "2"), "--speed"),
    )
] + [
    (f"map-{action}-in-with-catalog", ("map", action, "--catalog", "transpose", "--d", "2",
                                       *extra), "--in")
    for action, extra in (("check", ()), ("apply", ("--state", "STATE")))
] + [
    (f"map-{action}-{flag[2:]}-without-catalog", ("map", action, flag, value, *extra), flag)
    for action, extra in (("check", ()), ("apply", ("--state", "STATE")))
    for flag, value in (("--d", "2"), ("--lam", "0.5"))
]


@pytest.mark.parametrize(
    "argv,option", [c[1:] for c in UNREAD_OPTIONS], ids=[c[0] for c in UNREAD_OPTIONS]
)
def test_option_of_another_subcommand_exit_2(bell_file, argv, option):
    # --format belongs to evolve only, --tol to measure ppt and map check
    # only, the search budgets to measure eof / dcoef-sup and map check only,
    # --state to map apply only, the family parameters to state make only;
    # evolve reads the search budgets only with --measures, --beta / --hz
    # only for glauber_flip, --rate only for depolarizing_flow and
    # glauber_flip and --speed only for transpose_mix; map reads --in only
    # without --catalog and --d / --lam only with it
    argv = [str(bell_file) if a == "STATE" else a for a in argv]
    proc = run_cli(*argv, "--in", str(bell_file), check=False)
    assert proc.returncode == 2
    assert option in proc.stderr
    assert proc.stdout == ""


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
        proc = run_cli(
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

    def test_check_identity_d3(self):
        proc = run_cli("map", "check", "--catalog", "identity", "--d", "3", "--restarts", "10")
        kv = parse_kv(proc.stdout)
        assert kv["cp"] == "true"
        assert kv["decomposable"] == "true"

    def test_check_choi_map(self):
        proc = run_cli("map", "check", "--catalog", "choi_map", "--restarts", "60")
        kv = parse_kv(proc.stdout)
        assert kv["decomposable"] == "false"
        assert float(kv["residual"]) >= 1e-3
        assert kv["block_positive"] == "true"

    @pytest.mark.parametrize("catalog", ["choi_map", "transpose"])
    def test_check_report_file(self, tmp_path, catalog):
        out = tmp_path / "check.json"
        run_cli("map", "check", "--catalog", catalog, "--restarts", "2", "--out", str(out))
        rep = load_json(out.read_text())
        assert rep["decomposable"] is (catalog == "transpose")
        assert rep["iterations"] >= 0

    def test_check_zero_iteration_budget_exit_2(self, tmp_path):
        # refused before any search runs, so no report and no residual
        out = tmp_path / "check.json"
        proc = run_cli(
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
            proc = run_cli(
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
            proc = run_cli(
                "measure", "dcoef-sup", "--in", str(w), "--seed", "42",
                "--K", "8", "--restarts", "4", "--out", str(rep),
            )
            stdout.append(proc.stdout)
            files.append(rep.read_text())
        assert stdout[0] == stdout[1]
        assert files[0] == files[1]
        load_json(files[0])
