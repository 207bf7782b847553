"""Acceptance battery: one test per criterion, printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from entkit import dynamics, maps, matcore, measures, states

from cli_env import cli_env
from oracles import (
    SX,
    SZ,
    random_hermitian,
    random_psd,
    werner_dcoef,
    werner_dcoef_decomposition,
    werner_matrix,
    wootters_eof,
)


@contextmanager
def criterion(label):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {label}: FAIL ({time.time() - t0:.1f}s)")
        raise
    print(f"\nACCEPTANCE {label}: PASS ({time.time() - t0:.1f}s)")


def separable_fixtures():
    """20 certified-separable states: ten 2x2 and ten 2x3 mixtures."""
    fixtures = [states.random_separable(2, 2, m=4, seed=s) for s in range(10)]
    fixtures += [states.random_separable(2, 3, m=2, seed=10 + s) for s in range(10)]
    return fixtures


def test_criterion_1_bell_battery():
    with criterion("criterion-1 bell battery"):
        bell = states.bell_state(1)
        ppt = measures.ppt_test(bell)
        assert abs(ppt.lambda_min + 0.5) <= 1e-9
        assert ppt.entangled
        assert abs(measures.negativity(bell) - 0.5) <= 1e-9
        eof = measures.eof_upper(bell)
        assert abs(eof.value - 1.0) <= 1e-6
        dco = measures.dcoef(bell, SX, SX)
        assert abs(dco.value - 1.0) <= 1e-9


def test_criterion_2_werner_sweep():
    with criterion("criterion-2 werner sweep"):
        for k in range(11):
            p = k / 10.0
            rep = measures.ppt_test(states.werner_state(p))
            assert abs(rep.lambda_min - (1.0 - 3.0 * p) / 4.0) <= 1e-9
            assert rep.entangled == (p > 1.0 / 3.0)


def test_criterion_3_separable_side():
    with criterion("criterion-3 separable fixtures"):
        witnesses = [maps.catalog("transpose", d=2), maps.catalog("reduction", d=2)]
        for i, st in enumerate(separable_fixtures()):
            eof = measures.eof_upper(st, K=16, restarts=32, seed=100 + i)
            assert eof.value <= 0.02, f"fixture {i}: eof {eof.value}"
            dsup = measures.dcoef_sup(st, K=16, restarts=32, seed=200 + i)
            assert dsup.value <= 0.02, f"fixture {i}: dcoef_sup {dsup.value}"
            # zero certified-entangled verdicts on separable inputs: hard fail
            assert not measures.ppt_test(st).entangled, f"fixture {i}: false NPT"
            for w in witnesses:
                assert not measures.map_witness(st, w).entangled, (
                    f"fixture {i}: false witness verdict"
                )


def test_criterion_3_entangled_references():
    with criterion("criterion-3 entangled references"):
        bell = states.bell_state(1)
        assert measures.eof_upper(bell).value >= 0.9 * 1.0
        assert measures.dcoef_sup(bell).value >= 0.9
        w9 = states.werner_state(0.9)
        analytic = wootters_eof(w9.mat)
        eof = measures.eof_upper(w9, K=16, restarts=32, seed=11)
        assert eof.value >= 0.9 * analytic
        dsup = measures.dcoef_sup(w9, K=16, restarts=32, seed=12)
        # exact value (5p^2 - 1) / (2(1 + p)) = 0.802632: see werner_dcoef
        exact = werner_dcoef(0.9)
        assert exact - 1e-9 <= dsup.value <= exact + 1e-3, (
            f"dcoef_sup(werner(0.9)) = {dsup.value}, exact {exact}"
        )


def _grouped_objective(weights, comps, a1, a2):
    """sum_g P_g tr(rho_g (a1 ox I)) tr(rho_g (I ox a2)) for 2x2 components."""
    big1 = np.kron(a1, np.eye(2))
    big2 = np.kron(np.eye(2), a2)
    return sum(
        w * np.trace(c @ big1).real * np.trace(c @ big2).real
        for w, c in zip(weights, comps)
    )


def test_criterion_3_werner_dcoef_oracle_reached():
    """The closed-form dcoef of werner(p) is reached by an explicit ensemble.

    numpy and the oracles only: no dcoef_sup bound above werner_dcoef(p)
    can be met by a correct implementation of the documented infimum.
    """
    zz = np.kron(SZ, SZ)
    for p in (0.4, 0.5, 0.7, 0.9, 1.0):
        weights, comps = werner_dcoef_decomposition(p)
        assert np.all(weights >= 0.0)
        assert abs(weights.sum() - 1.0) <= 1e-12
        for c in comps:
            assert np.allclose(c, c.conj().T, atol=1e-12)
            assert abs(np.trace(c) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(c).min() >= -1e-12
        bary = sum(w * c for w, c in zip(weights, comps))
        assert np.abs(bary - werner_matrix(p)).max() <= 1e-12
        target = np.trace(werner_matrix(p) @ zz).real
        value = abs(target - _grouped_objective(weights, comps, SZ, SZ))
        assert abs(value - werner_dcoef(p)) <= 1e-12, f"p={p}: {value}"
    assert abs(werner_dcoef(0.9) - 3.05 / 3.8) <= 1e-15


def test_criterion_3_werner_dcoef_oracle_lower_bound():
    """No grouped ensemble of werner(p) goes below werner_dcoef(p).

    Samples ensembles around the optimum: the pure members of
    werner_dcoef_decomposition(p), padded to 6 with zero members, are mixed
    by a unitary exp(i eps H) with eps from 1e-4 to 3 and regrouped either
    as the optimum groups them or at random.  numpy and the oracles only.
    """
    rng = np.random.default_rng(5)
    zz = np.kron(SZ, SZ)
    k = 6
    for p in (0.5, 0.7, 0.9, 1.0):
        rho = werner_matrix(p)
        target = np.trace(rho @ zz).real
        rows, best_groups = [], []
        for gid, (w, c) in enumerate(zip(*werner_dcoef_decomposition(p))):
            lam, vec = np.linalg.eigh(w * c)
            for m in np.flatnonzero(lam > 1e-14):
                rows.append(np.sqrt(lam[m]) * vec[:, m])
                best_groups.append(gid)
        rows = np.array(rows + [np.zeros(4)] * (k - len(rows)))
        best_groups += list(range(10, 10 + k - len(best_groups)))
        closest = np.inf
        for _ in range(300):
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            lam, vec = np.linalg.eigh((g + g.conj().T) / 2.0)
            eps = 10.0 ** rng.uniform(-4.0, 0.5)
            unitary = (vec * np.exp(1j * eps * lam)) @ vec.conj().T
            members = unitary @ rows  # subnormalized pure members
            if rng.random() < 0.5:
                groups = np.array(best_groups)
            else:
                groups = rng.integers(0, int(rng.integers(1, k + 1)), size=k)
            weights, comps = [], []
            for gid in np.unique(groups):
                vecs = members[groups == gid]
                sub = vecs.T @ vecs.conj()
                w = np.trace(sub).real
                if w > 1e-14:
                    weights.append(w)
                    comps.append(sub / w)
            bary = sum(w * c for w, c in zip(weights, comps))
            assert np.abs(bary - rho).max() <= 1e-12
            value = abs(target - _grouped_objective(weights, comps, SZ, SZ))
            assert value >= werner_dcoef(p) - 1e-12, f"p={p}: {value}"
            closest = min(closest, value - werner_dcoef(p))
        # the sampling reaches the bound's neighbourhood, so it can refute it
        assert closest <= 1e-6, f"p={p}: closest sample {closest} above"


def test_criterion_4_map_hierarchy():
    with criterion("criterion-4 map hierarchy"):
        ident = maps.catalog("identity", d=2)
        assert maps.is_cp(ident).ok
        assert maps.is_decomposable(ident).decomposable is True
        assert maps.is_block_positive(ident, restarts=20, seed=0).block_positive

        trans = maps.catalog("transpose", d=2)
        assert not maps.is_cp(trans).ok
        assert maps.is_co_cp(trans).ok
        assert maps.is_decomposable(trans).decomposable is True
        assert maps.is_block_positive(trans, restarts=20, seed=0).block_positive

        red = maps.catalog("reduction", d=2)
        assert not maps.is_cp(red).ok
        assert maps.is_decomposable(red).decomposable is True
        assert maps.is_block_positive(red, restarts=20, seed=0).block_positive

        choi = maps.catalog("choi_map")
        assert maps.is_block_positive(choi, restarts=200, iters=200, seed=1).block_positive
        assert not maps.is_cp(choi).ok
        assert not maps.is_co_cp(choi).ok
        dec = maps.is_decomposable(choi, max_iter=5000)
        assert dec.decomposable is False
        assert dec.residual >= 1e-3

        # hierarchy implications over 50 random CP maps
        for seed in range(50):
            d = 2 + seed % 2
            choi = maps.random_cp_map(d, kraus_count=2 + seed % 3, seed=1000 + seed)
            assert maps.is_cp(choi).ok
            assert maps.is_decomposable(choi).decomposable is True
            assert maps.is_block_positive(choi, restarts=8, iters=80, seed=seed).block_positive


def test_criterion_5_evolution_phenomenon():
    with criterion("criterion-5 evolution phenomenon"):
        bell = states.bell_state(1)
        fam = dynamics.family_catalog("transpose_mix", d=2, speed=1.0)
        rec = dynamics.evolve_track(bell, fam, np.linspace(0, 1, 21))
        first = rec.first_negative_time()
        assert first is not None and 0.0 < first <= 1.0
        assert abs(rec.points[-1].min_eig + 0.5) <= 1e-6

        for seed in range(10):
            st = states.random_separable(2, 2, m=3, seed=300 + seed)
            sep_rec = dynamics.evolve_track(st, fam, np.linspace(0, 1, 21))
            assert all(pt.min_eig >= -1e-9 for pt in sep_rec.points)

        dep = dynamics.family_catalog("depolarizing_flow", d=2, rate=1.0)
        grid = np.linspace(0, 3, 61)
        dep_rec = dynamics.evolve_track(bell, dep, grid)
        crossing = None
        for pt in dep_rec.points:
            if pt.negativity is not None and pt.negativity <= 1e-12:
                crossing = pt.t
                break
        step = grid[1] - grid[0]
        assert crossing is not None
        assert abs(crossing - math.log(3)) <= step


def test_criterion_6_numerical_substrate():
    with criterion("criterion-6 numerical substrate"):
        rng = np.random.default_rng(77)
        dims = list(rng.integers(2, 65, size=100))
        for n in dims:
            h = random_hermitian(rng, int(n))
            w, v = matcore.hermitian_eig(h)
            scale = max(1.0, np.linalg.norm(h))
            assert np.linalg.norm(h - (v * w) @ v.conj().T) < 1e-9 * scale

        m = random_hermitian(rng, 6)
        pt = matcore.partial_transpose(m, (2, 3), leg=2)
        again = matcore.partial_transpose(pt, (2, 3), leg=2)
        assert np.abs(again - m).max() <= 1e-12
        assert abs(np.linalg.norm(pt) - np.linalg.norm(m)) <= 1e-12

        # strictly decomposable random mixture: the Douglas-Rachford split
        # search reaches 1e-8 within 2000 iterations
        dd = 9
        a0 = random_psd(rng, dd)
        a0 /= np.trace(a0).real
        omega = np.zeros(dd, dtype=complex)
        for i in range(3):
            omega[i * 3 + i] = 1.0
        omega /= np.sqrt(3)
        b0 = 0.9 * np.outer(omega, omega.conj()) + 0.1 * np.eye(dd) / dd
        cmat = 0.5 * a0 + 0.5 * matcore.partial_transpose(b0, (3, 3), leg=2)
        choi = maps.ChoiMatrix(cmat, 3, 3)
        assert matcore.min_eigenvalue(choi.mat) < -1e-6  # the split search really runs
        rep = maps.is_decomposable(choi, max_iter=2000, tol=1e-8)
        assert rep.decomposable is True
        assert rep.residual < 1e-8
        assert rep.iterations <= 2000


def _cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "entkit.cli", *args],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_7_cli_determinism(tmp_path):
    with criterion("criterion-7 cli determinism"):
        bell = tmp_path / "bell.json"
        werner = tmp_path / "werner.json"
        sep = tmp_path / "sep.json"
        commands = [
            (["state", "make", "--family", "bell", "--k", "1", "--seed", "42",
              "--out", str(bell)], bell),
            (["state", "make", "--family", "werner", "--p", "0.7", "--seed", "42",
              "--out", str(werner)], werner),
            (["state", "make", "--family", "random_separable", "--d1", "2",
              "--d2", "2", "--m", "4", "--seed", "42", "--out", str(sep)], sep),
            (["state", "info", "--in", str(bell), "--seed", "42"], None),
            (["measure", "ppt", "--in", str(bell), "--seed", "42"], None),
            (["measure", "negativity", "--in", str(werner), "--seed", "42"], None),
            (["measure", "eof", "--in", str(werner), "--seed", "42",
              "--K", "8", "--restarts", "4", "--out", str(tmp_path / "eof.json")],
             tmp_path / "eof.json"),
            (["measure", "dcoef-sup", "--in", str(sep), "--seed", "42",
              "--K", "8", "--restarts", "4",
              "--out", str(tmp_path / "dsup.json")], tmp_path / "dsup.json"),
            (["map", "check", "--catalog", "transpose", "--d", "2",
              "--restarts", "20", "--seed", "42"], None),
            (["map", "check", "--catalog", "choi_map", "--restarts", "40",
              "--seed", "42"], None),
            (["map", "apply", "--catalog", "depolarizing", "--d", "4",
              "--lam", "0.5", "--state", str(bell), "--seed", "42",
              "--out", str(tmp_path / "applied.json")], tmp_path / "applied.json"),
            (["evolve", "--in", str(bell), "--family", "depolarizing_flow",
              "--rate", "1", "--t-max", "3", "--steps", "30", "--seed", "42",
              "--format", "csv", "--out", str(tmp_path / "track.csv")],
             tmp_path / "track.csv"),
            (["evolve", "--in", str(sep), "--family", "transpose_mix",
              "--speed", "1", "--t-max", "1", "--steps", "10", "--seed", "42",
              "--format", "json", "--out", str(tmp_path / "track.json")],
             tmp_path / "track.json"),
        ]
        for argv, outfile in commands:
            first_stdout = _cli(*argv)
            first_file = outfile.read_bytes() if outfile else None
            second_stdout = _cli(*argv)
            second_file = outfile.read_bytes() if outfile else None
            assert first_stdout == second_stdout, f"stdout differs: {argv}"
            assert first_file == second_file, f"file differs: {argv}"
