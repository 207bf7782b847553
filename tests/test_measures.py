import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entkit import kernels, maps, matcore, measures, states

from oracles import (
    SX,
    SZ,
    concurrence,
    dcoef_objective,
    pt_reference,
    pure_concurrence,
    random_hermitian,
    trace_out_reference,
    tv_isotropic_eof,
    tv_r,
    werner_dd_eof,
    werner_dd_matrix,
    wootters_eof,
)


class TestPpt:
    def test_product_state(self):
        st = states.product_state(np.diag([0.7, 0.3]), np.diag([0.2, 0.8]))
        rep = measures.ppt_test(st)
        assert not rep.entangled
        assert rep.lambda_min >= -1e-12
        assert rep.verdict == "PPT"

    def test_bell(self):
        rep = measures.ppt_test(states.bell_state(1))
        assert rep.entangled
        assert abs(rep.lambda_min + 0.5) < 1e-9
        assert rep.verdict == "NPT"

    def test_werner_sweep_formula(self):
        # lambda_min((1-3p)/4) checked against a direct spectrum oracle
        for p in np.linspace(0, 1, 11):
            w = states.werner_state(p)
            ref = np.linalg.eigvalsh(pt_reference(w.mat, 2, 2, 2)).min()
            rep = measures.ppt_test(w)
            assert abs(rep.lambda_min - ref) < 1e-12
            assert abs(rep.lambda_min - (1 - 3 * p) / 4) < 1e-9
            assert rep.entangled == (p > 1 / 3 + 1e-12)


class TestMapWitness:
    def test_identity_reproduces_spectrum(self):
        st = states.random_density(2, 2, seed=3)
        rep = measures.map_witness(st, maps.catalog("identity", d=2))
        assert abs(rep.lambda_min - st.eigenvalues()[0]) < 1e-10
        assert not rep.entangled

    def test_transpose_matches_ppt(self):
        bell = states.bell_state(1)
        rep = measures.map_witness(bell, maps.catalog("transpose", d=2))
        ppt = measures.ppt_test(bell)
        assert abs(rep.lambda_min - ppt.lambda_min) < 1e-10
        assert rep.entangled

    def test_reduction_on_bell_spectrum(self):
        # (R ox id) Bell = I/2 - Bell with spectrum {-1/2, 1/2, 1/2, 1/2}
        bell = states.bell_state(1)
        ref = np.linalg.eigvalsh(np.eye(4) / 2 - bell.mat)
        assert_allclose(ref, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
        rep = measures.map_witness(bell, maps.catalog("reduction", d=2))
        assert abs(rep.lambda_min + 0.5) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            measures.map_witness(
                states.random_density(3, 2, seed=0), maps.catalog("identity", d=2)
            )

    def test_matches_tensor_with_identity(self):
        for d, d2 in ((2, 3), (3, 3), (4, 2)):
            st = states.random_density(d, d2, seed=d + d2)
            for name in ("transpose", "reduction", "werner_holevo"):
                choi = maps.catalog(name, d=d)
                big = maps.tensor_with_identity(maps.dual_map(choi), d2)
                ref = np.linalg.eigvalsh(maps.apply_map(big, st.mat)).min()
                assert abs(measures.map_witness(st, choi).lambda_min - ref) < 1e-12


class TestNegativity:
    def test_separable(self):
        st = states.random_separable(2, 2, m=4, seed=5)
        assert measures.negativity(st) < 1e-12

    def test_bell(self):
        assert abs(measures.negativity(states.bell_state(3)) - 0.5) < 1e-9

    def test_werner_formula(self):
        for p in np.linspace(0, 1, 11):
            w = states.werner_state(p)
            expected = max(0.0, (3 * p - 1) / 4)
            assert abs(measures.negativity(w) - expected) < 1e-9


class TestEofUpper:
    def test_pure_product_zero(self):
        rng = np.random.default_rng(0)
        v = np.kron(
            rng.standard_normal(2) + 1j * rng.standard_normal(2),
            rng.standard_normal(3) + 1j * rng.standard_normal(3),
        )
        st = states.pure_state(v, 2, 3)
        rep = measures.eof_upper(st)
        assert rep.value < 1e-9
        assert rep.converged

    def test_bell_exact(self):
        rep = measures.eof_upper(states.bell_state(1))
        assert abs(rep.value - 1.0) < 1e-6
        assert rep.certificate.size == 1

    def test_pure_state_short_circuit(self):
        # equals the marginal entropy exactly for random pure states
        rng = np.random.default_rng(1)
        for _ in range(5):
            v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            st = states.pure_state(v, 2, 3)
            rep = measures.eof_upper(st)
            expected = states.von_neumann_entropy(states.restrict(st, 1))
            assert abs(rep.value - expected) < 1e-9

    def test_separable_fixture_with_certificate(self):
        st = states.random_separable(2, 2, m=4, seed=7)
        rep = measures.eof_upper(st, K=16, restarts=4, seed=0)
        assert rep.value <= 0.01

    def test_separable_werner_without_certificate(self):
        rep = measures.eof_upper(states.werner_state(0.2), K=16, restarts=8, seed=2)
        assert rep.value <= 0.02

    def test_werner_09_close_to_analytic(self):
        w9 = states.werner_state(0.9)
        analytic = wootters_eof(w9.mat)
        rep = measures.eof_upper(w9, K=16, restarts=16, seed=3)
        assert rep.value >= analytic - 1e-9  # upper bound
        assert rep.value <= analytic + 0.02  # and a tight one here

    def test_infeasible_ensemble_size(self):
        with pytest.raises(ValueError):
            measures.eof_upper(states.werner_state(0.5), K=2)

    def test_certificate_barycenter(self):
        rep = measures.eof_upper(states.werner_state(0.6), K=8, restarts=4, seed=1)
        err = np.linalg.norm(
            rep.certificate.barycenter() - states.werner_state(0.6).mat
        )
        assert err < 1e-9

    def test_monotone_in_k_and_restarts(self):
        w = states.werner_state(0.55)
        vals_k = [
            measures.eof_upper(w, K=k, restarts=6, seed=5).value for k in (4, 8, 16)
        ]
        assert vals_k[0] >= vals_k[1] - 1e-12
        assert vals_k[1] >= vals_k[2] - 1e-12
        vals_r = [
            measures.eof_upper(w, K=8, restarts=r, seed=5).value for r in (2, 4, 8)
        ]
        assert vals_r[0] >= vals_r[1] - 1e-12
        assert vals_r[1] >= vals_r[2] - 1e-12


class TestDcoef:
    def test_product_state_zero(self):
        st = states.product_state(np.diag([0.7, 0.3]), np.diag([0.6, 0.4]))
        rep = measures.dcoef(st, SZ, SZ, restarts=2, seed=0)
        assert rep.value < 1e-12

    def test_bell_sigma_x(self):
        rep = measures.dcoef(states.bell_state(1), SX, SX)
        assert abs(rep.value - 1.0) < 1e-9
        assert rep.converged

    def test_separable_fixture_with_certificate(self):
        st = states.random_separable(2, 2, m=4, seed=9)
        rep = measures.dcoef(st, SZ, SZ, K=16, restarts=4, seed=0)
        assert rep.value <= 1e-3

    def test_certificate_consistency(self):
        st = states.werner_state(0.7)
        rep = measures.dcoef(st, SZ, SZ, K=8, restarts=4, seed=1)
        err = np.linalg.norm(rep.certificate.barycenter() - st.mat)
        assert err < 1e-9

    def test_monotone_in_k_and_restarts(self):
        w = states.werner_state(0.55)
        vals_k = [
            measures.dcoef(w, SZ, SZ, K=k, restarts=6, seed=5).value
            for k in (4, 8, 16)
        ]
        assert vals_k[0] >= vals_k[1] - 1e-12
        assert vals_k[1] >= vals_k[2] - 1e-12
        vals_r = [
            measures.dcoef(w, SZ, SZ, K=8, restarts=r, seed=5).value
            for r in (2, 4, 8)
        ]
        assert vals_r[0] >= vals_r[1] - 1e-12
        assert vals_r[1] >= vals_r[2] - 1e-12

    def test_rejects_nonhermitian_observable(self):
        with pytest.raises(ValueError):
            measures.dcoef(
                states.werner_state(0.5), np.array([[0, 1], [0, 0]]), SZ
            )

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            measures.dcoef(states.random_density(2, 3, seed=0), SZ, SZ)


class TestDcoefSup:
    def test_product_state(self):
        st = states.product_state(np.diag([0.7, 0.3]), np.diag([0.6, 0.4]))
        rep = measures.dcoef_sup(st, restarts=2, seed=0)
        assert rep.value < 1e-6

    def test_bell(self):
        rep = measures.dcoef_sup(states.bell_state(1))
        assert rep.value >= 0.99

    def test_max_mixed(self):
        rep = measures.dcoef_sup(states.max_mixed(2, 2), restarts=2, seed=0)
        assert rep.value < 1e-9
        assert rep.pair == (0, 0)  # every pair ties; the first in basis order wins

    def test_separable_werner(self):
        rep = measures.dcoef_sup(states.werner_state(0.2), K=16, restarts=16, seed=4)
        assert rep.value <= 0.02


class TestSoundness:
    def test_no_false_entanglement_certificates(self):
        # certified verdicts must never fire on certified-separable inputs
        witnesses = [maps.catalog("transpose", d=2), maps.catalog("reduction", d=2)]
        for seed in range(10):
            d2 = 2 if seed % 2 == 0 else 3
            st = states.random_separable(2, d2, m=3, seed=seed)
            assert not measures.ppt_test(st).entangled
            assert measures.ppt_test(st).lambda_min >= -1e-10
            for w in witnesses:
                rep = measures.map_witness(st, w)
                assert not rep.entangled
                assert rep.lambda_min >= -1e-10


class TestZeroIffSeparable:
    def test_small_battery(self):
        # separable fixtures near zero on both measures; Bell large on both
        for seed in (1, 2):
            st = states.random_separable(2, 2, m=4, seed=seed)
            assert measures.eof_upper(st, K=16, restarts=8, seed=seed).value <= 0.02
            assert (
                measures.dcoef_sup(st, K=16, restarts=8, seed=seed).value <= 0.02
            )
        bell = states.bell_state(1)
        assert measures.eof_upper(bell).value >= 0.9
        assert measures.dcoef_sup(bell).value >= 0.9


class TestReports:
    def test_json_fields(self):
        rep = measures.eof_upper(states.werner_state(0.5), K=4, restarts=2, seed=0)
        obj = rep.to_json()
        assert {"value", "converged", "restarts_used"} <= set(obj)
        assert "certificate" in obj
        assert set(obj["certificate"]) == {"weights", "components"}

    def test_value_nonnegative(self):
        rep = measures.dcoef(states.werner_state(0.4), SZ, SZ, restarts=2, seed=0)
        assert rep.value >= 0.0


def _scratch_totals(ens, gid):
    """Group totals (p, u, v) and classical value recomputed from rows and gid."""
    member = np.array(
        [
            [np.vdot(r, r).real, np.vdot(r, ens.big1 @ r).real, np.vdot(r, ens.big2 @ r).real]
            for r in ens.rows
        ]
    )
    tot = np.array([member[gid == g].sum(axis=0) for g in range(int(gid.max()) + 1)])
    classical = sum(u * v / p for p, u, v in tot if p > 1e-14)
    return tot, classical


def _scratch_merges(ens):
    """Labels after each greedy merge, chosen by a scan over all group pairs."""
    gid = ens.gid
    base = abs(ens.target - _scratch_totals(ens, gid)[1])
    steps = []
    while True:
        n = int(gid.max()) + 1
        scores = []
        for ga in range(n):
            for gb in range(ga + 1, n):
                merged = np.where(gid == gb, ga, gid)
                merged = merged - (merged > gb)
                scores.append((abs(ens.target - _scratch_totals(ens, merged)[1]), merged))
        if not scores or min(s for s, _ in scores) >= base - 1e-14:
            return steps
        # the first pair in scan order that reaches the minimum
        best = min(s for s, _ in scores)
        base, gid = next((s, m) for s, m in scores if s <= best + 1e-12)
        steps.append(gid)


@pytest.mark.parametrize("case", range(12))
def test_grouped_ensemble_caches_match_scratch(case):
    rng = np.random.default_rng(100 + case)
    d1, d2 = (2, 2) if case % 2 == 0 else (2, 3)
    state = states.random_density(d1, d2, seed=200 + case)
    base = measures._spectral_rows(state)
    twins = case >= 6
    k = int(rng.integers(base.shape[0], 9 if twins else 17))
    g = rng.standard_normal((k, base.shape[0])) + 1j * rng.standard_normal(
        (k, base.shape[0])
    )
    rows = np.linalg.qr(g)[0] @ base  # an isometry keeps the barycenter
    n_groups = int(rng.integers(2, k + 1))
    gid = rng.integers(0, n_groups, k)
    if twins:
        # every group gets a twin with equal totals, so merge scores tie
        rows = np.vstack([rows, rows]) * np.sqrt(0.5)
        gid = np.concatenate([gid, gid + n_groups])

    def observable(d):
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return h + h.conj().T

    a1, a2 = observable(d1), observable(d2)
    big1 = matcore.kron(a1, np.eye(d2))
    big2 = matcore.kron(np.eye(d1), a2)
    target = float(np.trace(state.mat @ matcore.kron(a1, a2)).real)
    ens = measures._GroupedEnsemble(rows, gid, big1, big2, target)
    steps = []  # labels at each refresh of the caches
    refresh = ens._refresh_groups

    def recording_refresh():
        steps.append(ens.gid.copy())
        refresh()

    ens._refresh_groups = recording_refresh

    def check_caches():
        assert np.array_equal(np.unique(ens.gid), np.arange(ens.tot.shape[0]))
        tot, classical = _scratch_totals(ens, ens.gid)
        assert np.abs(ens.tot - tot).max() < 1e-12
        assert abs(ens.classical - classical) < 1e-12

    check_caches()
    rotated = 0.0
    for _ in range(3):
        expected = _scratch_merges(ens)
        steps.clear()
        ens.merge_pass()
        assert len(steps) == len(expected)
        for got, want in zip(steps, expected):
            assert np.array_equal(got, want)
        check_caches()
        rotated += ens.rotation_sweep()
        check_caches()
    assert rotated > 0.0  # the sweeps above did rotate rows

    cert = measures._ensemble_from_rows(ens.rows, d1, d2, state, ens.gid)
    total = 0.0
    hand = []
    for label in range(int(ens.gid.max()) + 1):
        members = ens.rows[ens.gid == label]
        mat = sum(np.outer(r, r.conj()) for r in members)
        hand.append((np.trace(mat).real, mat))
        total += np.trace(mat).real
    assert cert.size == len(hand)
    for lam, comp, (p, mat) in zip(cert.weights, cert.components, hand):
        assert abs(lam - p / total) < 1e-12
        assert np.abs(comp.mat - mat / p).max() < 1e-12
    assert np.abs(cert.barycenter() - state.mat).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    split=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    th=st.floats(min_value=0.0, max_value=np.pi / 2),
    ph=st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_bloch_frame_matches_rotated_rows(split, seed, th, ph):
    # member a gets m + N z and member b gets m - N z, with
    # z = (cos 2 theta, sin 2 theta cos phi, sin 2 theta sin phi)
    d1, d2 = split
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((2, d1 * d2)) + 1j * rng.standard_normal((2, d1 * d2))
    rows /= np.linalg.norm(rows)
    big1 = matcore.kron(random_hermitian(rng, d1), np.eye(d2))
    big2 = matcore.kron(np.eye(d1), random_hermitian(rng, d2))
    ens = measures._GroupedEnsemble(rows, [0, 1], big1, big2, 0.0)
    m, n = ens._frames(np.array([0]), np.array([1]))
    s2 = np.sin(2 * th)
    z = np.array([np.cos(2 * th), s2 * np.cos(ph), s2 * np.sin(ph)])
    rotated = rows.copy()
    ens._rotate(rotated, 0, 1, th, ph)
    terms = ens._member_terms(rotated)
    assert np.abs(terms[0] - (m[0] + n[0] @ z)).max() < 1e-12
    assert np.abs(terms[1] - (m[0] - n[0] @ z)).max() < 1e-12


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("shift", [None, 0.0, 5e-15, 2e-14, 1e-3])
def test_refine_rotation_accepts_exactly_a_gain(seed, shift):
    # a random 3 x 3 frame with both groups heavy; base is the identity
    # rotation's |signed| (shift None) or the best coarse value plus
    # ``shift``, so the margin 1e-14 decides some of the cases
    rng = np.random.default_rng(seed)
    n = rng.standard_normal((3, 3))
    own_a, own_b = rng.standard_normal((2, 3))
    own_a[0] = own_b[0] = 2.0 + np.abs(n[0]).sum()
    target, rest = rng.standard_normal(2)
    signed = measures._frame_signed(target, rest, own_a, own_b, n)
    seen = []

    def recorded(*z):
        val = signed(*z)
        seen.append(abs(val))
        return val

    coarse = np.abs([signed(*z) for z in measures._COARSE_Z.tolist()])
    base = abs(signed(1.0, 0.0, 0.0)) if shift is None else coarse.min() + shift
    rot = measures._refine_rotation(recorded, coarse, base)
    # None exactly when no coarse point beats the margin; then no stencil runs
    assert (rot is None) == (coarse.min() >= base - 1e-14)
    if rot is None:
        assert seen == []
    else:
        th, ph = rot
        z = np.cos(2 * th), np.sin(2 * th) * np.cos(ph), np.sin(2 * th) * np.sin(ph)
        assert abs(signed(*z)) <= coarse.min() + 1e-15


def test_refine_rotation_ties_go_to_the_first_minimum():
    # a constant |signed| makes every stencil point tie: at the best coarse
    # value the search stays at the first coarse minimum, below it the
    # search moves once, to the first stencil point
    coarse = np.full(measures._COARSE_Z.shape[0], 0.5)
    coarse[[5, 9, 40]] = 0.25
    rot = measures._refine_rotation(lambda *z: 0.25, coarse, 1.0)
    assert rot == (float(measures._TH[5]), float(measures._PH[5]))
    rot = measures._refine_rotation(lambda *z: -0.125, coarse, 1.0)
    step_th, step_ph = 0.5 * measures._THETA_STEP, 0.5 * measures._PHI_STEP
    assert rot == (float(measures._TH[5]) - step_th, float(measures._PH[5]) - step_ph)


def _certificate(rep):
    ens = rep.certificate
    return list(ens.weights), [c.mat for c in ens.components]


ZERO_DCOEF_STATES = [
    ("werner(0.2)", lambda: states.werner_state(0.2)),
    ("werner(0.4)", lambda: states.werner_state(0.4)),
] + [
    (f"separable(2, 3, seed={s})", lambda s=s: states.random_separable(2, 3, m=4, seed=s))
    for s in (33, 34, 35)
]


@pytest.mark.parametrize("name,make", ZERO_DCOEF_STATES, ids=[n for n, _ in ZERO_DCOEF_STATES])
def test_dcoef_sup_zero_is_exact(name, make):
    # werner(p) has dcoef 0 on every Pauli pair for p <= 1/sqrt(5); the
    # separable states have a product ensemble
    state = make()
    rep = measures.dcoef_sup(state, K=16, restarts=8, seed=1)
    assert rep.value <= 1e-12
    weights, comps = _certificate(rep)
    assert np.abs(sum(w * c for w, c in zip(weights, comps)) - state.mat).max() < 1e-9


def test_dcoef_sup_full_rank_2x3_reaches_zero_early():
    # every pair used to stall between 5e-9 and 6e-7 and run all 6 starts
    # (144 in total); an exact zero stops the restarts
    rep = measures.dcoef_sup(states.random_density(2, 3), restarts=4)
    assert rep.value <= 1e-12
    assert rep.restarts_used <= 60


def _one_group_bounds(state):
    """|tr rho (e ox f) - tr(rho_1 e) tr(rho_2 f)| per Gell-Mann pair, basis order."""
    d1, d2 = state.split
    r1 = trace_out_reference(state.mat, d1, d2, keep=1)
    r2 = trace_out_reference(state.mat, d1, d2, keep=2)
    return np.array(
        [
            abs(
                np.trace(state.mat @ np.kron(e, f)).real
                - np.trace(r1 @ e).real * np.trace(r2 @ f).real
            )
            for e in measures.gell_mann_basis(d1)
            for f in measures.gell_mann_basis(d2)
        ]
    )


PRUNE_CASES = [
    ("werner(0.9)", lambda: states.werner_state(0.9), dict(K=8, restarts=4)),
    ("werner(0.7)", lambda: states.werner_state(0.7), dict(K=8, restarts=4)),
    ("isotropic(0.7, 3)", lambda: states.isotropic_state(0.7, 3), dict(K=9, restarts=1)),
    ("random(2, 3)", lambda: states.random_density(2, 3, rank=2, seed=20), dict(K=8, restarts=2)),
    ("random(2, 2)", lambda: states.random_density(2, 2, rank=3, seed=14), dict(K=8, restarts=2)),
]


@pytest.mark.parametrize("name,make,budget", PRUNE_CASES, ids=[n for n, _, _ in PRUNE_CASES])
def test_dcoef_sup_pruning_keeps_the_maximum(name, make, budget, monkeypatch):
    state = make()
    basis1 = measures.gell_mann_basis(state.d1)
    basis2 = measures.gell_mann_basis(state.d2)
    children = np.random.SeedSequence(3).spawn(len(basis1) * len(basis2))
    direct = [
        measures.dcoef(state, e, f, seed=children[i * len(basis2) + j], **budget)
        for i, e in enumerate(basis1)
        for j, f in enumerate(basis2)
    ]
    values = [rep.value for rep in direct]

    calls = []
    search = measures._dcoef_search

    def counted(st_, setup, a1, a2, *args, **kwargs):
        found = search(st_, setup, a1, a2, *args, **kwargs)
        calls.append((a1, a2, found[0], found[4]))
        return found

    monkeypatch.setattr(measures, "_dcoef_search", counted)
    rep = measures.dcoef_sup(state, seed=3, **budget)

    # the maximum of the full scan, bit for bit, at its first pair in basis order
    assert rep.value == max(values)
    k = int(np.argmax(values))
    assert rep.pair == (k // len(basis2), k % len(basis2))
    assert rep.to_json()["pair"] == list(rep.pair)
    # one pair search per visited pair, in decreasing order of the one-group
    # bound; every skipped pair has a bound no greater than the value found
    bounds = _one_group_bounds(state)
    visited, best, beaten = [], None, 0
    for a1, a2, value, used in calls:
        i = next(i for i, e in enumerate(basis1) if np.array_equal(e, a1))
        j = next(j for j, f in enumerate(basis2) if np.array_equal(f, a2))
        visited.append(i * len(basis2) + j)
        # a pair runs the starts of its dcoef, bit for bit, unless it is
        # beaten: it stops early once it is below the best key so far (zero
        # at or below EARLY_STOP_VALUE, ties to the lower index)
        key = (value if value > measures.EARLY_STOP_VALUE else 0.0, -visited[-1])
        assert value >= values[visited[-1]]
        assert used <= direct[visited[-1]].restarts_used
        if used < direct[visited[-1]].restarts_used:
            assert key < best
            beaten += 1
        else:
            assert value == values[visited[-1]]
        best = key if best is None else max(best, key)
    assert len(set(visited)) == len(visited)
    assert np.all(np.diff(bounds[visited]) <= 1e-12)
    skipped = sorted(set(range(len(direct))) - set(visited))
    assert skipped  # every case here prunes some pairs
    assert bounds[skipped].max() <= rep.value
    # every other case stops a beaten pair early; the losing pairs of
    # random(2, 2) reach zero at their first searched start
    if name != "random(2, 2)":
        assert beaten
        assert rep.restarts_used < sum(direct[v].restarts_used for v in visited)


def test_beaten_threshold_lets_a_tie_go_to_the_lower_pair(monkeypatch):
    # every pair search returns 0.05: a pair visited after the best may still
    # tie it, and the tie goes to the lower index, so the threshold at which
    # its starts stop is 0.05 itself below the best's index and just above
    # it beyond; pair 0, whose one-group bound comes sixth, wins
    state = states.random_density(2, 2, rank=3, seed=14)
    basis = measures.gell_mann_basis(2)
    order, thresholds = [], []

    def tied(st_, setup, a1, a2, restarts, iters, tol, seed, closed, beaten):
        i = next(i for i, e in enumerate(basis) if np.array_equal(e, a1))
        j = next(j for j, f in enumerate(basis) if np.array_equal(f, a2))
        order.append(3 * i + j)
        thresholds.append(beaten)
        return 0.05, None, None, True, 1

    monkeypatch.setattr(measures, "_dcoef_search", tied)
    rep = measures.dcoef_sup(state, K=8, restarts=2, seed=3)
    assert order == [1, 5, 2, 6, 4, 0]  # the others have bounds below 0.05
    assert thresholds[0] == -np.inf
    for i, (k, beaten) in enumerate(zip(order[1:], thresholds[1:])):
        best = min(order[: i + 1])
        assert beaten == (0.05 if k < best else np.nextafter(0.05, np.inf))
    assert rep.value == 0.05 and rep.pair == (0, 0) and rep.restarts_used == 6


def test_dcoef_sup_sets_up_and_certifies_once(monkeypatch):
    counts = {}
    for name in ("_spectral_rows", "_refine_product_certificate", "_ensemble_from_rows"):
        def counted(*args, _name=name, _fn=getattr(measures, name)):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(measures, name, counted)
    state = states.random_separable(2, 2, m=4, seed=3)
    rep = measures.dcoef_sup(state, K=16, restarts=2, seed=1)
    assert rep.pair is not None
    assert counts == {
        "_spectral_rows": 1, "_refine_product_certificate": 1, "_ensemble_from_rows": 1
    }


SUP_CASES = [
    ("werner(0.7)", lambda: states.werner_state(0.7), dict(K=8, restarts=2)),
    ("isotropic(0.3, 3)", lambda: states.isotropic_state(0.3, 3), dict(restarts=4, iters=0)),
    ("random(2, 3)", lambda: states.random_density(2, 3, rank=2, seed=21), dict(K=8, restarts=2)),
    ("random(2, 2)", lambda: states.random_density(2, 2, rank=4, seed=9), dict(restarts=1, iters=3)),
    ("separable(2, 2)", lambda: states.random_separable(2, 2, m=4, seed=5), dict(K=16, restarts=2)),
    ("bell", lambda: states.bell_state(1), dict(K=8, restarts=2)),
] + [
    # certified states whose every pair is settled: dcoef settles as dcoef_sup
    # does; m=12 gives 12 groups, enough for numpy's pairwise summation
    (f"separable({d1}, {d2}, m={m}, seed={s})",
     lambda d1=d1, d2=d2, m=m, s=s: states.random_separable(d1, d2, m=m, seed=s),
     dict(K=K, restarts=2))
    for d1, d2, m, s, K in ((2, 2, 4, 8, 16), (2, 2, 4, 12, 16), (2, 3, 2, 33, 16),
                            (2, 2, 12, 1, 64))
]


@pytest.mark.parametrize("name,make,budget", SUP_CASES, ids=[n for n, _, _ in SUP_CASES])
def test_dcoef_sup_matches_dcoef_at_its_pair(name, make, budget):
    state = make()
    rep = measures.dcoef_sup(state, seed=4, **budget)
    i, j = rep.pair
    basis1 = measures.gell_mann_basis(state.d1)
    basis2 = measures.gell_mann_basis(state.d2)
    children = np.random.SeedSequence(4).spawn(len(basis1) * len(basis2))
    direct = measures.dcoef(
        state, basis1[i], basis2[j], seed=children[i * len(basis2) + j], **budget
    )
    assert rep.value == direct.value
    assert np.array_equal(rep.certificate.weights, direct.certificate.weights)
    assert len(rep.certificate.components) == len(direct.certificate.components)
    for got, want in zip(rep.certificate.components, direct.certificate.components):
        assert np.array_equal(got.mat, want.mat)


@settings(max_examples=40, deadline=None)
@given(rank=st.integers(min_value=2, max_value=4), seed=st.integers(0, 2**31 - 1))
def test_dcoef_sup_equals_the_exhaustive_pair_scan(rank, seed):
    # pruned and beaten pairs never hide the winner: value, pair and
    # certificate are those of running dcoef at every pair, the maximum
    # keyed as dcoef_sup documents (zero at or below EARLY_STOP_VALUE, ties
    # to the first pair in basis order)
    state = states.random_density(2, 2, rank=rank, seed=seed)
    budget = dict(K=4, restarts=2)
    basis = measures.gell_mann_basis(2)
    children = np.random.SeedSequence(6).spawn(len(basis) ** 2)
    direct = [
        measures.dcoef(state, e, f, seed=children[i * len(basis) + j], **budget)
        for i, e in enumerate(basis)
        for j, f in enumerate(basis)
    ]
    keyed = [d.value if d.value > measures.EARLY_STOP_VALUE else 0.0 for d in direct]
    k = int(np.argmax(keyed))
    rep = measures.dcoef_sup(state, seed=6, **budget)
    assert rep.value == direct[k].value
    assert rep.pair == divmod(k, len(basis))
    assert np.array_equal(rep.certificate.weights, direct[k].certificate.weights)
    assert len(rep.certificate.components) == len(direct[k].certificate.components)
    for got, want in zip(rep.certificate.components, direct[k].certificate.components):
        assert np.array_equal(got.mat, want.mat)


def test_certified_fixtures_are_settled_without_a_search(monkeypatch):
    # the 20 separable fixtures of acceptance criterion 3 at their benchmark
    # budget: the refined certificate settles every Gell-Mann pair, so no
    # grouped ensemble is built; restarts_used still counts two starts per
    # pair (18 = 9 pairs x 2, 48 = 24 x 2), as a search stopping there does
    def refused(*args):
        raise AssertionError("a settled pair built a grouped ensemble")

    monkeypatch.setattr(measures, "_GroupedEnsemble", refused)
    fixtures = [states.random_separable(2, 2, m=4, seed=s) for s in range(10)]
    fixtures += [states.random_separable(2, 3, m=2, seed=10 + s) for s in range(10)]
    for i, state in enumerate(fixtures):
        rep = measures.dcoef_sup(state, K=16, restarts=32, seed=200 + i)
        assert rep.value <= 1e-15
        assert rep.pair == (0, 0)  # zero values tie, won by the first pair
        assert rep.restarts_used == (18 if i < 10 else 48)
        assert rep.converged is True
        weights, comps = _certificate(rep)
        assert np.abs(sum(w * c for w, c in zip(weights, comps)) - state.mat).max() < 1e-9


def test_closed_form_row_sets_are_checked_once_per_call(monkeypatch):
    checked = []
    check = measures._check_rows

    def counted(state, rows):
        checked.append(rows)
        return check(state, rows)

    monkeypatch.setattr(measures, "_check_rows", counted)
    # a certified state: the refined certificate, the second start, settles
    # every pair; the two closed-form row sets are checked once each
    state = states.random_separable(2, 3, m=2, seed=10)
    rep = measures.dcoef_sup(state, K=16, restarts=2, seed=1)
    assert rep.restarts_used == 48
    base = measures._spectral_rows(state)
    refined = measures._refine_product_certificate(state.certificate, 2, 3, 16)[0]
    assert len(checked) == 2
    assert np.array_equal(checked[0], base) and np.array_equal(checked[1], refined)
    # werner(0.9): the spectral rows once, then the winner of each searched
    # pair (the three on the diagonal; the one-group bound prunes the rest)
    checked.clear()
    state = states.werner_state(0.9)
    rep = measures.dcoef_sup(state, K=8, restarts=2, seed=1)
    base = measures._spectral_rows(state)
    assert len(checked) == 4 and np.array_equal(checked[0], base)
    assert not any(rows.shape == base.shape and np.allclose(rows, base) for rows in checked[1:])
    # an uncorrelated Pauli pair stops at the one-group start: one start, no
    # search, and only the closed-form rows are checked
    checked.clear()
    rep = measures.dcoef(state, SX, SZ, K=8, restarts=2)
    assert rep.value <= 1e-10 and rep.restarts_used == 1 and rep.converged is True
    assert len(checked) == 1 and np.array_equal(checked[0], base)


def _record_groups(monkeypatch):
    """Group counts of the grouped ensembles built from now on, in order."""
    groups = []

    class Counted(measures._GroupedEnsemble):
        def __init__(self, *args):
            super().__init__(*args)
            groups.append(self.tot.shape[0])

    monkeypatch.setattr(measures, "_GroupedEnsemble", Counted)
    return groups


@pytest.mark.parametrize("iters,tol", [(0, 1e-12), (60, 1e-12), (60, 0.0)])
def test_one_group_start_enters_with_the_ladder_converged_flag(iters, tol, monkeypatch):
    # the first result the search feeds to _multistart is the one-group start
    multistart = measures._multistart
    first = []

    def capture(results, n_structured, *rest):
        results = iter(results)
        first.append(next(results))
        return multistart(itertools.chain(first[-1:], results), n_structured, *rest)

    monkeypatch.setattr(measures, "_multistart", capture)
    groups = _record_groups(monkeypatch)
    state = states.werner_state(0.9)
    rep = measures.dcoef(state, SX, SX, K=16, restarts=0, iters=iters, tol=tol)
    # one group: sweeps cannot move it, so it converges iff a sweep runs
    value, (rows, gid), converged = first[0]
    assert abs(value - 0.9) < 1e-12
    assert converged is (iters > 0 and tol > 0)
    assert rows.shape[0] == 4 and not gid.any()  # not grown up to K = 16
    assert groups == [4]  # only the spectral start is searched
    if iters == 0:  # a still spectral start does not beat it
        assert rep.value == value and rep.converged is False
        assert rep.restarts_used == 2 and len(rep.certificate.components) == 1
    # the refined certificate of a separable state starts at zero
    sep = states.random_separable(2, 2, m=4, seed=2)
    rep = measures.dcoef(sep, SX, SZ, iters=iters, tol=tol, restarts=0)
    assert rep.value <= 1e-10 and rep.converged is True and rep.restarts_used == 2


def test_searched_pairs_build_no_one_group_ensemble(monkeypatch):
    # the one-group start takes its closed-form value: no grouped ensemble
    # is built for it (one per searched pair used to be, 3 here)
    groups = _record_groups(monkeypatch)
    rep = measures.dcoef_sup(states.werner_state(0.9), K=16, restarts=32, seed=12)
    assert rep.value > 0.8
    assert groups and min(groups) > 1


def test_every_pair_search_checks_its_rows(monkeypatch):
    # dcoef_sup builds one certificate, but the rows of every visited pair
    # must still reproduce the state
    multistart = measures._multistart

    def skewed(*args):
        value, (rows, gid), converged, used = multistart(*args)
        return value, (1.01 * rows, gid), converged, used

    monkeypatch.setattr(measures, "_multistart", skewed)
    with pytest.raises(ValueError, match="dcoef ensemble misses its state"):
        measures.dcoef_sup(states.werner_state(0.9), K=8, restarts=1)


def test_dcoef_sup_below_rank_raises():
    state = states.random_density(2, 3, rank=4, seed=3)
    with pytest.raises(ValueError, match="^ensemble size 3 below state rank 4: infeasible$"):
        measures.dcoef_sup(state, K=3)


def test_dcoef_sup_pair_reproduces_value():
    for state in (states.werner_state(0.9), states.random_density(2, 3, rank=2, seed=21)):
        rep = measures.dcoef_sup(state, K=8, restarts=2, seed=5)
        i, j = rep.pair
        weights, comps = _certificate(rep)
        e = measures.gell_mann_basis(state.d1)[i]
        f = measures.gell_mann_basis(state.d2)[j]
        got = dcoef_objective(state.mat, state.d1, state.d2, weights, comps, e, f)
        assert abs(got - rep.value) < 1e-9
    eof = measures.eof_upper(states.werner_state(0.5), K=4, restarts=2, seed=0)
    assert eof.pair is None and "pair" not in eof.to_json()


# ---------------------------------------------------------------------------
# eof_upper against closed forms: Wootters (2 x 2), Vollbrecht-Werner (d x d)
# and Terhal-Vollbrecht (isotropic)
# ---------------------------------------------------------------------------


def _entropy_bits(mat):
    w = np.linalg.eigvalsh(mat)
    w = w[w > 1e-14]
    return float(-(w * np.log2(w)).sum())


def _assert_sound_eof(rep, state, members_at=None):
    """Pure components, barycenter within 1e-10, value = average marginal entropy.

    With ``members_at``, every member heavier than 1e-12 must have that
    concurrence within 1e-9.
    """
    weights, comps = _certificate(rep)
    assert abs(sum(weights) - 1.0) < 1e-12 and min(weights) > 0.0
    assert np.abs(sum(w * c for w, c in zip(weights, comps)) - state.mat).max() < 1e-10
    assert max(np.linalg.eigvalsh(c)[-2] for c in comps) < 1e-10
    d1, d2 = state.split
    avg = sum(
        w * _entropy_bits(trace_out_reference(c, d1, d2, keep=1))
        for w, c in zip(weights, comps)
    )
    assert abs(avg - rep.value) < 1e-9
    if members_at is not None:
        for w, c in zip(weights, comps):
            if w > 1e-12:
                assert abs(pure_concurrence(c) - members_at) < 1e-9


def _assert_wootters_exact(state):
    rep = measures.eof_upper(state)
    exact = wootters_eof(state.mat)
    assert exact - 1e-9 <= rep.value <= exact + 1e-9
    assert rep.converged and rep.restarts_used == 0
    _assert_sound_eof(rep, state, members_at=concurrence(state.mat))
    return rep


@pytest.mark.parametrize("p", [round(0.1 * k, 1) for k in range(11)])
def test_eof_werner_is_wootters(p):
    _assert_wootters_exact(states.werner_state(p))


@pytest.mark.parametrize("seed", range(63))
def test_eof_random_two_qubit_is_wootters(seed):
    state = states.random_density(2, 2, rank=2 + seed % 3, seed=500 + seed)
    rep = _assert_wootters_exact(state)
    # the construction reads no search setting
    again = measures.eof_upper(state, K=4, restarts=1, iters=1, tol=1.0, seed=seed)
    assert again.to_json() == rep.to_json()


@pytest.mark.parametrize("seed", range(10))
def test_eof_separable_fixture_is_zero(seed):
    rep = _assert_wootters_exact(states.random_separable(2, 2, m=4, seed=seed))
    assert rep.value <= 1e-12


def _rank3_separable():
    rng = np.random.default_rng(3)
    mat = np.zeros((4, 4), dtype=complex)
    for w in (0.5, 0.3, 0.2):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = np.kron(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        mat += w * np.outer(v, v.conj())
    return states.DensityMatrix(mat, 2, 2)


def test_eof_rank3_separable_needs_four_members():
    state = _rank3_separable()
    assert state.rank() == 3
    exact = measures.eof_upper(state, K=4)
    assert exact.value <= 1e-12 and exact.restarts_used == 0
    _assert_sound_eof(exact, state, members_at=0.0)
    # K = 3 leaves no room for the 4 product members: the search runs
    rep = measures.eof_upper(state, K=3, restarts=2, seed=0)
    assert rep.restarts_used >= 1
    assert rep.value >= -1e-12
    _assert_sound_eof(rep, state)


@pytest.mark.parametrize("a", [0.3, 0.6, 0.9])
def test_eof_werner_3x3_above_vollbrecht_werner(a):
    """Above the closed form, and within 1% of it where it is non-zero.

    At a = 0.3 the state is separable and the bound is the value the
    pair-rotation search reached.
    """
    state = states.DensityMatrix(werner_dd_matrix(a, 3), 3, 3)
    rep = measures.eof_upper(state, K=9, restarts=2, seed=0)
    exact = werner_dd_eof(a)
    assert exact - 1e-9 <= rep.value <= (1.01 * exact if exact > 0.0 else 0.00756)
    _assert_sound_eof(rep, state)


@pytest.mark.parametrize("i,f", list(enumerate([0.4, 0.5, 0.7])))
def test_eof_isotropic_3x3_near_terhal_vollbrecht(i, f):
    state = states.isotropic_state(f, 3)
    rep = measures.eof_upper(state, K=9, restarts=4, seed=21 + i)
    exact = tv_isotropic_eof(f, 3)
    assert exact - 1e-9 <= rep.value <= 1.01 * exact
    _assert_sound_eof(rep, state)


@pytest.mark.parametrize("seed,pair_search", [(0, 0.064399), (1, 0.062690), (2, 0.095223)])
def test_eof_random_2x3_no_looser_than_pair_search(seed, pair_search):
    """Full-rank 2 x 3 states: at most the pair-rotation search's values."""
    state = states.random_density(2, 3, seed=seed)
    rep = measures.eof_upper(state, restarts=4, seed=seed)
    assert rep.value <= pair_search
    _assert_sound_eof(rep, state)


@pytest.mark.parametrize("split", [(2, 3), (3, 2)])
@pytest.mark.parametrize("seed", range(3))
def test_eof_separable_without_certificate_is_zero(split, seed):
    # the search starts from no product decomposition; the gradient of a
    # member whose marginal turns pure stays finite
    mat = states.random_separable(*split, m=2, seed=10 + seed).mat
    state = states.DensityMatrix(mat, *split)
    rep = measures.eof_upper(state, restarts=4, seed=seed)
    assert rep.value <= 1e-8
    _assert_sound_eof(rep, state)


def test_tv_oracle_self_check():
    for d in (2, 3, 4):
        assert tv_isotropic_eof(0.5 / d, d) == 0.0
        assert tv_isotropic_eof(1.0 / d, d) == 0.0
        assert abs(tv_isotropic_eof(1.0, d) - np.log2(d)) < 1e-9
        # R is convex up to F = 4 (d - 1) / d^2, so the hull follows it there,
        # up to the sampling of the hull next to that end
        for f in np.linspace(1.0 / d, 4.0 * (d - 1) / d**2, 7):
            assert abs(tv_isotropic_eof(f, d) - tv_r(np.array([f]), d)[0]) < 1e-9


def test_werner_dd_oracle_is_wootters_at_d2():
    for a in np.linspace(0.0, 1.0, 21):
        assert abs(werner_dd_eof(a) - wootters_eof(werner_dd_matrix(a, 2))) < 1e-12


# ---------------------------------------------------------------------------
# eof_upper against the sequential search it steps in lockstep
# ---------------------------------------------------------------------------


def _ref_spectral(mat):
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    keep = w > 1e-12
    return (v[:, keep] * np.sqrt(w[keep])).T


def _ref_refined(weights, comps, d1, d2, cap):
    """Pure split of a separable certificate: product components along their factors."""
    rows = []
    for lam, comp in zip(weights, comps):
        r1, r2 = (trace_out_reference(comp, d1, d2, keep=k) for k in (1, 2))
        if np.linalg.norm(np.kron(r1, r2) - comp) > 1e-10:
            rows += list(np.sqrt(lam) * _ref_spectral(comp))
        else:
            rows += [np.sqrt(lam) * np.kron(a, b)
                     for a in _ref_spectral(r1) for b in _ref_spectral(r2)]
    return np.array(rows) if len(rows) <= cap else None


def _ref_blocks(rows, d1, d2):
    r = rows.reshape(-1, d1, d2)
    return r if d1 <= d2 else r.transpose(0, 2, 1)


def _ref_tangent(u, z):
    s = u.conj().T @ z
    return z - u @ (0.5 * (s + s.conj().T))


def _ref_value_gradient(u, base, d1, d2):
    r = _ref_blocks(u @ base, d1, d2)
    lam, v = np.linalg.eigh(r @ r.conj().transpose(0, 2, 1))
    lam = np.maximum(lam, 0.0)
    p = lam.sum(axis=1)
    log_lam, log_p = np.log(np.maximum(lam, 1e-15)), np.log(np.maximum(p, 1e-15))
    value = (p @ log_p - np.einsum("ij,ij->", lam, log_lam)) / np.log(2.0)
    g = (v * (log_p[:, None] - log_lam)[:, None, :]) @ (v.conj().transpose(0, 2, 1) @ r)
    g = g * (2.0 / np.log(2.0))
    if d1 > d2:
        g = g.transpose(0, 2, 1)
    return value, _ref_tangent(u, g.reshape(u.shape[0], -1) @ base.conj().T)


def _ref_retract(y):
    q, r = np.linalg.qr(y)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _ref_step(u, grad, direction, value, t, base, d1, d2):
    """One Armijo / Polak-Ribiere+ step: (u, grad, direction, value, t, gain)."""
    slope = np.vdot(grad, direction).real
    if slope >= 0.0:
        direction, slope = -grad, -np.vdot(grad, grad).real
    trial_t = t
    while slope < 0.0 and trial_t >= 1e-12:
        trial = _ref_retract(u + trial_t * direction)
        new, new_grad = _ref_value_gradient(trial, base, d1, d2)
        if new <= value + 0.3 * trial_t * slope:
            beta = np.vdot(new_grad, new_grad - _ref_tangent(trial, grad)).real
            beta = max(0.0, beta / np.vdot(grad, grad).real)
            direction = beta * _ref_tangent(trial, direction) - new_grad
            return trial, new_grad, direction, new, min(4.0 * trial_t, 4.0), value - new
        trial_t *= 0.5
    return u, grad, direction, value, t, 0.0


def _ref_entropy(rows, d1, d2):
    r = _ref_blocks(rows, d1, d2)
    lam = np.maximum(np.linalg.eigvalsh(r @ r.conj().transpose(0, 2, 1)), 0.0)
    p = lam.sum(axis=1)
    nu = lam / np.where(p > 1e-14, p, 1.0)[:, None]
    nu[nu <= 1e-12] = 1.0
    return float(-np.einsum("ij,ij->i", lam, np.log2(nu))[p > 1e-14].sum())


def eof_upper_reference(state, K, restarts=32, iters=60, tol=1e-10, seed=0):
    """eof_upper beyond two qubits, one start after another; numpy only.

    Returns (value, rows, converged, restarts used).
    """
    d1, d2 = state.split
    base = _ref_spectral(state.mat)
    rank = base.shape[0]
    starts = []
    if state.certificate is not None:
        cert = state.certificate
        refined = _ref_refined(cert.weights, [c.mat for c in cert.components], d1, d2, K)
        if refined is not None:
            starts.append((refined @ base.conj().T) / (np.abs(base) ** 2).sum(axis=1))
    starts.append(np.eye(rank))
    seq = np.random.SeedSequence(seed)
    seq.spawn(2)
    for _ in range(restarts):
        rng = np.random.default_rng(seq.spawn(1)[0])
        g = rng.standard_normal((K, rank)) + 1j * rng.standard_normal((K, rank))
        starts.append(np.linalg.qr(g)[0])
    n_structured = len(starts) - restarts
    best, best_rows, best_converged, used, since = np.inf, None, False, 0, 0
    for idx, u in enumerate(starts):
        used += 1
        u = u.astype(np.complex128)
        value, grad = _ref_value_gradient(u, base, d1, d2)
        direction, t, converged = -grad, 1.0, value <= 1e-10
        for _ in range(iters):
            if converged:
                break
            u, grad, direction, value, t, gain = _ref_step(
                u, grad, direction, value, t, base, d1, d2
            )
            converged = gain < tol or value <= 1e-10
        rows = u @ base
        value = _ref_entropy(rows, d1, d2)
        if value < best - 1e-15:
            best, best_rows, best_converged, since = value, rows, converged, 0
        elif idx >= n_structured:
            since += 1
        if best <= 1e-10 or (idx >= n_structured and since >= 8):
            break
    return max(0.0, best), best_rows, best_converged, used


def _separable(split, seed, certified=False):
    state = states.random_separable(*split, m=2, seed=seed)
    return state if certified else states.DensityMatrix(state.mat, *split)


LOCKSTEP_CASES = (
    [(f"isotropic({f})", lambda f=f: states.isotropic_state(f, 3), dict(K=9, restarts=4))
     for f in (0.35, 0.4, 0.5, 0.6, 0.7, 0.9)]
    + [(f"random_2x3-{s}", lambda s=s: states.random_density(2, 3, seed=s), dict(K=6))
       for s in range(6)]
    + [(f"random_3x3-rank{r}", lambda r=r: states.random_density(3, 3, rank=r, seed=r),
        dict(restarts=4)) for r in (3, 5)]
    + [(f"separable_{d1}x{d2}-{s}", lambda s=s, sp=(d1, d2): _separable(sp, s),
        dict(restarts=4, seed=s - 10)) for d1, d2 in ((2, 3), (3, 2)) for s in range(10, 20)]
    + [(f"certified_{d1}x{d2}-{s}", lambda s=s, sp=(d1, d2): _separable(sp, s, True),
        dict(restarts=32)) for d1, d2 in ((2, 3), (3, 3)) for s in (0, 1)]
    + [(f"isotropic(0.5)-{name}", lambda: states.isotropic_state(0.5, 3), dict(K=9, **kw))
       for name, kw in (("restarts0", dict(restarts=0)), ("iters0", dict(restarts=4, iters=0)),
                        ("iters1", dict(restarts=4, iters=1)))]
    + [(f"separable_2x3-10-{name}", lambda: _separable((2, 3), 10), kw)
       for name, kw in (("restarts0", dict(restarts=0)), ("iters0", dict(restarts=4, iters=0)),
                        ("iters1", dict(restarts=4, iters=1)))]
    + [("certified_2x3-0-iters0", lambda: _separable((2, 3), 0, True), dict(iters=0))]
)


@pytest.mark.parametrize(
    "make,kwargs", [c[1:] for c in LOCKSTEP_CASES], ids=[c[0] for c in LOCKSTEP_CASES]
)
def test_eof_matches_sequential_reference(make, kwargs):
    state = make()
    rep = measures.eof_upper(state, **kwargs)
    k = kwargs.pop("K", state.rank() ** 2)
    value, _, converged, used = eof_upper_reference(state, k, **kwargs)
    assert rep.restarts_used == used
    assert rep.converged == converged
    assert abs(rep.value - value) < 1e-6
    _assert_sound_eof(rep, state)


def _counting_isometries(monkeypatch):
    drawn = []
    real = measures._random_isometries

    def counting(*args):
        for u in real(*args):
            drawn.append(u)
            yield u

    monkeypatch.setattr(measures, "_random_isometries", counting)
    return drawn


@pytest.mark.parametrize("split", [(2, 3), (3, 3)])
def test_certified_start_draws_no_random_isometry(split, monkeypatch):
    drawn = _counting_isometries(monkeypatch)
    rep = measures.eof_upper(_separable(split, 3, certified=True), restarts=32)
    assert rep.value <= measures.EARLY_STOP_VALUE
    assert rep.converged and rep.restarts_used == 1
    assert drawn == []


def test_random_isometries_drawn_one_window_at_a_time(monkeypatch):
    # patience stops the search long before 40 random starts; the random
    # isometries are drawn in whole windows, at most one window ahead
    drawn = _counting_isometries(monkeypatch)
    rep = measures.eof_upper(states.random_density(2, 3, seed=4), K=6, restarts=40)
    assert rep.restarts_used - 1 <= len(drawn) <= rep.restarts_used - 1 + measures.RESTART_PATIENCE
    assert len(drawn) % measures.RESTART_PATIENCE == 0 and len(drawn) < 40


def test_no_start_after_a_zero_is_stepped(monkeypatch):
    # the first random start reaches zero; the later ones of its window leave
    # the stack at that step, while the spectral start before it runs on
    sweep = kernels.eof_sweep
    calls = []

    def recording(u, grad, direction, line, *args):
        gain = sweep(u, grad, direction, line, *args)
        calls.append(line[:, 0].copy())
        return gain

    monkeypatch.setattr(kernels, "eof_sweep", recording)
    state = _separable((2, 3), 10)
    rep = measures.eof_upper(state, restarts=4, seed=0)
    assert rep.restarts_used == eof_upper_reference(state, 36, restarts=4, seed=0)[3] == 2
    first = next(c for c, line in enumerate(calls) if (line <= measures.EARLY_STOP_VALUE).any())
    row = int(np.flatnonzero(calls[first] <= measures.EARLY_STOP_VALUE)[0])
    assert calls[first].shape[0] == 5 and row == 1
    assert all(line.shape[0] <= row for line in calls[first + 1 :])
