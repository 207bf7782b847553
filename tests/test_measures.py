import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entkit import dynamics, kernels, maps, matcore, measures, states

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
    werner_dcoef,
    werner_dcoef_decomposition,
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

    def test_dual_built_once_per_map(self, monkeypatch):
        # the dual is a cached property of the ChoiMatrix: witnesses of many
        # states with one map build and validate it once
        choi = maps.catalog("reduction", d=3)
        built = []
        init = maps.ChoiMatrix.__post_init__
        monkeypatch.setattr(
            maps.ChoiMatrix, "__post_init__", lambda self: (built.append(self), init(self))
        )
        for f in (0.1, 0.5, 0.9):
            measures.map_witness(states.isotropic_state(f, 3), choi)
        assert len(built) == 1 and maps.dual_map(choi) is built[0]


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



def _record_scans(monkeypatch):
    """The start scans of every search from now on."""
    scans = []
    init = measures._StartScan.__init__

    def recorded(scan, *args):
        init(scan, *args)
        scans.append(scan)

    monkeypatch.setattr(measures._StartScan, "__init__", recorded)
    return scans


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

    scans = _record_scans(monkeypatch)
    rep = measures.dcoef_sup(state, seed=3, **budget)
    found = scans[-1].found  # per pair, its _multistart result once visited

    # the maximum of the full scan, bit for bit, at its first pair in basis order
    assert rep.value == max(values)
    k = int(np.argmax(values))
    assert rep.pair == (k // len(basis2), k % len(basis2))
    assert rep.to_json()["pair"] == list(rep.pair)
    # a visited pair runs the starts of its dcoef, bit for bit, unless it can
    # no longer win: it stops early once it is below the best key (zero at or
    # below EARLY_STOP_VALUE, ties to the lower index)
    best = (rep.value if rep.value > measures.EARLY_STOP_VALUE else 0.0, -k)
    visited = [i for i, result in enumerate(found) if result is not None]
    beaten = 0
    for i in visited:
        value, _, _, used = found[i]
        key = (value if value > measures.EARLY_STOP_VALUE else 0.0, -i)
        assert value >= values[i]
        assert used <= direct[i].restarts_used
        if used < direct[i].restarts_used:
            assert key < best
            beaten += 1
        else:
            assert value == values[i]
    assert sum(found[i][3] for i in visited) == rep.restarts_used
    # every pair with a one-group bound above the value is visited
    bounds = _one_group_bounds(state)
    skipped = sorted(set(range(len(direct))) - set(visited))
    assert skipped  # every case here prunes some pairs
    assert bounds[skipped].max() <= rep.value
    # every other case stops a beaten pair early; the losing pairs of
    # random(2, 2) reach zero at their first searched start, and the
    # searched pairs of isotropic(0.7, 3), one random start each, all settle
    # before any of them is beaten
    if name not in ("random(2, 2)", "isotropic(0.7, 3)"):
        assert beaten
        assert rep.restarts_used < sum(direct[v].restarts_used for v in visited)


def test_beaten_threshold_lets_a_tie_go_to_the_lower_pair(monkeypatch):
    # every searched start ends at 0.05: the pairs whose one-group bound is
    # above it tie at 0.05, and the tie goes to the lowest index, pair 0,
    # whose bound comes sixth.  A pair stops at the threshold 0.05 below the
    # best pair's index and just above it beyond.
    state = states.random_density(2, 2, rank=3, seed=14)
    bounds = _one_group_bounds(state)
    multistart = measures._multistart
    seen = []

    def tied(results, n_structured, beaten):
        # a searched start (rows without groups) ends at 0.05
        first = next(results)
        seen.append((int(np.argmin(np.abs(bounds - first[0]))), beaten))
        results = itertools.chain([first], results)
        results = ((0.05 if r[1][1] is None else r[0], *r[1:]) for r in results)
        return multistart(results, n_structured, beaten)

    monkeypatch.setattr(measures, "_multistart", tied)
    rep = measures.dcoef_sup(state, K=8, restarts=2, seed=3)
    assert rep.value == 0.05 and rep.pair == (0, 0)
    order = list(dict.fromkeys(k for k, _ in seen))
    assert order == [1, 5, 2, 6, 4, 0]  # the others have bounds below 0.05
    assert seen[0][1] == -np.inf
    above = np.nextafter(0.05, np.inf)
    assert {beaten for _, beaten in seen} <= {-np.inf, 0.05, above}
    assert all(beaten != above for k, beaten in seen if k == 0)
    assert any(beaten == above for _, beaten in seen)

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
    # start enters the search stack; restarts_used still counts two starts
    # per pair (18 = 9 pairs x 2, 48 = 24 x 2), as a search stopping there does
    def refused(*args):
        raise AssertionError("a settled pair drew a searched start")

    monkeypatch.setattr(measures._StartScan, "_draw", refused)
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
    # werner(0.9): the spectral rows once, then the searched rows of each
    # pair that runs its course (the three on the diagonal are searched, the
    # one-group bound prunes the rest); the winner's rows are among them
    checked.clear()
    state = states.werner_state(0.9)
    rep = measures.dcoef_sup(state, K=8, restarts=2, seed=1)
    base = measures._spectral_rows(state)
    assert 2 <= len(checked) <= 4 and np.array_equal(checked[0], base)
    assert all(rows.shape == (8, 4) for rows in checked[1:])
    # an uncorrelated Pauli pair stops at the one-group start: one start, no
    # search, and only the closed-form rows are checked
    checked.clear()
    rep = measures.dcoef(state, SX, SZ, K=8, restarts=2)
    assert rep.value <= 1e-10 and rep.restarts_used == 1 and rep.converged is True
    assert len(checked) == 1 and np.array_equal(checked[0], base)


def _record_windows(monkeypatch):
    """The isometries of every window of searched starts from now on."""
    windows = []
    draw = measures._StartScan._draw

    def recorded(scan, k):
        size = scan.a["u"].shape[0] if scan.a else 0
        drawn = draw(scan, k)
        if drawn:
            windows.append(scan.a["u"][size:].copy())
        return drawn

    monkeypatch.setattr(measures._StartScan, "_draw", recorded)
    return windows


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
    windows = _record_windows(monkeypatch)
    state = states.werner_state(0.9)
    rep = measures.dcoef(state, SX, SX, K=16, restarts=0, iters=iters, tol=tol)
    # one group cannot move, so it converges iff a step would run
    value, (rows, gid), converged = first[0]
    assert abs(value - 0.9) < 1e-12
    assert converged is (iters > 0 and tol > 0)
    assert rows.shape[0] == 4 and not gid.any()
    # no random start: nothing is searched, and the one group is the report
    assert windows == []
    assert rep.value == value and rep.converged is converged
    assert rep.restarts_used == 1 and len(rep.certificate.components) == 1
    # the refined certificate of a separable state starts at zero
    sep = states.random_separable(2, 2, m=4, seed=2)
    rep = measures.dcoef(sep, SX, SZ, iters=iters, tol=tol, restarts=0)
    assert rep.value <= 1e-10 and rep.converged is True and rep.restarts_used == 2


def test_searched_pairs_build_no_one_group_ensemble(monkeypatch):
    # every searched start is a K x rank isometry U, its ensemble the rows
    # U B; the one-group start is never searched, and the certificate of a
    # searched winner has rank-one components
    windows = _record_windows(monkeypatch)
    rep = measures.dcoef_sup(states.werner_state(0.9), K=16, restarts=32, seed=12)
    assert rep.value > 0.8
    assert windows
    for u in windows:
        assert u.shape[1:] == (16, 4)
        gram = u.conj().transpose(0, 2, 1) @ u
        assert np.abs(gram - np.eye(4)).max() < 1e-12
    for comp in rep.certificate.components:
        assert np.linalg.matrix_rank(comp.mat, tol=1e-9) == 1


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


E_NEG = 8e-10  # within PSD_TOL: DensityMatrix takes the state, _spectral_rows drops it
NEAR_PSD = {
    "2x2": (np.diag([0.5 + E_NEG, 0.5 + E_NEG, -E_NEG, -E_NEG]), 2, 2),
    "2x3": (np.diag([0.3 + E_NEG, 0.3 + E_NEG, 0.4, -E_NEG, -E_NEG, 0.0]), 2, 3),
}


def _allowance(state):
    # 1e-9 plus twice the summed magnitude of the dropped eigenvalues
    w = np.linalg.eigvalsh(state.mat)
    return 1e-9 + 2.0 * np.abs(w[w <= measures.RANK_FLOOR]).sum()


@pytest.mark.parametrize(
    "measure",
    [
        measures.eof_upper,
        measures.dcoef_sup,
        lambda state, **kw: measures.dcoef(
            state, *(measures.gell_mann_basis(d)[0] for d in state.split), **kw
        ),
    ],
    ids=["eof_upper", "dcoef_sup", "dcoef"],
)
@pytest.mark.parametrize("name", sorted(NEAR_PSD))
def test_searches_take_states_with_eigenvalues_down_to_psd_tol(measure, name):
    # the spectral rows lack the dropped eigenvalues, so the barycenter of a
    # certificate misses such a state by more than 1e-9, within the allowance
    state = states.DensityMatrix(*NEAR_PSD[name])
    assert np.linalg.eigvalsh(state.mat)[0] < -5e-10
    rep = measure(state, K=8, restarts=2, seed=1)
    miss = rep.certificate.check_barycenter(state, tol=np.inf)
    assert 1e-9 < miss <= _allowance(state)


@pytest.mark.parametrize("name", sorted(NEAR_PSD))
def test_allowance_still_refuses_rows_that_miss(name):
    state = states.DensityMatrix(*NEAR_PSD[name])
    rows = measures._spectral_rows(state)
    measures._check_rows(state, rows)
    measures._ensemble_from_rows(rows, *state.split, state)
    rows[0, 0] += 1e-8
    with pytest.raises(ValueError, match="dcoef ensemble misses its state"):
        measures._check_rows(state, rows)
    with pytest.raises(ValueError, match="ensemble barycenter misses its state"):
        measures._ensemble_from_rows(rows, *state.split, state)


@pytest.mark.parametrize(
    "measure",
    [
        measures.eof_upper,
        measures.dcoef_sup,
        lambda state, **kw: measures.dcoef(
            state, *(measures.gell_mann_basis(d)[0] for d in state.split), **kw
        ),
    ],
    ids=["eof_upper", "dcoef_sup", "dcoef"],
)
@pytest.mark.parametrize(
    "state",
    [states.bell_state(1), states.werner_state(0.7), states.random_density(2, 3, seed=1)],
    ids=["rank-one", "werner", "random-2x3"],
)
@pytest.mark.parametrize(
    "budget,message",
    [
        (dict(K=0), "below state rank"),
        (dict(K=-2), "below state rank"),
        (dict(K=6, iters=-1), "^iters must be >= 0, got -1$"),
        (dict(K=6, restarts=-3), "^restarts must be >= 0, got -3$"),
    ],
    ids=["K0", "K-2", "iters-1", "restarts-3"],
)
def test_bad_search_budgets_raise(measure, state, budget, message):
    # the rank-one short circuit and the exact two-qubit EOF run no search,
    # yet refuse the same budgets as the search does
    with pytest.raises(ValueError, match=message):
        measure(state, **budget)


@pytest.mark.parametrize("p", [0.5, 0.6, 0.7, 0.8])
def test_pure_ensembles_reach_the_grouped_optimum(p):
    # werner_dcoef(p) is the infimum over grouped ensembles; every mixed
    # group splits into pure members with its expectations, so the pure
    # search reaches it.  At p = 0.5 the optimal grouped decomposition has a
    # mixed third group, and the certificate found is pure all the same.
    rep = measures.dcoef_sup(states.werner_state(p), K=8, restarts=4, seed=1)
    assert abs(rep.value - werner_dcoef(p)) <= 1e-6
    if p == 0.5:
        comps = werner_dcoef_decomposition(p)[1]
        assert len(comps) == 3 and np.linalg.matrix_rank(comps[2], tol=1e-9) == 2
        assert abs(rep.value - werner_dcoef(p)) <= 1e-9
        for comp in rep.certificate.components:
            assert np.linalg.matrix_rank(comp.mat, tol=1e-9) == 1


@pytest.mark.parametrize("K", [4, 8, 16])
def test_dcoef_reaches_the_werner_value_at_every_seed(K):
    # a start that stopped at a 1e-10 gain ended 1e-11 to 8e-11 above the
    # optimum, so more K or restarts could read higher; stopping at
    # DCOEF_TOL, every seed reaches it
    exact = werner_dcoef(0.55)
    for seed in range(12):
        rep = measures.dcoef(states.werner_state(0.55), SZ, SZ, K=K, restarts=6, seed=seed)
        assert abs(rep.value - exact) <= 1e-13


@pytest.mark.parametrize("p", [0.5, 0.6, 0.7, 0.8])
def test_dcoef_sup_reaches_the_werner_value(p):
    rep = measures.dcoef_sup(states.werner_state(p), K=16, restarts=8, seed=1)
    assert abs(rep.value - werner_dcoef(p)) <= 1e-13


def test_bell_track_value_does_not_hang_on_the_last_bits():
    # the Bell track's state at t = 0.75 (depolarizing_flow, rate 1), built
    # as evolve_track does, as s rho + (1 - s) sigma with sigma the target's
    # output, and as s rho + (1 - s) I/4: the three differ in their last
    # bits, and all reach the exact value at the track's budget
    bell = states.bell_state(1)
    family = dynamics.family_catalog("depolarizing_flow", d=2, rate=1.0)
    s = family.weight(0.75)
    dual = replace(family, target=maps.dual_map(family.target))
    tracked = maps.apply_map(dual(0.75), bell.mat, 2)
    sigma = maps.apply_map(dual.target, bell.mat, 2)
    built = [
        (tracked + tracked.conj().T) / 2.0,
        s * bell.mat + (1.0 - s) * sigma,
        s * bell.mat + (1.0 - s) * np.eye(4) / 4.0,
    ]
    assert len({m.tobytes() for m in built}) > 1
    exact = werner_dcoef(math.exp(-0.75))
    assert abs(exact - 0.0392738) < 1e-7
    for mat in built:
        state = states.DensityMatrix(mat, 2, 2)
        rep = measures.dcoef_sup(state, K=4, restarts=2, iters=40, seed=7)
        assert abs(rep.value - exact) <= 1e-9


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


def test_eof_separable_battery_without_certificate():
    # 30 certificate-free separable states (2 x 3 and 3 x 2, seeds 10-24):
    # at most 2 end above 1e-9
    above = []
    for split in ((2, 3), (3, 2)):
        for seed in range(10, 25):
            mat = states.random_separable(*split, m=2, seed=seed).mat
            rep = measures.eof_upper(states.DensityMatrix(mat, *split), restarts=4, seed=seed - 10)
            if rep.value > 1e-9:
                above.append((split, seed, rep.value))
    assert len(above) <= 2, above


def test_eof_isotropic_3x3_median_gap_to_terhal_vollbrecht():
    # 21 searches, F = 0.35-0.9 at seeds 0-2: median relative gap at most 5e-6
    gaps = []
    for f in (0.35, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        exact = tv_isotropic_eof(f, 3)
        for seed in range(3):
            rep = measures.eof_upper(states.isotropic_state(f, 3), K=9, restarts=4, seed=seed)
            assert rep.value >= exact - 1e-9
            gaps.append((rep.value - exact) / exact)
    assert np.median(gaps) <= 5e-6


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


def _ref_next_trial(value, slope, trial_t, new):
    """Length after a failed trial: argmin of the quadratic model, in [trial_t / 10, trial_t / 2].

    The model q(s) = value + slope s + a s^2 meets the trial's value at
    s = trial_t; a model with a <= 0 has no minimizer, and the length halves.
    """
    a = (new - value - slope * trial_t) / trial_t**2
    if not a > 0.0:
        return trial_t / 2.0
    return min(max(-slope / (2.0 * a), trial_t / 10.0), trial_t / 2.0)


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
        trial_t = _ref_next_trial(value, slope, trial_t, new)
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
    state = _separable((2, 3), 13)
    rep = measures.eof_upper(state, restarts=4, seed=0)
    assert rep.restarts_used == eof_upper_reference(state, 36, restarts=4, seed=0)[3] == 2
    first = next(c for c, line in enumerate(calls) if (line <= measures.EARLY_STOP_VALUE).any())
    row = int(np.flatnonzero(calls[first] <= measures.EARLY_STOP_VALUE)[0])
    assert calls[first].shape[0] == 5 and row == 1
    assert all(line.shape[0] <= row for line in calls[first + 1 :])


def test_eof_search_is_one_group_of_the_start_scan(monkeypatch):
    # eof_upper steps its starts on the scan dcoef_sup uses, as its one group
    scans = _record_scans(monkeypatch)
    rep = measures.eof_upper(states.isotropic_state(0.5, 3), K=9, restarts=2, seed=1)
    assert len(scans) == 1
    assert len(scans[0].taken) == 1 and len(scans[0].found) == 1
    assert scans[0].found[0][3] == rep.restarts_used
    assert scans[0].a == {}  # nothing is left stepping


@pytest.mark.parametrize(
    "search",
    [
        lambda seed: measures.eof_upper(
            states.random_density(2, 3, rank=3, seed=4), K=6, restarts=4, seed=seed
        ),
        lambda seed: measures.dcoef(
            states.random_density(2, 2, rank=3, seed=14), SX, SZ, K=8, restarts=4, seed=seed
        ),
        lambda seed: measures.dcoef_sup(
            states.random_density(2, 2, rank=3, seed=14), K=8, restarts=4, seed=seed
        ),
    ],
    ids=["eof_upper", "dcoef", "dcoef_sup"],
)
def test_a_seed_sequence_is_not_consumed(search):
    # a SeedSequence seed gives the same report on every call, and the
    # caller's object spawns no child
    ss = np.random.SeedSequence(5)
    first, second = search(ss), search(ss)
    assert ss.n_children_spawned == 0
    assert first.to_json() == second.to_json()
    assert first.value == search(np.random.SeedSequence(5)).value
