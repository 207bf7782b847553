import numpy as np
import pytest
from numpy.testing import assert_allclose

from entkit import maps, matcore, measures, states

from oracles import SX, SZ, pt_reference, wootters_eof


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
