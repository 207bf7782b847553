import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entkit import dynamics, maps, matcore, measures, states


class TestFamilyCatalog:
    def test_identity_at_zero(self):
        for name, params in (
            ("identity", {"d": 2}),
            ("depolarizing_flow", {"d": 2, "rate": 1.0}),
            ("transpose_mix", {"d": 2, "speed": 1.0}),
            ("glauber_flip", {"H": np.diag([1.0, -1.0]), "beta": 1.0, "rate": 1.0}),
        ):
            fam = dynamics.family_catalog(name, **params)
            ident = maps.catalog("identity", d=2)
            assert np.abs(fam(0.0).mat - ident.mat).max() < 1e-10

    def test_transpose_mix_saturates(self):
        fam = dynamics.family_catalog("transpose_mix", d=2, speed=1.0)
        tr = maps.catalog("transpose", d=2)
        assert np.abs(fam(1.0).mat - tr.mat).max() < 1e-12
        assert np.abs(fam(2.5).mat - tr.mat).max() < 1e-12

    def test_depolarizing_longtime_product_of_marginals(self):
        st = states.random_density(2, 2, seed=2)
        fam = dynamics.family_catalog("depolarizing_flow", d=2, rate=1.0)
        big = maps.tensor_with_identity(maps.dual_map(fam(30.0)), 2)
        out = maps.apply_map(big, st.mat)
        expected = matcore.kron(np.eye(2) / 2, states.restrict(st, 2).mat)
        assert np.abs(out - expected).max() < 1e-10

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            dynamics.family_catalog("warp")

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            dynamics.family_catalog("depolarizing_flow", d=2, rate=-1.0)

    def test_glauber_is_cptp_and_fixes_gibbs(self):
        h = np.diag([1.0, -1.0])
        beta = 0.8
        fam = dynamics.family_catalog("glauber_flip", H=h, beta=beta, rate=1.0)
        choi = fam(0.9)
        assert maps.is_cp(choi).ok
        tp = matcore.partial_trace(choi.mat, (2, 2), keep=1)
        assert np.abs(tp - np.eye(2)).max() < 1e-10
        gibbs = states.gibbs_state(h, beta)
        out = maps.apply_map(choi, gibbs.mat)
        assert np.abs(out - gibbs.mat).max() < 1e-10


class TestEvolveTrack:
    def test_identity_family_constant(self):
        bell = states.bell_state(1)
        fam = dynamics.family_catalog("identity", d=2)
        rec = dynamics.evolve_track(bell, fam, np.linspace(0, 2, 9))
        for pt in rec.points:
            assert abs(pt.min_eig) < 1e-10
            assert abs(pt.negativity - 0.5) < 1e-9
            assert abs(pt.trace - 1.0) < 1e-10
        assert rec.first_negative_time() is None

    def test_points_match_tensor_with_identity(self):
        st = states.random_density(2, 3, seed=7)
        fam = dynamics.family_catalog("transpose_mix", d=2, speed=1.0)
        grid = np.linspace(0, 1, 6)
        rec = dynamics.evolve_track(st, fam, grid)
        for t, pt in zip(grid, rec.points):
            big = maps.tensor_with_identity(maps.dual_map(fam(t)), 3)
            out = maps.apply_map(big, st.mat)
            out = (out + out.conj().T) / 2
            assert abs(pt.min_eig - np.linalg.eigvalsh(out).min()) < 1e-12
            assert abs(pt.trace - np.trace(out).real) < 1e-12
            if pt.negativity is not None:
                w_pt = np.linalg.eigvalsh(matcore.partial_transpose(out, (2, 3), leg=2))
                assert abs(pt.negativity - np.clip(-w_pt, 0, None).sum()) < 1e-12

    def test_t0_matches_statics(self):
        st = states.werner_state(0.8)
        fam = dynamics.family_catalog("depolarizing_flow", d=2, rate=1.0)
        rec = dynamics.evolve_track(st, fam, [0.0, 0.5])
        assert abs(rec.points[0].min_eig - st.eigenvalues()[0]) < 1e-10
        assert abs(rec.points[0].negativity - measures.negativity(st)) < 1e-12

    def test_depolarizing_negativity_crossing(self):
        bell = states.bell_state(1)
        fam = dynamics.family_catalog("depolarizing_flow", d=2, rate=1.0)
        grid = np.linspace(0, 3, 61)
        rec = dynamics.evolve_track(bell, fam, grid)
        crossing = None
        for pt in rec.points:
            if pt.negativity is not None and pt.negativity <= 1e-12:
                crossing = pt.t
                break
        step = grid[1] - grid[0]
        assert crossing is not None
        assert abs(crossing - math.log(3)) <= step

    def test_transpose_mix_on_bell(self):
        bell = states.bell_state(1)
        fam = dynamics.family_catalog("transpose_mix", d=2, speed=1.0)
        grid = np.linspace(0, 1, 21)
        rec = dynamics.evolve_track(bell, fam, grid)
        first = rec.first_negative_time()
        assert first is not None and 0 < first <= 1.0
        assert abs(rec.points[-1].min_eig + 0.5) < 1e-6

    def test_transpose_mix_keeps_separable_positive(self):
        fam = dynamics.family_catalog("transpose_mix", d=2, speed=1.0)
        for seed in (0, 1, 2):
            st = states.random_separable(2, 2, m=3, seed=seed)
            rec = dynamics.evolve_track(st, fam, np.linspace(0, 1.2, 13))
            assert min(pt.min_eig for pt in rec.points) >= -1e-9
            assert rec.first_negative_time() is None

    def test_trace_preserving_families(self):
        st = states.random_density(2, 3, seed=4)
        fam = dynamics.family_catalog("depolarizing_flow", d=2, rate=0.7)
        rec = dynamics.evolve_track(st, fam, np.linspace(0, 2, 11))
        for pt in rec.points:
            assert abs(pt.trace - 1.0) < 1e-8

    def test_depolarizing_absorbs_negativity(self):
        # entanglement-breaking flow: negativity non-increasing along the grid
        fam = dynamics.family_catalog("depolarizing_flow", d=2, rate=1.0)
        for st in (
            states.bell_state(1),
            states.werner_state(0.8),
            states.random_density(2, 2, seed=6),
        ):
            rec = dynamics.evolve_track(st, fam, np.linspace(0, 2.5, 26))
            negs = [pt.negativity for pt in rec.points]
            assert all(n is not None for n in negs)
            for a, b in zip(negs, negs[1:]):
                assert b <= a + 1e-10

    def test_measures_undefined_on_invalid_outputs(self):
        bell = states.bell_state(1)
        fam = dynamics.family_catalog("transpose_mix", d=2, speed=1.0)
        rec = dynamics.evolve_track(
            bell, fam, [0.0, 0.5, 1.0], measure_eof=True, restarts=2, iters=10
        )
        assert rec.points[0].eof_upper is not None
        assert abs(rec.points[0].eof_upper - 1.0) < 1e-6
        assert rec.points[1].eof_upper is None
        assert rec.points[1].negativity is None

    def test_grid_must_ascend(self):
        fam = dynamics.family_catalog("identity", d=2)
        with pytest.raises(ValueError):
            dynamics.evolve_track(states.bell_state(1), fam, [0.0, 1.0, 0.5])

    def test_dimension_mismatch(self):
        fam = dynamics.family_catalog("identity", d=3)
        with pytest.raises(ValueError):
            dynamics.evolve_track(states.bell_state(1), fam, [0.0, 1.0])


class TestSerialization:
    def _record(self):
        fam = dynamics.family_catalog("depolarizing_flow", d=2, rate=1.0)
        return dynamics.evolve_track(states.bell_state(1), fam, np.linspace(0, 1, 5))

    def test_csv_layout(self):
        rec = self._record()
        lines = rec.to_csv().splitlines()
        assert lines[0] == "t,min_eig,negativity,eof_upper,dcoef_sup,trace"
        assert len(lines) == 6
        row = lines[1].split(",")
        assert len(row) == 6
        assert row[3] == ""  # eof not requested -> undefined

    def test_json_layout(self):
        rec = self._record()
        obj = rec.to_json()
        assert len(obj) == 5
        assert set(obj[0]) == {"t", "min_eig", "negativity", "eof_upper", "dcoef_sup", "trace"}
        text = json.dumps(obj)
        assert json.loads(text)[0]["eof_upper"] is None
