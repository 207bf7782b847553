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

    def test_unread_parameter_refused(self):
        with pytest.raises(ValueError, match="^rate not read by channel family identity$"):
            dynamics.family_catalog("identity", rate=1.0)
        with pytest.raises(ValueError, match="^d not read by channel family glauber_flip$"):
            dynamics.family_catalog("glauber_flip", H=np.diag([1.0, -1.0]), d=2)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            dynamics.family_catalog("depolarizing_flow", d=2, rate=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "name,params,key",
        [
            ("depolarizing_flow", {"d": 2}, "rate"),
            ("transpose_mix", {"d": 2}, "speed"),
            ("glauber_flip", {"H": np.diag([1.0, -1.0])}, "beta"),
            ("glauber_flip", {"H": np.diag([1.0, -1.0])}, "rate"),
        ],
    )
    def test_non_finite_parameter_rejected(self, name, params, key, bad):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            dynamics.family_catalog(name, **params, **{key: bad})

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_time_rejected(self, t):
        fam = dynamics.family_catalog("transpose_mix", d=2, speed=1.0)
        with pytest.raises(ValueError, match="time must be finite"):
            fam(t)

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

    def test_trace_tolerance_is_the_density_matrix_one(self):
        # Mixing the identity into a completely depolarizing map scaled by
        # 1 + 5e-9, with target weight min(t, 1), takes the output trace off
        # one by 5e-10 at t = 0.1 (still a state) and by 5e-9 at t = 1 (past
        # states.TRACE_TOL): that point must be recorded as invalid instead
        # of failing inside DensityMatrix.
        depol = maps.catalog("depolarizing", d=2, lam=0.0)
        target = maps.ChoiMatrix(depol.mat * (1.0 + 5e-9), 2, 2)
        fam = dynamics.ChannelFamily("scaled_depolarizing", target, lambda t: 1.0 - min(t, 1.0))
        rec = dynamics.evolve_track(
            states.bell_state(1),
            fam,
            [0.0, 0.1, 1.0],
            measure_eof=True,
            measure_dcoef=True,
            K=4,
            restarts=1,
            iters=5,
        )
        near, off = rec.points[1], rec.points[2]
        assert abs(near.trace - (1.0 + 5e-10)) < 1e-13
        assert near.negativity is not None
        assert near.eof_upper is not None
        assert near.dcoef_sup is not None
        assert abs(off.trace - (1.0 + 5e-9)) < 1e-13
        assert off.min_eig >= 0.0
        assert off.negativity is None
        assert off.eof_upper is None
        assert off.dcoef_sup is None

    def test_grid_must_ascend(self):
        fam = dynamics.family_catalog("identity", d=2)
        with pytest.raises(ValueError):
            dynamics.evolve_track(states.bell_state(1), fam, [0.0, 1.0, 0.5])

    @pytest.mark.parametrize("grid", [[0.0, math.nan, math.nan], [0.0, 0.5, math.inf]])
    def test_grid_must_be_finite(self, grid):
        fam = dynamics.family_catalog("transpose_mix", d=2, speed=1.0)
        with pytest.raises(ValueError, match="time grid must be finite"):
            dynamics.evolve_track(states.bell_state(1), fam, grid)

    def test_dimension_mismatch(self):
        fam = dynamics.family_catalog("identity", d=3)
        with pytest.raises(ValueError):
            dynamics.evolve_track(states.bell_state(1), fam, [0.0, 1.0])

    def test_negative_time_refused(self):
        fam = dynamics.family_catalog("transpose_mix", d=2, speed=1.0)
        with pytest.raises(ValueError, match="time must be finite and >= 0"):
            dynamics.evolve_track(states.bell_state(1), fam, [-1.0, 0.0, 0.5])

    def test_non_finite_weight_refused(self):
        target = maps.catalog("transpose", d=2)
        fam = dynamics.ChannelFamily("nan_weight", target, lambda t: 1.0 if t == 0 else math.nan)
        with pytest.raises(ValueError, match="non-finite"):
            dynamics.evolve_track(states.bell_state(1), fam, [0.0, 0.5])


def _built_in(name, d):
    if name == "glauber_flip":
        return dynamics.family_catalog(name, H=np.diag(np.arange(d, dtype=float)), rate=0.8)
    extra = {"depolarizing_flow": {"rate": 0.7}, "transpose_mix": {"speed": 1.3}}
    return dynamics.family_catalog(name, d=d, **extra.get(name, {}))


class TestDualOncePerTrack:
    GRID = np.linspace(0.0, 1.2, 37)  # more than two blocks of time points

    @pytest.mark.parametrize("name", ["identity", "depolarizing_flow", "transpose_mix", "glauber_flip"])
    @pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3), (5, 5)])
    def test_points_equal_the_per_point_dual(self, name, d1, d2):
        # the pencil s rho + (1 - s) tau agrees, to rounding, with applying
        # the dual of family(t) ox id, built as a Choi matrix at every time
        st = states.random_density(d1, d2, seed=d1 + d2)
        fam = _built_in(name, d1)
        rec = dynamics.evolve_track(st, fam, self.GRID)
        assert len(rec.points) == len(self.GRID)
        for t, pt in zip(self.GRID, rec.points):
            big = maps.tensor_with_identity(maps.dual_map(fam(t)), d2)
            out = maps.apply_map(big, st.mat)
            out = (out + out.conj().T) / 2.0
            assert pt.t == t
            assert abs(pt.min_eig - np.linalg.eigvalsh(out)[0]) <= 1e-12
            assert abs(pt.trace - np.trace(out).real) <= 1e-12
            w_pt = np.linalg.eigvalsh(matcore.partial_transpose(out, (d1, d2), leg=2))
            valid = pt.min_eig >= -dynamics.NEGATIVE_EIG_TOL and abs(pt.trace - 1.0) <= states.TRACE_TOL
            assert (pt.negativity is not None) == valid
            if valid:
                assert abs(pt.negativity - np.clip(-w_pt, 0.0, None).sum()) <= 1e-12

    def test_one_dual_and_no_choi_build_per_track(self, monkeypatch):
        fam = _built_in("glauber_flip", 2)
        calls = {"dual_map": 0, "choi_from_map": 0, "apply_map": 0}

        def counted(name):
            real = getattr(maps, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(maps, name, counted(name))
        rec = dynamics.evolve_track(states.bell_state(1), fam, self.GRID)
        assert len(rec.points) == len(self.GRID)
        assert calls == {"dual_map": 1, "choi_from_map": 0, "apply_map": 1}

    def test_weight_one_gives_the_state_exactly(self):
        st = states.random_density(2, 3, seed=3)
        fam = _built_in("depolarizing_flow", 2)
        pt = dynamics.evolve_track(st, fam, [0.0, 0.5]).points[0]
        assert pt.min_eig == np.linalg.eigvalsh(st.mat)[0]
        assert pt.trace == np.trace(st.mat).real

    @pytest.mark.parametrize("split", [1, 7, 15, 16, 17, 23, 32, 36])
    def test_block_boundaries_are_invisible(self, split):
        # a track is the concatenation of the tracks over the two halves of
        # its grid, bit for bit, wherever the grid is cut
        st = states.random_density(2, 3, seed=5)
        fam = _built_in("transpose_mix", 2)
        whole = dynamics.evolve_track(st, fam, self.GRID)
        head = dynamics.evolve_track(st, fam, self.GRID[:split])
        tail = dynamics.evolve_track(st, fam, self.GRID[split:])
        assert any(pt.negativity is None for pt in whole.points)
        assert any(pt.negativity is not None for pt in whole.points)
        assert whole.points == head.points + tail.points

    @pytest.mark.parametrize("split", [3, 16, 20])
    def test_block_boundaries_are_invisible_to_the_measures(self, split):
        # on a 2 x 2 and a 3 x 3 track: the searched EOF only runs on the second
        grid = np.linspace(0.0, 2.0, 21)
        for st, d, K in ((states.bell_state(1), 2, 4), (states.isotropic_state(0.7, 3), 3, 9)):
            fam = _built_in("depolarizing_flow", d)
            budget = {"measure_eof": True, "measure_dcoef": True, "K": K, "restarts": 1, "iters": 5, "seed": 3}
            whole = dynamics.evolve_track(st, fam, grid, **budget)
            head = dynamics.evolve_track(st, fam, grid[:split], **budget)
            tail = dynamics.evolve_track(st, fam, grid[split:], **budget)
            assert all(pt.eof_upper is not None and pt.dcoef_sup is not None for pt in whole.points)
            assert whole.points == head.points + tail.points

    def test_weight_must_start_at_one(self):
        target = maps.catalog("transpose", d=2)
        with pytest.raises(ValueError, match="does not start at the identity"):
            dynamics.ChannelFamily("half", target, lambda t: 0.5)
        fam = dynamics.ChannelFamily("ramp", target, lambda t: 1.0 - min(t, 1.0))
        assert fam.d == 2
        assert np.array_equal(fam(1.0).mat, target.mat)

    def test_target_must_map_m_d_to_itself(self):
        wide = maps.ChoiMatrix(np.eye(6), 2, 3)
        with pytest.raises(ValueError, match="does not map M_d to itself"):
            dynamics.ChannelFamily("wide", wide, lambda t: 1.0)


def _pure_2x3():
    v = np.array([0.6, 0.0, 0.2, 0.0, 0.0, 0.6j])
    v /= np.linalg.norm(v)
    return states.DensityMatrix(np.outer(v, v.conj()), 2, 3)


# (state, family, time grid, evolve_track budget) of the stacked tracks: the
# Bell track of the cli-session benchmark; a 3 x 3 track with the searched
# EOF; a 2 x 3 track with invalid points; and a track whose t = 0 point is
# rank one, so that its first block mixes ranks
STACKED_TRACKS = {
    "bell": (
        states.bell_state(1), ("depolarizing_flow", 2, {"rate": 1.0}), np.linspace(0.0, 1.5, 7),
        {"K": 4, "restarts": 2, "seed": 7},
    ),
    "isotropic-3x3": (
        states.isotropic_state(0.7, 3), ("depolarizing_flow", 3, {"rate": 1.0}),
        np.linspace(0.0, 1.5, 6), {"K": 9, "restarts": 1, "iters": 6, "seed": 1},
    ),
    "random-2x3-transpose-mix": (
        states.random_density(2, 3, seed=5), ("transpose_mix", 2, {"speed": 1.0}),
        np.linspace(0.0, 1.5, 8), {"K": 6, "restarts": 2, "iters": 10, "seed": 2},
    ),
    "pure-at-t0": (
        _pure_2x3(), ("depolarizing_flow", 2, {"rate": 1.0}), np.linspace(0.0, 1.0, 5),
        {"K": 6, "restarts": 2, "iters": 10, "seed": 3},
    ),
}


def _same_report(got, want):
    assert got.value == want.value and got.pair == want.pair
    assert got.restarts_used == want.restarts_used and got.converged == want.converged
    assert np.array_equal(got.certificate.weights, want.certificate.weights)
    assert len(got.certificate.components) == len(want.certificate.components)
    for a, b in zip(got.certificate.components, want.certificate.components):
        assert np.array_equal(a.mat, b.mat)


class TestStackedSearches:
    """Each measure searches a block's valid points in one call, one start scan per shape."""

    @pytest.mark.parametrize("name", list(STACKED_TRACKS))
    def test_points_and_reports_equal_the_per_point_calls(self, name, monkeypatch):
        st, (fam_name, d, params), grid, budget = STACKED_TRACKS[name]
        fam = dynamics.family_catalog(fam_name, d=d, **params)
        calls = {"_eof_uppers": [], "_dcoef_sups": []}
        for search, seen in calls.items():
            def recorded(many, *args, inner=getattr(measures, search), seen=seen):
                reports = inner(many, *args)
                seen.append(list(zip(many, reports)))
                return reports

            monkeypatch.setattr(measures, search, recorded)
        scans = []
        init = measures._StartScan.__init__

        def counted(scan, *args):
            init(scan, *args)
            scans.append(scan)

        monkeypatch.setattr(measures._StartScan, "__init__", counted)
        rec = dynamics.evolve_track(st, fam, grid, measure_eof=True, measure_dcoef=True, **budget)
        monkeypatch.undo()

        # one call per measure and block, on the block's valid points
        blocks = -(-len(grid) // dynamics._BLOCK)
        assert [len(seen) for seen in calls.values()] == [blocks, blocks]
        valid = [pt for pt in rec.points if pt.negativity is not None]
        kwargs = {"K": budget["K"], "restarts": budget["restarts"], "seed": budget["seed"]}
        kwargs["iters"] = budget.get("iters", 40)
        for (search, seen), column in zip(calls.items(), ("eof_upper", "dcoef_sup")):
            pairs = [pair for block in seen for pair in block]
            assert [getattr(pt, column) for pt in valid] == [rep.value for _, rep in pairs]
            single = measures.eof_upper if search == "_eof_uppers" else measures.dcoef_sup
            for state, rep in pairs:
                _same_report(rep, single(state, **kwargs))
        # the searched points of a block share one scan per rank: dcoef_sup
        # searches above rank one, and eof_upper beyond two qubits
        ranks = [[measures._spectral_rows(state).shape[0] for state, _ in block]
                 for block in calls["_dcoef_sups"]]
        shapes = sum(len(set(block) - {1}) for block in ranks)
        assert len(scans) == (shapes if st.split == (2, 2) else 2 * shapes)
        if name == "random-2x3-transpose-mix":
            assert len(valid) < len(rec.points)
        if name == "pure-at-t0":
            assert ranks[0][0] == 1 and len(set(ranks[0])) > 1


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
