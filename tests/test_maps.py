import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entkit import cli, maps, matcore, states

from oracles import (
    apply_map_reference,
    block_positivity_lower_reference,
    decomposition_residual_reference,
    generalized_choi_decomposable,
    generalized_choi_map,
    generalized_choi_positive,
    pt_reference,
    random_hermitian,
    random_psd,
)


def swap_matrix(d):
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def omega_projector(d):
    v = np.zeros(d * d, dtype=complex)
    for i in range(d):
        v[i * d + i] = 1.0
    return np.outer(v, v.conj())  # unnormalized: <v|v> = d


def random_cp(seed, d=2, kraus=2):
    rng = np.random.default_rng(seed)
    ops = [
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for _ in range(kraus)
    ]
    nrm = np.sqrt(sum(np.sum(np.abs(a) ** 2) for a in ops))
    ops = [a / nrm for a in ops]
    return maps.choi_from_map(lambda x: sum(a @ x @ a.conj().T for a in ops), d)


class TestApplyMap:
    def test_identity(self):
        rng = np.random.default_rng(0)
        x = random_hermitian(rng, 3)
        ident = maps.catalog("identity", d=3)
        assert_allclose(maps.apply_map(ident, x), x, atol=1e-12)
        assert_allclose(ident.mat, omega_projector(3), atol=1e-12)

    def test_transpose(self):
        rng = np.random.default_rng(1)
        x = random_hermitian(rng, 2)
        tr = maps.catalog("transpose", d=2)
        assert_allclose(maps.apply_map(tr, x), x.T, atol=1e-12)

    def test_depolarizing(self):
        rng = np.random.default_rng(2)
        x = random_hermitian(rng, 3)
        lam = 0.3
        dep = maps.catalog("depolarizing", d=3, lam=lam)
        expected = lam * x + (1 - lam) * np.trace(x) * np.eye(3) / 3
        assert_allclose(maps.apply_map(dep, x), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        ident = maps.catalog("identity", d=2)
        with pytest.raises(ValueError):
            maps.apply_map(ident, np.eye(3))
        with pytest.raises(ValueError):
            maps.apply_map(ident, np.eye(4), d2=3)
        with pytest.raises(ValueError):
            maps.apply_map(ident, np.eye(2), d2=0)

    @pytest.mark.parametrize("d_out", [2, 3, 4])
    @pytest.mark.parametrize("d_in", [2, 3, 4])
    @pytest.mark.parametrize("d2", [1, 2, 3, 5])
    def test_leg_one_matches_tensor_with_identity(self, d_in, d_out, d2):
        # the expected side is the defining sum, computed apart from apply_map;
        # the wide Choi matrix of t ox id applied to X must give it too
        rng = np.random.default_rng(100 * d_in + 10 * d_out + d2)
        for _ in range(3):
            c = random_hermitian(rng, d_in * d_out)
            choi = maps.ChoiMatrix(c, d_in, d_out)
            x = rng.standard_normal((d_in * d2,) * 2) + 1j * rng.standard_normal(
                (d_in * d2,) * 2
            )
            got = maps.apply_map(choi, x, d2)
            expected = apply_map_reference(c, d_in, d_out, x, d2)
            wide = maps.apply_map(maps.tensor_with_identity(choi, d2), x)
            assert got.shape == (d_out * d2, d_out * d2)
            assert np.abs(got - expected).max() < 1e-12
            assert np.abs(wide - expected).max() < 1e-12


class TestDualMap:
    def test_identity_self_dual(self):
        ident = maps.catalog("identity", d=2)
        assert_allclose(maps.dual_map(ident).mat, ident.mat, atol=1e-12)

    @pytest.mark.parametrize(
        "name,params",
        [
            ("transpose", {"d": 2}),
            ("depolarizing", {"d": 2, "lam": 0.4}),
            ("reduction", {"d": 3}),
            ("choi_map", {}),
            ("werner_holevo", {"d": 3}),
        ],
    )
    def test_adjoint_identity(self, name, params):
        # tr[t(X)^+ Y] = tr[X^+ t^d(Y)] on random pairs
        choi = maps.catalog(name, **params)
        dual = maps.dual_map(choi)
        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(20):
            d = choi.d_in
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            lhs = np.trace(maps.apply_map(choi, x).conj().T @ y)
            rhs = np.trace(x.conj().T @ maps.apply_map(dual, y))
            assert abs(lhs - rhs) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.tuples(
            st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)
        ).filter(lambda d: d[0] != d[1]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_adjoint_random_rectangular(self, dims, seed):
        # tr[t(X)^+ Y] = tr[X^+ t^d(Y)] for a random hermiticity-preserving t
        # from d_in to d_out != d_in and general complex X, Y
        d_in, d_out = dims
        rng = np.random.default_rng(seed)
        choi = maps.ChoiMatrix(random_hermitian(rng, d_in * d_out), d_in, d_out)
        dual = maps.dual_map(choi)
        assert (dual.d_in, dual.d_out) == (d_out, d_in)
        x = rng.standard_normal((d_in, d_in)) + 1j * rng.standard_normal((d_in, d_in))
        y = rng.standard_normal((d_out, d_out)) + 1j * rng.standard_normal((d_out, d_out))
        lhs = np.vdot(maps.apply_map(choi, x), y)
        rhs = np.vdot(x, maps.apply_map(dual, y))
        scale = np.linalg.norm(choi.mat) * np.linalg.norm(x) * np.linalg.norm(y)
        assert abs(lhs - rhs) <= 1e-12 * scale

    def test_depolarizing_self_dual(self):
        dep = maps.catalog("depolarizing", d=2, lam=0.7)
        assert_allclose(maps.dual_map(dep).mat, dep.mat, atol=1e-12)


class TestTensorWithIdentity:
    def test_identity_composite(self):
        ident = maps.catalog("identity", d=2)
        big = maps.tensor_with_identity(ident, 3)
        rng = np.random.default_rng(3)
        x = random_hermitian(rng, 6)
        assert_allclose(maps.apply_map(big, x), x, atol=1e-12)

    def test_transpose_on_bell_matches_partial_transpose(self):
        bell = states.bell_state(1)
        tr = maps.catalog("transpose", d=2)
        big = maps.tensor_with_identity(tr, 2)
        out = maps.apply_map(big, bell.mat)
        expected = matcore.partial_transpose(bell.mat, (2, 2), leg=1)
        assert_allclose(out, expected, atol=1e-12)

    def test_product_inputs(self):
        rng = np.random.default_rng(4)
        for name, params in (("depolarizing", {"d": 2, "lam": 0.6}), ("reduction", {"d": 2})):
            choi = maps.catalog(name, **params)
            big = maps.tensor_with_identity(choi, 3)
            x = random_hermitian(rng, 2)
            y = random_hermitian(rng, 3)
            out = maps.apply_map(big, matcore.kron(x, y))
            expected = matcore.kron(maps.apply_map(choi, x), y)
            assert np.abs(out - expected).max() < 1e-10


class TestPositivityChecks:
    def test_identity_cp(self):
        rep = maps.is_cp(maps.catalog("identity", d=2))
        assert rep.ok and abs(rep.min_eig) < 1e-12

    def test_transpose_not_cp(self):
        rep = maps.is_cp(maps.catalog("transpose", d=2))
        assert not rep.ok
        assert abs(rep.min_eig + 1.0) < 1e-12

    def test_depolarizing_identity_limit(self):
        assert maps.is_cp(maps.catalog("depolarizing", d=2, lam=1.0)).ok

    def test_transpose_co_cp(self):
        # Choi of transpose is the swap; its output-leg transpose is PSD
        tr = maps.catalog("transpose", d=2)
        assert_allclose(tr.mat, swap_matrix(2), atol=1e-12)
        rep = maps.is_co_cp(tr)
        assert rep.ok and rep.min_eig > -1e-12

    def test_identity_not_co_cp(self):
        rep = maps.is_co_cp(maps.catalog("identity", d=2))
        assert not rep.ok
        assert abs(rep.min_eig + 1.0) < 1e-12

    def test_fully_depolarizing_both(self):
        dep = maps.catalog("depolarizing", d=2, lam=0.0)
        assert maps.is_cp(dep).ok and maps.is_co_cp(dep).ok


def _recorded_min_eigenvalue(monkeypatch):
    # the matrices handed to matcore.min_eigenvalue from now on, in call order
    seen = []
    inner = matcore.min_eigenvalue

    def recorded(h, *args, **kwargs):
        seen.append(np.array(h))
        return inner(h, *args, **kwargs)

    monkeypatch.setattr(matcore, "min_eigenvalue", recorded)
    return seen


class TestChoiEigenvalues:
    """lambda_min(C) and lambda_min(C^PT) are computed once per ChoiMatrix."""

    def test_map_check_transpose_takes_two(self, monkeypatch, capsys):
        # is_cp / is_co_cp, is_block_positive and is_decomposable each took
        # both values again: 6 calls for the 2 values
        seen = _recorded_min_eigenvalue(monkeypatch)
        assert cli.main(["map", "check", "--catalog", "transpose", "--d", "3"]) == 0
        assert "co_cp=true" in capsys.readouterr().out
        assert len(seen) == 2

    @pytest.mark.parametrize("name", ["identity", "transpose", "reduction", "choi_map"])
    def test_each_value_computed_once(self, monkeypatch, name):
        choi = maps.catalog(name)
        pt = pt_reference(choi.mat, choi.d_in, choi.d_out, leg=2)
        seen = _recorded_min_eigenvalue(monkeypatch)
        for _ in range(2):
            maps.is_cp(choi)
            maps.is_co_cp(choi)
            maps.is_block_positive(choi, restarts=4, iters=20)
            maps.is_decomposable(choi)
        # choi_map also diagonalizes its PPT witness candidates, never C itself
        assert sum(np.array_equal(h, choi.mat) for h in seen) == 1
        assert sum(np.array_equal(h, pt) for h in seen) == 1


@settings(max_examples=40, deadline=None)
@given(
    d_in=st.integers(min_value=2, max_value=3),
    d_out=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stored_eigenvalues_match_reference(d_in, d_out, seed):
    c = random_hermitian(np.random.default_rng(seed), d_in * d_out)
    choi = maps.ChoiMatrix(c, d_in, d_out)
    lam_cp, lam_co_cp = block_positivity_lower_reference(c, d_in, d_out)
    scale = max(1.0, np.linalg.norm(c))
    assert abs(choi._min_eig - lam_cp) <= 1e-12 * scale
    assert abs(choi._min_eig_pt - lam_co_cp) <= 1e-12 * scale
    assert maps.is_cp(choi).min_eig == choi._min_eig
    assert maps.is_co_cp(choi).min_eig == choi._min_eig_pt


class TestBlockPositivity:
    def test_transpose_positive(self):
        trans = maps.catalog("transpose", d=2)
        rep = maps._see_saw(trans, restarts=20, iters=200, tol=1e-9, seed=0)
        assert rep.block_positive
        assert rep.min_value > -1e-9
        public = maps.is_block_positive(trans, restarts=20, seed=0)
        assert public.block_positive and public.certificate == "co_cp"

    def test_negative_identity_certified(self):
        neg = maps.ChoiMatrix(-omega_projector(2), 2, 2)
        rep = maps.is_block_positive(neg, restarts=5, seed=0)
        assert not rep.block_positive
        x, y = rep.witness
        val = np.kron(x, y).conj() @ neg.mat @ np.kron(x, y)
        assert val.real < -1e-9

    def test_choi_map_positive(self):
        choi = maps.catalog("choi_map")
        rep = maps._see_saw(choi, restarts=200, iters=200, tol=1e-9, seed=1)
        assert rep.block_positive
        assert rep.min_value >= -1e-9
        public = maps.is_block_positive(choi, restarts=200, iters=200, seed=1)
        assert public.block_positive and public.certificate is None


def strict_mixture(seed, d=3):
    """Decomposable Choi with interior split, dodging the PSD short-circuits."""
    rng = np.random.default_rng(seed)
    dd = d * d
    a0 = random_psd(rng, dd)
    a0 /= np.trace(a0).real
    b0 = 0.9 * omega_projector(d) / d + 0.1 * np.eye(dd) / dd
    c = 0.5 * a0 + 0.5 * matcore.partial_transpose(b0, (d, d), leg=2)
    return maps.ChoiMatrix(c, d, d)


def breuer_hall(d):
    """Breuer-Hall map on M_d, d even: positive, not decomposable for d >= 4."""
    u = np.zeros((d, d))
    for k in range(0, d, 2):
        u[k, k + 1], u[k + 1, k] = 1.0, -1.0
    eye = np.eye(d)
    return maps.choi_from_map(
        lambda x: (np.trace(x) * eye - x - u @ x.T @ u.T) / (d - 2), d
    )


def assert_valid_split(rep, choi, tol):
    """The split C = A + B with A >= 0 and B^PT >= 0, checked with numpy."""
    a, b = rep.part_cp, rep.part_co_cp
    b_pt = pt_reference(b, choi.d_in, choi.d_out, leg=2)
    assert rep.residual < tol
    residual = decomposition_residual_reference(choi.mat, a, choi.d_in, choi.d_out)
    assert abs(rep.residual - residual) <= 1e-12
    assert np.abs(a + b - choi.mat).max() < 1e-12
    assert np.abs(a - a.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(a).min() >= -1e-12
    assert np.linalg.eigvalsh((b_pt + b_pt.conj().T) / 2).min() >= -tol


def assert_ppt_witness(rep, choi):
    """W >= 0, W^PT >= 0 and tr(W C) < 0, checked with numpy."""
    w = rep.witness
    w_pt = pt_reference(w, choi.d_in, choi.d_out, leg=2)
    assert np.abs(w - w.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(w).min() >= -1e-12
    assert np.linalg.eigvalsh(w_pt).min() >= -1e-12
    overlap = np.trace(w @ choi.mat).real
    assert overlap < -1e-3
    assert -overlap / np.linalg.norm(w) <= rep.residual + 1e-12


def see_saw_reference(c, d_in, d_out, restarts, iters, tol, seed):
    """The see-saw run one restart after another, stopping after the first
    restart whose value is below -tol; numpy only."""
    c4 = c.reshape(d_in, d_out, d_in, d_out)
    rng = np.random.default_rng(seed)
    best, used = np.inf, 0
    for _ in range(max(1, restarts)):
        used += 1
        y = rng.standard_normal(d_out) + 1j * rng.standard_normal(d_out)
        y /= np.linalg.norm(y)
        prev = val = np.inf
        for _ in range(max(1, iters)):
            my = np.einsum("a,iajb,b->ij", y.conj(), c4, y)
            x = np.linalg.eigh((my + my.conj().T) / 2.0)[1][:, 0]
            nx = np.einsum("i,iajb,j->ab", x.conj(), c4, x)
            w, v = np.linalg.eigh((nx + nx.conj().T) / 2.0)
            y, val = v[:, 0], float(w[0])
            if abs(prev - val) < 1e-12:
                break
            prev = val
        best = min(best, val)
        if best < -tol:
            break
    return best >= -tol, best, used


def see_saw_cases():
    cases = [
        (f"{name}-d{d}", maps.catalog(name, d=d), dict(restarts=20, seed=0))
        for name in ("identity", "transpose", "reduction", "werner_holevo", "depolarizing")
        for d in (2, 3)
    ]
    cases.append(("choi_map", maps.catalog("choi_map"), dict(restarts=200, iters=200, seed=1)))
    cases += [(f"breuer_hall-{d}", breuer_hall(d), dict(restarts=40, seed=d)) for d in (4, 6)]
    cases += [
        (
            f"random_cp-{seed}",
            maps.random_cp_map(2 + seed % 2, kraus_count=2 + seed % 3, seed=1000 + seed),
            dict(restarts=8, iters=80, seed=seed),
        )
        for seed in range(50)
    ]
    # lambda_min(C) = -1e-4, reached by product vectors: not positive at
    # tol 1e-9, positive at tol 1e-3
    shifted = maps.ChoiMatrix(omega_projector(3) - 1e-4 * np.eye(9), 3, 3)
    cases.append(("shifted_identity", shifted, dict(restarts=10, seed=0)))
    cases.append(("shifted_identity-tol", shifted, dict(restarts=10, seed=0, tol=1e-3)))
    rng = np.random.default_rng(77)
    for k, (d_in, d_out) in enumerate([(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]):
        choi = maps.ChoiMatrix(random_hermitian(rng, d_in * d_out), d_in, d_out)
        cases.append((f"non_positive-{d_in}x{d_out}", choi, dict(restarts=40, seed=k)))
    edge = [
        c
        for c in cases
        if c[0] in ("transpose-d2", "choi_map", "non_positive-2x3", "non_positive-4x2")
    ]
    cases += [(f"{label}-restarts1", c, dict(kw, restarts=1)) for label, c, kw in edge]
    cases += [(f"{label}-iters1", c, dict(kw, iters=1)) for label, c, kw in edge]
    cases += [(f"{label}-restarts0", c, dict(kw, restarts=0)) for label, c, kw in edge[:2]]
    return cases


SEE_SAW_CASES = see_saw_cases()


@pytest.mark.parametrize(
    "choi,kwargs", [c[1:] for c in SEE_SAW_CASES], ids=[c[0] for c in SEE_SAW_CASES]
)
def test_block_positive_matches_sequential_reference(choi, kwargs):
    kwargs = dict(dict(restarts=40, iters=200, tol=1e-9), **kwargs)
    rep = maps._see_saw(choi, **kwargs)
    ok, best, used = see_saw_reference(choi.mat, choi.d_in, choi.d_out, **kwargs)
    public = maps.is_block_positive(choi, **kwargs)
    assert public.block_positive == ok
    assert public.certificate in (None, "cp", "co_cp")
    assert public.restarts_used == (0 if public.certificate else used)
    assert rep.block_positive == ok
    assert rep.restarts_used == used
    assert abs(rep.min_value - best) < 1e-12
    if ok:
        assert rep.witness is None
    else:
        x, y = rep.witness
        xy = np.kron(x, y)
        val = (xy.conj() @ choi.mat @ xy).real
        assert abs(val - rep.min_value) < 1e-12
        assert val < -kwargs["tol"]


@pytest.mark.parametrize("iters", [200, 6])
@pytest.mark.parametrize("seed,d_in,d_out", [(4, 3, 3), (16, 3, 3), (22, 4, 3), (27, 3, 4), (33, 2, 4)])
def test_block_positive_late_negative_restart(seed, d_in, d_out, iters):
    # a random hermitian shifted to product minimum about -0.01: the early
    # restarts settle in shallower minima, so the first negative one is late
    h = random_hermitian(np.random.default_rng(seed), d_in * d_out)
    low = see_saw_reference(h, d_in, d_out, restarts=100, iters=200, tol=np.inf, seed=0)[1]
    choi = maps.ChoiMatrix(h - (low + 0.01) * np.eye(d_in * d_out), d_in, d_out)
    rep = maps._see_saw(choi, restarts=40, iters=iters, tol=1e-9, seed=seed)
    ok, best, used = see_saw_reference(choi.mat, d_in, d_out, 40, iters, 1e-9, seed)
    public = maps.is_block_positive(choi, restarts=40, iters=iters, seed=seed)
    assert public.certificate is None and not public.block_positive
    assert not ok and not rep.block_positive
    assert 3 <= rep.restarts_used == used < 40
    assert abs(rep.min_value - best) < 1e-12


class TestDecomposability:
    def test_cp_short_circuit(self):
        rep = maps.is_decomposable(random_cp(0))
        assert rep.decomposable is True
        assert rep.iterations == 0
        assert np.abs(rep.part_co_cp).max() < 1e-12

    def test_transpose_short_circuit(self):
        rep = maps.is_decomposable(maps.catalog("transpose", d=3))
        assert rep.decomposable is True
        assert np.abs(rep.part_cp).max() < 1e-12

    def test_choi_map_non_decomposable(self):
        rep = maps.is_decomposable(maps.catalog("choi_map"), max_iter=5000)
        assert rep.decomposable is False
        assert rep.residual >= 1e-3
        assert rep.iterations == 8  # the iteration the README names

    @pytest.mark.parametrize("tol", [1.0, 0.5])
    def test_loose_tol_residual_matches_reference(self, tol):
        # a tol above Choi's map's residuals returns an early split (y, C - y),
        # so the residual is checked where it is far from 0
        choi = maps.catalog("choi_map")
        rep = maps.is_decomposable(choi, tol=tol)
        assert rep.decomposable is True and 0.1 < rep.residual < tol
        residual = decomposition_residual_reference(choi.mat, rep.part_cp, 3, 3)
        assert abs(rep.residual - residual) <= 1e-12

    @pytest.mark.parametrize(
        "name,params",
        [
            ("identity", {"d": 3}),
            ("transpose", {"d": 3}),
            ("depolarizing", {"d": 3, "lam": 0.5}),
            ("reduction", {"d": 3}),
            ("werner_holevo", {"d": 3}),
        ],
    )
    def test_catalog_residual_matches_reference(self, name, params):
        choi = maps.catalog(name, **params)
        rep = maps.is_decomposable(choi)
        assert rep.decomposable is True
        residual = decomposition_residual_reference(choi.mat, rep.part_cp, 3, 3)
        assert abs(rep.residual - residual) <= 1e-12

    @pytest.mark.parametrize(
        "label,d",
        [("choi_map", 3), ("breuer_hall", 4), ("breuer_hall", 6)],
    )
    def test_non_decomposable_witness(self, label, d):
        # the witness is checked with numpy alone: W >= 0, W^PT >= 0 (PT by
        # reshape) and tr(W C) < 0, which rules out any split C = A + B
        choi = maps.catalog("choi_map") if label == "choi_map" else breuer_hall(d)
        rep = maps.is_decomposable(choi)
        assert rep.decomposable is False
        assert rep.iterations <= 16
        w = rep.witness
        dd = d * d
        w_pt = w.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(dd, dd)
        assert np.abs(w - w.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(w).min() >= -1e-12
        assert np.linalg.eigvalsh(w_pt).min() >= -1e-12
        overlap = np.trace(w @ choi.mat).real
        assert overlap < -1e-3
        # -tr(W C) / ||W|| and the residual bracket the distance to the cone
        assert -overlap / np.linalg.norm(w) <= rep.residual + 1e-12

    @pytest.mark.parametrize("max_iter", [1, 3, 4, 10, 30])
    def test_short_budget_is_indeterminate(self, max_iter):
        # a decomposable map must never come back False, however short the
        # run; budgets below the certifying iteration end with None, longer
        # ones with a split
        choi = strict_mixture(0)
        certifying = maps.is_decomposable(choi, max_iter=2000, tol=1e-8).iterations
        rep = maps.is_decomposable(choi, max_iter=max_iter, tol=1e-8)
        assert rep.decomposable is not False
        assert rep.witness is None
        if max_iter < certifying:
            assert rep.decomposable is None
            assert rep.iterations == max_iter
        else:
            assert rep.decomposable is True
            assert rep.iterations == certifying
            assert_valid_split(rep, choi, 1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_strict_mixtures_certified_quickly(self, seed):
        # an interior split is found within a handful of iterations
        choi = strict_mixture(seed)
        rep = maps.is_decomposable(choi, max_iter=2000, tol=1e-8)
        assert rep.decomposable is True
        assert rep.iterations <= 16
        assert_valid_split(rep, choi, 1e-8)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_budget_below_one_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            maps.is_decomposable(strict_mixture(0), max_iter=max_iter)

    def test_strict_mixture_converges(self):
        choi = strict_mixture(0)
        rep = maps.is_decomposable(choi, max_iter=2000, tol=1e-8)
        assert rep.decomposable is True
        assert rep.iterations <= 2000
        assert_valid_split(rep, choi, 1e-8)

    def test_split_validity(self):
        choi = strict_mixture(1)
        rep = maps.is_decomposable(choi, max_iter=2000, tol=1e-8)
        assert rep.decomposable is True
        a, b = rep.part_cp, rep.part_co_cp
        assert_allclose(a + b, choi.mat, atol=1e-12)
        assert matcore.min_eigenvalue(a) >= -1e-8
        pt = matcore.partial_transpose(b, (3, 3), leg=2)
        assert matcore.min_eigenvalue(pt) >= -1e-8

    def test_two_qubit_completeness(self):
        # every block-positive map on M2 is decomposable; exercise the solver
        # on perturbed CP + co-CP mixtures kept positive by rejection
        count = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            c1 = random_cp(seed * 2 + 1, kraus=4)
            c2 = random_cp(seed * 2 + 2, kraus=4)
            mix = rng.uniform(0.3, 0.7)
            base = mix * c1.mat + (1 - mix) * matcore.partial_transpose(
                c2.mat, (2, 2), leg=2
            )
            choi = None
            for _ in range(50):
                pert = random_hermitian(rng, 4)
                cand = maps.ChoiMatrix(
                    base + 0.02 * pert / np.linalg.norm(pert), 2, 2
                )
                rep = maps._see_saw(cand, restarts=30, iters=120, tol=1e-9, seed=seed)
                if rep.block_positive and rep.min_value > 1e-4:
                    public = maps.is_block_positive(cand, restarts=30, iters=120, seed=seed)
                    assert public.block_positive
                    assert public.certificate in (None, "cp", "co_cp")
                    choi = cand
                    break
            assert choi is not None
            rep = maps.is_decomposable(choi)
            assert rep.decomposable is True
            count += 1
        assert count == 30


# Cho-Kye-Lee maps on a grid, the positive ones at least 0.02 from the
# decomposability boundary bc = (3 - a)^2 / 4
CKL_GRID = [
    (a, b, c)
    for a in (1.0, 1.25, 1.5, 2.0, 2.5, 2.9)
    for b in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0)
    for c in (0.0, 0.3, 0.6, 1.0, 2.0)
    if generalized_choi_positive(a, b, c) and abs(b * c - (3 - a) ** 2 / 4) >= 0.02
]


class TestGeneralizedChoiMaps:
    def test_catalog_choi_map_is_phi_210(self):
        assert np.array_equal(maps.catalog("choi_map").mat, generalized_choi_map(2, 1, 0))

    def test_grid_size(self):
        assert len(CKL_GRID) == 82

    @pytest.mark.parametrize("a,b,c", CKL_GRID)
    def test_verdict_matches_cho_kye_lee(self, a, b, c):
        choi = maps.ChoiMatrix(generalized_choi_map(a, b, c), 3, 3)
        rep = maps.is_decomposable(choi)
        assert rep.decomposable is generalized_choi_decomposable(a, b, c)
        if rep.decomposable:
            assert_valid_split(rep, choi, maps.DEFAULT_DECOMP_TOL)
        else:
            assert_ppt_witness(rep, choi)


CERTIFICATE_CASES = SEE_SAW_CASES + [
    (f"ckl-{a}-{b}-{c}", maps.ChoiMatrix(generalized_choi_map(a, b, c), 3, 3), dict(seed=0))
    for a, b, c in CKL_GRID
]


@pytest.mark.parametrize(
    "choi,kwargs", [c[1:] for c in CERTIFICATE_CASES], ids=[c[0] for c in CERTIFICATE_CASES]
)
def test_certificate_brackets_see_saw(choi, kwargs):
    # the public call certifies exactly the maps whose Choi matrix or its
    # partial transpose is PSD by numpy, keeps the see-saw's verdict, and
    # its lower bound is below every value the see-saw finds
    kwargs = dict(dict(restarts=40, iters=200, tol=1e-9), **kwargs)
    rep = maps.is_block_positive(choi, **kwargs)
    search = maps._see_saw(choi, **kwargs)
    lam_cp, lam_co_cp = block_positivity_lower_reference(choi.mat, choi.d_in, choi.d_out)
    tol = kwargs["tol"]
    assert rep.block_positive == search.block_positive
    if lam_cp >= -tol:
        assert rep.certificate == "cp" and abs(rep.lower - lam_cp) < 1e-12
    elif lam_co_cp >= -tol:
        assert rep.certificate == "co_cp" and abs(rep.lower - lam_co_cp) < 1e-12
    else:
        assert rep.certificate is None and rep.lower is None
        assert rep.min_value == search.min_value
        assert rep.restarts_used == search.restarts_used
        return
    assert rep.block_positive and rep.lower <= search.min_value + 1e-12
    assert rep.min_value is None and rep.witness is None and rep.restarts_used == 0


class TestHierarchy:
    def test_catalog_and_random_cp(self):
        # cp implies decomposable implies block positive, with no exception
        entries = [
            maps.catalog("identity", d=2),
            maps.catalog("identity", d=3),
            maps.catalog("transpose", d=2),
            maps.catalog("transpose", d=3),
            maps.catalog("depolarizing", d=2, lam=0.5),
            maps.catalog("reduction", d=2),
            maps.catalog("reduction", d=3),
            maps.catalog("choi_map"),
            maps.catalog("werner_holevo", d=3),
        ]
        entries += [random_cp(seed, d=2 + seed % 2) for seed in range(50)]
        for choi in entries:
            cp = maps.is_cp(choi).ok
            dec = maps.is_decomposable(choi).decomposable
            block = maps._see_saw(choi, restarts=8, iters=80, tol=1e-9, seed=0).block_positive
            public = maps.is_block_positive(choi, restarts=8, iters=80, seed=0)
            assert public.block_positive == block
            kind = "cp" if cp else "co_cp" if maps.is_co_cp(choi).ok else None
            assert public.certificate == kind
            if cp:
                assert dec is True
            if dec is True:
                assert block


class TestCatalog:
    @pytest.mark.parametrize("d_in,d_out", [(-2, -2), (0, 4), (4, 0)])
    def test_rejects_non_positive_dimensions(self, d_in, d_out):
        with pytest.raises(ValueError, match=f"split {d_in}x{d_out} has a dimension below 1"):
            maps.ChoiMatrix(np.eye(4), d_in, d_out)

    def test_transpose_is_swap(self):
        assert np.array_equal(maps.catalog("transpose", d=2).mat, swap_matrix(2))

    def test_reduction_on_maximally_mixed(self):
        red = maps.catalog("reduction", d=2)
        out = maps.apply_map(red, np.eye(2) / 2)
        assert_allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_choi_map_on_identity(self):
        # direct evaluation from the defining action
        out = maps.apply_map(maps.catalog("choi_map"), np.eye(3))
        assert_allclose(out, 2.0 * np.eye(3), atol=1e-12)

    def test_choi_map_entries(self):
        rng = np.random.default_rng(12)
        x = random_hermitian(rng, 3)
        out = maps.apply_map(maps.catalog("choi_map"), x)
        for k in range(3):
            assert abs(out[k, k] - (x[k, k] + x[(k + 1) % 3, (k + 1) % 3])) < 1e-12
        assert abs(out[0, 1] + x[0, 1]) < 1e-12

    def test_werner_holevo_cp_not_co_cp(self):
        wh = maps.catalog("werner_holevo", d=3)
        assert maps.is_cp(wh).ok
        assert not maps.is_co_cp(wh).ok

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            maps.catalog("mystery")

    @pytest.mark.parametrize(
        "name,params,unread",
        [("choi_map", {"d": 5}, "d"), ("transpose", {"d": 2, "lam": 0.3}, "lam")],
    )
    def test_unread_parameter_refused(self, name, params, unread):
        with pytest.raises(ValueError, match=f"^{unread} not read by catalog map {name}$"):
            maps.catalog(name, **params)

    def test_depolarizing_range(self):
        with pytest.raises(ValueError):
            maps.catalog("depolarizing", d=2, lam=1.5)


class TestSerialization:
    def test_round_trip(self):
        choi = maps.catalog("depolarizing", d=3, lam=0.25)
        obj = maps.choi_to_json(choi)
        assert set(obj) == {"d_in", "d_out", "re", "im", "convention"}
        assert obj["convention"] == "in_out"
        back = maps.choi_from_json(obj)
        assert back.d_in == 3 and back.d_out == 3
        assert np.abs(back.mat - choi.mat).max() < 1e-15

    def test_malformed(self):
        with pytest.raises(ValueError):
            maps.choi_from_json({"d_in": 2})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # an infinite imaginary part is refused before re + 1j * im would
        # turn it into NaN with a RuntimeWarning
        for part in ("re", "im"):
            obj = maps.choi_to_json(maps.catalog("identity", d=2))
            obj[part][1][2] = bad
            with pytest.raises(ValueError, match="non-finite"):
                maps.choi_from_json(obj)
