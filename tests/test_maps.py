import numpy as np
import pytest
from numpy.testing import assert_allclose

from entkit import maps, matcore, states

from oracles import random_hermitian, random_psd


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

    @pytest.mark.parametrize("d_in,d_out", [(2, 3), (3, 2), (2, 2)])
    @pytest.mark.parametrize("d2", [1, 2, 3])
    def test_leg_one_matches_tensor_with_identity(self, d_in, d_out, d2):
        rng = np.random.default_rng(100 * d_in + 10 * d_out + d2)
        for _ in range(3):
            choi = maps.ChoiMatrix(random_hermitian(rng, d_in * d_out), d_in, d_out)
            x = rng.standard_normal((d_in * d2,) * 2) + 1j * rng.standard_normal(
                (d_in * d2,) * 2
            )
            got = maps.apply_map(choi, x, d2)
            expected = maps.apply_map(maps.tensor_with_identity(choi, d2), x)
            assert got.shape == (d_out * d2, d_out * d2)
            assert np.abs(got - expected).max() < 1e-12


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


class TestBlockPositivity:
    def test_transpose_positive(self):
        rep = maps.is_block_positive(maps.catalog("transpose", d=2), restarts=20, seed=0)
        assert rep.block_positive
        assert rep.min_value > -1e-9

    def test_negative_identity_certified(self):
        neg = maps.ChoiMatrix(-omega_projector(2), 2, 2)
        rep = maps.is_block_positive(neg, restarts=5, seed=0)
        assert not rep.block_positive
        x, y = rep.witness
        val = np.kron(x, y).conj() @ neg.mat @ np.kron(x, y)
        assert val.real < -1e-9

    def test_choi_map_positive(self):
        rep = maps.is_block_positive(maps.catalog("choi_map"), restarts=200, iters=200, seed=1)
        assert rep.block_positive
        assert rep.min_value >= -1e-9


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

    @pytest.mark.parametrize("max_iter", [1, 10, 30])
    def test_short_budget_is_indeterminate(self, max_iter):
        # a decomposable map must never come back False, however short the run
        rep = maps.is_decomposable(strict_mixture(0), max_iter=max_iter, tol=1e-8)
        assert rep.decomposable is None
        assert rep.witness is None
        assert rep.iterations == max_iter

    def test_strict_mixture_converges(self):
        rep = maps.is_decomposable(strict_mixture(0), max_iter=2000, tol=1e-8)
        assert rep.decomposable is True
        assert rep.iterations <= 2000
        assert rep.residual < 1e-8

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
                rep = maps.is_block_positive(cand, restarts=30, iters=120, seed=seed)
                if rep.block_positive and rep.min_value > 1e-4:
                    choi = cand
                    break
            assert choi is not None
            rep = maps.is_decomposable(choi)
            assert rep.decomposable is True
            count += 1
        assert count == 30


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
            block = maps.is_block_positive(choi, restarts=8, iters=80, seed=0).block_positive
            if cp:
                assert dec is True
            if dec is True:
                assert block


class TestCatalog:
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
        obj = maps.choi_to_json(maps.catalog("identity", d=2))
        obj["re"][1][2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            maps.choi_from_json(obj)
