import numpy as np
import pytest
from numpy.testing import assert_allclose

from entkit import matcore, states

from oracles import SZ, random_psd, trace_out_reference


class TestDensityMatrix:
    def test_split_mismatch(self):
        with pytest.raises(ValueError):
            states.DensityMatrix(np.eye(4) / 4, 2, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            states.DensityMatrix(np.diag([1.5, -0.5, 0, 0]), 2, 2)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            states.DensityMatrix(np.eye(4), 2, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            states.DensityMatrix(mat, 2, 2)
        obj = {"d1": 2, "d2": 2, "re": mat.real.tolist(), "im": mat.imag.tolist()}
        with pytest.raises(ValueError, match="non-finite"):
            states.state_from_json(obj)


class TestEnsemble:
    def test_weights_must_be_positive_and_normalized(self):
        comp = states.max_mixed(2, 2)
        with pytest.raises(ValueError):
            states.Ensemble(np.array([0.5, -0.5, 1.0]), (comp, comp, comp))
        with pytest.raises(ValueError):
            states.Ensemble(np.array([0.5, 0.4]), (comp, comp))

    def test_split_consistency(self):
        with pytest.raises(ValueError):
            states.Ensemble(
                np.array([0.5, 0.5]),
                (states.max_mixed(2, 2), states.max_mixed(2, 3)),
            )

    def test_barycenter_check(self):
        st = states.werner_state(0.5)
        trivial = states.Ensemble(np.array([1.0]), (st,))
        assert trivial.check_barycenter(st) < 1e-15
        with pytest.raises(ValueError):
            trivial.check_barycenter(states.max_mixed(2, 2))


class TestRestrict:
    def test_product_state(self):
        rng = np.random.default_rng(0)
        r1 = random_psd(rng, 2)
        r1 /= np.trace(r1)
        r2 = random_psd(rng, 3)
        r2 /= np.trace(r2)
        prod = states.product_state(r1, r2)
        assert_allclose(states.restrict(prod, 1).mat, r1, atol=1e-12)
        assert_allclose(states.restrict(prod, 2).mat, r2, atol=1e-12)

    def test_bell_maximally_mixed(self):
        red = states.restrict(states.bell_state(1), 1)
        assert_allclose(red.mat, np.eye(2) / 2, atol=1e-12)
        assert red.split == (2, 1)

    def test_werner_sweep(self):
        # Werner reductions are maximally mixed for every p (direct oracle)
        for p in np.linspace(0, 1, 11):
            w = states.werner_state(p)
            ref = trace_out_reference(w.mat, 2, 2, 1)
            assert_allclose(ref, np.eye(2) / 2, atol=1e-12)
            assert_allclose(states.restrict(w, 1).mat, ref, atol=1e-12)


class TestEntropy:
    def test_pure_state(self):
        assert states.von_neumann_entropy(states.bell_state(2)) < 1e-9

    def test_maximally_mixed_qubit(self):
        rho = states.DensityMatrix(np.eye(2) / 2, 2, 1)
        assert abs(states.von_neumann_entropy(rho) - 1.0) < 1e-12

    def test_maximally_mixed_general(self):
        for d1, d2 in ((2, 2), (2, 3), (3, 3)):
            rho = states.max_mixed(d1, d2)
            expected = np.log2(d1 * d2)
            assert abs(states.von_neumann_entropy(rho) - expected) < 1e-10

    def test_concavity(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            a = states.random_density(2, 2, seed=seed)
            b = states.random_density(2, 2, seed=seed + 100)
            mix = states.DensityMatrix((a.mat + b.mat) / 2, 2, 2)
            lhs = states.von_neumann_entropy(mix)
            rhs = 0.5 * states.von_neumann_entropy(a) + 0.5 * states.von_neumann_entropy(b)
            assert lhs >= rhs - 1e-9


class TestNamedFamilies:
    def test_werner_endpoints(self):
        assert_allclose(states.werner_state(0).mat, np.eye(4) / 4, atol=1e-12)
        singlet = states.bell_state(4)
        assert_allclose(states.werner_state(1).mat, singlet.mat, atol=1e-12)

    def test_werner_out_of_range(self):
        with pytest.raises(ValueError):
            states.werner_state(1.5)

    def test_bell_indices(self):
        for k in (1, 2, 3, 4):
            b = states.bell_state(k)
            assert b.rank() == 1
        with pytest.raises(ValueError):
            states.bell_state(5)

    def test_isotropic_limits(self):
        iso = states.isotropic_state(1.0, 3)
        assert iso.rank() == 1
        flat = states.isotropic_state(1.0 / 9.0, 3)
        assert_allclose(flat.mat, np.eye(9) / 9, atol=1e-12)

    def test_random_separable_certificate(self):
        state = states.random_separable(2, 2, m=5, seed=7)
        cert = state.certificate
        assert cert is not None and cert.size == 5
        err = np.linalg.norm(cert.barycenter() - state.mat)
        assert err < 1e-12

    def test_random_density_deterministic(self):
        a = states.random_density(2, 3, rank=4, seed=42)
        b = states.random_density(2, 3, rank=4, seed=42)
        assert np.array_equal(a.mat, b.mat)
        c = states.random_density(2, 3, rank=4, seed=43)
        assert not np.allclose(a.mat, c.mat)

    def test_make_named_dispatch(self):
        w = states.make_named("werner", p=0.5)
        assert w.split == (2, 2)
        with pytest.raises(ValueError):
            states.make_named("nope")
        with pytest.raises(ValueError):
            states.make_named("werner")


class TestGibbs:
    def test_infinite_temperature(self):
        h = np.diag([1.0, 2.0, 3.0, 4.0])
        g = states.gibbs_state(h, 0.0)
        assert_allclose(g.mat, np.eye(4) / 4, atol=1e-12)

    def test_ground_state_limit(self):
        g = states.gibbs_state(SZ, 50.0)
        assert_allclose(g.mat, np.diag([0.0, 1.0]), atol=1e-10)

    def test_commutes_with_hamiltonian(self):
        rng = np.random.default_rng(3)
        g4 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (g4 + g4.conj().T) / 2
        rho = states.gibbs_state(h, 1.3)
        comm = rho.mat @ h - h @ rho.mat
        assert np.linalg.norm(comm) < 1e-9

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            states.gibbs_state(SZ, -1.0)


class TestSpinChains:
    def test_ising_two_site_spectrum(self):
        h = states.ising_hamiltonian(2, j=1.0, h=0.0)
        ref = np.linalg.eigvalsh(h)
        assert_allclose(ref, [-1.0, -1.0, 1.0, 1.0], atol=1e-12)

    def test_dimensions(self):
        for n in (2, 3, 4):
            assert states.ising_hamiltonian(n, 1.0, 0.5).shape == (2**n, 2**n)
            assert states.xxz_hamiltonian(n, 1.0, 0.5).shape == (2**n, 2**n)

    def test_xxz_singlet_eigenvector(self):
        h = states.xxz_hamiltonian(2, j=1.0, delta=1.0)
        singlet = states.bell_vector(4)
        out = h @ singlet
        # proportional: H|psi-> = 3|psi-> for the Heisenberg coupling
        assert np.linalg.norm(out - 3.0 * singlet) < 1e-12

    def test_site_range(self):
        with pytest.raises(ValueError):
            states.ising_hamiltonian(1, 1.0, 0.0)
        with pytest.raises(ValueError):
            states.xxz_hamiltonian(7, 1.0, 0.0)

    def test_hermitian(self):
        assert matcore.is_hermitian(states.ising_hamiltonian(3, 0.7, 0.4))
        assert matcore.is_hermitian(states.xxz_hamiltonian(3, 0.7, 0.4))


class TestInvariants:
    def test_purity_implies_product(self):
        # pure restriction forces product structure
        rng = np.random.default_rng(5)
        fixtures = [
            states.random_separable(2, 2, m=3, seed=1),
            states.random_separable(2, 3, m=2, seed=2),
            states.bell_state(1),
            states.max_mixed(2, 2),
        ]
        for _ in range(10):
            v1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            fixtures.append(states.pure_state(np.kron(v1, v2), 2, 3))
        for st in fixtures:
            r1 = states.restrict(st, 1)
            if states.von_neumann_entropy(r1) < 1e-6:
                r2 = states.restrict(st, 2)
                err = np.linalg.norm(st.mat - matcore.kron(r1.mat, r2.mat))
                assert err < 1e-4

    def test_pushforward_barycenter(self):
        # marginals of ensemble components average to the state's marginals
        for seed in (3, 4):
            st = states.random_separable(2, 3, m=3, seed=seed)
            cert = st.certificate
            for leg in (1, 2):
                pushed = sum(
                    lam * states.restrict(comp, leg).mat
                    for lam, comp in zip(cert.weights, cert.components)
                )
                err = np.linalg.norm(pushed - states.restrict(st, leg).mat)
                assert err < 1e-9


class TestSerialization:
    def test_round_trip(self):
        st = states.random_density(2, 3, seed=9)
        obj = states.state_to_json(st)
        assert set(obj) == {"d1", "d2", "re", "im"}
        back = states.state_from_json(obj)
        assert back.split == st.split
        assert np.abs(back.mat - st.mat).max() < 1e-15

    def test_malformed(self):
        with pytest.raises(ValueError):
            states.state_from_json({"d1": 2, "d2": 2})
