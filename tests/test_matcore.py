import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entkit import maps, matcore, measures, states

from matrix_files import MALFORMED, malformed, valid
from oracles import SX, SY, SZ, pt_reference, random_hermitian, random_psd, trace_out_reference


def bell_projector():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return np.outer(v, v.conj())


class TestKron:
    def test_identity(self):
        assert_allclose(matcore.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_action(self):
        # sigma_x ox sigma_x maps |00> to |11>
        v00 = np.zeros(4)
        v00[0] = 1.0
        out = matcore.kron(SX, SX) @ v00
        expected = np.zeros(4)
        expected[3] = 1.0
        assert_allclose(out, expected)

    def test_dimension_product(self):
        a = np.eye(2)
        b = np.eye(3)
        assert matcore.kron(a, b).shape == (6, 6)

    def test_associativity(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 3)
            c = random_hermitian(rng, 2)
            left = matcore.kron(matcore.kron(a, b), c)
            right = matcore.kron(a, matcore.kron(b, c))
            assert np.abs(left - right).max() < 1e-12

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            matcore.kron(np.ones((2, 3)), np.eye(2))

    def test_equals_numpy_kron_bitwise(self):
        rng = np.random.default_rng(4)
        for da, db in ((1, 3), (2, 2), (2, 3), (3, 2), (4, 5)):
            a = rng.standard_normal((da, da)) + 1j * rng.standard_normal((da, da))
            b = rng.standard_normal((db, db)) + 1j * rng.standard_normal((db, db))
            assert np.array_equal(matcore.kron(a, b), np.kron(a, b))


class TestHermitianEig:
    def test_sigma_z(self):
        w, _ = matcore.hermitian_eig(SZ)
        assert_allclose(w, [-1.0, 1.0], atol=1e-12)

    def test_identity(self):
        w, _ = matcore.hermitian_eig(np.eye(4))
        assert_allclose(w, np.ones(4), atol=1e-12)

    def test_sigma_x_eigenvectors(self):
        w, v = matcore.hermitian_eig(SX)
        assert_allclose(w, [-1.0, 1.0], atol=1e-12)
        minus = np.array([1, -1]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(abs(minus @ v[:, 0]) - 1.0) < 1e-9
        assert abs(abs(plus @ v[:, 1]) - 1.0) < 1e-9

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            matcore.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_random_contracts(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 9, 16):
            h = random_hermitian(rng, n)
            w, v = matcore.hermitian_eig(h)
            assert np.all(np.diff(w) >= -1e-12)
            scale = max(1.0, np.linalg.norm(h))
            assert np.linalg.norm(h - (v * w) @ v.conj().T) < 1e-9 * scale
            assert np.linalg.norm(v.conj().T @ v - np.eye(n)) < 1e-9


class TestPartialTrace:
    def test_product_factorization(self):
        rng = np.random.default_rng(0)
        rho = random_psd(rng, 2)
        rho /= np.trace(rho)
        sigma = random_psd(rng, 3)
        sigma /= np.trace(sigma)
        m = matcore.kron(rho, sigma)
        assert_allclose(matcore.partial_trace(m, (2, 3), keep=1), rho, atol=1e-12)
        assert_allclose(matcore.partial_trace(m, (2, 3), keep=2), sigma, atol=1e-12)

    def test_bell_reduction(self):
        red = matcore.partial_trace(bell_projector(), (2, 2), keep=1)
        assert_allclose(red, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(1)
        m = random_hermitian(rng, 6)
        out = matcore.partial_trace(m, (2, 3), keep=1)
        assert abs(np.trace(out) - np.trace(m)) < 1e-12

    def test_duality_with_kron(self):
        # tr[tr_2(M) A] = tr[M (A ox I)] on random pairs
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = random_hermitian(rng, 6)
            a = random_hermitian(rng, 2)
            lhs = np.trace(matcore.partial_trace(m, (2, 3), keep=1) @ a)
            rhs = np.trace(m @ matcore.kron(a, np.eye(3)))
            assert abs(lhs - rhs) < 1e-10

    def test_matches_reference(self):
        rng = np.random.default_rng(8)
        m = random_hermitian(rng, 6)
        for keep in (1, 2):
            assert_allclose(
                matcore.partial_trace(m, (2, 3), keep=keep),
                trace_out_reference(m, 2, 3, keep),
                atol=1e-13,
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matcore.partial_trace(np.eye(5), (2, 3), keep=1)


class TestPartialTranspose:
    def test_pauli_product(self):
        m = matcore.kron(SX, SY)
        assert_allclose(
            matcore.partial_transpose(m, (2, 2), leg=2), -m, atol=1e-12
        )

    def test_involution_bit_exact(self):
        rng = np.random.default_rng(4)
        m = random_hermitian(rng, 6)
        twice = matcore.partial_transpose(
            matcore.partial_transpose(m, (2, 3), leg=2), (2, 3), leg=2
        )
        assert np.array_equal(twice, m)

    def test_bell_spectrum(self):
        # frozen via direct eigendecomposition of the permuted matrix
        pt = matcore.partial_transpose(bell_projector(), (2, 2), leg=2)
        ref = np.linalg.eigvalsh(pt_reference(bell_projector(), 2, 2, 2))
        assert_allclose(np.linalg.eigvalsh(pt), ref, atol=1e-12)
        assert_allclose(ref, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_matches_reference_both_legs(self):
        rng = np.random.default_rng(5)
        m = random_hermitian(rng, 6)
        for leg in (1, 2):
            assert_allclose(
                matcore.partial_transpose(m, (2, 3), leg=leg),
                pt_reference(m, 2, 3, leg),
                atol=0,
            )

    def test_preserves_trace_hermiticity_norm(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m = random_hermitian(rng, 6)
            pt = matcore.partial_transpose(m, (2, 3), leg=2)
            assert abs(np.trace(pt) - np.trace(m)) < 1e-12
            assert matcore.hermiticity_defect(pt) < 1e-12
            assert abs(np.linalg.norm(pt) - np.linalg.norm(m)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    d1=st.integers(min_value=1, max_value=4),
    d2=st.integers(min_value=1, max_value=4),
    leg=st.sampled_from([1, 2]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_partial_transpose_isometry_and_involution(d1, d2, leg, seed):
    # on general complex matrices: tr[A^G+ B^G] = tr[A^+ B] and (A^G)^G = A
    rng = np.random.default_rng(seed)
    n = d1 * d2
    a, b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
    pa = matcore.partial_transpose(a, (d1, d2), leg=leg)
    pb = matcore.partial_transpose(b, (d1, d2), leg=leg)
    scale = np.linalg.norm(a) * np.linalg.norm(b)
    assert abs(np.vdot(pa, pb) - np.vdot(a, b)) <= 1e-12 * scale
    assert np.array_equal(matcore.partial_transpose(pa, (d1, d2), leg=leg), a)


class TestPsdProject:
    def test_fixed_point(self):
        rng = np.random.default_rng(7)
        p = random_psd(rng, 4)
        assert np.abs(matcore.psd_project(p) - p).max() < 1e-10

    def test_negative_identity(self):
        assert_allclose(matcore.psd_project(-np.eye(3)), np.zeros((3, 3)), atol=1e-12)

    def test_eigenvalue_clipping(self):
        out = matcore.psd_project(np.diag([1.0, -1.0]))
        assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        h = random_hermitian(rng, 5)
        once = matcore.psd_project(h)
        assert np.abs(matcore.psd_project(once) - once).max() < 1e-10

    def test_frobenius_minimality(self):
        rng = np.random.default_rng(10)
        h = random_hermitian(rng, 4)
        proj = matcore.psd_project(h)
        dist = np.linalg.norm(h - proj)
        for _ in range(20):
            other = random_psd(rng, 4)
            assert dist <= np.linalg.norm(h - other) + 1e-12

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            matcore.psd_project(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _skewed(h, defect):
    # h plus an anti-hermitian part whose hermiticity defect is ``defect``,
    # placed in entries (0, 1) and (1, 0), which are zero in every h below
    a = np.array(h, dtype=np.complex128)
    assert a[0, 1] == 0 and a[1, 0] == 0
    a[0, 1] += defect / 2
    a[1, 0] -= defect / 2
    assert matcore.hermiticity_defect(a) == defect
    return a


def _dcoef_observable(a1):
    return measures.dcoef(states.bell_state(1), a1, SZ)


HERMITIAN_GATES = {
    "density-matrix": (states.werner_state(0.5).mat, lambda a: states.DensityMatrix(a, 2, 2).mat),
    "choi-matrix": (maps.catalog("transpose", d=2).mat, lambda a: maps.ChoiMatrix(a, 2, 2).mat),
    "dcoef-observable": (SZ, _dcoef_observable),
}

# the gates above and the matcore functions behind every eigendecomposition
NON_FINITE_GATES = dict(
    HERMITIAN_GATES,
    **{
        "hermitian-eig": (SZ, matcore.hermitian_eig),
        "min-eigenvalue": (SZ, matcore.min_eigenvalue),
        "psd-project": (SZ, matcore.psd_project),
    },
)


class TestHermiticityGate:
    """Every constructor that symmetrizes its input refuses a defect above
    HERMITICITY_TOL and symmetrizes one below it exactly."""

    @pytest.mark.parametrize("gate", sorted(HERMITIAN_GATES))
    def test_refuses_defect_above_tolerance(self, gate):
        h, build = HERMITIAN_GATES[gate]
        with pytest.raises(ValueError, match="hermitian"):
            build(_skewed(h, 2e-10))

    @pytest.mark.parametrize("gate", sorted(HERMITIAN_GATES))
    def test_symmetrizes_defect_below_tolerance(self, gate):
        h, build = HERMITIAN_GATES[gate]
        a = _skewed(h, 5e-11)
        got = build(a)
        if gate == "dcoef-observable":
            # the skew cancels exactly, so the search sees SZ itself
            assert np.array_equal((a + a.conj().T) / 2, SZ)
            assert got.value == build(SZ).value
        else:
            assert np.array_equal(got, (a + a.conj().T) / 2)
            assert np.array_equal(got, got.conj().T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize(
        "where", [[(0, 0)], [(0, 1)], [(0, 1), (1, 0)]], ids=["diagonal", "one-side", "both-sides"]
    )
    @pytest.mark.parametrize("gate", sorted(NON_FINITE_GATES))
    def test_refuses_non_finite(self, gate, where, bad):
        # a NaN or infinite entry makes the hermiticity defect non-finite,
        # which the gate refuses (a NaN defect passes "defect > tol"); inf - inf
        # raises no RuntimeWarning, which would fail the suite
        h, build = NON_FINITE_GATES[gate]
        a = np.array(h, dtype=np.complex128)
        for pos in where:
            a[pos] = bad
        assert not np.isfinite(matcore.hermiticity_defect(a))
        with pytest.raises(ValueError, match="non-finite"):
            build(a)


STATE_KEYS, CHOI_KEYS = ("d1", "d2"), ("d_in", "d_out")


class TestMatrixJson:
    @pytest.mark.parametrize("keys", [STATE_KEYS, CHOI_KEYS], ids=["state", "choi"])
    def test_round_trip_and_valid_file(self, keys):
        mat = states.random_density(2, 3, seed=4).mat
        obj = matcore.matrix_to_json(mat, **dict(zip(keys, (2, 3))))
        assert list(obj) == [*keys, "re", "im"]
        got, *sizes = matcore.matrix_from_json(json.loads(json.dumps(obj)), keys, "test")
        assert np.array_equal(got, mat) and sizes == [2, 3]
        got, *sizes = matcore.matrix_from_json(valid(keys), keys, "test")
        assert np.array_equal(got, np.eye(4) / 4) and sizes == [2, 2]

    @pytest.mark.parametrize("row", sorted(MALFORMED))
    @pytest.mark.parametrize("keys", [STATE_KEYS, CHOI_KEYS], ids=["state", "choi"])
    def test_refuses_malformed(self, keys, row):
        obj = json.loads(malformed(row, keys))
        with pytest.raises(ValueError, match="malformed test"):
            matcore.matrix_from_json(obj, keys, "test")

    @pytest.mark.parametrize("row", sorted(MALFORMED))
    def test_readers_refuse_malformed(self, row):
        with pytest.raises(ValueError, match="malformed state JSON"):
            states.state_from_json(json.loads(malformed(row, STATE_KEYS)))
        with pytest.raises(ValueError, match="malformed Choi JSON"):
            maps.choi_from_json(json.loads(malformed(row, CHOI_KEYS)))

    def test_extra_keys_are_ignored(self):
        obj = {**valid(), "note": [1, "x"]}
        assert np.array_equal(states.state_from_json(obj).mat, np.eye(4) / 4)

    def test_integral_floats_and_integers_read_as_integers(self):
        # sizes 2.0 and integer-valued re give the matrix that 2 and floats give
        ints = {"d1": 2.0, "d2": 2.0, "re": [[1, 0, 0, 0]] + [[0] * 4] * 3, "im": [[0] * 4] * 4}
        floats = {**ints, "d1": 2, "d2": 2, "re": np.diag([1.0, 0, 0, 0]).tolist()}
        got, d1, d2 = matcore.matrix_from_json(ints, STATE_KEYS, "test")
        want, *_ = matcore.matrix_from_json(floats, STATE_KEYS, "test")
        assert (d1, d2) == (2, 2) and type(d1) is int and type(d2) is int
        assert got.dtype == np.complex128 and np.array_equal(got, want)
        st = states.state_from_json(ints)
        assert st.split == (2, 2) and np.array_equal(st.mat, states.state_from_json(floats).mat)

    @pytest.mark.parametrize(
        "entry", ["NaN", "Infinity", "-1e999", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "10^400"],
    )
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_refuses_non_finite_entries(self, part, entry):
        # refused before re + 1j * im is formed, so no RuntimeWarning either;
        # an integer beyond the float range counts as non-finite
        obj = valid()
        obj[part][0][1] = "ENTRY"
        text = json.dumps(obj).replace('"ENTRY"', entry)
        with pytest.raises(ValueError, match="state JSON: matrix has non-finite entries"):
            states.state_from_json(json.loads(text))
