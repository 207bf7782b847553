import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entkit import kernels, measures, states
from entkit.kernels import _grids

from oracles import random_hermitian

SPLITS = [(2, 2), (2, 3), (3, 2), (3, 3)]


def _random_rows(rng, k, n):
    rows = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    return rows / np.linalg.norm(rows)


def _entropy_bits(rows, d1, d2):
    """Weighted leg-1 marginal entropies from eigvalsh of r r^+ (no shortcuts)."""
    r = rows.reshape(-1, d1, d2)
    lam = np.clip(np.linalg.eigvalsh(r @ r.conj().transpose(0, 2, 1)), 0.0, None)
    p = lam.sum(axis=1)
    nu = lam / p[:, None]
    safe = np.where(nu > 1e-300, nu, 1.0)
    return -(lam * np.log2(safe)).sum(axis=1)


def _rotated_objective(wa, wb, thetas, phis, d1, d2):
    """Objective of every (theta, phi) candidate from explicitly rotated rows."""
    c = np.cos(thetas)[:, None, None]
    s = np.sin(thetas)[:, None, None]
    z = np.exp(1j * phis)[None, :, None]
    ra = (c * wa - s * z * wb).reshape(-1, wa.shape[0])
    rb = (s * z.conj() * wa + c * wb).reshape(-1, wa.shape[0])
    return _entropy_bits(ra, d1, d2) + _entropy_bits(rb, d1, d2)


class TestEighContract:
    def test_reconstruction(self):
        rng = np.random.default_rng(17)
        for n in (2, 4, 9, 17, 33):
            h = random_hermitian(rng, n)
            w, v = kernels.eigh(h)
            scale = max(1.0, np.linalg.norm(h))
            assert np.all(np.diff(w) >= -1e-12)
            assert np.linalg.norm(h - (v * w) @ v.conj().T) < 1e-9 * scale
            assert np.linalg.norm(v.conj().T @ v - np.eye(n)) < 1e-9


@pytest.mark.parametrize("d1,d2", SPLITS)
def test_column_scores_match_eigvalsh(d1, d2):
    rng = np.random.default_rng(29)
    rows = _random_rows(rng, 6, d1 * d2)
    p, ew = kernels.column_scores(rows, d1, d2)
    assert np.abs(p - np.einsum("ij,ij->i", rows, rows.conj()).real).max() < 1e-14
    assert np.abs(ew - _entropy_bits(rows, d1, d2)).max() < 1e-12


@pytest.mark.parametrize("d1,d2", SPLITS)
def test_gram_block_objective_matches_rotated_rows(d1, d2):
    rng = np.random.default_rng(37 + 10 * d1 + d2)
    d = min(d1, d2)
    rows = _random_rows(rng, 4, d1 * d2)
    pairs_a, pairs_b = np.triu_indices(4, 1)
    bases = kernels._pair_bases(rows, pairs_a, pairs_b, d1, d2)
    # the coarse grid, from the table built at import, for all six pairs at once
    got = kernels._pair_objective(kernels._COARSE, bases, d)
    assert got.shape == (6, _grids.THETAS.size * _grids.PHIS.size)
    # a 3 x 3 refinement stencil around an off-grid point
    th = rng.uniform(0.05, np.pi / 2 - 0.05) + np.array([-0.01, 0.0, 0.01])
    ph = rng.uniform(0.0, 2 * np.pi) + np.array([-0.02, 0.0, 0.02])
    got_fine = kernels._pair_objective(kernels._stencil(th, ph), bases, d)
    for i, (a, b) in enumerate(zip(pairs_a, pairs_b)):
        want = _rotated_objective(rows[a], rows[b], _grids.THETAS, _grids.PHIS, d1, d2)
        assert np.abs(got[i] - want).max() < 1e-12
        want = _rotated_objective(rows[a], rows[b], th, ph, d1, d2)
        assert np.abs(got_fine[i] - want).max() < 1e-12
        single = kernels._pair_bases(rows, [a], [b], d1, d2)
        assert np.array_equal(single, bases[i : i + 1])


def test_sweeps_monotone():
    w = states.werner_state(0.7)
    base = measures._spectral_rows(w)
    rng = np.random.default_rng(31)
    g = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    q, _ = np.linalg.qr(g)
    rows = np.ascontiguousarray(q @ base)
    _, ew = kernels.column_scores(rows, 2, 2)
    prev = ew.sum()
    for _ in range(10):
        kernels.eof_sweep(rows, ew, 2, 2)
        total = ew.sum()
        assert total <= prev + 1e-12
        prev = total
    # the cache tracks the rows, and the rotations keep the barycenter
    assert np.abs(ew - kernels.column_scores(rows, 2, 2)[1]).max() < 1e-12
    bary = rows.T @ rows.conj()
    assert np.abs(bary - w.mat).max() < 1e-10


@settings(max_examples=15, deadline=None)
@given(
    split=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
    rank=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_sweeps_keep_barycenter(split, rank, seed):
    d1, d2 = split
    state = states.random_density(d1, d2, rank=rank, seed=seed)
    base = measures._spectral_rows(state)
    rows, _ = measures._grow_split(base, 2 * base.shape[0], np.ones(base.shape[0]))
    rows = np.ascontiguousarray(rows)
    _, ew = kernels.column_scores(rows, d1, d2)
    before = ew.sum()
    for _ in range(2):
        assert kernels.eof_sweep(rows, ew, d1, d2) >= 0.0
    assert ew.sum() <= before + 1e-12
    assert np.abs(rows.T @ rows.conj() - state.mat).max() < 1e-10


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_fixed_seed_reports_repeat(seed):
    state = states.random_density(2, 2, rank=2, seed=seed)
    for measure in (measures.eof_upper, measures.dcoef_sup):
        first = measure(state, K=4, restarts=2, iters=5, seed=seed)
        second = measure(state, K=4, restarts=2, iters=5, seed=seed)
        assert first.to_json() == second.to_json()
