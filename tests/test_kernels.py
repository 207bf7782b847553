import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entkit import kernels, measures, states

from oracles import SZ, random_hermitian

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


def _value_gradient(u, base, d1, d2):
    """EOF objective and Riemannian gradient at the isometry ``u`` (..., K, r)."""
    objective = kernels._Entropy(base, d1, d2)
    value, parts = objective.value(u, None)
    return value, objective.gradient(u, None, parts)


def _cg_run(state, k, seed, steps):
    """Run ``steps`` CG steps from a random K x r isometry; yield after each.

    Yields (u, line, gain, objective before the step).
    """
    d1, d2 = state.split
    base = measures._spectral_rows(state)
    u = next(measures._random_isometries(k, base.shape[0], seed, 0, 1))
    value, grad = _value_gradient(u, base, d1, d2)
    direction = -grad
    line = np.array([value, 1.0])
    for _ in range(steps):
        before = line[0]
        gain = kernels.eof_sweep(u, grad, direction, line, base, d1, d2)
        yield u, line, gain, before


def test_gradient_matches_finite_differences():
    state = states.random_density(2, 3, rank=3, seed=4)
    base = measures._spectral_rows(state)
    rng = np.random.default_rng(8)
    u = next(measures._random_isometries(7, 3, 5, 0, 1))
    value, grad = _value_gradient(u, base, 2, 3)
    assert abs(value - _entropy_bits(u @ base, 2, 3).sum()) < 1e-12
    # the gradient is tangent: u^+ grad is anti-hermitian
    s = u.conj().T @ grad
    assert np.abs(s + s.conj().T).max() < 1e-12
    z = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
    eta = kernels._tangent(u, z)
    h = 1e-6
    fd = [
        _entropy_bits(kernels._retract(u + sign * h * eta) @ base, 2, 3).sum()
        for sign in (1.0, -1.0)
    ]
    slope = (fd[0] - fd[1]) / (2 * h)
    assert abs(slope - np.vdot(grad, eta).real) < 1e-6 * max(1.0, abs(slope))


@pytest.mark.parametrize("d1,d2", SPLITS)
def test_zero_padded_rows_stay_zero(d1, d2):
    # eof_upper pads its structured starts to K rows to stack them: zero
    # rows added to U have zero gradient and stay exactly zero
    state = states.random_density(d1, d2, rank=3, seed=d1 + 5 * d2)
    base = measures._spectral_rows(state)
    rank = base.shape[0]
    small = next(measures._random_isometries(rank + 1, rank, 7, 0, 1))
    runs = []
    for k in (rank + 1, rank * rank):
        u = np.zeros((k, rank), dtype=np.complex128)
        u[: small.shape[0]] = small
        value, grad = _value_gradient(u, base, d1, d2)
        direction = -grad
        line = np.array([value, 1.0])
        for _ in range(8):
            kernels.eof_sweep(u, grad, direction, line, base, d1, d2)
        runs.append((u, line))
    (u, line), (padded, padded_line) = runs
    assert np.all(padded[u.shape[0] :] == 0.0)
    assert np.abs(padded[: u.shape[0]] - u).max() < 1e-12
    assert abs(padded_line[0] - line[0]) < 1e-12


@settings(max_examples=15, deadline=None)
@given(
    split=st.sampled_from(SPLITS),
    rank=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_sweeps_monotone(split, rank, seed):
    d1, d2 = split
    state = states.random_density(d1, d2, rank=rank, seed=seed)
    base = measures._spectral_rows(state)
    prev = None
    for u, line, gain, before in _cg_run(state, 2 * rank, seed, 10):
        assert gain >= 0.0
        assert abs(line[0] - (before - gain)) <= 1e-12
        # the tracked value is the objective of the rows, which never rises
        total = _entropy_bits(u @ base, d1, d2).sum()
        assert abs(line[0] - total) < 1e-10
        assert prev is None or total <= prev + 1e-12
        prev = total


@settings(max_examples=15, deadline=None)
@given(
    split=st.sampled_from(SPLITS),
    rank=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_sweeps_keep_barycenter(split, rank, seed):
    d1, d2 = split
    state = states.random_density(d1, d2, rank=rank, seed=seed)
    base = measures._spectral_rows(state)
    for u, _, _, _ in _cg_run(state, 2 * rank, seed, 3):
        assert np.abs(u.conj().T @ u - np.eye(rank)).max() <= 1e-12
        rows = u @ base
        assert np.abs(rows.T @ rows.conj() - state.mat).max() < 1e-10


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_fixed_seed_reports_repeat(seed):
    state = states.random_density(2, 2, rank=2, seed=seed)
    for measure in (measures.eof_upper, measures.dcoef_sup):
        first = measure(state, K=4, restarts=2, iters=5, seed=seed)
        second = measure(state, K=4, restarts=2, iters=5, seed=seed)
        assert first.to_json() == second.to_json()


@pytest.mark.parametrize("d1,d2", [(2, 3), (3, 2), (3, 3)])
@settings(max_examples=12, deadline=None)
@given(
    count=st.integers(min_value=2, max_value=6),
    rank=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    data=st.data(),
)
def test_stacked_sweep_matches_single_starts(d1, d2, count, rank, seed, data):
    # each start of a stack steps as it would alone, also a start at a zero
    # gradient (it stays) and one whose direction ascends (steepest descent)
    state = states.random_density(d1, d2, rank=rank, seed=seed)
    base = measures._spectral_rows(state)
    zero, ascent = data.draw(st.permutations(range(count)))[:2]
    starts = []
    for i, u in enumerate(measures._random_isometries(rank + 2, rank, seed, 0, count)):
        value, grad = _value_gradient(u, base, d1, d2)
        direction, line = -grad, np.array([value, 1.0])
        kernels.eof_sweep(u, grad, direction, line, base, d1, d2)  # a conjugate direction
        line[1] = 4.0 / (1 + i)  # each start its own trial step
        if i == zero:
            grad[:], direction[:] = 0.0, 0.0
        if i == ascent:
            direction[:] = grad
        starts.append((u, grad, direction, line))
    stack = [np.array(a) for a in zip(*starts)]
    total = kernels.eof_sweep(*stack, base, d1, d2)
    frozen = starts[zero][0].copy()
    gains = [kernels.eof_sweep(*start, base, d1, d2) for start in starts]
    assert np.array_equal(starts[zero][0], frozen) and gains[zero] == 0.0
    assert gains[ascent] > 0.0
    assert abs(total - sum(gains)) <= 1e-12
    for got, start in zip(zip(*stack), starts):
        for a, b in zip(got, start):
            assert np.abs(a - b).max() <= 1e-12


def _correlation_start(state, a1, a2, u, target=None):
    """kernels._Correlation of one start u, Gram matrices built with np.kron."""
    d1, d2 = state.split
    base = measures._spectral_rows(state)
    ops = [np.eye(d1 * d2), np.kron(a1, np.eye(d2)), np.kron(np.eye(d1), a2)]
    gram = np.concatenate([(base.conj() @ op @ base.T).T for op in ops], axis=1)
    if target is None:
        target = np.trace(state.mat @ np.kron(a1, a2)).real
    c = kernels._Correlation(gram[None], np.array([target]), np.ones(1)).classical(u[None], [0])[0]
    sign = np.sign(target - c)
    return kernels._Correlation(gram[None], np.array([target]), sign), base, ops


def test_correlation_value_and_gradient():
    # c(U) = sum_i q1_i q2_i / q0_i of the rows x = U B, and the gradient of
    # h = sign (target - c) against central differences along a tangent
    state = states.random_density(2, 3, rank=3, seed=4)
    rng = np.random.default_rng(3)
    a1, a2 = random_hermitian(rng, 2), random_hermitian(rng, 3)
    u = next(measures._random_isometries(7, 3, 5, 0, 1))
    objective, base, ops = _correlation_start(state, a1, a2, u)
    rows = u @ base
    q = [np.einsum("ij,jk,ik->i", rows.conj(), op, rows).real for op in ops]
    target = objective.target[0]
    value, parts = objective.value(u[None], [0])
    assert abs(value[0] - abs(target - (q[1] * q[2] / q[0]).sum())) < 1e-13
    grad = objective.gradient(u[None], [0], parts)[0]
    s = u.conj().T @ grad
    assert np.abs(s + s.conj().T).max() < 1e-12  # tangent
    eta = kernels._tangent(u, rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape))
    h = 1e-6
    fd = [objective.value(kernels._retract(u + sgn * h * eta)[None], [0])[0][0] for sgn in (1, -1)]
    slope = (fd[0] - fd[1]) / (2 * h)
    assert abs(slope - np.vdot(grad, eta).real) < 1e-6 * max(1.0, abs(slope))


def test_step_across_the_target_lands_on_it(monkeypatch):
    # a target just below the start's c: the first trial step carries c
    # across it, and the step solves h = 0 on its line instead of moving on
    solved = []
    onto_zero = kernels._onto_zero
    monkeypatch.setattr(kernels, "_onto_zero", lambda *a: solved.append(1) or onto_zero(*a))
    state = states.werner_state(0.3)
    u = next(measures._random_isometries(6, 4, 2, 0, 1))
    objective, base, _ = _correlation_start(state, SZ, SZ, u)
    c = objective.target[0] - objective.sign[0] * objective.value(u[None], [0])[0][0]
    objective, _, _ = _correlation_start(state, SZ, SZ, u, target=c - 1e-3)
    value, parts = objective.value(u[None], [0])
    grad = objective.gradient(u[None], [0], parts)
    line = np.array([[value[0], 1.0]])
    u = u[None].copy()
    kernels._cg_step(u, grad, -grad, line, objective)
    assert solved == [1] and abs(line[0, 0]) <= 1e-15
    assert abs(objective.value(u, [0])[0][0] - line[0, 0]) == 0.0
    assert np.abs(u[0].conj().T @ u[0] - np.eye(4)).max() <= 1e-12


def _entropy_stack():
    """Six starts of EOF on isotropic(0.5, 3), K = 9: the objective's class, arguments and u."""
    base = measures._spectral_rows(states.isotropic_state(0.5, 3))
    u = np.array(list(measures._random_isometries(9, base.shape[0], 3, 0, 6)))
    return kernels._Entropy, (base, 3, 3), u


def _correlation_stack():
    """Six starts of dcoef on werner(0.7), sz ox sz, K = 4, whose |target - c| stays >= 0.42."""
    state = states.werner_state(0.7)
    u = np.array(list(measures._random_isometries(4, 4, 3, 0, 6)))
    one = _correlation_start(state, SZ, SZ, u[0])[0]
    gram, target = np.repeat(one.gram, 6, axis=0), np.repeat(one.target, 6)
    c = kernels._Correlation(gram, target, np.ones(6)).classical(u, np.arange(6))[0]
    return kernels._Correlation, (gram, target, np.sign(target - c)), u


@pytest.mark.parametrize("stack", [_entropy_stack, _correlation_stack], ids=["eof", "dcoef"])
def test_failed_trial_is_followed_by_the_clipped_model_minimizer(stack):
    # after a trial of length t fails the Armijo test, the next trial length
    # is the minimizer of the quadratic through the value and slope at 0 and
    # the value at t, kept in [t / 10, t / 2], for both objectives
    kind, args, u = stack()
    objective = kind(*args)
    value, parts = objective.value(u, np.arange(6))
    grad = objective.gradient(u, np.arange(6), parts)
    direction, line = -grad, np.stack([value, np.ones(u.shape[0])], axis=1)
    for _ in range(12):  # conjugate directions near the minimum, where long trials fail
        objective.step(u, grad, direction, line)
    line[:, 1] = 4.0 * 4.0 ** np.arange(6)  # first trials from the cap up
    start, d, value, length = u.copy(), direction.copy(), line[:, 0].copy(), line[:, 1].copy()
    slope = np.array([np.vdot(g, e).real for g, e in zip(grad, direction)])
    assert (slope < 0.0).all()
    trials = []

    class Recording(kind):
        def value(self, x, idx):
            out = super().value(x, idx)
            trials.append((x.copy(), np.arange(6)[idx], out[0].copy()))
            return out

    kernels._cg_step(u, grad, direction, line, Recording(*args))
    accepted, ratios = set(), []
    for x, idx, new in trials:
        for j, s in enumerate(idx.tolist()):
            assert s not in accepted and new[j] >= kind.floor
            t = length[s]
            assert np.abs(x[j] - kernels._retract(start[s] + t * d[s])).max() < 1e-12
            if new[j] <= value[s] + 0.3 * t * slope[s]:
                accepted.add(s)
                continue
            curve = new[j] - value[s] - slope[s] * t
            assert curve > 0.0  # a failed Armijo test leaves a convex model
            length[s] = min(max(-slope[s] * t * t / (2.0 * curve), 0.1 * t), 0.5 * t)
            ratios.append(length[s] / t)
    assert accepted == set(range(u.shape[0]))
    # the clip at both ends, and a minimizer inside
    assert min(ratios) == pytest.approx(0.1) and max(ratios) == pytest.approx(0.5)
    assert any(0.1 < r < 0.5 for r in ratios)


def test_eof_search_evaluates_under_two_starts_per_start_step(monkeypatch):
    # the three isotropic 3 x 3 searches of the ensemble-search benchmark: a
    # failed trial goes to the model's minimizer instead of halving, so a
    # start is evaluated fewer than twice per step on average
    counts = {"evaluations": 0, "steps": 0}
    value, sweep = kernels._Entropy.value, kernels.eof_sweep

    def counting_value(self, u, idx):
        counts["evaluations"] += u.shape[0]
        return value(self, u, idx)

    def counting_sweep(u, *args):
        counts["steps"] += u.shape[0]
        return sweep(u, *args)

    monkeypatch.setattr(kernels._Entropy, "value", counting_value)
    monkeypatch.setattr(kernels, "eof_sweep", counting_sweep)
    for i, f in enumerate((0.4, 0.5, 0.7)):
        measures.eof_upper(states.isotropic_state(f, 3), K=9, restarts=4, seed=21 + i)
    assert counts["steps"] > 0
    assert counts["evaluations"] <= 2.0 * counts["steps"]
