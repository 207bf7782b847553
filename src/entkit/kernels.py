"""Numpy kernels of the ensemble searches: EOF and the correlation coefficient.

A hermitian eigensolver, the per-member weighted marginal entropies, the
two objectives and the one Riemannian conjugate-gradient step both searches
run.  Each objective (``_Entropy``, ``_Correlation``) gives its value and
gradient, and says how a start steps (``step``) and how an ended start is
scored (``score``), so ``measures._StartScan`` drives both searches the
same way.  It also sets the step's line search: the longest trial
(``max_step``), a floor the value may not cross (``floor``), and whether a
failed trial is followed by the minimizer of the line's quadratic model
(``interpolate``: EOF; Nocedal & Wright, Numerical Optimization, sec. 3.5)
or by half its length (``dcoef``).  Ensembles are (K, n) arrays of
subnormalized pure-state rows on a d1 x d2 split.  Following Audenaert,
Verstraete & De Moor, PRA 64, 052304 (2001), every size-K pure ensemble of
a state is X = U B, with B the (r, n) spectral rows and U a K x r
isometry, so both searches run on the Stiefel manifold of such U, a stack
(S, K, r) of starts at a time: the Riemannian gradient is the tangent part
G_U - U sym(U^+ G_U) of the Euclidean one and the QR factor of U + t D is
the retraction.  For EOF (``_Entropy``), with
R_i row i as a d x d' matrix (d = min(d1, d2)), M_i = R_i R_i^+ and
p_i = tr M_i, the objective sum_i p_i S(M_i / p_i) has
G_R,i = 2 (log p_i I - log M_i) R_i / ln 2, rows G_X and G_U = G_X B^+.
"""

import numpy as np

# Ensemble members lighter than this carry no objective weight.
WEIGHT_FLOOR = 1e-14
# Normalised eigenvalues at or below this floor contribute zero entropy, here
# and in states.entropy_of_eigenvalues.
ENTROPY_FLOOR = 1e-12
# Eigenvalues are clipped here inside the logarithm of the gradient, which
# would otherwise blow up as a marginal becomes pure.
_LOG_FLOOR = 1e-15
# Sufficient-decrease constant of the Armijo test.  The first trial is 4
# times the last accepted step (at most _MAX_STEP); a failed one is followed
# by half its length or, for EOF, by the minimizer of the line's quadratic
# model.  A weak constant such as 1e-4 accepts steps far past the minimum
# along the line, which spoils the conjugate directions: certificate-free
# separable 2 x 3 states then stall near 1e-8.
_ARMIJO = 0.3
_MAX_STEP = 4.0
_MIN_STEP = 1e-12
# A step that carries an objective with floor 0 below zero is solved back
# onto zero until |objective| <= _ZERO_TOL, in at most _ZERO_ROUNDS rounds.
_ZERO_TOL = 1e-15
_ZERO_ROUNDS = 60


def eigh(h):
    """Eigendecomposition of a hermitian matrix, or of a stack (..., n, n).

    Returns (w, v) with eigenvalues ascending and orthonormal eigenvector
    columns, per matrix of the stack.  The input is assumed hermitian;
    callers symmetrize first.
    """
    return np.linalg.eigh(h)


def _blocks(rows, d1, d2):
    """Rows (..., K, n) as (..., K, d, d') matrices whose R R^+ carries the marginal spectrum.

    d = min(d1, d2): the leg-1 marginal R R^+ of a d1 x d2 matrix R has the
    nonzero spectrum of R^+ R, whose complex conjugate is R^T (R^T)^+.
    """
    r = rows.reshape(rows.shape[:-1] + (d1, d2))
    return r if d1 <= d2 else r.swapaxes(-1, -2)


def _inner(a, b):
    """Re <a, b> per matrix of a stack (..., K, r), summed in np.vdot's order."""
    n = a.shape[-2] * a.shape[-1]
    a, b = a.reshape(a.shape[:-2] + (1, n)), b.reshape(b.shape[:-2] + (n, 1))
    return (a.conj() @ b)[..., 0, 0].real


def column_scores(ens, d1, d2):
    """Per-member weights p = tr M and weighted marginal entropies p S(M / p), in bits.

    Members below the weight floor report zero entropy.
    """
    r = _blocks(np.ascontiguousarray(ens, dtype=np.complex128), d1, d2)
    lam = np.maximum(np.linalg.eigvalsh(r @ r.conj().swapaxes(-1, -2)), 0.0)
    p = lam.sum(axis=1)
    heavy = p > WEIGHT_FLOOR
    nu = lam / np.where(heavy, p, 1.0)[:, None]
    nu[nu <= ENTROPY_FLOOR] = 1.0  # no entropy below the floor
    ew = -np.einsum("ij,ij->i", lam, np.log2(nu, out=nu))
    ew[~heavy] = 0.0
    return p, ew


def _tangent(u, z):
    """Component of ``z`` tangent to the Stiefel manifold at ``u``: z - u sym(u^+ z)."""
    s = u.conj().swapaxes(-1, -2) @ z
    return z - u @ (0.5 * (s + s.conj().swapaxes(-1, -2)))


def _retract(y):
    """Q factor of y with a positive real diagonal in R: the QR retraction."""
    q, r = np.linalg.qr(y)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


class _Entropy:
    """The EOF objective of the rows u @ base (base (r, n), or (S, r, n) by start), for _cg_step."""

    floor = -np.inf  # never crossed
    max_step = _MAX_STEP
    interpolate = True

    def __init__(self, base, d1, d2):
        self.base, self.d1, self.d2 = base, d1, d2

    def value(self, u, idx):
        """Objective in bits per isometry (..., K, r), and (R, V, log p - log lam) per member.

        One stacked eigendecomposition of the marginals gives both.
        """
        r = _blocks(u @ self._base(idx), self.d1, self.d2)
        lam, v = eigh(r @ r.conj().swapaxes(-1, -2))
        lam = np.maximum(lam, 0.0)
        p = lam.sum(axis=-1)
        log_lam = np.log(np.maximum(lam, _LOG_FLOOR))
        log_p = np.log(np.maximum(p, _LOG_FLOOR))
        value = _inner(p[..., None], log_p[..., None]) - np.einsum("...ij,...ij->...", lam, log_lam)
        return value / np.log(2.0), (r, v, log_p[..., None] - log_lam)

    def gradient(self, u, idx, parts):
        r, v, log_ratio = parts
        g = (v * log_ratio[..., None, :]) @ (v.conj().swapaxes(-1, -2) @ r) * (2.0 / np.log(2.0))
        if self.d1 > self.d2:
            g = g.swapaxes(-1, -2)
        base = self._base(idx).conj().swapaxes(-1, -2)
        return _tangent(u, g.reshape(u.shape[:-1] + (self.d1 * self.d2,)) @ base)

    def _base(self, idx):
        return self.base if self.base.ndim == 2 else self.base[idx]

    def step(self, u, grad, direction, line):
        return eof_sweep(u, grad, direction, line, self.base, self.d1, self.d2)

    def score(self, rows, h):
        """The value of the final rows, recomputed with the entropy floor of ``column_scores``."""
        return float(column_scores(rows, self.d1, self.d2)[1].sum())


class _Correlation:
    """The dcoef objective h(U) = sign (target - c(U)) of a stack of starts.

    Start s holds a K x r isometry U_s, and its rows x_i = (U_s B)_i are a
    pure ensemble of the state.  Its observables enter only through the
    r x r Gram matrices G_j = conj(B) A_j B^T of A_0 = 1 (diag(lam)),
    A_1 = a1 ox 1 and A_2 = 1 ox a2, stored transposed side by side in
    ``gram[s]`` (r, 3r).  Then q_j,i = <x_i|A_j|x_i> = (conj(U) G_j U^T)_ii
    and c(U) = sum_i q1_i q2_i / q0_i, rows lighter than WEIGHT_FLOOR
    counting zero.  ``sign[s]`` is the sign of target - c at the start, so
    h >= 0 is minimized, and h < 0 means c has crossed the target: the
    step then solves h = 0 on its line (the floor 0).  ``idx`` picks the
    starts of the stack that the isometries ``u`` belong to.
    """

    floor = 0.0
    max_step = _MAX_STEP
    interpolate = False

    def __init__(self, gram, target, sign):
        self.gram, self.target, self.sign = gram, target, sign

    def classical(self, u, idx):
        """c(U) per isometry, and the parts its gradient needs."""
        v = (u @ self.gram[idx]).reshape(u.shape[:-1] + (3, u.shape[-1]))  # U G_j^T
        q = (u.conj()[..., None, :] * v).real.sum(axis=-1)
        heavy = q[..., 0] > WEIGHT_FLOOR
        p = np.where(heavy, q[..., 0], 1.0)
        a, b = np.where(heavy, q[..., 2] / p, 0.0), np.where(heavy, q[..., 1] / p, 0.0)
        return (a * q[..., 1]).sum(axis=-1), (v, a[..., None], b[..., None])

    def value(self, u, idx):
        c, parts = self.classical(u, idx)
        return self.sign[idx] * (self.target[idx] - c), parts

    def gradient(self, u, idx, parts):
        """Gradient of h: -sign times 2 (a U G1^T + b U G2^T - a b U G0^T), projected."""
        v, a, b = parts
        g = a * v[..., 1, :] + b * v[..., 2, :] - (a * b) * v[..., 0, :]
        return _tangent(u, (-2.0 * self.sign[idx])[:, None, None] * g)

    def step(self, u, grad, direction, line):
        return _cg_step(u, grad, direction, line, self)

    def score(self, rows, h):
        return abs(float(h))


def _onto_zero(u, direction, step, high, low, trial, objective, idx):
    """Points where the objective is zero on the retracted line u + t direction.

    Per start the objective is ``high`` > 0 at t = 0 and ``low`` < 0 at
    t = ``step``, whose point is ``trial``.  Illinois regula falsi shrinks
    [0, step] until the objective is at most _ZERO_TOL in magnitude, the
    bracket stops shrinking or _ZERO_ROUNDS run out.  Returns the points of
    smallest magnitude and their objective values.
    """
    bracket, ends = np.stack([np.zeros_like(step), step], axis=1), np.stack([high, low], axis=1)
    side = np.full(step.shape[0], -1)  # the end the last round replaced
    near = high < -low
    best, value = np.where(near[:, None, None], u, trial), np.where(near, high, low)
    live = np.arange(step.shape[0])
    for _ in range(_ZERO_ROUNDS):
        live = live[np.abs(value[live]) > _ZERO_TOL]
        (t_lo, t_hi), (f_lo, f_hi) = bracket[live].T, ends[live].T
        t = (t_lo * f_hi - t_hi * f_lo) / (f_hi - f_lo)
        moved = (t_lo < t) & (t < t_hi)
        live, t = live[moved], t[moved]
        if not live.size:
            break
        point = _retract(u[live] + t[:, None, None] * direction[live])
        f = objective.value(point, idx[live])[0]
        closer = np.abs(f) < np.abs(value[live])
        best[live[closer]], value[live[closer]] = point[closer], f[closer]
        end = (f < 0.0).astype(int)
        bracket[live, end], ends[live, end] = t, f
        twice = side[live] == end  # Illinois: the end kept twice has its value halved
        ends[live[twice], 1 - end[twice]] *= 0.5
        side[live] = end
    return best, value


def _cg_step(u, grad, direction, line, objective):
    """One Riemannian conjugate-gradient step per isometry of the stack ``u``, in place.

    ``u`` (S, K, r) holds independent starts, each minimizing ``objective``:
    ``objective.value(x, idx)`` gives the values and gradient parts of
    isometries x of the starts ``idx`` of the stack, and
    ``objective.gradient(x, idx, parts)`` their Riemannian gradients.
    ``u``, its gradient ``grad``, the search direction ``direction`` and
    ``line`` ((S, 2): the objective at u and the next trial step length) are
    updated in place.  Each start backtracks from its trial length until
    the Armijo condition holds, evaluating only the starts still
    backtracking.  With ``objective.interpolate`` a failed trial of length
    s is followed by the minimizer of the quadratic through the value and
    slope at 0 and the value at s, kept in [s / 10, s / 2] (s / 2 if that
    model is not convex); otherwise by s / 2.  The start then moves to the
    retracted point, sets its next trial length to 4 times the accepted one
    (at most ``objective.max_step``), and takes the Polak-Ribiere+ direction
    with the old direction and gradient projected onto the new tangent
    space.  A trial below ``objective.floor`` (0, or -inf for none) ends the
    line search on zero (``_onto_zero``), its gradient and direction left as
    they were.  A start does not move at a zero gradient or when no step
    length down to 1e-12 decreases it enough.  Returns the objective
    decrease summed over the stack.
    """
    value, t = line[:, 0].copy(), line[:, 1].copy()
    slope = _inner(grad, direction)
    reset = slope >= 0.0  # not a descent direction: steepest descent
    direction[reset] = -grad[reset]
    slope[reset] = -_inner(grad[reset], grad[reset])
    pending = np.flatnonzero(slope < 0.0)  # a zero gradient does not step
    while pending.size:
        step = t[pending]
        trial = _retract(u[pending] + step[:, None, None] * direction[pending])
        new, parts = objective.value(trial, pending)
        crossed = new < objective.floor
        ok = ~crossed & (new <= value[pending] + _ARMIJO * step * slope[pending])
        if ok.any():
            done, trial_ok, new_ok = pending[ok], trial[ok], new[ok]
            parts = tuple(a[ok] for a in parts)
            new_grad = objective.gradient(trial_ok, done, parts)
            old_grad = grad[done]
            beta = _inner(new_grad, new_grad - _tangent(trial_ok, old_grad))
            beta = np.maximum(0.0, beta / _inner(old_grad, old_grad))[:, None, None]
            direction[done] = beta * _tangent(trial_ok, direction[done]) - new_grad
            u[done], grad[done], line[done, 0] = trial_ok, new_grad, new_ok
            line[done, 1] = np.minimum(4.0 * step[ok], objective.max_step)
        if crossed.any():
            at = pending[crossed]
            u[at], line[at, 0] = _onto_zero(
                u[at], direction[at], step[crossed], value[at], new[crossed], trial[crossed],
                objective, at,
            )
        failed = ~(ok | crossed)
        pending = pending[failed]
        if objective.interpolate:  # the model value + slope s + c s^2 meets new at s = step
            step, new = step[failed], new[failed]
            curve = new - value[pending] - slope[pending] * step  # c step^2
            convex = curve > 0.0  # always after a failed Armijo test, unless new is NaN
            best = -slope[pending] * step * step / (2.0 * np.where(convex, curve, 1.0))
            t[pending] = np.where(convex, np.clip(best, 0.1 * step, 0.5 * step), 0.5 * step)
        else:
            t[pending] *= 0.5
        pending = pending[t[pending] >= _MIN_STEP]
    return float((value - line[:, 0]).sum())


def eof_sweep(u, grad, direction, line, base, d1, d2):
    """One Riemannian conjugate-gradient step of the EOF objective per isometry of ``u``.

    ``u`` is one isometry (K, r) or a stack (S, K, r) of independent starts,
    each minimizing the objective of its rows u @ base (as ``_Entropy``); ``grad``,
    ``direction`` and ``line`` ((2,) or (S, 2)) are as in ``_cg_step``,
    which does the step in place with a trial length of at most 4 and, after
    a failed trial, the minimizer of the line's quadratic model.  Returns
    the objective decrease summed over the stack.
    """
    if u.ndim == 2:  # one isometry: a stack of one, through views
        u, grad, direction, line = u[None], grad[None], direction[None], line[None]
    return _cg_step(u, grad, direction, line, _Entropy(base, d1, d2))
