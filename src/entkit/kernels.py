"""Numpy kernels of the entanglement-of-formation search.

A hermitian eigensolver, the per-member weighted marginal entropies and the
Riemannian conjugate-gradient step of the EOF optimizer, plus the weight
and entropy floors they apply.  Ensembles are stored as (K, n) arrays whose
rows are subnormalized pure-state vectors on a d1 x d2 split.  The step
also takes a stack (S, K, r) of starts, and returns their summed gain.

The EOF step follows Audenaert, Verstraete & De Moor, PRA 64, 052304
(2001).  Every size-K pure ensemble of a state is X = U B, with B the
(r, n) spectral rows and U a K x r isometry (U^+ U = I), so the search
runs on the Stiefel manifold of such U.  With R_i row i reshaped to a
d x d' matrix (d = min(d1, d2)), M_i = R_i R_i^+ and p_i = tr M_i, the
objective sum_i p_i S(M_i / p_i) has the Euclidean gradient
G_R,i = 2 (log p_i I - log M_i) R_i / ln 2.  Written back as rows G_X,
it gives G_U = G_X B^+, and the Riemannian gradient is the tangent
component G_U - U sym(U^+ G_U).
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
# times the last accepted step, and a weak constant such as 1e-4 accepts
# steps far past the minimum along the line, which spoils the conjugate
# directions: certificate-free separable 2 x 3 states then stall near 1e-8.
_ARMIJO = 0.3
_MAX_STEP = 4.0
_MIN_STEP = 1e-12


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


def _objective(u, base, d1, d2):
    """Objective at the isometry ``u`` (..., K, r) and the parts its gradient needs.

    One stacked eigendecomposition of the marginals gives both.  Returns
    the value in bits per isometry and (R, V, log p - log lam) per member.
    """
    r = _blocks(u @ base, d1, d2)
    lam, v = eigh(r @ r.conj().swapaxes(-1, -2))
    lam = np.maximum(lam, 0.0)
    p = lam.sum(axis=-1)
    log_lam = np.log(np.maximum(lam, _LOG_FLOOR))
    log_p = np.log(np.maximum(p, _LOG_FLOOR))
    value = _inner(p[..., None], log_p[..., None]) - np.einsum("...ij,...ij->...", lam, log_lam)
    return value / np.log(2.0), (r, v, log_p[..., None] - log_lam)


def _tangent(u, z):
    """Component of ``z`` tangent to the Stiefel manifold at ``u``: z - u sym(u^+ z)."""
    s = u.conj().swapaxes(-1, -2) @ z
    return z - u @ (0.5 * (s + s.conj().swapaxes(-1, -2)))


def _gradient(u, base, d1, d2, parts):
    """Riemannian gradient at ``u`` from the parts returned by ``_objective``."""
    r, v, log_ratio = parts
    g = (v * log_ratio[..., None, :]) @ (v.conj().swapaxes(-1, -2) @ r) * (2.0 / np.log(2.0))
    if d1 > d2:
        g = g.swapaxes(-1, -2)
    return _tangent(u, g.reshape(u.shape[:-1] + (d1 * d2,)) @ base.conj().T)


def _value_gradient(u, base, d1, d2):
    """Objective and Riemannian gradient at the isometry ``u`` (..., K, r)."""
    value, parts = _objective(u, base, d1, d2)
    return value, _gradient(u, base, d1, d2, parts)


def _retract(y):
    """Q factor of y with a positive real diagonal in R: the QR retraction."""
    q, r = np.linalg.qr(y)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def eof_sweep(u, grad, direction, line, base, d1, d2):
    """One Riemannian conjugate-gradient step per isometry of ``u``, in place.

    ``u`` is one isometry (K, r) or a stack (S, K, r) of independent starts,
    each minimizing the objective of its rows u @ base.  ``u``, its
    Riemannian gradient ``grad``, the search direction ``direction`` and
    ``line`` ((2,) or (S, 2): the objective at u and the next trial step
    length) are updated in place.  Each start backtracks from its trial
    length by halving until the Armijo condition holds, evaluating only the
    starts still backtracking, moves to the retracted point, sets its next
    trial length to 4 times the accepted one (at most 4), and takes the
    Polak-Ribiere+ direction with the old direction and gradient projected
    onto the new tangent space.  A start does not move at a zero gradient or
    when no step length down to 1e-12 decreases it enough.  Returns the
    objective decrease summed over the stack.
    """
    if u.ndim == 2:  # one isometry: a stack of one, through views
        u, grad, direction, line = u[None], grad[None], direction[None], line[None]
    value, t = line[:, 0].copy(), line[:, 1].copy()
    slope = _inner(grad, direction)
    reset = slope >= 0.0  # not a descent direction: steepest descent
    direction[reset] = -grad[reset]
    slope[reset] = -_inner(grad[reset], grad[reset])
    pending = np.flatnonzero(slope < 0.0)  # a zero gradient does not step
    while pending.size:
        step = t[pending]
        trial = _retract(u[pending] + step[:, None, None] * direction[pending])
        new, parts = _objective(trial, base, d1, d2)
        ok = new <= value[pending] + _ARMIJO * step * slope[pending]
        if ok.any():
            done, trial, new = pending[ok], trial[ok], new[ok]
            parts = tuple(a[ok] for a in parts)
            new_grad = _gradient(trial, base, d1, d2, parts)
            old_grad = grad[done]
            beta = _inner(new_grad, new_grad - _tangent(trial, old_grad))
            beta = np.maximum(0.0, beta / _inner(old_grad, old_grad))[:, None, None]
            direction[done] = beta * _tangent(trial, direction[done]) - new_grad
            u[done], grad[done], line[done, 0] = trial, new_grad, new
            line[done, 1] = np.minimum(4.0 * step[ok], _MAX_STEP)
        pending = pending[~ok]
        t[pending] *= 0.5
        pending = pending[t[pending] >= _MIN_STEP]
    return float((value - line[:, 0]).sum())
