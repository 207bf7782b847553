"""Numpy kernels of the entanglement-of-formation search.

A hermitian eigensolver, the per-member weighted marginal entropies and the
Riemannian conjugate-gradient step of the EOF optimizer, plus the weight
and entropy floors they apply.  Ensembles are stored as (K, n) arrays whose
rows are subnormalized pure-state vectors on a d1 x d2 split.

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
# Normalised eigenvalues at or below this floor contribute zero entropy.
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
    """Rows as (K, d, d') matrices whose R R^+ carries the marginal spectrum.

    d = min(d1, d2): the leg-1 marginal R R^+ of a d1 x d2 matrix R has the
    nonzero spectrum of R^+ R, whose complex conjugate is R^T (R^T)^+.
    """
    r = rows.reshape(rows.shape[0], d1, d2)
    return r if d1 <= d2 else r.transpose(0, 2, 1)


def column_scores(ens, d1, d2):
    """Per-member weights p = tr M and weighted marginal entropies p S(M / p), in bits.

    Members below the weight floor report zero entropy.
    """
    r = _blocks(np.ascontiguousarray(ens, dtype=np.complex128), d1, d2)
    lam = np.maximum(np.linalg.eigvalsh(r @ r.conj().transpose(0, 2, 1)), 0.0)
    p = lam.sum(axis=1)
    heavy = p > WEIGHT_FLOOR
    nu = lam / np.where(heavy, p, 1.0)[:, None]
    nu[nu <= ENTROPY_FLOOR] = 1.0  # no entropy below the floor
    ew = -np.einsum("ij,ij->i", lam, np.log2(nu, out=nu))
    ew[~heavy] = 0.0
    return p, ew


def _objective(u, base, d1, d2):
    """Objective at the isometry ``u`` and the parts its gradient needs.

    One stacked eigendecomposition of the marginals gives both.  Returns
    the value in bits and (R, V, log p - log lam) per member.
    """
    r = _blocks(u @ base, d1, d2)
    lam, v = eigh(r @ r.conj().transpose(0, 2, 1))
    lam = np.maximum(lam, 0.0)
    p = lam.sum(axis=1)
    log_lam = np.log(np.maximum(lam, _LOG_FLOOR))
    log_p = np.log(np.maximum(p, _LOG_FLOOR))
    value = (p @ log_p - np.einsum("ij,ij->", lam, log_lam)) / np.log(2.0)
    return float(value), (r, v, log_p[:, None] - log_lam)


def _tangent(u, z):
    """Component of ``z`` tangent to the Stiefel manifold at ``u``: z - u sym(u^+ z)."""
    s = u.conj().T @ z
    return z - u @ (0.5 * (s + s.conj().T))


def _gradient(u, base, d1, d2, parts):
    """Riemannian gradient at ``u`` from the parts returned by ``_objective``."""
    r, v, log_ratio = parts
    vh = v.conj().transpose(0, 2, 1)
    g = (v * log_ratio[:, None, :]) @ (vh @ r) * (2.0 / np.log(2.0))
    if d1 > d2:
        g = g.transpose(0, 2, 1)
    return _tangent(u, g.reshape(u.shape[0], -1) @ base.conj().T)


def _value_gradient(u, base, d1, d2):
    """Objective and Riemannian gradient at the isometry ``u`` (K, r)."""
    value, parts = _objective(u, base, d1, d2)
    return value, _gradient(u, base, d1, d2, parts)


def _retract(y):
    """Q factor of y with a positive real diagonal in R: the QR retraction."""
    q, r = np.linalg.qr(y)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def eof_sweep(u, grad, direction, line, base, d1, d2):
    """One Riemannian conjugate-gradient step on the isometry ``u``, in place.

    Minimizes the objective of the rows u @ base.  ``u`` (K, r), its
    Riemannian gradient ``grad`` and the search direction ``direction``
    are updated in place, as is ``line``, which holds the objective at u and
    the next trial step length.  The step backtracks from the trial length
    by halving until the Armijo condition holds, moves to the retracted
    point, sets the next trial length to 4 times the accepted one (at most
    4), and takes the Polak-Ribiere+ direction with the old direction and
    gradient projected onto the new tangent space.  Returns the objective
    decrease, 0.0 at a zero gradient or when no step length down to 1e-12
    decreases it enough.
    """
    value, t = line
    slope = np.vdot(grad, direction).real
    if slope >= 0.0:  # not a descent direction: steepest descent
        direction[:] = -grad
        slope = -np.vdot(grad, grad).real
        if slope == 0.0:
            return 0.0
    while True:
        trial = _retract(u + t * direction)
        new, parts = _objective(trial, base, d1, d2)
        if new <= value + _ARMIJO * t * slope:
            break
        t *= 0.5
        if t < _MIN_STEP:
            return 0.0
    new_grad = _gradient(trial, base, d1, d2, parts)
    beta = np.vdot(new_grad, new_grad - _tangent(trial, grad)).real
    beta = max(0.0, beta / np.vdot(grad, grad).real)
    direction[:] = beta * _tangent(trial, direction) - new_grad
    u[:] = trial
    grad[:] = new_grad
    line[:] = new, min(4.0 * t, _MAX_STEP)
    return value - new
