"""Numpy kernels for the ensemble-rotation searches.

A hermitian eigensolver, the per-member weighted marginal entropies and the
cyclic two-member rotation sweep that drives the entanglement-of-formation
optimizer (the pair-rotation scheme of Audenaert, Verstraete & De Moor,
PRA 64, 052304 (2001)).  Ensembles are stored as (K, n) arrays whose rows
are subnormalized pure-state vectors on a d1 x d2 split.

The sweep scores a rotation of rows a and b from Gram blocks.  With R_a,
R_b the rows reshaped to d x d' matrices (d = min(d1, d2)), the rotated
members have marginals

    M_a = c^2 G_aa + s^2 G_bb - cs (cos(phi) X + sin(phi) Y)
    M_b = s^2 G_aa + c^2 G_bb + cs (cos(phi) X + sin(phi) Y)

where G_aa = R_a R_a^+, G_bb = R_b R_b^+, X = G_ab + G_ab^+ and
Y = -i (G_ab - G_ab^+) with G_ab = R_a R_b^+.  Scoring a candidate grid is
then one real (N, 4) @ (4, 2 d^2) product followed by one batched spectrum:
in closed form for d = 2, through eigvalsh otherwise.
"""

import numpy as np

from . import _grids


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


def _spectra(m):
    """Eigenvalues of a stack of hermitian (N, d, d) matrices, clipped at zero."""
    if m.shape[-1] == 2:
        a = m[:, 0, 0].real
        b = m[:, 1, 1].real
        mid = 0.5 * (a + b)
        disc = np.hypot(0.5 * (a - b), np.abs(m[:, 1, 0]))
        lam = np.empty((m.shape[0], 2))
        np.subtract(mid, disc, out=lam[:, 0])
        np.add(mid, disc, out=lam[:, 1])
    else:
        lam = np.linalg.eigvalsh(m)
    return np.maximum(lam, 0.0, out=lam)


def _weighted_entropies(m):
    """Weights p = tr M and weighted entropies p * S(M / p) in bits.

    Members below the weight floor report zero entropy.
    """
    lam = _spectra(m)
    p = lam.sum(axis=1)
    heavy = p > _grids.WEIGHT_FLOOR
    nu = lam / np.where(heavy, p, 1.0)[:, None]
    nu[nu <= _grids.ENTROPY_FLOOR] = 1.0  # no entropy below the floor
    ew = -np.einsum("ij,ij->i", lam, np.log2(nu, out=nu))
    ew[~heavy] = 0.0
    return p, ew


def _scores(rows, d1, d2):
    """``column_scores`` of complex rows, as the sweep calls it internally."""
    r = _blocks(rows, d1, d2)
    return _weighted_entropies(r @ r.conj().transpose(0, 2, 1))


def column_scores(ens, d1, d2):
    """Per-member weights and weighted marginal entropies (bits)."""
    return _scores(np.ascontiguousarray(ens, dtype=np.complex128), d1, d2)


def _coefficients(thetas, phis):
    """(T P, 4) weights of (G_aa, G_bb, X, Y) in M_a, theta-major over the grid."""
    c = np.cos(thetas)[:, None]
    s = np.sin(thetas)[:, None]
    coef = np.empty((thetas.shape[0], phis.shape[0], 4))
    coef[:, :, 0] = c * c
    coef[:, :, 1] = s * s
    coef[:, :, 2] = -c * s * np.cos(phis)
    coef[:, :, 3] = -c * s * np.sin(phis)
    return coef.reshape(-1, 4)


def _stencil(thetas, phis):
    """Candidate table on a T x P grid: (weights, rows of M_a, rows of M_b).

    Rotating by (theta, phi) gives row b the marginal that row a gets at
    (pi/2 - theta, phi + pi).
    """
    n = thetas.shape[0] * phis.shape[0]
    coef = np.concatenate(
        [_coefficients(thetas, phis), _coefficients(np.pi / 2 - thetas, phis + np.pi)]
    )
    return coef, np.arange(n), np.arange(n, 2 * n)


# On the coarse grid (pi/2 - theta, phi + pi) is itself a grid point: THETAS
# is symmetric about pi/4 and PHIS is an even-length full circle.  Row b's
# marginals are then a permutation of row a's, and only half are computed.
_NT = _grids.THETAS.shape[0]
_NP = _grids.PHIS.shape[0]
_MIRROR = np.add.outer(
    (_NT - 1 - np.arange(_NT)) * _NP, (np.arange(_NP) + _NP // 2) % _NP
).ravel()
_COARSE = (_coefficients(_grids.THETAS, _grids.PHIS), np.arange(_NT * _NP), _MIRROR)

_CHUNK_PAIRS = 16


def _pair_bases(ens, a, b, d1, d2):
    """(P, 4, 2 d^2) real views of G_aa, G_bb, X, Y for the row pairs (a, b).

    ``a`` and ``b`` are index arrays of length P.
    """
    r = _blocks(ens, d1, d2)
    ra, rb = r[a], r[b]
    gab = ra @ rb.conj().transpose(0, 2, 1)
    gba = gab.conj().transpose(0, 2, 1)
    d = r.shape[1]
    basis = np.empty((len(a), 4, d, d), dtype=np.complex128)
    basis[:, 0] = ra @ ra.conj().transpose(0, 2, 1)
    basis[:, 1] = rb @ rb.conj().transpose(0, 2, 1)
    basis[:, 2] = gab + gba
    basis[:, 3] = -1j * (gab - gba)
    return basis.reshape(len(a), 4, -1).view(np.float64)


def _pair_objective(table, bases, d):
    """(P, N) summed weighted entropies of both rotated members per candidate."""
    coef, rows_a, rows_b = table
    m = (coef @ bases).view(np.complex128)
    _, ew = _weighted_entropies(m.reshape(-1, d, d))
    ew = ew.reshape(m.shape[0], -1)
    return ew[:, rows_a] + ew[:, rows_b]


def _best_rotation(score, coarse, base):
    """(theta, phi) of the best pair rotation, or None if it gains too little.

    ``coarse`` holds the objective at the coarse grid points, theta-major.
    The best of them is refined over REFINE_ROUNDS 3 x 3 stencils of halving
    steps; ``score(cand_th, cand_ph)`` returns the objective at the 9 points
    of one stencil, theta-major, for two lists of 3 floats.  The first
    minimum wins ties.  The result must beat ``base``, the unrotated
    objective, by ACCEPT_EPS.
    """
    idx = int(np.argmin(coarse))
    best = coarse[idx]
    if best >= base - _grids.ACCEPT_EPS:
        return None
    th = float(_grids.THETAS[idx // _NP])
    ph = float(_grids.PHIS[idx % _NP])
    dth = _grids.THETA_STEP0
    dph = _grids.PHI_STEP0
    lo, hi = 1e-9, np.pi / 2 - 1e-9
    for _ in range(_grids.REFINE_ROUNDS):
        cand_th = [min(max(t, lo), hi) for t in (th - dth, th, th + dth)]
        cand_ph = [ph - dph, ph, ph + dph]
        vals = score(cand_th, cand_ph)
        idx = min(range(9), key=vals.__getitem__)
        if vals[idx] < best:
            best = vals[idx]
            th = cand_th[idx // 3]
            ph = cand_ph[idx % 3]
        dth *= 0.5
        dph *= 0.5
    if best >= base - _grids.ACCEPT_EPS:
        return None
    return th, ph


def _rotate(rows, a, b, th, ph):
    """Apply the rotation (theta, phi) to rows a and b in place."""
    c = np.cos(th)
    s = np.sin(th)
    z = np.exp(1j * ph)
    wa = rows[a].copy()
    rows[a] = c * wa - s * z * rows[b]
    rows[b] = s * z.conjugate() * wa + c * rows[b]


def eof_sweep(ens, ew, d1, d2):
    """One cyclic pass of two-member rotations, minimizing sum(ew).

    ``ens`` (K, n) and its weighted-entropy cache ``ew`` (K,) are updated
    in place; returns the total objective improvement of the pass.
    """
    k = ens.shape[0]
    d = min(d1, d2)
    pairs_a, pairs_b = np.triu_indices(k, 1)
    # With the closed-form 2 x 2 spectrum a candidate costs far less than a
    # numpy call, so all coarse grids are scored in one batch up front and a
    # pair is scored again only if a row of it was rotated earlier in this
    # pass.  Larger marginals go through eigvalsh, whose cost per matrix
    # dominates, so there each pair is scored once, when its turn comes.
    # The batch runs in chunks of _CHUNK_PAIRS pairs to bound its memory.
    if d == 2 and k > 1:
        bases = _pair_bases(ens, pairs_a, pairs_b, d1, d2)
        coarse = np.concatenate(
            [
                _pair_objective(_COARSE, bases[i : i + _CHUNK_PAIRS], d)
                for i in range(0, len(bases), _CHUNK_PAIRS)
            ]
        )
        stale = np.zeros(k, dtype=bool)
    else:
        stale = np.ones(k, dtype=bool)
    gained = 0.0
    for i, (a, b) in enumerate(zip(pairs_a.tolist(), pairs_b.tolist())):
        if stale[a] or stale[b]:
            basis = _pair_bases(ens, [a], [b], d1, d2)
            vals = _pair_objective(_COARSE, basis, d)[0]
        else:
            basis = bases[i : i + 1]
            vals = coarse[i]
        base = ew[a] + ew[b]
        rot = _best_rotation(
            lambda th, ph, basis=basis: _pair_objective(
                _stencil(np.array(th), np.array(ph)), basis, d
            )[0].tolist(),
            vals,
            base,
        )
        if rot is None:
            continue
        _rotate(ens, a, b, *rot)
        _, pair_ew = _scores(ens[[a, b]], d1, d2)
        gained += base - (pair_ew[0] + pair_ew[1])
        ew[a] = pair_ew[0]
        ew[b] = pair_ew[1]
        stale[a] = stale[b] = True
    return gained
