"""Independent reference computations used to freeze expected values.

Everything here deliberately avoids the package's own code paths: partial
transposes are explicit index permutations, eigenproblems go through
numpy.linalg directly, and the entanglement of formation uses the
closed forms of Wootters (two qubits), Terhal-Vollbrecht (isotropic states)
and Vollbrecht-Werner (d x d Werner states).  Positivity and
decomposability of the generalized Choi maps follow Cho, Kye & Lee.
"""

import functools

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def pt_reference(mat, d1, d2, leg):
    """Partial transpose by explicit index permutation."""
    out = np.zeros_like(np.asarray(mat, dtype=complex))
    for i in range(d1):
        for k in range(d2):
            for j in range(d1):
                for l in range(d2):
                    if leg == 2:
                        out[i * d2 + k, j * d2 + l] = mat[i * d2 + l, j * d2 + k]
                    else:
                        out[i * d2 + k, j * d2 + l] = mat[j * d2 + k, i * d2 + l]
    return out


def trace_out_reference(mat, d1, d2, keep):
    """Partial trace by explicit summation."""
    if keep == 1:
        out = np.zeros((d1, d1), dtype=complex)
        for i in range(d1):
            for j in range(d1):
                for k in range(d2):
                    out[i, j] += mat[i * d2 + k, j * d2 + k]
    else:
        out = np.zeros((d2, d2), dtype=complex)
        for k in range(d2):
            for l in range(d2):
                for i in range(d1):
                    out[k, l] += mat[i * d2 + k, i * d2 + l]
    return out


def binary_entropy(x):
    h = 0.0
    for t in (x, 1.0 - x):
        if t > 1e-15:
            h -= t * np.log2(t)
    return h


def wootters_eof(rho):
    """Exact two-qubit entanglement of formation from ``concurrence``."""
    c = concurrence(rho)
    if c == 0.0:
        return 0.0
    return binary_entropy((1.0 + np.sqrt(1.0 - c * c)) / 2.0)


def tv_r(fid, d):
    """R(F) of Terhal & Vollbrecht for d x d isotropic states, F >= 1/d (array).

    H(gamma) + (1 - gamma) log2(d - 1) with
    gamma = (sqrt(F) + sqrt((d - 1)(1 - F)))^2 / d.
    """
    gamma = np.clip((np.sqrt(fid) + np.sqrt((d - 1) * (1.0 - fid))) ** 2 / d, 0.0, 1.0)
    h = np.zeros_like(gamma)
    for t in (gamma, 1.0 - gamma):
        pos = t > 1e-300
        h[pos] -= t[pos] * np.log2(t[pos])
    return h + (1.0 - gamma) * np.log2(d - 1) if d > 2 else h


@functools.cache
def _tv_hull(d, n=20001):
    """Samples f, R(f) on [1/d, 1] and the indices of their lower convex hull."""
    f = np.linspace(1.0 / d, 1.0, n)
    r = tv_r(f, d)
    hull = []
    for i in range(n):  # monotone chain
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (f[b] - f[a]) * (r[i] - r[a]) - (r[b] - r[a]) * (f[i] - f[a]) > 0:
                break
            hull.pop()
        hull.append(i)
    return f, r, np.array(hull)


def tv_isotropic_eof(fid, d):
    """Entanglement of formation of the d x d isotropic state of fidelity ``fid``.

    Terhal & Vollbrecht, PRL 85, 2625 (2000): the convex hull of R(F) on
    [1/d, 1], and 0 below 1/d.  Where the sampled hull follows R itself
    (adjacent samples) R is returned exactly; on a chord the chord is
    interpolated.
    """
    if fid <= 1.0 / d:
        return 0.0
    f, r, hull = _tv_hull(d)
    pos = int(np.searchsorted(f[hull], fid))
    a, b = hull[max(pos - 1, 0)], hull[min(pos, len(hull) - 1)]
    if b - a <= 1:
        return float(tv_r(np.array([fid]), d)[0])
    w = (fid - f[a]) / (f[b] - f[a])
    return float((1.0 - w) * r[a] + w * r[b])


def concurrence(rho):
    """Two-qubit concurrence from the singular values of tau = S^T (sy ox sy) S.

    S holds the columns sqrt(w_i) v_i of the eigendecomposition of rho; the
    singular values of tau are the square roots of the eigenvalues of
    rho rho~, but stay accurate where those are near zero.
    """
    w, v = np.linalg.eigh(rho)
    s = v * np.sqrt(np.clip(w, 0.0, None))
    lam = np.linalg.svd(s.T @ np.kron(SY, SY) @ s, compute_uv=False)
    return max(0.0, lam[0] - lam[1:].sum())


def pure_concurrence(mat):
    """Concurrence |psi^T (sy ox sy) psi| of the top eigenvector of ``mat``."""
    psi = np.linalg.eigh(mat)[1][:, -1]
    return abs(psi @ np.kron(SY, SY) @ psi)


def werner_dd_matrix(a, d):
    """d x d Werner state: weight a on the antisymmetric subspace, 1 - a on the symmetric one.

    Each weight is spread uniformly over its subspace, whose projectors are
    (I -+ F) / 2 with F the swap.  At d = 2 the antisymmetric subspace is
    the singlet, so this is ``werner_matrix`` with singlet weight a.
    """
    n = d * d
    swap = np.zeros((n, n))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    anti = (np.eye(n) - swap) / 2.0
    sym = (np.eye(n) + swap) / 2.0
    return a * anti / (d * (d - 1) / 2.0) + (1.0 - a) * sym / (d * (d + 1) / 2.0)


def werner_dd_eof(a):
    """Entanglement of formation of ``werner_dd_matrix(a, d)``, any d, in bits.

    Vollbrecht & Werner, PRA 64, 062307 (2001): h(1/2 - sqrt(a (1 - a)))
    for antisymmetric weight a >= 1/2, and 0 below, where the state is
    separable.
    """
    if a <= 0.5:
        return 0.0
    return binary_entropy(0.5 - np.sqrt(a * (1.0 - a)))


def werner_matrix(p):
    """p |Psi-><Psi-| + (1-p) I/4 with Psi- = (|01> - |10>)/sqrt(2)."""
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return p * np.outer(singlet, singlet) + (1.0 - p) * np.eye(4) / 4.0


def werner_dcoef(p):
    """Exact dcoef of the Werner state p|Psi-><Psi-| + (1-p)I/4 on sz (x) sz.

    dcoef is the infimum over grouped ensembles {P_g, rho_g} of
    |tr[rho (sz ox sz)] - sum_g P_g u_g v_g|, with u_g, v_g the sz
    expectations of rho_g on each leg; the target is -p.

    Lower bound: u v >= -(u - v)^2 / 4, and u - v = 2 q_g z_g only sees the
    {|01>, |10>} block, where q_g <= 1 is the block weight of rho_g and z_g
    the z Bloch component of its normalized block.  The blocks average to
    the Werner block: weight W = (1+p)/2, Bloch vector (x, 0, 0) with
    x = -2p/(1+p).  With q_g^2 <= q_g, z_g^2 <= 1 - x_g^2 and Jensen on
    x_g^2 over the block weights P_g q_g,
    sum_g P_g u_g v_g >= -W (1 - x^2) = -(1-p)(1+3p) / (2(1+p)).

    The bound is reached by ``werner_dcoef_decomposition``, so
    dcoef = max(0, (5p^2 - 1) / (2(1+p))).  The state is U ox U invariant,
    so sx ox sx and sy ox sy give the same value, and every off-diagonal
    Pauli pair has target 0 and value 0: this is also dcoef_sup over the
    Pauli basis.  It is 0 for p <= 1/sqrt(5), though the state is
    entangled for p > 1/3.
    """
    return max(0.0, (5.0 * p * p - 1.0) / (2.0 * (1.0 + p)))


def werner_dcoef_decomposition(p):
    """Grouped ensemble of werner_state(p) reaching ``werner_dcoef(p)``.

    Returns (weights, components), components as 4x4 density matrices:
    two pure states on the {|01>, |10>} block with Bloch vector
    (x, 0, +-sqrt(1 - x^2)), x = -2p/(1+p), weight (1+p)/4 each, and
    (|00><00| + |11><11|)/2 with weight (1-p)/2.  Their sz ox sz objective
    sum_g P_g u_g v_g is -(1-p)(1+3p) / (2(1+p)).  For p < 1/sqrt(5) that
    overshoots the target -p, so the three are scaled by t = p / |objective|
    and the Werner state itself (marginals I/2, objective 0) gets weight
    1 - t, which brings the objective to exactly -p.
    """
    x = -2.0 * p / (1.0 + p)
    z = np.sqrt(1.0 - x * x)
    comps = []
    for sign in (1.0, -1.0):
        block = (np.eye(2) + x * SX + sign * z * SZ) / 2.0
        rho = np.zeros((4, 4), dtype=complex)
        rho[1:3, 1:3] = block
        comps.append(rho)
    comps.append(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))
    weights = [(1.0 + p) / 4.0, (1.0 + p) / 4.0, (1.0 - p) / 2.0]
    objective = (1.0 - p) * (1.0 + 3.0 * p) / (2.0 * (1.0 + p))
    if objective > p:
        t = p / objective
        comps.append(werner_matrix(p).astype(complex))
        weights = [t * w for w in weights] + [1.0 - t]
    return np.array(weights), comps


def dcoef_objective(rho, d1, d2, weights, comps, a1, a2):
    """Objective of a grouped ensemble for the observables a1, a2.

    |tr[rho (a1 ox a2)] - sum_g w_g tr(rho_g^1 a1) tr(rho_g^2 a2)|, where
    ``comps`` are the d1*d2 x d1*d2 component matrices rho_g, whose
    marginals come from ``trace_out_reference``.
    """
    target = np.trace(np.asarray(rho) @ np.kron(a1, a2)).real
    classical = sum(
        w
        * np.trace(trace_out_reference(c, d1, d2, keep=1) @ a1).real
        * np.trace(trace_out_reference(c, d1, d2, keep=2) @ a2).real
        for w, c in zip(weights, comps)
    )
    return abs(target - classical)


def block_positivity_lower_reference(c, d_in, d_out):
    """lambda_min of a Choi matrix and of its partial transpose (output leg).

    Each bounds <x ox y| C |x ox y> from below over unit product vectors,
    the second because that value is <x ox conj(y)| C^PT |x ox conj(y)>.
    """
    c = np.asarray(c, dtype=complex)
    pt = pt_reference(c, d_in, d_out, leg=2)
    return float(np.linalg.eigvalsh(c)[0]), float(np.linalg.eigvalsh(pt)[0])


def apply_map_reference(c, d_in, d_out, x, d2):
    """(t ox id_d2)(X) from the defining sum over the Choi entries C[i,a,j,b].

    out[(a,k),(b,l)] = sum_ij X[(i,k),(j,l)] C[i,a,j,b], as one einsum.
    """
    c4 = np.asarray(c, dtype=complex).reshape(d_in, d_out, d_in, d_out)
    x4 = np.asarray(x, dtype=complex).reshape(d_in, d2, d_in, d2)
    return np.einsum("ikjl,iajb->akbl", x4, c4).reshape(d_out * d2, d_out * d2)


def decomposition_residual_reference(c, part_cp, d_in, d_out):
    """||min(0, eigvalsh((C - A)^PT))||_2: how far the split (A, C - A) is from valid."""
    pt = pt_reference(np.asarray(c) - part_cp, d_in, d_out, leg=2)
    return float(np.linalg.norm(np.minimum(np.linalg.eigvalsh(pt), 0.0)))


def random_hermitian(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (g + g.conj().T) / 2.0


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return g @ g.conj().T


def generalized_choi_map(a, b, c):
    """Choi matrix of the Cho-Kye-Lee map Phi[a, b, c] on M3, input leg first.

    Phi(X) = diag(a x11 + b x22 + c x33, c x11 + a x22 + b x33,
    b x11 + c x22 + a x33) - X; Phi[2, 1, 0] is Choi's map.
    """
    coef = (a, b, c)
    c4 = np.zeros((3, 3, 3, 3), dtype=complex)  # C[i, k, j, l]: E_ij -> (k, l)
    for i in range(3):
        for j in range(3):
            c4[i, i, j, j] -= 1.0
        for k in range(3):
            c4[i, k, i, k] += coef[(i - k) % 3]
    return c4.reshape(9, 9)


def generalized_choi_positive(a, b, c):
    """Cho, Kye & Lee, Linear Algebra Appl. 171, 213 (1992): Phi[a, b, c] >= 0."""
    return a >= 1 and a + b + c >= 3 and (not 1 <= a <= 2 or b * c >= (2 - a) ** 2)


def generalized_choi_decomposable(a, b, c):
    """Cho, Kye & Lee (1992): when Phi[a, b, c] is a decomposable map."""
    return a >= 1 and (not 1 <= a <= 3 or b * c >= (3 - a) ** 2 / 4)
