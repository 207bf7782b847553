"""Separability probes and quantitative entanglement measures.

The optimization-based quantities (entanglement-of-formation bound, the
correlation coefficient and its supremum) are upper bounds computed by
random-restart local search over ensemble decompositions, except the
two-qubit entanglement of formation, which Wootters' decomposition gives
exactly; verdict fields never claim separability from small values alone.
"""

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels, matcore, states

RANK_FLOOR = 1e-12
WITNESS_TOL = 1e-10
EARLY_STOP_VALUE = 1e-10
RESTART_PATIENCE = 8


@dataclass(frozen=True)
class PptReport:
    lambda_min: float
    entangled: bool

    @property
    def verdict(self):
        return "NPT" if self.entangled else "PPT"


def ppt_test(state, tol=WITNESS_TOL):
    """Partial-transpose test: an NPT verdict certifies entanglement.

    A PPT verdict is conclusive for separability only on 2x2 and 2x3
    splits; beyond those it is merely inconclusive.
    """
    pt = matcore.partial_transpose(state.mat, state.split, leg=2)
    lo = matcore.min_eigenvalue(pt)
    return PptReport(lo, lo < -tol)


def negativity(state):
    """Sum of the magnitudes of the negative partial-transpose eigenvalues."""
    pt = matcore.partial_transpose(state.mat, state.split, leg=2)
    w, _ = matcore.hermitian_eig(pt)
    return float(np.clip(-w, 0.0, None).sum())


@dataclass(frozen=True)
class WitnessReport:
    lambda_min: float
    entangled: bool


def map_witness(state, choi, tol=WITNESS_TOL):
    """Positive-map witness: apply (t ox id) in the Schroedinger picture.

    ``choi`` must represent a positive endomorphism on leg 1; negative
    output eigenvalues then certify entanglement, because positive maps
    keep separable states positive.
    """
    from . import maps

    if choi.d_in != choi.d_out:
        raise ValueError("witness maps must be endomorphisms (d_in == d_out)")
    if choi.d_in != state.d1:
        raise ValueError(
            f"map input dimension {choi.d_in} does not match leg 1 ({state.d1})"
        )
    out = maps.apply_map(maps.dual_map(choi), state.mat, state.d2)
    lo = matcore.min_eigenvalue(out)
    return WitnessReport(lo, lo < -tol)


# ---------------------------------------------------------------------------
# ensemble machinery shared by the optimizers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MeasureReport:
    """Result of an optimization-based measure; the value is an upper bound.

    ``pair`` is set by ``dcoef_sup`` only: the indices (i, j) of the winning
    observables in ``gell_mann_basis(d1)`` and ``gell_mann_basis(d2)``.
    """

    value: float
    certificate: object
    converged: bool
    restarts_used: int
    pair: tuple = None

    def to_json(self):
        obj = {
            "value": float(self.value),
            "converged": bool(self.converged),
            "restarts_used": int(self.restarts_used),
        }
        if self.pair is not None:
            obj["pair"] = [int(k) for k in self.pair]
        if self.certificate is not None:
            obj["certificate"] = self.certificate.to_json()
        return obj


def _as_seed_sequence(seed):
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _spectral_rows(state):
    """Subnormalized eigen-ensemble rows of the state: row i = sqrt(l_i) v_i."""
    w, v = matcore.hermitian_eig(state.mat)
    keep = w > RANK_FLOOR
    lam = w[keep]
    vecs = v[:, keep]
    return (vecs * np.sqrt(lam)).T.copy()


def _ladder_sizes(start, cap):
    sizes = [min(start, cap)]
    while sizes[-1] < cap:
        sizes.append(min(cap, sizes[-1] * 2))
    return sizes


def _weights(rows):
    return np.einsum("ij,ij->i", rows, rows.conj()).real


def _grow_split(rows, size):
    """Pad the ensemble to ``size`` by halving its heaviest members.

    Splits are objective-neutral (parallel twins), so growth never hurts;
    subsequent sweeps exploit the extra members.  Ties go to the first
    member.  Returns the rows and, per new slot, the member it split.
    """
    old = rows.shape[0]
    if size <= old:
        return rows, []
    out = np.zeros((size, rows.shape[1]), dtype=np.complex128)
    out[:old] = rows
    weight = np.zeros(size)
    weight[:old] = _weights(rows)
    donors = []
    half = np.sqrt(0.5)
    for slot in range(old, size):
        donor = int(np.argmax(weight[:slot]))
        out[slot] = half * out[donor]
        out[donor] = half * out[donor]
        weight[slot] = weight[donor] = weight[donor] / 2.0
        donors.append(donor)
    return out, donors


def _random_isometries(k, rank, seed, skip, count):
    """``count`` random (k, rank) isometries, built lazily.

    Start i orthonormalizes a complex Gaussian matrix drawn from the
    (skip + i)-th child of ``seed``.  Children and starts are made only when
    taken (by eof_upper one window at a time), so stopping early skips their
    QR factorizations without changing the starts that do run.
    """
    seq = _as_seed_sequence(seed)
    seq.spawn(skip)
    for _ in range(count):
        rng = np.random.default_rng(seq.spawn(1)[0])
        g = rng.standard_normal((k, rank)) + 1j * rng.standard_normal((k, rank))
        u, _ = np.linalg.qr(g)
        yield u


def _multistart(results, n_structured, beaten=-np.inf):
    """Keep the best of the lazy (value, snapshot, converged) start results.

    The first ``n_structured`` are always taken, unless a stop fires.  The
    loop stops once the best value reaches ``EARLY_STOP_VALUE``, once it is
    below ``beaten`` (the caller has a better candidate, and the best value
    never rises), or after ``RESTART_PATIENCE`` random starts in a row fail
    to beat it by 1e-15; it never returns more than the first start.
    Returns the best value, snapshot and converged flag, and the number of
    starts that ran.
    """
    best_value, best_snapshot, best_converged = np.inf, None, False
    used = since_improved = 0
    for idx, (value, snapshot, converged) in enumerate(results):
        used += 1
        if value < best_value - 1e-15:
            best_value, best_snapshot, best_converged = value, snapshot, converged
            since_improved = 0
        elif idx >= n_structured:
            since_improved += 1
        if best_value <= EARLY_STOP_VALUE or best_value < beaten:
            break
        if idx >= n_structured and since_improved >= RESTART_PATIENCE:
            break
    return best_value, best_snapshot, best_converged, used


def _refine_product_certificate(cert, d1, d2, cap):
    """Pure refinement of a separable certificate, or None.

    Returns the rows and, per row, the index of the component it came from.
    Product components are split along their factor eigenbases so the
    refined pure ensemble still has zero average marginal entropy; other
    components are split along their own eigenbases.  The refinement is
    skipped when it would exceed ``cap`` members.
    """
    rows, gid = [], []
    for ci, (lam, comp) in enumerate(zip(cert.weights, cert.components)):
        r1 = matcore.partial_trace(comp.mat, (d1, d2), keep=1)
        r2 = matcore.partial_trace(comp.mat, (d1, d2), keep=2)
        if matcore.frobenius_norm(matcore.kron(r1, r2) - comp.mat) > 1e-10:
            w, v = matcore.hermitian_eig(comp.mat)
            keep = w > RANK_FLOOR
            part = (v[:, keep] * np.sqrt(lam * w[keep])).T
        else:
            w1, v1 = matcore.hermitian_eig(r1)
            w2, v2 = matcore.hermitian_eig(r2)
            k1, k2 = w1 > RANK_FLOOR, w2 > RANK_FLOOR
            # row (a, b), a-major: sqrt(lam w1_a w2_b) kron(v1_a, v2_b)
            vecs = v1[:, k1].T[:, None, :, None] * v2[:, k2].T[None, :, None, :]
            amp = np.sqrt(lam * w1[k1][:, None] * w2[k2][None, :])
            part = (amp[:, :, None, None] * vecs).reshape(-1, d1 * d2)
        rows.append(part)
        gid.append(np.full(part.shape[0], ci))
    rows = np.concatenate(rows)
    if rows.shape[0] > cap:
        return None
    return rows, np.concatenate(gid)


def _ensemble_from_rows(rows, d1, d2, state, gid=None):
    """Certificate of pure rows, one mixed component per group of ``gid``.

    ``gid`` labels each row's group (default: every row on its own).
    Groups lighter than 1e-12 are dropped; the barycenter must match the
    state within 1e-9.
    """
    if gid is None:
        gid = np.arange(rows.shape[0])
    p = np.bincount(gid, weights=_weights(rows))
    mats = np.zeros((p.shape[0], rows.shape[1], rows.shape[1]), dtype=np.complex128)
    np.add.at(mats, gid, rows[:, :, None] * rows.conj()[:, None, :])
    keep = p > 1e-12
    p = p[keep]
    comps = tuple(states.DensityMatrix(m / pg, d1, d2) for m, pg in zip(mats[keep], p))
    ens = states.Ensemble(p / p.sum(), comps)
    ens.check_barycenter(state, tol=1e-9)
    return ens


# ---------------------------------------------------------------------------
# entanglement of formation (upper bound)
# ---------------------------------------------------------------------------


# sigma_y ox sigma_y, real.  For two-qubit rows a, b the bilinear
# tau(a, b) = a^T _SPIN_FLIP b is the complex conjugate of <a|b~>, and the
# concurrence of a is |tau(a, a)| / <a|a>.
_SPIN_FLIP = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
_HADAMARD = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0


def _takagi(tau):
    """Takagi factorization tau = u diag(lam) u^T of a complex symmetric matrix.

    For an eigenvector (p, q) of [[Re tau, Im tau], [Im tau, -Re tau]] with
    eigenvalue lam >= 0, u = p + i q has tau conj(u) = lam u; the n largest
    eigenvalues give lam, descending.  At lam = 0 such vectors can coincide
    up to a phase, so there u spans the null space of conj(tau) instead.
    The columns are then made exactly orthonormal (the nearest unitary).
    """
    n = tau.shape[0]
    w, v = kernels.eigh(np.block([[tau.real, tau.imag], [tau.imag, -tau.real]]))
    lam, v = w[::-1][:n], v[:, ::-1][:, :n]
    u = v[:n] + 1j * v[n:]
    small = lam <= RANK_FLOOR
    if small.any():
        u[:, small] = np.linalg.svd(tau.conj())[2][n - small.sum() :].conj().T
        lam = np.where(small, 0.0, lam)
    a, _, b = np.linalg.svd(u)
    return lam, a @ b


def _equalize_concurrence(y, c):
    """Rotate the rows y by real Givens rotations until each has concurrence c.

    A real orthogonal o keeps the barycenter and turns both tau(y, y) and
    Re<y|y> into o . o^T, so a = Re tau(y, y) - c Re<y|y>, traceless for
    sum_k tau(y_k, y_k) = c, must get a zero diagonal.  Each rotation
    zeroes a[k, k] against an entry a[j, j] of the opposite sign, which the
    zero trace of the rest provides; n - 1 rotations suffice.
    """
    a = (y @ _SPIN_FLIP @ y.T).real - c * (y.conj() @ y.T).real
    for k in range(y.shape[0] - 1):
        sign = a[k, k] * np.diag(a)[k + 1 :]
        j = k + 1 + int(np.argmin(sign))
        if sign[j - k - 1] >= 0.0:
            continue  # a[k, k] is zero up to rounding
        akk, akj, ajj = a[k, k], a[k, j], a[j, j]
        # t = tan(angle) solves akk + 2 akj t + ajj t^2 = 0, discriminant > 0
        t = akk / -(akj + math.copysign(math.sqrt(akj * akj - akk * ajj), akj))
        cos = 1.0 / math.sqrt(1.0 + t * t)
        g = np.array([[cos, t * cos], [-t * cos, cos]])
        a[[k, j]] = g @ a[[k, j]]
        a[:, [k, j]] = a[:, [k, j]] @ g.T
        y[[k, j]] = g @ y[[k, j]]
    return y


def _closing_phases(lam):
    """Phases phi with sum_k lam_k exp(i phi_k) = 0, for lam_1 <= sum of the rest.

    ``lam`` is descending with at most 4 entries.  Sides 1, 2 and sides 3, 4
    are each joined into a side of length max(lam_1 - lam_2, lam_3 - lam_4),
    which both pairs can span, and the two joints are turned against each
    other.
    """
    l = np.zeros(4)
    l[: lam.shape[0]] = lam
    side = max(l[0] - l[1], l[2] - l[3])

    def joint(a, b):  # psi with |a + b exp(i psi)| = side
        if a * b <= 0.0:
            return 0.0
        return math.acos(min(1.0, max(-1.0, (side * side - a * a - b * b) / (2 * a * b))))

    p12, p34 = joint(l[0], l[1]), joint(l[2], l[3])
    s12 = l[0] + l[1] * cmath.exp(1j * p12)
    s34 = l[2] + l[3] * cmath.exp(1j * p34)
    turn = cmath.phase(-s12 / s34) if s34 != 0.0 else 0.0
    return np.array([0.0, p12, turn, turn + p34])[: lam.shape[0]]


def _wootters_rows(base):
    """Wootters' optimal decomposition of a two-qubit state from its spectral rows.

    Wootters, PRL 80, 2245 (1998).  The Takagi factorization of
    tau(v_i, v_j) gives rows x_k with tau(x_k, x_l) = lam_k delta_kl and the
    concurrence C = lam_1 - sum_{k>1} lam_k.  If C > 0, the rows
    (x_1, i x_2, ...) are rotated so each member has concurrence C.
    Otherwise the x_k are phased so their tau(x_k, x_k) sum to zero and
    mixed by a Hadamard matrix into 2 (rank 2) or 4 product members.
    """
    lam, u = _takagi(base @ _SPIN_FLIP @ base.T)
    x = u.conj().T @ base
    c = lam[0] - lam[1:].sum()
    if c > 0.0:
        x[1:] *= 1j
        return _equalize_concurrence(x, c)
    n = lam.shape[0]
    x *= np.exp(0.5j * _closing_phases(lam))[:, None]
    h = _HADAMARD[:2, :2] * math.sqrt(2.0) if n == 2 else _HADAMARD[:, :n]
    return h @ x


def _eof_lockstep(u, value, grad, base, d1, d2, iters, tol):
    """Step a stack of starts in lockstep; (value, rows, converged) per start.

    Each start stops and is scored as it would be alone.  Once one ends at or
    below EARLY_STOP_VALUE, where the multistart loop stops, the starts after
    it leave the stack and are not returned.
    """
    direction, n = -grad, u.shape[0]
    line, ended = np.stack([value, np.ones(n)], axis=1), value <= EARLY_STOP_VALUE
    out, index = [None] * n, np.arange(n)  # index: start of each row of the stack
    for step in range(iters + 1):
        done = ended | (step == iters)
        for j in np.flatnonzero(done):
            if index[j] < n:
                rows = u[j] @ base
                value = float(kernels.column_scores(rows, d1, d2)[1].sum())
                out[index[j]] = (value, rows, bool(ended[j]))
                if value <= EARLY_STOP_VALUE:
                    n = index[j] + 1
        keep = ~done & (index < n)
        u, grad, direction, line, index = (a[keep] for a in (u, grad, direction, line, index))
        if not index.size:
            break
        before = line[:, 0].copy()
        kernels.eof_sweep(u, grad, direction, line, base, d1, d2)
        ended = (before - line[:, 0] < tol) | (line[:, 0] <= EARLY_STOP_VALUE)
    return out[:n]


def eof_upper(state, K=None, restarts=32, iters=60, tol=1e-10, seed=0):
    """Upper bound on the entanglement of formation, in bits.

    Minimizes the ensemble-average marginal entropy over pure
    decompositions of size ``K`` (default rank squared), realized through
    the purification parametrization: every size-K pure ensemble is U B for
    the spectral rows B and a K x rank isometry U.  Each start runs up to
    ``iters`` Riemannian conjugate-gradient steps on U
    (``kernels.eof_sweep``) and is converged once a step gains less than
    ``tol`` or the value reaches EARLY_STOP_VALUE.  The starts are the
    refined certificate of a state that carries one, the spectral ensemble
    (U = I) and up to ``restarts`` random K x rank isometries, drawn a window
    of RESTART_PATIENCE at a time.  They step together as one stack, the
    structured ones padded with zero rows (which stay zero), and the report
    is what running them one by one gives.  The value is recomputed from
    the final rows.  Rank-one states short-circuit to the exact value.

    Two-qubit states get the exact value from Wootters' optimal
    decomposition, whose members all have the state's concurrence; the
    report is converged with ``restarts_used`` 0, and ``restarts``,
    ``iters``, ``tol`` and ``seed`` are unused.  The one exception is a
    separable rank-3 state with K = 3: its decomposition has 4 members, so
    it takes the search.
    """
    base = _spectral_rows(state)
    rank = base.shape[0]
    if rank <= 1:
        value = states.von_neumann_entropy(states.restrict(state, 1))
        cert = states.Ensemble(np.array([1.0]), (state,))
        return MeasureReport(value, cert, True, 0)
    if K is None:
        K = rank * rank
    if K < rank:
        raise ValueError(f"ensemble size {K} below state rank {rank}: infeasible")

    d1, d2 = state.split
    if state.split == (2, 2):
        rows = _wootters_rows(base)
        if rows.shape[0] <= K:
            value = float(kernels.column_scores(rows, d1, d2)[1].sum())
            cert = _ensemble_from_rows(rows, d1, d2, state)
            return MeasureReport(max(0.0, value), cert, True, 0)
    starts = []
    if state.certificate is not None:
        refined = _refine_product_certificate(state.certificate, d1, d2, K)
        if refined is not None:
            # rows = u @ base and base @ base^+ = diag(lam) give u; zero rows pad it
            u = (refined[0] @ base.conj().T) / _weights(base)
            starts.append(np.pad(u, ((0, K - u.shape[0]), (0, 0))))
    starts.append(np.eye(K, rank))

    def evaluated(us):  # (u, value, grad) of a stack of starts
        u = np.array(us, dtype=np.complex128).reshape(-1, K, rank)
        return (u, *kernels._value_gradient(u, base, d1, d2))

    def results():  # per start in start order, one window of starts at a time
        randoms = _random_isometries(K, rank, seed, 2, restarts)
        window = evaluated(starts)
        if window[1].min() > EARLY_STOP_VALUE:  # else no random start is drawn
            extra = evaluated(list(itertools.islice(randoms, RESTART_PATIENCE)))
            window = tuple(np.concatenate(p) for p in zip(window, extra))
        while window[0].shape[0]:
            found = _eof_lockstep(*window, base, d1, d2, iters, tol)
            yield from found
            if len(found) < window[0].shape[0]:
                return
            window = evaluated(list(itertools.islice(randoms, RESTART_PATIENCE)))

    best_value, best_rows, best_converged, used = _multistart(results(), len(starts))
    cert = _ensemble_from_rows(best_rows, d1, d2, state)
    return MeasureReport(max(0.0, best_value), cert, best_converged, used)


# ---------------------------------------------------------------------------
# coefficient of quantum correlations
# ---------------------------------------------------------------------------


def _group_terms(tot):
    """u v / p for each (p, u, v) on the last axis of ``tot``, zero below the floor."""
    p = tot[..., 0]
    heavy = p > kernels.WEIGHT_FLOOR
    return np.where(heavy, tot[..., 1] * tot[..., 2] / np.where(heavy, p, 1.0), 0.0)


def _group_sums(gid, table):
    """(G, n) totals of the rows of the (K, n) ``table`` over the groups ``gid``."""
    n = table.shape[1]
    idx = n * gid[:, None] + np.arange(n)
    return np.bincount(idx.ravel(), weights=table.ravel()).reshape(-1, n)


# Coarse grid of the pair rotations (theta, phi): theta = 1..8 steps in
# (0, pi/2), phi = 0..7 steps over the full circle, theta-major.  theta = 0
# is the identity rotation and serves as the baseline, theta = pi/2 merely
# swaps the two members.  _COARSE_Z holds the points as Bloch vectors
# z = (cos 2 theta, sin 2 theta cos phi, sin 2 theta sin phi).
_THETA_STEP = (np.pi / 2.0) / 9.0
_PHI_STEP = 2.0 * np.pi / 8.0
_TH = np.repeat(np.arange(1, 9) * _THETA_STEP, 8)
_PH = np.tile(np.arange(8) * _PHI_STEP, 8)
_COARSE_Z = np.stack(
    [np.cos(2 * _TH), np.sin(2 * _TH) * np.cos(_PH), np.sin(2 * _TH) * np.sin(_PH)],
    axis=-1,
)

# Rounds of 3 x 3 refinement around the best coarse point; the steps start
# at half the grid spacing and halve each round.
_REFINE_ROUNDS = 6

# A rotation or merge is applied only if it beats the objective by this
# margin; guards against float-noise churn.
_ACCEPT_EPS = 1e-14

# Pairs whose coarse tables are scored in one batch; an accepted rotation
# discards the scores of the pairs after it, so larger batches waste more.
_CHUNK_PAIRS = 32


def _frame_signed(target, rest, own_a, own_b, n):
    """target - c of one pair frame at the Bloch vector (z0, z1, z2).

    ``own_a`` and ``own_b`` are the two groups' totals with the pair's mean
    m in place of its members, ``n`` the 3 x 3 frame, ``rest`` the classical
    value of the other groups.  Plain float arithmetic: one evaluation costs
    less than a numpy call.
    """
    pa, ua, va = own_a.tolist()
    pb, ub, vb = own_b.tolist()
    (n00, n01, n02), (n10, n11, n12), (n20, n21, n22) = n.tolist()
    floor = kernels.WEIGHT_FLOOR

    def signed(z0, z1, z2):
        dp = n00 * z0 + n01 * z1 + n02 * z2
        du = n10 * z0 + n11 * z1 + n12 * z2
        dv = n20 * z0 + n21 * z1 + n22 * z2
        c = rest
        if pa + dp > floor:
            c += (ua + du) * (va + dv) / (pa + dp)
        if pb - dp > floor:
            c += (ub - du) * (vb - dv) / (pb - dp)
        return target - c

    return signed


def _refine_rotation(signed, coarse, base):
    """(theta, phi) of the best pair rotation, or None if it gains too little.

    ``signed`` is the pair's closure from ``_frame_signed``, ``coarse`` its
    magnitude at the coarse points and ``base`` the unrotated objective.
    The best coarse point is refined over _REFINE_ROUNDS 3 x 3 stencils of
    halving steps, theta-major; the first minimum wins ties.  None unless
    the best coarse point beats ``base`` by _ACCEPT_EPS.
    """
    idx = int(np.argmin(coarse))
    best = coarse[idx]
    if best >= base - _ACCEPT_EPS:
        return None
    th, ph = float(_TH[idx]), float(_PH[idx])
    dth, dph = 0.5 * _THETA_STEP, 0.5 * _PHI_STEP
    lo, hi = 1e-9, np.pi / 2 - 1e-9
    for _ in range(_REFINE_ROUNDS):
        cand_th = [min(max(t, lo), hi) for t in (th - dth, th, th + dth)]
        cand_ph = [ph - dph, ph, ph + dph]
        ang = np.array([2 * t for t in cand_th] + cand_ph)  # 2 theta, then phi
        cos, sin = np.cos(ang).tolist(), np.sin(ang).tolist()
        vals = [
            abs(signed(c2, s2 * cp, s2 * sp))
            for c2, s2 in zip(cos[:3], sin[:3])
            for cp, sp in zip(cos[3:], sin[3:])
        ]
        k = min(range(9), key=vals.__getitem__)
        if vals[k] < best:
            best = vals[k]
            th, ph = cand_th[k // 3], cand_ph[k % 3]
        dth *= 0.5
        dph *= 0.5
    return th, ph


def _root_theta(signed, th, ph):
    """Bisect theta in [0, th] at phi = ``ph`` for a sign change of ``signed``.

    theta = 0 is the identity rotation; ``th`` is a grid point whose signed
    value has the opposite sign.  Returns the end of the final bracket with
    the smaller magnitude, once the bracket is as narrow as floats allow.
    """
    cph, sph = math.cos(ph), math.sin(ph)

    def f(t):
        s2 = math.sin(2.0 * t)
        return signed(math.cos(2.0 * t), s2 * cph, s2 * sph)

    lo, hi = 0.0, th
    f_lo, f_hi = f(lo), f(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo if abs(f_lo) < abs(f_hi) else hi


class _GroupedEnsemble:
    """Pure rows plus a grouping into mixed components, with caches.

    The classical correlation of the grouped ensemble for observables
    (a1, a2) is sum_g U_g V_g / P_g where P, U, V are group totals of the
    member weight and the subnormalized expectations <w|a1 ox 1|w>,
    <w|1 ox a2|w>.  Rotations inside one group leave the objective alone,
    so only cross-group rotations and group merges are searched.

    Groups are labelled 0..G-1 in ``gid``; ``terms`` (K, 3) holds each
    member's (p, u, v), ``tot`` (G, 3) the group totals, ``group_terms``
    their U V / P and ``classical`` the sum of those.
    """

    def __init__(self, rows, gid, big1, big2, target):
        self.rows = np.array(rows, dtype=np.complex128)  # owned: sweeps rotate it
        self.gid = np.unique(gid, return_inverse=True)[1]
        self.big1 = big1
        self.big2 = big2
        self.target = target
        self.terms = self._member_terms(self.rows)
        self._refresh_groups()

    def _member_terms(self, e):
        return np.stack(
            [
                _weights(e),
                np.einsum("ij,jk,ik->i", e.conj(), self.big1, e).real,
                np.einsum("ij,jk,ik->i", e.conj(), self.big2, e).real,
            ],
            axis=1,
        )

    def _refresh_groups(self):
        """Recompute the group totals and the classical value from the members."""
        self.tot = _group_sums(self.gid, self.terms)
        self.group_terms = _group_terms(self.tot)
        self.classical = float(self.group_terms.sum())

    @property
    def objective(self):
        return abs(self.target - self.classical)

    def grow(self, size):
        old = self.rows.shape[0]
        if size <= old:
            return
        self.rows, donors = _grow_split(self.rows, size)
        self.gid = np.append(self.gid, np.zeros(len(donors), dtype=np.int64))
        for slot, donor in enumerate(donors, old):
            self.gid[slot] = self.gid[donor]
        self.terms = self._member_terms(self.rows)
        self._refresh_groups()

    def _frames(self, a, b):
        """Bloch frames (m, N) of the row pairs (a, b), index arrays of length P.

        Rotating rows a and b by (theta, phi) gives member a the terms
        m + N z and member b the terms m - N z, where
        z = (cos 2 theta, sin 2 theta cos phi, sin 2 theta sin phi).
        m (P, 3) is the mean of the members' (p, u, v); the columns of
        N (P, 3, 3) are their half difference and minus the real and
        imaginary parts of the cross terms <b|.|a> of (1, a1 ox 1, 1 ox a2).
        """
        ea, eb = self.rows[a], self.rows[b].conj()
        ta, tb = self.terms[a], self.terms[b]
        cross = np.stack(
            [
                np.einsum("pi,pi->p", eb, ea),
                np.einsum("pi,pi->p", eb @ self.big1, ea),
                np.einsum("pi,pi->p", eb @ self.big2, ea),
            ],
            axis=1,
        )
        m = 0.5 * (ta + tb)
        n = np.stack([0.5 * (ta - tb), -cross.real, -cross.imag], axis=2)
        return m, n

    @staticmethod
    def _rotate(rows, a, b, th, ph):
        """Apply the rotation (theta, phi) of ``_frames`` to rows a and b in place."""
        c = np.cos(th)
        s = np.sin(th)
        z = np.exp(1j * ph)
        wa = rows[a].copy()
        rows[a] = c * wa - s * z * rows[b]
        rows[b] = s * z.conjugate() * wa + c * rows[b]

    def rotation_sweep(self):
        """One pass of cross-group two-member rotations; returns the gain.

        Pairs are visited in (a, b) order.  The signed value target - c at
        the coarse points is scored for the pairs still to come, in chunks;
        the first pair that beats the objective at a coarse point, or whose
        signed value changes sign there, is rotated, and scoring resumes at
        the pair after it.  A sign change is bracketed in theta at that
        point's phi and the pair rotated onto the root, where the objective
        is zero up to rounding; otherwise the best coarse point is refined.
        The pass ends early once the objective reaches EARLY_STOP_VALUE.
        """
        pa, pb = np.triu_indices(self.rows.shape[0], 1)
        split = self.gid[pa] != self.gid[pb]
        pa, pb = pa[split], pb[split]
        gained = 0.0
        i = 0
        while i < pa.shape[0] and self.objective > EARLY_STOP_VALUE:
            a, b = pa[i : i + _CHUNK_PAIRS], pb[i : i + _CHUNK_PAIRS]
            m, n = self._frames(a, b)
            ga, gb = self.gid[a], self.gid[b]
            own_a = self.tot[ga] - self.terms[a] + m
            own_b = self.tot[gb] - self.terms[b] + m
            rest = self.classical - self.group_terms[ga] - self.group_terms[gb]
            nz = _COARSE_Z @ n.transpose(0, 2, 1)
            cl = rest[:, None] + _group_terms(own_a[:, None] + nz)
            signed = self.target - (cl + _group_terms(own_b[:, None] - nz))
            base = self.objective
            flip = signed * (self.target - self.classical) < 0.0
            act = np.abs(signed).min(axis=1) < base - _ACCEPT_EPS
            act |= flip.any(axis=1)
            act &= self.terms[a, 0] + self.terms[b, 0] >= 2 * kernels.WEIGHT_FLOOR
            hits = np.flatnonzero(act)
            if hits.size == 0:
                i += a.shape[0]
                continue
            j = int(hits[0])
            i += j + 1
            f = _frame_signed(self.target, float(rest[j]), own_a[j], own_b[j], n[j])
            if flip[j].any():
                k = int(np.argmax(flip[j]))
                rot = _root_theta(f, _TH[k], _PH[k]), _PH[k]
            else:
                rot = _refine_rotation(f, np.abs(signed[j]), base)
                if rot is None:
                    continue
            a, b = int(a[j]), int(b[j])
            self._rotate(self.rows, a, b, *rot)
            self.terms[[a, b]] = self._member_terms(self.rows[[a, b]])
            self._refresh_groups()
            gained += base - self.objective
        return gained

    def merge_pass(self):
        """Greedy group merges (coarse-graining) while they improve.

        Every pair of groups is scored at once; the first best pair in
        label order is merged into its lower label.
        """
        gained = 0.0
        while self.tot.shape[0] > 1:
            ga, gb = np.triu_indices(self.tot.shape[0], 1)
            t_old = self.group_terms[ga] + self.group_terms[gb]
            t_new = _group_terms(self.tot[ga] + self.tot[gb])
            obj = np.abs(self.target - (self.classical - t_old + t_new))
            best = int(np.argmin(obj))
            base = self.objective
            if obj[best] >= base - _ACCEPT_EPS:
                break
            self.gid[self.gid == gb[best]] = ga[best]
            self.gid[self.gid > gb[best]] -= 1
            self._refresh_groups()
            gained += base - self.objective
        return gained


def _hermitian_observable(a, d, name):
    m = matcore.as_complex_matrix(a)
    if m.shape[0] != d:
        raise ValueError(f"{name} must be {d}x{d}, got {m.shape[0]}x{m.shape[0]}")
    return matcore.require_hermitian(m, matcore.HERMITICITY_TOL, name)


def _dcoef_setup(state, K):
    """Pair-independent part of dcoef: (spectral rows, K, closed-form starts).

    The closed-form starts, each (rows, gid), are the one-group start (the
    spectral rows as one group, i.e. the state itself) and the refined
    certificate of a state that carries one.  Above rank one, the rows of
    each are checked here, once per call.
    """
    base = _spectral_rows(state)
    rank = base.shape[0]
    starts = [(base, np.zeros(rank, dtype=np.int64))]
    if rank <= 1:  # no search: the one group is the only ensemble
        return base, K, starts
    K = rank * rank if K is None else K
    if K < rank:
        raise ValueError(f"ensemble size {K} below state rank {rank}: infeasible")
    _check_rows(state, base)
    if state.certificate is not None:
        refined = _refine_product_certificate(state.certificate, *state.split, K)
        if refined is not None:
            _check_rows(state, refined[0])
            starts.append((refined[0], np.unique(refined[1], return_inverse=True)[1]))
    return base, K, starts


def _dcoef_search(state, setup, a1, a2, restarts, iters, tol, seed, closed, beaten):
    """dcoef at one pair from ``_dcoef_setup``: (value, rows, gid, converged, used).

    ``closed`` holds the pair's values of the closed-form starts, which enter
    ``_multistart`` unsearched: the one-group start converged as a sweep
    would leave it, the refined certificate unless above EARLY_STOP_VALUE.
    The starts stop once the best value is below ``beaten``.  A searched
    winner has its rows checked.  Rank one has no search, rows None.
    """
    base, K, starts = setup
    rank = base.shape[0]
    if rank <= 1:
        return float(closed[0]), None, None, True, 0

    def results():  # the observables are built only once a search runs
        one = float(closed[0])
        yield one, starts[0], bool(one <= EARLY_STOP_VALUE or (iters > 0 and tol > 0))
        searched = []
        for value, start in zip(closed[1:].tolist(), starts[1:]):
            if value <= EARLY_STOP_VALUE:
                yield value, start, True
            else:
                searched.append(start)
        big1 = matcore.kron(a1, np.eye(state.d2))
        big2 = matcore.kron(np.eye(state.d1), a2)
        target = float(np.trace(state.mat @ matcore.kron(a1, a2)).real)
        spectral_gid = np.arange(rank, dtype=np.int64)
        searched.append((base, spectral_gid))
        randoms = _random_isometries(rank, rank, seed, 3, restarts)
        for rows, gid in itertools.chain(searched, ((u @ base, spectral_gid) for u in randoms)):
            ens = _GroupedEnsemble(rows, gid, big1, big2, target)
            # rotations within a group and growth keep a one-group objective
            cap = K if ens.tot.shape[0] > 1 else ens.rows.shape[0]
            for size in _ladder_sizes(ens.rows.shape[0], cap):
                ens.grow(size)
                converged = False
                if ens.objective > EARLY_STOP_VALUE:
                    for _ in range(iters):
                        if ens.rotation_sweep() + ens.merge_pass() < tol:
                            converged = True
                            break
                if ens.objective <= EARLY_STOP_VALUE:
                    converged = True
                    break
            yield ens.objective, (ens.rows, ens.gid), converged

    value, (rows, gid), converged, used = _multistart(results(), len(starts) + 1, beaten)
    if all(rows is not start[0] for start in starts):
        _check_rows(state, rows)
    return value, rows, gid, converged, used


def _check_rows(state, rows):
    err = matcore.frobenius_norm(rows.T @ rows.conj() - state.mat)
    if err > 1e-9:
        raise ValueError(f"dcoef ensemble misses its state by {err:.3e}")


def _joint_table(state, e, f):
    """tr[rho (e_a ox f_b)] for stacks e (n_e, d1, d1) and f (n_f, d2, d2)."""
    rho = state.mat.reshape(state.d1, state.d2, state.d1, state.d2)
    return np.einsum("ikjl,aji,blk->ab", rho, e, f).real


def _start_values(rows, gid, e, f, joint):
    """dcoef objective of the grouped ensemble (rows, gid) at every pair (e_a, f_b).

    Per row, <x|e_a ox 1|x> and <x|1 ox f_b|x> come from the row's leg
    marginals.  Every sum runs over the last axis of a C-ordered array, so
    an entry does not depend on how many observables are stacked with it.
    """
    d1, d2 = e.shape[1], f.shape[1]
    y = rows.reshape(-1, d1, d2)
    g1 = (y.conj() @ y.transpose(0, 2, 1)).reshape(-1, 1, d1 * d1)
    g2 = (y.conj().transpose(0, 2, 1) @ y).reshape(-1, 1, d2 * d2)
    u = (e.reshape(1, -1, d1 * d1) * g1).real.sum(axis=-1)
    v = (f.reshape(1, -1, d2 * d2) * g2).real.sum(axis=-1)
    tot = _group_sums(gid, np.concatenate([_weights(rows)[:, None], u, v], axis=1))
    p, ut, vt = tot[:, 0], tot[:, 1 : 1 + e.shape[0]].T, tot[:, 1 + e.shape[0] :].T
    heavy = p > kernels.WEIGHT_FLOOR
    uv = ut[:, None, :] * vt[None, :, :]
    # (n_e, n_f, G) group terms, C-ordered whatever the layout of tot
    terms = np.ascontiguousarray(np.where(heavy, uv / np.where(heavy, p, 1.0), 0.0))
    return np.abs(joint - terms.sum(axis=-1))


def _dcoef_pairs(state, setup, e, f, seeds, restarts, iters, tol):
    """Largest dcoef over the pairs (e_a, f_b): the search tuple, and the index k.

    Pair k = a * n_f + b takes ``seeds[k]``.  The closed-form starts of
    ``setup`` are scored at every pair in one contraction.  A pair's
    one-group value, its first start, bounds its dcoef, so pairs are visited
    in decreasing order of it and the rest are skipped once it is below a
    best value above EARLY_STOP_VALUE.  Values at or below EARLY_STOP_VALUE
    tie as zero, and ties go to the lowest k.  A visited pair's value only
    falls as its starts run, so its starts stop once it is below the best
    value, or equal to it at a higher k: it can no longer win.  The result
    is that of visiting every pair in full; its converged flag and start
    count cover the starts that ran.
    """
    joint = _joint_table(state, e, f)
    closed = np.array([_start_values(*start, e, f, joint).ravel() for start in setup[2]])
    n_f = f.shape[0]
    best, converged, used = None, True, 0
    for k in np.argsort(-closed[0], kind="stable").tolist():
        beaten = -np.inf
        if best is not None:
            if closed[0, k] < best[0][0]:  # a zero best, keyed 0.0, prunes none
                break
            # a tie with a lower-k best loses too; a zero best stops nothing new
            beaten = best[0][0] if k < -best[0][1] else np.nextafter(best[0][0], np.inf)
        found = _dcoef_search(
            state, setup, e[k // n_f], f[k % n_f], restarts, iters, tol, seeds[k], closed[:, k],
            beaten,
        )
        converged = converged and found[3]
        used += found[4]
        key = (found[0] if found[0] > EARLY_STOP_VALUE else 0.0, -k)
        if best is None or key > best[0]:
            best = key, found
    return (*best[1][:3], converged, used), -best[0][1]


def _dcoef_report(state, value, rows, gid, converged, used, pair=None):
    """Report of a dcoef search; rows None certify the state by itself."""
    if rows is None:
        cert = states.Ensemble(np.array([1.0]), (state,))
    else:
        cert = _ensemble_from_rows(rows, state.d1, state.d2, state, gid)
    return MeasureReport(float(value), cert, converged, used, pair)


def dcoef(state, a1, a2, K=None, restarts=32, iters=60, tol=1e-12, seed=0):
    """Upper bound on the local quantum-correlation coefficient d(phi, a1, a2).

    Minimizes | tr[rho (a1 ox a2)] - sum_g P_g tr(rho_g^1 a1) tr(rho_g^2 a2) |
    over grouped ensembles of the state: pure members from the purification
    parametrization, coarse-grained into mixed components by merge moves.
    The infimum vanishes on separable states (a product ensemble makes the
    objective zero), but not only there: ``werner_state(p)`` is entangled
    for p > 1/3, yet its exact value is max(0, (5p^2 - 1) / (2(1 + p)))
    on each of sx ox sx, sy ox sy and sz ox sz and zero on the other Pauli
    pairs, so zero on all of them up to p = 1/sqrt(5).  Small values never
    certify separability; the report remains a one-sided upper bound.

    The classical values of a fixed grouping form an interval, so the
    infimum is the distance from the target to it; a pair rotation that
    carries target - c across zero is bisected onto the crossing, so zeros
    come out exact up to rounding and stop the restarts early.  The
    one-group ensemble and the refined certificate have closed-form values
    and run no search when at EARLY_STOP_VALUE (``restarts_used`` 1 or 2);
    the spectral ensemble and ``restarts`` random ones follow.  A rank-one
    state is its own certificate, with ``restarts_used`` 0.
    """
    a1 = _hermitian_observable(a1, state.d1, "a1")
    a2 = _hermitian_observable(a2, state.d2, "a2")
    setup = _dcoef_setup(state, K)
    found, _ = _dcoef_pairs(state, setup, a1[None], a2[None], [seed], restarts, iters, tol)
    return _dcoef_report(state, *found)


def gell_mann_basis(d):
    """Traceless hermitian basis of M_d (the Pauli matrices for d = 2)."""
    if d < 2:
        raise ValueError(f"basis dimension must be >= 2, got {d}")
    out = []
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=np.complex128)
            sym[j, k] = sym[k, j] = 1.0
            out.append(sym)
            anti = np.zeros((d, d), dtype=np.complex128)
            anti[j, k] = -1j
            anti[k, j] = 1j
            out.append(anti)
    for l in range(1, d):
        diag = np.zeros((d, d), dtype=np.complex128)
        for m in range(l):
            diag[m, m] = 1.0
        diag[l, l] = -l
        out.append(np.sqrt(2.0 / (l * (l + 1))) * diag)
    return out


def dcoef_sup(state, K=None, restarts=32, iters=60, seed=0):
    """Supremum of the correlation coefficient over product observable bases.

    Maximizes dcoef over pairs from the traceless hermitian bases of both
    legs.  Pairs involving the identity vanish identically (the pushed
    marginals reproduce the barycenter's expectations), so only traceless
    elements are scanned.  Like dcoef, the supremum vanishes on separable
    states but also on some entangled ones (``werner_state(p)`` for
    1/3 < p <= 1/sqrt(5)), so near-zero values never certify separability.

    dcoef(e, f) is at most its one-group value |tr rho(e ox f) -
    tr(rho_1 e) tr(rho_2 f)|, so pairs are visited in decreasing order of it
    and skipped once it is below a best value above EARLY_STOP_VALUE.  A
    visited pair's best value only falls as its starts run, so it stops
    drawing starts once that value is below the best of the pairs visited
    before it, or equal to it and later in basis order: a beaten pair can
    no longer win.  Each pair keeps the seed child it has in basis order,
    values at or below EARLY_STOP_VALUE tie as zero, and ties go to the
    first pair in basis order, so ``value``, ``pair`` and the certificate
    are those of scanning every pair in full, and bit for bit what
    ``dcoef`` gives at the winning pair.  ``restarts_used`` counts the
    starts that ran over the visited pairs, a pair that a closed-form start
    settles counting its 1 or 2 starts, as in dcoef, so it is below the sum
    of the visited pairs' dcoef counts once a pair is beaten; ``converged``
    holds when every visited pair's best start so far converged.  The
    set-up and the certificate are built once per call.
    """
    setup = _dcoef_setup(state, K)
    e = np.array(gell_mann_basis(state.d1))
    f = np.array(gell_mann_basis(state.d2))
    seeds = _as_seed_sequence(seed).spawn(e.shape[0] * f.shape[0])
    found, k = _dcoef_pairs(state, setup, e, f, seeds, restarts, iters, 1e-12)
    return _dcoef_report(state, *found, divmod(k, f.shape[0]))
