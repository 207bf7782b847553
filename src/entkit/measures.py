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
    w = np.linalg.eigvalsh(pt)
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
    out = maps.apply_map(choi.dual, state.mat, state.d2)
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
    """A fresh SeedSequence of ``seed``: a caller's SeedSequence is copied, never spawned from."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size
        )
    return np.random.SeedSequence(seed)


def _spectral_rows(state):
    """Subnormalized eigen-ensemble rows of the state: row i = sqrt(l_i) v_i."""
    w, v = matcore.hermitian_eig(state.mat)
    keep = w > RANK_FLOOR
    lam = w[keep]
    vecs = v[:, keep]
    return (vecs * np.sqrt(lam)).T.copy()


def _budget(rank, K, restarts, iters):
    """The ensemble size K (default rank squared), once the search budget is checked."""
    K = rank * rank if K is None else K
    if K < rank:
        raise ValueError(f"ensemble size {K} below state rank {rank}: infeasible")
    for name, count in (("restarts", restarts), ("iters", iters)):
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")
    return K


def _weights(rows):
    return np.einsum("ij,ij->i", rows, rows.conj()).real


def _isometry_of(rows, base, K):
    """U with rows = U @ base, padded with zero rows to K (base @ base^+ = diag(lam))."""
    u = (rows @ base.conj().T) / _weights(base)
    return np.pad(u, ((0, K - u.shape[0]), (0, 0)))


def _random_isometries(k, rank, seed, skip, count):
    """``count`` random (k, rank) isometries, built lazily.

    Start i orthonormalizes a complex Gaussian matrix drawn from the
    (skip + i)-th child of ``seed``.  Children and starts are made only when
    taken (by ``_StartScan`` one window at a time), so stopping early skips
    their QR factorizations without changing the starts that do run.
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


class _StartScan:
    """The searched starts of one or more groups, stepped as one stack.

    A group is the start list of one search: EOF's one group, or one
    ``dcoef_sup`` pair, of any state of the scan's shape.  Group k's results
    go to ``_multistart`` in start order, as one search alone would take
    them; ``taken[k]`` holds them, None while a start runs.  Once it asks
    for more and none runs, ``_draw`` enters the next starts of
    ``queue[k]``, K x rank isometries U.  ``objective(scan, owner, sign)``
    is the objective of the starts of groups ``owner`` with start signs
    ``sign``, from ``arrays`` (a row per group: spectral rows ``base``, and
    the like); its ``step`` moves them and its ``score`` values a start that
    ended.  A start steps until ``iters`` steps, a gain below ``tol`` or a
    value at or below EARLY_STOP_VALUE, then scores its rows U B; a score at
    or below EARLY_STOP_VALUE, where ``_multistart`` stops, drops its
    group's later starts.  Every start steps as it would alone.
    """

    def __init__(self, objective, split):
        self.objective, self.split = objective, split
        self.taken, self.queue, self.n_structured, self.found, self.arrays = [], [], [], [], {}
        self.best = {}  # per group that drew starts: its best value so far
        self.a = {}  # per searched start: its arrays, stacked

    @classmethod
    def run(cls, searches, objective, iters, tol):
        """The results of ``searches``, generators that each return one or yield its shape.

        A shape (split, rank, K) gets one scan; each of its searches is sent
        it, ``add``s its groups, and is then sent each round's news.
        """
        found, shapes = [None] * len(searches), {}
        for i, search in enumerate(searches):
            try:
                shapes.setdefault(next(search), []).append(i)
            except StopIteration as stop:
                found[i] = stop.value
        for (split, _, _), mine in shapes.items():
            scan = news = cls(objective, split)
            while mine:
                for i in mine:
                    try:
                        searches[i].send(news)
                    except StopIteration as stop:
                        found[i] = stop.value
                mine = [i for i in mine if found[i] is None]
                news = scan.advance(iters, tol) if mine else None
        return found

    def add(self, taken, queue, n_structured, **arrays):
        """Register groups, one per entry of ``taken``, ``queue`` and each array; their indices."""
        first = len(self.taken)
        self.taken, self.queue = self.taken + taken, self.queue + queue
        self.n_structured += [n_structured] * len(taken)
        self.found += [None] * len(taken)
        for key, val in arrays.items():
            self.arrays[key] = np.concatenate([self.arrays.get(key, val[:0]), val])
        return range(first, len(self.taken))

    def _keep(self, keep):  # an empty stack is an empty dict
        self.a = {key: val[keep] for key, val in self.a.items()} if keep.any() else {}

    def above(self, bound, groups):
        """Whether a stacked group of ``groups`` has its best and all starts above ``bound``."""
        owner = self.a["owner"]
        low = set(owner[self.a["line"][:, 0] <= bound].tolist())
        return any(self.best[k] > bound for k in set(owner.tolist()) - low if k in groups)

    def review(self, k, beaten):
        """``_multistart`` of group k's results so far once it settles, else None.

        A group that asks for more with no start running draws its next
        starts, and settles once its starts are spent.
        """
        asked = []

        def so_far():
            yield from itertools.takewhile(lambda result: result is not None, self.taken[k])
            asked.append(True)

        found = _multistart(so_far(), self.n_structured[k], beaten)
        self.best[k] = found[0]
        if asked and (None in self.taken[k] or self._draw(k)):
            return None
        self.found[k] = found
        if self.a:
            self._keep(self.a["owner"] != k)
        return found

    def _draw(self, k):
        """Enter group k's structured starts not yet taken, then RESTART_PATIENCE random ones.

        The random starts are drawn only if no structured start entered here
        is at or below EARLY_STOP_VALUE.  Returns whether any start entered.
        """
        value = self._enter(k, max(0, self.n_structured[k] - len(self.taken[k])))
        if not (value <= EARLY_STOP_VALUE).any():
            value = np.concatenate([value, self._enter(k, RESTART_PATIENCE)])
        return value.size > 0

    def _enter(self, k, count):
        """Put the next ``count`` starts of group k on the stack; their values.

        A start's sign is +-1, so that its value starts at or above zero.
        """
        u = np.array(list(itertools.islice(self.queue[k], count)), dtype=np.complex128)
        n, at = u.shape[0], np.arange(u.shape[0])
        if not n:
            return np.zeros(0)
        owner = np.full(n, k)
        value, parts = self.objective(self, owner, np.ones(n)).value(u, at)
        sign = np.where(value < 0.0, -1.0, 1.0)
        grad = self.objective(self, owner, sign).gradient(u, at, parts)
        value = sign * value
        new = dict(
            u=u, grad=grad, direction=-grad, line=np.stack([value, np.ones(n)], axis=1),
            sign=sign, owner=owner, order=len(self.taken[k]) + at,
            steps=np.zeros(n, dtype=np.int64), ended=value <= EARLY_STOP_VALUE,
        )
        self.taken[k] += [None] * n
        self.a = {key: np.concatenate([self.a[key], val]) if self.a else val
                  for key, val in new.items()}
        return value

    def advance(self, iters, tol):
        """Hand the ended starts to their groups, or else step the stack.

        Returns the groups that got results.
        """
        a = self.a
        objective = self.objective(self, a["owner"], a["sign"])
        done = a["ended"] | (a["steps"] >= iters)
        if not done.any():
            before = a["line"][:, 0].copy()
            objective.step(a["u"], a["grad"], a["direction"], a["line"])
            a["steps"] += 1
            a["ended"] = (before - a["line"][:, 0] < tol) | (a["line"][:, 0] <= EARLY_STOP_VALUE)
            return set()
        keep, news = ~done, set()
        for j in np.flatnonzero(done).tolist():
            k, i = int(a["owner"][j]), int(a["order"][j])
            rows = a["u"][j] @ self.arrays["base"][k]
            value = objective.score(rows, a["line"][j, 0])
            self.taken[k][i] = (value, (rows, None), bool(a["ended"][j]))
            if value <= EARLY_STOP_VALUE:
                keep &= (a["owner"] != k) | (a["order"] < i)
            news.add(k)
        self._keep(keep)
        return news


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
    state as ``_check_barycenter`` says.
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
    _check_barycenter(state, ens.barycenter(), "ensemble barycenter")
    return ens


def _check_barycenter(state, bary, what):
    """Refuse a barycenter ``bary`` that misses the state beyond its allowance.

    That is 1e-9, plus twice the summed magnitude of the eigenvalues that
    ``_spectral_rows`` drops (a state holds them down to -PSD_TOL): the mass
    the rows lack, and the weights renormalized without it.
    """
    err = matcore.frobenius_norm(bary - state.mat)
    if err > 1e-9:
        w = state.eigenvalues()
        if err > 1e-9 + 2.0 * np.abs(w[w <= RANK_FLOOR]).sum():
            raise ValueError(f"{what} misses its state by {err:.3e}")


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
    of RESTART_PATIENCE at a time, and none if a structured start is already
    at EARLY_STOP_VALUE.  They are one group of a ``_StartScan``, as in
    ``dcoef_sup`` and ``evolve_track``: they step as one stack, the
    structured ones padded with zero rows (which stay zero), and the report
    is what running them alone gives, whatever else the stack holds.  A
    start's value is recomputed from its final rows; rank one is exact.

    Two-qubit states get the exact value from Wootters' optimal
    decomposition, whose members all have the state's concurrence; the
    report is converged with ``restarts_used`` 0, and ``restarts``,
    ``iters``, ``tol`` and ``seed`` are unused.  The one exception is a
    separable rank-3 state with K = 3: its decomposition has 4 members, so
    it takes the search.
    """
    return _eof_uppers([state], K, restarts, iters, seed, tol)[0]


def _eof_uppers(many, K, restarts, iters, seed, tol=1e-10):
    """``eof_upper`` of each state, the searches of states of one shape on one start scan."""
    searches = [_eof_search(st, K, restarts, iters, seed) for st in many]
    entropy = lambda scan, owner, sign: kernels._Entropy(scan.arrays["base"][owner], *scan.split)
    return _StartScan.run(searches, entropy, iters, tol)


def _eof_search(state, K, restarts, iters, seed):
    """The search of ``eof_upper``, as ``_StartScan.run`` takes it: the report."""
    base = _spectral_rows(state)
    rank = base.shape[0]
    K = _budget(rank, K, restarts, iters)
    if rank <= 1:
        value = states.von_neumann_entropy(states.restrict(state, 1))
        cert = states.Ensemble(np.array([1.0]), (state,))
        return MeasureReport(value, cert, True, 0)

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
            starts.append(_isometry_of(refined[0], base, K))
    starts.append(np.eye(K, rank))
    queue = itertools.chain(starts, _random_isometries(K, rank, seed, 2, restarts))
    scan = yield state.split, rank, K
    (k,) = scan.add([[]], [queue], len(starts), base=base[None])
    while (found := scan.review(k, -np.inf)) is None:
        yield
    best_value, (best_rows, _), best_converged, used = found
    cert = _ensemble_from_rows(best_rows, d1, d2, state)
    return MeasureReport(max(0.0, best_value), cert, best_converged, used)


# ---------------------------------------------------------------------------
# coefficient of quantum correlations
# ---------------------------------------------------------------------------


def _hermitian_observable(a, d, name):
    m = matcore.as_complex_matrix(a)
    if m.shape[0] != d:
        raise ValueError(f"{name} must be {d}x{d}, got {m.shape[0]}x{m.shape[0]}")
    return matcore.require_hermitian(m, matcore.HERMITICITY_TOL, name)


def _check_rows(state, rows):
    _check_barycenter(state, rows.T @ rows.conj(), "dcoef ensemble")


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
    table = np.concatenate([_weights(rows)[:, None], u, v], axis=1)
    n = table.shape[1]  # group totals of the table's rows
    tot = np.bincount((n * gid[:, None] + np.arange(n)).ravel(), table.ravel()).reshape(-1, n)
    p, ut, vt = tot[:, 0], tot[:, 1 : 1 + e.shape[0]].T, tot[:, 1 + e.shape[0] :].T
    heavy = p > kernels.WEIGHT_FLOOR
    uv = ut[:, None, :] * vt[None, :, :]
    # (n_e, n_f, G) group terms, C-ordered whatever the layout of tot
    terms = np.ascontiguousarray(np.where(heavy, uv / np.where(heavy, p, 1.0), 0.0))
    return np.abs(joint - terms.sum(axis=-1))


def _correlation(scan, owner, sign):
    return kernels._Correlation(scan.arrays["gram"][owner], scan.arrays["target"][owner], sign)


def _dcoef_pairs(state, K, e, f, seeds, restarts, iters, tol):
    """The search of ``_StartScan.run`` for the largest dcoef over the pairs (e_a, f_b).

    Returns the search tuple and the index k; pair k = a * n_f + b takes
    ``seeds[k]``.  The closed-form starts (rows, gid), the one group and a
    refined certificate, are scored at every pair in one contraction, the
    first giving the pair's bound.  Each pair is a group of the scan.  Pairs
    are visited and pruned as ``dcoef_sup`` says; a pair that a running
    pair may still beat waits until it cannot, a beaten one stops.
    """
    base = _spectral_rows(state)
    rank = base.shape[0]
    K = _budget(rank, K, restarts, iters)
    starts = [(base, np.zeros(rank, dtype=np.int64))]
    if rank > 1:
        _check_rows(state, base)
        if state.certificate is not None:
            refined = _refine_product_certificate(state.certificate, *state.split, K)
            if refined is not None:
                _check_rows(state, refined[0])
                starts.append((refined[0], np.unique(refined[1], return_inverse=True)[1]))
    joint = _joint_table(state, e, f)
    closed = np.array([_start_values(*start, e, f, joint).ravel() for start in starts])
    if rank <= 1:  # no search: the one group is the only ensemble
        k = int(np.argmax(np.where(closed[0] > EARLY_STOP_VALUE, closed[0], 0.0)))
        return (float(closed[0, k]), None, None, True, 0), k
    cert = [_isometry_of(start[0], base, K) for start in starts[1:]]
    moves = iters > 0 and tol > 0  # one group cannot move: it converges iff a step runs
    taken, queue = [], []
    for k, values in enumerate(closed.T.tolist()):
        taken.append([(values[0], starts[0], values[0] <= EARLY_STOP_VALUE or moves)])
        settled = bool(cert) and values[1] <= EARLY_STOP_VALUE  # the certificate, unsearched
        taken[-1] += [(values[1], starts[1], True)] if settled else []
        randoms = _random_isometries(K, rank, seeds[k], 3, restarts)
        queue.append(itertools.chain([] if settled else cert, randoms))
    # per pair, the transposed Gram matrices conj(B) A B^T of A = 1, e_a ox 1
    # and 1 ox f_b side by side, each product one matrix of a stack
    d1, d2 = state.split
    g1 = base.conj() @ np.einsum("aij,kl->aikjl", e, np.eye(d2)).reshape(-1, d1 * d2, d1 * d2)
    g2 = base.conj() @ np.einsum("ij,akl->aikjl", np.eye(d1), f).reshape(-1, d1 * d2, d1 * d2)
    g0, g1, g2 = np.diag(_weights(base)) + 0j, g1 @ base.T, g2 @ base.T
    grams = np.broadcast_arrays(g0, g1.swapaxes(1, 2)[:, None], g2.swapaxes(1, 2)[None])
    grams = np.concatenate(grams, axis=-1).reshape(-1, rank, 3 * rank)
    scan = yield state.split, rank, K
    bases = np.broadcast_to(base, (len(taken),) + base.shape)
    pairs = scan.add(taken, queue, len(starts), base=bases, gram=grams, target=joint.ravel())
    # (value, k) of the best pair that ran its course; none yet beats no pair
    best, visited = (-np.inf, len(pairs)), []

    def review(todo):  # settle or feed the pairs with news, lowest k first
        nonlocal best
        while todo:
            k = min(todo)
            todo.discard(k)
            if scan.found[pairs[k]] is not None:
                continue
            # a tie with a lower-k best loses too
            beaten = best[0] if k < best[1] else np.nextafter(best[0], np.inf)
            found = scan.review(pairs[k], beaten)
            if found is None or found[0] < beaten:  # still running, or beaten
                continue
            if found[1][1] is None:  # searched rows
                _check_rows(state, found[1][0])
            key = (found[0] if found[0] > EARLY_STOP_VALUE else 0.0, -k)
            if key > (best[0], -best[1]):
                best = (key[0], k)
                todo |= set(visited)  # the settled ones are skipped

    order = np.argsort(-closed[0], kind="stable").tolist()
    news = set()
    while True:
        review({k - pairs.start for k in news if k in pairs})
        # visit pairs in decreasing order of their bound while it reaches the
        # best value; defer one that a running pair may still beat
        while order and closed[0, order[0]] >= best[0]:
            if scan.a and scan.above(closed[0, order[0]], pairs):
                break
            visited.append(order.pop(0))
            review({visited[-1]})
        else:
            order = []  # the bounds left are below the best value
        if not scan.a or all(scan.found[pairs[k]] is not None for k in visited):  # none runs
            break
        news = yield
    value, (rows, gid), _, _ = scan.found[pairs[best[1]]]
    converged = all(scan.found[pairs[k]][2] for k in visited)
    used = sum(scan.found[pairs[k]][3] for k in visited)
    return (value, rows, gid, converged, used), best[1]


def _dcoef_report(state, value, rows, gid, converged, used, pair=None):
    """Report of a dcoef search; rows None certify the state by itself."""
    if rows is None:
        cert = states.Ensemble(np.array([1.0]), (state,))
    else:
        cert = _ensemble_from_rows(rows, state.d1, state.d2, state, gid)
    return MeasureReport(float(value), cert, converged, used, pair)


def dcoef(state, a1, a2, K=None, restarts=32, iters=60, tol=1e-10, seed=0):
    """Upper bound on the local quantum-correlation coefficient d(phi, a1, a2).

    Minimizes | tr[rho (a1 ox a2)] - sum_g P_g tr(rho_g^1 a1) tr(rho_g^2 a2) |
    over decompositions {P_g, rho_g} of the state.  A mixed group splits
    into pure members with its normalized expectations (Toeplitz-Hausdorff),
    so the search runs over pure ensembles U B of size K, as ``eof_upper``
    does.  The infimum vanishes on separable states, but not only there:
    ``werner_state(p)`` is entangled for p > 1/3, yet its exact value is
    max(0, (5p^2 - 1) / (2(1 + p))) on each of sx ox sx, sy ox sy and
    sz ox sz and zero on the other Pauli pairs.  Small values never certify
    separability; the report remains a one-sided upper bound.

    The starts are the one group (the state) and the refined certificate of
    a state that carries one, both with closed-form values, then
    ``restarts`` random isometries.  A closed-form start at EARLY_STOP_VALUE
    settles the search (``restarts_used`` 1 or 2); else the certificate is
    the first searched start.  A searched start takes up to ``iters``
    conjugate-gradient steps on |target - c| (``kernels._Correlation``) and
    converges once a step gains less than ``tol``.  A step that carries c
    across the target is solved back onto the crossing by regula falsi, so
    zeros come out at or below 1e-15 and stop the restarts.  A rank-one
    state is its own certificate, with ``restarts_used`` 0.
    """
    a1 = _hermitian_observable(a1, state.d1, "a1")
    a2 = _hermitian_observable(a2, state.d2, "a2")
    search = _dcoef_pairs(state, K, a1[None], a2[None], [seed], restarts, iters, tol)
    found, _ = _StartScan.run([search], _correlation, iters, tol)[0]
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
    legs; pairs involving the identity vanish identically.  Like dcoef, the
    supremum vanishes on separable states but also on some entangled ones
    (``werner_state(p)`` for 1/3 < p <= 1/sqrt(5)).

    dcoef(e, f) is at most its one-group value |tr rho(e ox f) -
    tr(rho_1 e) tr(rho_2 f)|, so pairs are visited in decreasing order of it
    and skipped once it is below the value of a pair that has run its
    course.  The visited pairs' searched starts step together as one stack
    (each pair a group of a ``_StartScan``, as in ``eof_upper``), and a pair
    leaves it once its best value so far is below such a value,
    or equal to it and later in basis order: it can no longer win.  Each
    pair keeps the seed child it has in basis order, values at or below
    EARLY_STOP_VALUE tie as zero and ties go to the first pair, so
    ``value``, ``pair`` and the certificate are those of scanning every
    pair in full, bit for bit what ``dcoef`` gives at the winning pair.
    ``restarts_used`` counts the starts each visited pair took, and
    ``converged`` holds when every visited pair's best start so far did.
    """
    return _dcoef_sups([state], K, restarts, iters, seed)[0]


def _dcoef_sups(many, K, restarts, iters, seed):
    """``dcoef_sup`` of each state, the searches of states of one shape on one start scan."""
    searches = []
    for state in many:
        e, f = (np.array(gell_mann_basis(d)) for d in state.split)
        seeds = _as_seed_sequence(seed).spawn(e.shape[0] * f.shape[0])
        searches.append(_dcoef_pairs(state, K, e, f, seeds, restarts, iters, 1e-10))
    found = _StartScan.run(searches, _correlation, iters, 1e-10)
    return [_dcoef_report(st, *res, divmod(k, st.d2**2 - 1)) for st, (res, k) in zip(many, found)]
