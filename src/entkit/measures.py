"""Separability probes and quantitative entanglement measures.

The optimization-based quantities (entanglement-of-formation bound, the
correlation coefficient and its supremum) are upper bounds computed by
random-restart local search over ensemble decompositions; verdict fields
never claim separability from small values alone.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import matcore, states
from . import kernels
from .kernels import _grids

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
    """Result of an optimization-based measure; the value is an upper bound."""

    value: float
    certificate: object
    converged: bool
    restarts_used: int

    def to_json(self):
        obj = {
            "value": float(self.value),
            "converged": bool(self.converged),
            "restarts_used": int(self.restarts_used),
        }
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


def _grow_split(rows, size, scores):
    """Pad the ensemble to ``size`` by halving its heaviest contributors.

    Splits are objective-neutral (parallel twins), so growth never hurts;
    subsequent sweeps exploit the extra members.  ``scores`` ranks donors
    (typically the weighted entropies); ties and zeros fall back to weight.
    """
    old = rows.shape[0]
    if size <= old:
        return rows, list(range(old))
    out = np.zeros((size, rows.shape[1]), dtype=np.complex128)
    out[:old] = rows
    score = np.zeros(size)
    score[:old] = scores
    weight = np.zeros(size)
    weight[:old] = _weights(rows)
    donors = []
    half = np.sqrt(0.5)
    for slot in range(old, size):
        cand = score[:slot]
        donor = int(np.argmax(cand))
        if cand[donor] <= 0.0:
            donor = int(np.argmax(weight[:slot]))
        out[slot] = half * out[donor]
        out[donor] = half * out[donor]
        score[slot] = score[donor] = score[donor] / 2.0
        weight[slot] = weight[donor] = weight[donor] / 2.0
        donors.append(donor)
    return out, donors


def _random_starts(base, seed, skip, count):
    """``count`` random unitary recombinations u @ base, built lazily.

    Start i draws u from the (skip + i)-th child of ``seed``.  Children and
    starts are made only when the search loop reaches them, so stopping
    early skips their QR factorizations without changing the starts that
    do run.
    """
    seq = _as_seed_sequence(seed)
    seq.spawn(skip)
    rank = base.shape[0]
    for _ in range(count):
        rng = np.random.default_rng(seq.spawn(1)[0])
        g = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
        u, _ = np.linalg.qr(g)
        yield u @ base


def _multistart(starts, n_structured, search):
    """Run ``search`` on each start; keep the best (value, snapshot, converged).

    The first ``n_structured`` starts always run.  The loop stops once the
    best value reaches ``EARLY_STOP_VALUE``, or after ``RESTART_PATIENCE``
    random starts in a row fail to improve it.  Returns the best value,
    snapshot and converged flag, and the number of starts used.
    """
    best_value, best_snapshot, best_converged = np.inf, None, False
    used = since_improved = 0
    for idx, start in enumerate(starts):
        used += 1
        value, snapshot, converged = search(start)
        if value < best_value - 1e-15:
            best_value, best_snapshot, best_converged = value, snapshot, converged
            since_improved = 0
        elif idx >= n_structured:
            since_improved += 1
        if best_value <= EARLY_STOP_VALUE:
            break
        if idx >= n_structured and since_improved >= RESTART_PATIENCE:
            break
    return best_value, best_snapshot, best_converged, used


def _refine_product_certificate(cert, d1, d2, cap):
    """Pure-product refinement of a separable certificate, or None.

    Product components are split along their factor eigenbases so the
    refined pure ensemble still has zero average marginal entropy; the
    refinement is skipped when it would exceed ``cap`` members.
    """
    rows = []
    for lam, comp in zip(cert.weights, cert.components):
        r1 = matcore.partial_trace(comp.mat, (d1, d2), keep=1)
        r2 = matcore.partial_trace(comp.mat, (d1, d2), keep=2)
        if matcore.frobenius_norm(matcore.kron(r1, r2) - comp.mat) > 1e-10:
            w, v = matcore.hermitian_eig(comp.mat)
            for k in range(w.shape[0]):
                if w[k] > RANK_FLOOR:
                    rows.append(np.sqrt(lam * w[k]) * v[:, k])
            continue
        w1, v1 = matcore.hermitian_eig(r1)
        w2, v2 = matcore.hermitian_eig(r2)
        for a in range(d1):
            if w1[a] <= RANK_FLOOR:
                continue
            for b in range(d2):
                if w2[b] <= RANK_FLOOR:
                    continue
                vec = np.kron(v1[:, a], v2[:, b])
                rows.append(np.sqrt(lam * w1[a] * w2[b]) * vec)
    if len(rows) > cap:
        return None
    return np.array(rows, dtype=np.complex128)


def _ensemble_from_rows(rows, d1, d2, state, tol=1e-9):
    p = _weights(rows)
    keep = p > 1e-12
    p = p[keep]
    comps = tuple(
        states.DensityMatrix(np.outer(r, r.conj()) / pw, d1, d2)
        for r, pw in zip(rows[keep], p)
    )
    ens = states.Ensemble(p / p.sum(), comps)
    ens.check_barycenter(state, tol=tol)
    return ens


# ---------------------------------------------------------------------------
# entanglement of formation (upper bound)
# ---------------------------------------------------------------------------


def eof_upper(state, K=None, restarts=32, iters=60, tol=1e-10, seed=0):
    """Upper bound on the entanglement of formation, in bits.

    Minimizes the ensemble-average marginal entropy over pure
    decompositions of size ``K`` (default rank squared), realized through
    the purification parametrization: all size-K pure ensembles are unitary
    recombinations of the eigen-ensemble.  Rank-one states short-circuit to
    the exact value S(tr_2 psi).
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
    starts = []
    if state.certificate is not None:
        refined = _refine_product_certificate(state.certificate, d1, d2, K)
        if refined is not None:
            starts.append(refined)
    starts.append(base)
    n_structured = len(starts)

    def search(rows):
        rows = np.array(rows, dtype=np.complex128)  # sweeps work in place
        converged = False
        _, ew = kernels.column_scores(rows, d1, d2)
        for size in _ladder_sizes(rows.shape[0], K):
            if size > rows.shape[0]:
                rows, _ = _grow_split(rows, size, ew)
                _, ew = kernels.column_scores(rows, d1, d2)
            converged = False
            if ew.sum() > EARLY_STOP_VALUE:
                for _ in range(iters):
                    if kernels.eof_sweep(rows, ew, d1, d2) < tol:
                        converged = True
                        break
            if ew.sum() <= EARLY_STOP_VALUE:
                converged = True
                break
        value = float(kernels.column_scores(rows, d1, d2)[1].sum())
        return value, rows, converged

    best_value, best_rows, best_converged, used = _multistart(
        itertools.chain(starts, _random_starts(base, seed, 2, restarts)),
        n_structured,
        search,
    )
    cert = _ensemble_from_rows(best_rows, d1, d2, state)
    return MeasureReport(max(0.0, best_value), cert, best_converged, used)


# ---------------------------------------------------------------------------
# coefficient of quantum correlations
# ---------------------------------------------------------------------------


def _group_terms(tot):
    """u v / p for each row (p, u, v) of ``tot``, zero below the weight floor."""
    heavy = tot[:, 0] > _grids.WEIGHT_FLOOR
    return np.where(heavy, tot[:, 1] * tot[:, 2] / np.where(heavy, tot[:, 0], 1.0), 0.0)


class _GroupedEnsemble:
    """Pure rows plus a grouping into mixed components, with caches.

    The classical correlation of the grouped ensemble for observables
    (a1, a2) is sum_g U_g V_g / P_g where P, U, V are group totals of the
    member weight and the subnormalized expectations <w|a1 ox 1|w>,
    <w|1 ox a2|w>.  Rotations inside one group leave the objective alone,
    so only cross-group rotations and group merges are searched.
    """

    def __init__(self, rows, gid, big1, big2, target):
        self.rows = np.ascontiguousarray(rows, dtype=np.complex128)
        self.gid = np.asarray(gid, dtype=np.int64).copy()
        self.big1 = big1
        self.big2 = big2
        self.target = target
        self._refresh_members()
        self._refresh_groups()

    def _member_terms(self, e):
        return (
            _weights(e),
            np.einsum("ij,jk,ik->i", e.conj(), self.big1, e).real,
            np.einsum("ij,jk,ik->i", e.conj(), self.big2, e).real,
        )

    def _refresh_members(self):
        self.p, self.u, self.v = self._member_terms(self.rows)

    def _refresh_groups(self, labels=None):
        """Recompute the group totals of ``labels`` (default: every group)."""
        if labels is None:
            labels = np.unique(self.gid)
            self.group_p = {}
            self.group_u = {}
            self.group_v = {}
        for g in labels:
            sel = self.gid == g
            self.group_p[int(g)] = float(self.p[sel].sum())
            self.group_u[int(g)] = float(self.u[sel].sum())
            self.group_v[int(g)] = float(self.v[sel].sum())
        self.classical = sum(
            self._term(self.group_p[g], self.group_u[g], self.group_v[g])
            for g in self.group_p
        )

    @staticmethod
    def _term(pg, ug, vg):
        if pg <= _grids.WEIGHT_FLOOR:
            return 0.0
        return ug * vg / pg

    @property
    def objective(self):
        return abs(self.target - self.classical)

    def grow(self, size):
        self.rows, donors = _grow_split(self.rows, size, self.p.copy())
        gid = np.zeros(size, dtype=np.int64)
        gid[: self.gid.shape[0]] = self.gid
        for slot, donor in zip(range(self.gid.shape[0], size), donors):
            gid[slot] = gid[donor]
        self.gid = gid
        self._refresh_members()
        self._refresh_groups()

    def _totals(self, g):
        return np.array([self.group_p[g], self.group_u[g], self.group_v[g]])

    def _rotation_objective(self, a, b):
        """Scorer of the rotations of rows a and b, for ``kernels._best_rotation``.

        Member weight and expectations are quadratic forms, so they rotate
        like the marginals of the EOF sweep: ``basis`` holds the (p, u, v) of
        both rows and twice the real and imaginary parts of the cross terms
        <b|.|a>.  Only the two groups of a and b change.
        """
        ea, eb = self.rows[a], self.rows[b]
        own = np.array(
            [[self.p[a], self.u[a], self.v[a]], [self.p[b], self.u[b], self.v[b]]]
        )
        cross = eb.conj() @ np.array([ea, self.big1 @ ea, self.big2 @ ea]).T
        basis = np.vstack([own, 2.0 * cross.real, 2.0 * cross.imag])
        tot_a = self._totals(int(self.gid[a]))
        tot_b = self._totals(int(self.gid[b]))
        rest = self.classical - self._term(*tot_a) - self._term(*tot_b)

        def objective(table):
            coef, rows_a, rows_b = table
            q = coef @ basis
            cl = rest + _group_terms(tot_a - own[0] + q[rows_a])
            cl = cl + _group_terms(tot_b - own[1] + q[rows_b])
            return np.abs(self.target - cl)

        return objective

    def rotation_sweep(self):
        """One pass of cross-group two-member rotations; returns the gain."""
        k = self.rows.shape[0]
        gained = 0.0
        for a in range(k - 1):
            for b in range(a + 1, k):
                if self.gid[a] == self.gid[b]:
                    continue
                if self.p[a] + self.p[b] < 2 * _grids.WEIGHT_FLOOR:
                    continue
                objective = self._rotation_objective(a, b)
                base = self.objective
                rot = kernels._best_rotation(
                    objective, objective(kernels._COARSE), base
                )
                if rot is None:
                    continue
                kernels._rotate(self.rows, a, b, *rot)
                pair = [a, b]
                self.p[pair], self.u[pair], self.v[pair] = self._member_terms(
                    self.rows[pair]
                )
                self._refresh_groups({int(self.gid[a]), int(self.gid[b])})
                gained += base - self.objective
        return gained

    def merge_pass(self):
        """Greedy group merges (coarse-graining) while they improve."""
        gained = 0.0
        while True:
            labels = sorted(self.group_p)
            base = self.objective
            best = None
            for i, ga in enumerate(labels):
                for gb in labels[i + 1 :]:
                    t_old = self._term(
                        self.group_p[ga], self.group_u[ga], self.group_v[ga]
                    ) + self._term(self.group_p[gb], self.group_u[gb], self.group_v[gb])
                    t_new = self._term(
                        self.group_p[ga] + self.group_p[gb],
                        self.group_u[ga] + self.group_u[gb],
                        self.group_v[ga] + self.group_v[gb],
                    )
                    obj = abs(self.target - (self.classical - t_old + t_new))
                    if obj < base - _grids.ACCEPT_EPS and (
                        best is None or obj < best[0]
                    ):
                        best = (obj, ga, gb)
            if best is None:
                return gained
            _, ga, gb = best
            self.gid[self.gid == gb] = ga
            self._refresh_groups()
            gained += base - self.objective

    def to_ensemble(self, d1, d2, state):
        labels = sorted(self.group_p)
        weights = []
        comps = []
        for g in labels:
            sel = self.gid == g
            pg = float(self.p[sel].sum())
            if pg <= 1e-12:
                continue
            mat = np.zeros((d1 * d2, d1 * d2), dtype=np.complex128)
            for r in self.rows[sel]:
                mat += np.outer(r, r.conj())
            weights.append(pg)
            comps.append(states.DensityMatrix(mat / pg, d1, d2))
        w = np.array(weights)
        ens = states.Ensemble(w / w.sum(), tuple(comps))
        ens.check_barycenter(state, tol=1e-9)
        return ens


def _hermitian_observable(a, d, name):
    m = matcore.as_complex_matrix(a)
    if m.shape[0] != d:
        raise ValueError(f"{name} must be {d}x{d}, got {m.shape[0]}x{m.shape[0]}")
    defect = matcore.hermiticity_defect(m)
    if defect > matcore.HERMITICITY_TOL:
        raise ValueError(f"{name} must be hermitian (defect {defect:.3e})")
    return (m + m.conj().T) / 2.0


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
    """
    d1, d2 = state.split
    a1 = _hermitian_observable(a1, d1, "a1")
    a2 = _hermitian_observable(a2, d2, "a2")
    big1 = matcore.kron(a1, np.eye(d2))
    big2 = matcore.kron(np.eye(d1), a2)
    target = float(np.trace(state.mat @ matcore.kron(a1, a2)).real)

    base = _spectral_rows(state)
    rank = base.shape[0]
    if rank <= 1:
        r1 = matcore.partial_trace(state.mat, state.split, keep=1)
        r2 = matcore.partial_trace(state.mat, state.split, keep=2)
        value = abs(target - np.trace(r1 @ a1).real * np.trace(r2 @ a2).real)
        cert = states.Ensemble(np.array([1.0]), (state,))
        return MeasureReport(value, cert, True, 0)
    if K is None:
        K = rank * rank
    if K < rank:
        raise ValueError(f"ensemble size {K} below state rank {rank}: infeasible")

    starts = [
        (base.copy(), np.zeros(rank, dtype=np.int64)),  # trivial: one group
    ]
    if state.certificate is not None:
        cert_rows = []
        cert_gid = []
        for ci, (lam, comp) in enumerate(
            zip(state.certificate.weights, state.certificate.components)
        ):
            w, v = matcore.hermitian_eig(comp.mat)
            for k in range(w.shape[0]):
                if w[k] > RANK_FLOOR:
                    cert_rows.append(np.sqrt(lam * w[k]) * v[:, k])
                    cert_gid.append(ci)
        if len(cert_rows) <= K:
            starts.append(
                (np.array(cert_rows), np.array(cert_gid, dtype=np.int64))
            )
    starts.append((base.copy(), np.arange(rank, dtype=np.int64)))  # spectral
    n_structured = len(starts)
    spectral_gid = np.arange(rank, dtype=np.int64)

    def search(start):
        rows, gid = start
        ens = _GroupedEnsemble(rows, gid, big1, big2, target)
        converged = False
        for size in _ladder_sizes(rows.shape[0], K):
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
        return ens.objective, (ens.rows.copy(), ens.gid.copy()), converged

    best_value, best_snapshot, best_converged, used = _multistart(
        itertools.chain(
            starts,
            ((rows, spectral_gid) for rows in _random_starts(base, seed, 3, restarts)),
        ),
        n_structured,
        search,
    )
    final = _GroupedEnsemble(best_snapshot[0], best_snapshot[1], big1, big2, target)
    cert = final.to_ensemble(d1, d2, state)
    return MeasureReport(float(best_value), cert, best_converged, used)


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
    """
    basis1 = gell_mann_basis(state.d1)
    basis2 = gell_mann_basis(state.d2)
    pairs = [(e, f) for e in basis1 for f in basis2]
    seq = _as_seed_sequence(seed)
    children = seq.spawn(len(pairs))
    best = None
    total_restarts = 0
    all_converged = True
    for (e, f), child in zip(pairs, children):
        rep = dcoef(state, e, f, K=K, restarts=restarts, iters=iters, seed=child)
        total_restarts += rep.restarts_used
        all_converged = all_converged and rep.converged
        if best is None or rep.value > best.value:
            best = rep
    return MeasureReport(best.value, best.certificate, all_converged, total_restarts)
