"""Separability probes and quantitative entanglement measures.

The optimization-based quantities (entanglement-of-formation bound, the
correlation coefficient and its supremum) are upper bounds computed by
random-restart local search over ensemble decompositions; verdict fields
never claim separability from small values alone.
"""

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
    seq = _as_seed_sequence(seed)
    children = seq.spawn(restarts + 2)

    start_rows = []
    if state.certificate is not None:
        refined = _refine_product_certificate(state.certificate, d1, d2, K)
        if refined is not None:
            start_rows.append(refined)
    start_rows.append(base)
    rngs = [np.random.default_rng(c) for c in children]
    for i in range(restarts):
        g = rngs[2 + i].standard_normal((rank, rank)) + 1j * rngs[
            2 + i
        ].standard_normal((rank, rank))
        u, _ = np.linalg.qr(g)
        start_rows.append(u @ base)

    best_value = np.inf
    best_rows = None
    best_converged = False
    used = 0
    n_structured = len(start_rows) - restarts
    since_improved = 0
    for idx, rows in enumerate(start_rows):
        used += 1
        rows = np.ascontiguousarray(rows, dtype=np.complex128)
        converged = False
        for size in _ladder_sizes(rows.shape[0], K):
            _, ew = kernels.column_scores(rows, d1, d2)
            rows, _ = _grow_split(rows, size, ew)
            _, ew = kernels.column_scores(rows, d1, d2)
            converged = False
            for _ in range(iters):
                gained = kernels.eof_sweep(rows, ew, d1, d2)
                if gained < tol:
                    converged = True
                    break
            if ew.sum() <= EARLY_STOP_VALUE:
                converged = True
                break
        value = float(kernels.column_scores(rows, d1, d2)[1].sum())
        if value < best_value - 1e-15:
            best_value = value
            best_rows = rows
            best_converged = converged
            since_improved = 0
        elif idx >= n_structured:
            since_improved += 1
        if best_value <= EARLY_STOP_VALUE:
            break
        if idx >= n_structured and since_improved >= RESTART_PATIENCE:
            break

    cert = _ensemble_from_rows(best_rows, d1, d2, state)
    return MeasureReport(max(0.0, best_value), cert, best_converged, used)


# ---------------------------------------------------------------------------
# coefficient of quantum correlations
# ---------------------------------------------------------------------------


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

    def _refresh_members(self):
        e = self.rows
        self.p = _weights(e)
        self.u = np.einsum("ij,jk,ik->i", e.conj(), self.big1, e).real
        self.v = np.einsum("ij,jk,ik->i", e.conj(), self.big2, e).real

    def _refresh_groups(self):
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

    def _pair_grid(self, a, b, cross, th, ph):
        paa, pbb, pab = cross["p"]
        uaa, ubb, uab = cross["u"]
        vaa, vbb, vab = cross["v"]
        ga, gb = int(self.gid[a]), int(self.gid[b])
        c = np.cos(th)[:, None]
        s = np.sin(th)[:, None]
        z = np.exp(1j * ph)[None, :]
        c2, s2, cs = c * c, s * s, c * s
        rp = 2.0 * cs * np.real(z * pab)
        ru = 2.0 * cs * np.real(z * uab)
        rv = 2.0 * cs * np.real(z * vab)
        pa2 = c2 * paa + s2 * pbb - rp
        pb2 = s2 * paa + c2 * pbb + rp
        ua2 = c2 * uaa + s2 * ubb - ru
        ub2 = s2 * uaa + c2 * ubb + ru
        va2 = c2 * vaa + s2 * vbb - rv
        vb2 = s2 * vaa + c2 * vbb + rv
        pga = self.group_p[ga] - paa + pa2
        uga = self.group_u[ga] - uaa + ua2
        vga = self.group_v[ga] - vaa + va2
        pgb = self.group_p[gb] - pbb + pb2
        ugb = self.group_u[gb] - ubb + ub2
        vgb = self.group_v[gb] - vbb + vb2
        old_terms = self._term(
            self.group_p[ga], self.group_u[ga], self.group_v[ga]
        ) + self._term(self.group_p[gb], self.group_u[gb], self.group_v[gb])
        ta = np.where(
            pga > _grids.WEIGHT_FLOOR,
            uga * vga / np.where(pga > _grids.WEIGHT_FLOOR, pga, 1.0),
            0.0,
        )
        tb = np.where(
            pgb > _grids.WEIGHT_FLOOR,
            ugb * vgb / np.where(pgb > _grids.WEIGHT_FLOOR, pgb, 1.0),
            0.0,
        )
        cl = self.classical - old_terms + ta + tb
        return np.abs(self.target - cl)

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
                ea, eb = self.rows[a], self.rows[b]
                cross = {
                    "p": (self.p[a], self.p[b], complex(ea.conj() @ eb)),
                    "u": (
                        self.u[a],
                        self.u[b],
                        complex(ea.conj() @ (self.big1 @ eb)),
                    ),
                    "v": (
                        self.v[a],
                        self.v[b],
                        complex(ea.conj() @ (self.big2 @ eb)),
                    ),
                }
                base = self.objective
                vals = self._pair_grid(a, b, cross, _grids.THETAS, _grids.PHIS)
                flat = int(np.argmin(vals))
                best = float(vals.flat[flat])
                th = _grids.THETAS[flat // _grids.PHIS.shape[0]]
                ph = _grids.PHIS[flat % _grids.PHIS.shape[0]]
                if best >= base - _grids.ACCEPT_EPS:
                    continue
                dth, dph = _grids.THETA_STEP0, _grids.PHI_STEP0
                for _ in range(_grids.REFINE_ROUNDS):
                    cth = np.clip(
                        np.array([th - dth, th, th + dth]), 1e-9, np.pi / 2 - 1e-9
                    )
                    cph = np.array([ph - dph, ph, ph + dph])
                    vals = self._pair_grid(a, b, cross, cth, cph)
                    flat = int(np.argmin(vals))
                    if vals.flat[flat] < best:
                        best = float(vals.flat[flat])
                        th = cth[flat // 3]
                        ph = cph[flat % 3]
                    dth *= 0.5
                    dph *= 0.5
                if best >= base - _grids.ACCEPT_EPS:
                    continue
                cth, sth = np.cos(th), np.sin(th)
                z = np.exp(1j * ph)
                new_a = cth * ea - sth * z * eb
                new_b = sth * z.conjugate() * ea + cth * eb
                self.rows[a] = new_a
                self.rows[b] = new_b
                self._refresh_members()
                self._refresh_groups()
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
    Zero exactly characterizes separability, so small values on certified
    separable inputs and large values on entangled ones are the expected
    pattern; the report remains a one-sided upper bound.
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

    seq = _as_seed_sequence(seed)
    children = seq.spawn(restarts + 3)
    rngs = [np.random.default_rng(c) for c in children]

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
    for i in range(restarts):
        g = rngs[3 + i].standard_normal((rank, rank)) + 1j * rngs[
            3 + i
        ].standard_normal((rank, rank))
        u, _ = np.linalg.qr(g)
        starts.append((u @ base, np.arange(rank, dtype=np.int64)))

    best_value = np.inf
    best_snapshot = None
    best_converged = False
    used = 0
    n_structured = len(starts) - restarts
    since_improved = 0
    for idx, (rows, gid) in enumerate(starts):
        used += 1
        ens = _GroupedEnsemble(rows, gid, big1, big2, target)
        converged = False
        for size in _ladder_sizes(rows.shape[0], K):
            ens.grow(size)
            converged = False
            for _ in range(iters):
                gained = ens.rotation_sweep() + ens.merge_pass()
                if gained < tol:
                    converged = True
                    break
            if ens.objective <= EARLY_STOP_VALUE:
                converged = True
                break
        value = ens.objective
        if value < best_value - 1e-15:
            best_value = value
            best_snapshot = (ens.rows.copy(), ens.gid.copy())
            best_converged = converged
            since_improved = 0
        elif idx >= n_structured:
            since_improved += 1
        if best_value <= EARLY_STOP_VALUE:
            break
        if idx >= n_structured and since_improved >= RESTART_PATIENCE:
            break

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
    elements are scanned.  Near-zero values indicate separability; the
    converse direction is certified by any single large pair.
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
