"""Reference computations and certificate checks, written apart from entkit.

Nothing here imports entkit.  Partial traces and transposes are explicit
reshapes, spectra come from ``numpy.linalg`` directly, and the closed forms
are the published ones:

* Wootters, PRL 80, 2245 (1998): two-qubit entanglement of formation from
  the concurrence;
* Terhal & Vollbrecht, PRL 85, 2625 (2000): isotropic-state entanglement of
  formation as the lower convex envelope of R(F);
* the spectra of the isotropic state and of its partial transpose, from
  which the witness minima and the depolarizing separability time follow.

``self_check`` evaluates each of them at a known point; the benchmark
refuses to run when one of them is off.
"""

import functools
import math

import numpy as np

LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# linear algebra on bipartite operators (first factor is the slow index)
# ---------------------------------------------------------------------------


def ptrace(mat, d1, d2, keep):
    t = np.asarray(mat).reshape(d1, d2, d1, d2)
    return np.trace(t, axis1=1, axis2=3) if keep == 1 else np.trace(t, axis1=0, axis2=2)


def ptranspose(mat, d1, d2, leg):
    t = np.asarray(mat).reshape(d1, d2, d1, d2)
    t = t.transpose(2, 1, 0, 3) if leg == 1 else t.transpose(0, 3, 2, 1)
    return t.reshape(d1 * d2, d1 * d2)


def min_eig(mat):
    m = np.asarray(mat)
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])


def entropy_bits(mat):
    w = np.linalg.eigvalsh(mat)
    w = w[w > 1e-14]
    return float(-(w * np.log(w)).sum() / LOG2)


def binary_entropy(x):
    return sum(-t * math.log2(t) for t in (x, 1.0 - x) if t > 1e-300)


def isotropic_matrix(f, d):
    omega = np.eye(d).reshape(d * d) / math.sqrt(d)
    proj = np.outer(omega, omega)
    return f * proj + (1.0 - f) * (np.eye(d * d) - proj) / (d * d - 1)


def werner_matrix(p):
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return p * np.outer(psi, psi) + (1.0 - p) * np.eye(4) / 4.0


def gell_mann(d):
    """The d*d - 1 generalized Gell-Mann matrices, tr(l_a l_b) = 2 delta_ab."""
    out = []
    for j in range(d):
        for k in range(j + 1, d):
            s = np.zeros((d, d), dtype=complex)
            s[j, k] = s[k, j] = 1.0
            a = np.zeros((d, d), dtype=complex)
            a[j, k], a[k, j] = -1j, 1j
            out += [s, a]
    for l in range(1, d):
        diag = np.concatenate([np.ones(l), [-float(l)], np.zeros(d - l - 1)])
        out.append(math.sqrt(2.0 / (l * (l + 1))) * np.diag(diag).astype(complex))
    return out


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def wootters_eof(rho):
    """Exact two-qubit entanglement of formation, in bits."""
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy)
    r = rho @ yy @ rho.conj() @ yy
    ev = np.sort(np.sqrt(np.abs(np.linalg.eigvals(r).real)))
    c = max(0.0, ev[3] - ev[2] - ev[1] - ev[0])
    if c == 0.0:
        return 0.0
    return binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def _tv_r(f, d):
    gamma = (np.sqrt(f) + np.sqrt((d - 1) * (1.0 - f))) ** 2 / d
    gamma = np.clip(gamma, 0.0, 1.0)
    h = np.zeros_like(gamma)
    for t in (gamma, 1.0 - gamma):
        pos = t > 1e-300
        h[pos] -= t[pos] * np.log2(t[pos])
    return h + (1.0 - gamma) * math.log2(d - 1) if d > 2 else h


@functools.cache
def _tv_hull(d, n=20001):
    """Lower convex hull of R(F) sampled on [1/d, 1] (monotone chain)."""
    f = np.linspace(1.0 / d, 1.0, n)
    r = _tv_r(f, d)
    hull = []
    for i in range(n):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (f[b] - f[a]) * (r[i] - r[a]) - (r[b] - r[a]) * (f[i] - f[a])
            if cross > 0:
                break
            hull.pop()
        hull.append(i)
    return f, r, np.array(hull)


def tv_isotropic_eof(fid, d):
    """Terhal-Vollbrecht EOF of the d x d isotropic state of fidelity ``fid``.

    Where the hull follows R itself (adjacent samples) R is returned exactly;
    on the linear stretch the hull chord is interpolated.
    """
    if fid <= 1.0 / d:
        return 0.0
    f, r, hull = _tv_hull(d)
    pos = int(np.searchsorted(f[hull], fid))
    a, b = hull[max(pos - 1, 0)], hull[min(pos, len(hull) - 1)]
    if b - a <= 1:
        return float(_tv_r(np.array([fid]), d)[0])
    w = (fid - f[a]) / (f[b] - f[a])
    return float((1.0 - w) * r[a] + w * r[b])


def isotropic_pt_spectrum(fid, d):
    """Eigenvalues of the partial transpose: (symmetric, antisymmetric)."""
    return (1.0 + fid * d) / (d * (d + 1)), (1.0 - fid * d) / (d * (d - 1))


def isotropic_witness_min(name, fid, d):
    """Minimum eigenvalue of (map x id)(rho_F) for the catalog witness maps."""
    sym, anti = isotropic_pt_spectrum(fid, d)
    if name == "transpose":
        return min(sym, anti)
    if name == "reduction":  # I x rho_B - rho, rho_B = I/d
        return 1.0 / d - max(fid, (1.0 - fid) / (d * d - 1))
    if name == "werner_holevo":  # (I x rho_B - rho^T1) / (d - 1)
        return (1.0 / d - max(sym, anti)) / (d - 1)
    raise ValueError(name)


def isotropic_negativity(fid, d):
    return max(0.0, -isotropic_pt_spectrum(fid, d)[1]) * d * (d - 1) / 2.0


def depolarizing_tstar(fid, d, rate=1.0):
    """Time at which depolarizing leg 1 of rho_F makes it separable."""
    return math.log((fid - 1.0 / d**2) / (1.0 / d - 1.0 / d**2)) / rate


def witness_output(name, rho, d1, d2):
    """(map x id)(rho) for the catalog witness maps, built directly."""
    eye_rho_b = np.kron(np.eye(d1), ptrace(rho, d1, d2, keep=2))
    if name == "transpose":
        return ptranspose(rho, d1, d2, leg=1)
    if name == "reduction":
        return eye_rho_b - rho
    if name == "werner_holevo":
        return (eye_rho_b - ptranspose(rho, d1, d2, leg=1)) / (d1 - 1)
    raise ValueError(name)


# ---------------------------------------------------------------------------
# certificate checks; each returns a list of problems, empty when sound
# ---------------------------------------------------------------------------


def _barycenter(weights, comps):
    return sum(w * c for w, c in zip(weights, comps))


def check_eof(rho, d1, d2, value, weights, comps, exact=None):
    errs = []
    if abs(sum(weights) - 1.0) > 1e-9 or min(weights) <= 0.0:
        errs.append("ensemble weights are not a probability vector")
    miss = np.abs(_barycenter(weights, comps) - rho).max()
    if miss > 1e-8:
        errs.append(f"barycenter misses the state by {miss:.2e}")
    for c in comps:
        if np.linalg.eigvalsh(c)[-2] > 1e-8:
            errs.append("ensemble component is not pure")
            break
    avg = sum(w * entropy_bits(ptrace(c, d1, d2, keep=1)) for w, c in zip(weights, comps))
    if abs(avg - value) > 1e-8:
        errs.append(f"average marginal entropy {avg!r} differs from value {value!r}")
    if exact is not None and value < exact - 1e-9:
        errs.append(f"value {value!r} below the exact EOF {exact!r}")
    return errs


def dcoef_pair_values(rho, d1, d2, weights, comps):
    """Per Gell-Mann pair: (certificate objective, trivial-ensemble value)."""
    r1 = ptrace(rho, d1, d2, keep=1)
    r2 = ptrace(rho, d1, d2, keep=2)
    m1 = [ptrace(c, d1, d2, keep=1) for c in comps]
    m2 = [ptrace(c, d1, d2, keep=2) for c in comps]
    cert, trivial = [], []
    for e in gell_mann(d1):
        for f in gell_mann(d2):
            target = np.trace(rho @ np.kron(e, f)).real
            cl = sum(
                w * np.trace(a @ e).real * np.trace(b @ f).real
                for w, a, b in zip(weights, m1, m2)
            )
            cert.append(abs(target - cl))
            trivial.append(abs(target - np.trace(r1 @ e).real * np.trace(r2 @ f).real))
    return np.array(cert), np.array(trivial)


def check_dcoef_sup(rho, d1, d2, value, weights, comps):
    errs = []
    miss = np.abs(_barycenter(weights, comps) - rho).max()
    if miss > 1e-8:
        errs.append(f"barycenter misses the state by {miss:.2e}")
    cert, trivial = dcoef_pair_values(rho, d1, d2, weights, comps)
    gap = np.abs(cert - value).min()
    if gap > 1e-8:
        errs.append(f"no Gell-Mann pair reproduces {value!r} (closest off by {gap:.2e})")
    if value > trivial.max() + 1e-9:
        errs.append(f"value {value!r} above the trivial-ensemble maximum {trivial.max()!r}")
    return errs


def check_split(cmat, d_in, d_out, part_cp, residual):
    """A decomposable verdict: A >= 0 and (C - A)^G >= 0 within the residual."""
    errs = []
    slack = 1e-9 + max(residual, 0.0)
    lo_a = min_eig(part_cp)
    lo_b = min_eig(ptranspose(cmat - part_cp, d_in, d_out, leg=2))
    if lo_a < -1e-9:
        errs.append(f"CP part has eigenvalue {lo_a:.3e}")
    if lo_b < -slack:
        errs.append(f"co-CP part has transposed eigenvalue {lo_b:.3e}")
    return errs


# ---------------------------------------------------------------------------
# self check at known points
# ---------------------------------------------------------------------------


def self_check():
    """Raise ValueError when a reference misses its known value."""
    problems = []

    def near(label, got, want, tol):
        if not abs(got - want) <= tol:
            problems.append(f"{label}: {got!r} != {want!r}")

    bell = np.zeros(4)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    bell_rho = np.outer(bell, bell)
    near("Wootters EOF of a Bell state", wootters_eof(bell_rho), 1.0, 1e-12)
    near("Wootters EOF of I/4", wootters_eof(np.eye(4) / 4.0), 0.0, 0.0)
    for d in range(2, 7):
        near(f"TV EOF at F=1, d={d}", tv_isotropic_eof(1.0, d), math.log2(d), 1e-9)
    near("TV EOF at F=0.5, d=3", tv_isotropic_eof(0.5, 3), 0.2159, 5e-5)
    for fid in (0.6, 0.8, 0.95):  # d = 2 isotropic states are two-qubit states
        near(f"TV vs Wootters at F={fid}", tv_isotropic_eof(fid, 2),
             wootters_eof(isotropic_matrix(fid, 2)), 1e-7)
    for d, fid in ((2, 1.0), (3, 0.7), (4, 0.1)):
        rho = isotropic_matrix(fid, d)
        for name in ("transpose", "reduction", "werner_holevo"):
            near(f"{name} witness minimum, d={d}, F={fid}",
                 isotropic_witness_min(name, fid, d),
                 min_eig(witness_output(name, rho, d, d)), 1e-12)
        w = np.linalg.eigvalsh(ptranspose(rho, d, d, leg=2))
        near(f"negativity, d={d}, F={fid}", isotropic_negativity(fid, d),
             float(np.clip(-w, 0.0, None).sum()), 1e-12)
    near("PT minimum of a Bell state", isotropic_witness_min("transpose", 1.0, 2), -0.5, 0.0)
    near("t* of a Bell state", depolarizing_tstar(1.0, 2), math.log(3.0), 1e-15)
    lam = math.exp(-depolarizing_tstar(0.8, 3))
    near("PT minimum at t*, d=3", isotropic_witness_min("transpose", lam * 0.8 + (1 - lam) / 9, 3),
         0.0, 1e-15)
    near("Werner PT minimum", min_eig(ptranspose(werner_matrix(0.7), 2, 2, 2)),
         (1.0 - 3.0 * 0.7) / 4.0, 1e-12)
    if problems:
        raise ValueError("reference self-check failed: " + "; ".join(problems))
