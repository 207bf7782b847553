"""Linear maps on matrices via their Choi representation.

Convention, fixed package-wide: the Choi matrix of a map t is
C = sum_ij E_ij ox t(E_ij), input leg first (slow index).  Block
positivity of C corresponds to positivity of the map, a PSD C to complete
positivity, and a PSD partial transpose of C to co-complete positivity.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels, matcore

DEFAULT_DECOMP_TOL = 1e-6
DEFAULT_DECOMP_ITERS = 5000


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Choi representation of a hermiticity-preserving linear map."""

    mat: np.ndarray
    d_in: int
    d_out: int

    def __post_init__(self):
        a = matcore.as_complex_matrix(self.mat)
        if self.d_in < 1 or self.d_out < 1:
            raise ValueError(
                f"Choi split {self.d_in}x{self.d_out} has a dimension below 1"
            )
        if a.shape[0] != self.d_in * self.d_out:
            raise ValueError(
                f"Choi dimension {a.shape[0]} does not match {self.d_in}x{self.d_out}"
            )
        if not np.isfinite(a).all():
            raise ValueError("Choi matrix has non-finite entries")
        defect = matcore.hermiticity_defect(a)
        if defect > matcore.HERMITICITY_TOL:
            raise ValueError(
                "Choi matrix not hermitian (the map would not preserve "
                f"hermiticity); defect {defect:.3e}"
            )
        a = (a + a.conj().T) / 2.0
        a.setflags(write=False)
        object.__setattr__(self, "mat", a)

    @property
    def dim(self):
        return self.d_in * self.d_out

    def tensor4(self):
        """View as C[i, a, j, b] with (i, j) input and (a, b) output indices."""
        return self.mat.reshape(self.d_in, self.d_out, self.d_in, self.d_out)

    def to_json(self):
        return choi_to_json(self)


def choi_from_map(fn, d_in, d_out=None):
    """Build the Choi matrix of a map given as a callable on matrices."""
    d_out = d_in if d_out is None else d_out
    c4 = np.zeros((d_in, d_out, d_in, d_out), dtype=np.complex128)
    for i in range(d_in):
        for j in range(d_in):
            e = np.zeros((d_in, d_in), dtype=np.complex128)
            e[i, j] = 1.0
            c4[i, :, j, :] = np.asarray(fn(e), dtype=np.complex128)
    return ChoiMatrix(c4.reshape(d_in * d_out, d_in * d_out), d_in, d_out)


def apply_map(choi, x, d2=1):
    """Apply the represented map to leg 1 of X, i.e. (t ox id_d2)(X).

    X is split as (d_in, d2) x (d_in, d2) and the output is
    out[(a,k),(b,l)] = sum_ij X[(i,k),(j,l)] C[i,a,j,b], a d_out*d2 square
    matrix; ``d2=1`` is the plain action t(X)_ab = sum_ij X_ij C[i,a,j,b].
    This never builds the (d_in*d2*d_out*d2)-wide Choi matrix of t ox id.
    """
    if d2 < 1:
        raise ValueError(f"identity dimension must be >= 1, got {d2}")
    xm = matcore.as_complex_matrix(x)
    if xm.shape[0] != choi.d_in * d2:
        raise ValueError(
            f"input dimension {xm.shape[0]} does not match map input "
            f"{choi.d_in} times identity dimension {d2}"
        )
    x4 = xm.reshape(choi.d_in, d2, choi.d_in, d2)
    out = np.einsum("ikjl,iajb->akbl", x4, choi.tensor4())
    d = choi.d_out * d2
    return out.reshape(d, d)


def dual_map(choi):
    """Choi matrix of the adjoint map w.r.t. the trace inner product.

    Satisfies tr[t(X)^+ Y] = tr[X^+ t^d(Y)] for all X, Y.
    """
    c4 = choi.tensor4()
    dual4 = c4.conj().transpose(1, 0, 3, 2)
    d = choi.d_in * choi.d_out
    return ChoiMatrix(np.ascontiguousarray(dual4.reshape(d, d)), choi.d_out, choi.d_in)


def tensor_with_identity(choi, d2):
    """Choi matrix of t ox id acting on the composite (d_in * d2) system.

    To apply t ox id, call ``apply_map(choi, x, d2)``, which does not build
    this (d_in * d2 * d_out * d2)-wide matrix.
    """
    if d2 < 1:
        raise ValueError(f"identity dimension must be >= 1, got {d2}")
    c4 = choi.tensor4()
    eye = np.eye(d2, dtype=np.complex128)
    big = np.einsum("iajb,kl,mn->ikaljmbn", c4, eye, eye)
    din = choi.d_in * d2
    dout = choi.d_out * d2
    return ChoiMatrix(big.reshape(din * dout, din * dout), din, dout)


@dataclass(frozen=True)
class PositivityCheck:
    ok: bool
    min_eig: float


def is_cp(choi, tol=1e-9):
    """Complete positivity: the Choi matrix is PSD."""
    lo = matcore.min_eigenvalue(choi.mat)
    return PositivityCheck(lo >= -tol, lo)


def is_co_cp(choi, tol=1e-9):
    """Co-complete positivity: PSD partial transpose on the output leg."""
    pt = matcore.partial_transpose(choi.mat, (choi.d_in, choi.d_out), leg=2)
    lo = matcore.min_eigenvalue(pt)
    return PositivityCheck(lo >= -tol, lo)


@dataclass(frozen=True, eq=False)
class BlockPositivityReport:
    block_positive: bool
    min_value: float
    witness: tuple | None
    restarts_used: int


def _lowest_eigvecs(vecs, table, d):
    # Lowest eigenpairs of the compressions sum_ab conj(v_a) v_b T[ab, ij],
    # one (d, d) matrix per row of ``vecs``, from one product and one
    # stacked eigensolve.
    outer = (vecs.conj()[:, :, None] * vecs[:, None, :]).reshape(vecs.shape[0], -1)
    m = (outer @ table).reshape(-1, d, d)
    w, v = kernels.eigh((m + m.conj().transpose(0, 2, 1)) / 2.0)
    return w[:, 0], v[:, :, 0]


def is_block_positive(choi, restarts=40, iters=200, tol=1e-9, seed=0):
    """See-saw search for min <x ox y| C |x ox y> over unit product vectors.

    Each restart alternates two steps from a random unit y: x becomes the
    lowest eigenvector of <y|C|y> (a d_in matrix), then y the lowest
    eigenvector of <x|C|x> (a d_out matrix), whose eigenvalue is the
    restart's value.  A restart stops when its value moves by less than
    1e-12 or after ``iters`` steps.  All restarts take each step together,
    as one stacked eigensolve over the restarts still running.

    The report is that of running the restarts one after another and
    stopping after the first whose value is below -tol: ``restarts_used``
    counts the restarts up to and including that one (all of them when
    there is none), and ``min_value`` and the witness pair come from the
    first restart reaching the minimum over those.  Restarts after the first
    finished negative one are dropped, so a non-positive map costs about one
    restart's worth of steps.  A negative verdict is certified by the
    witness pair (x, y); a positive verdict is heuristic evidence whose
    strength grows with ``restarts``.
    """
    n = max(1, restarts)
    d_in, d_out = choi.d_in, choi.d_out
    c4 = choi.tensor4()
    by_y = c4.transpose(1, 3, 0, 2).reshape(d_out**2, d_in**2)
    by_x = c4.transpose(0, 2, 1, 3).reshape(d_in**2, d_out**2)
    g = np.random.default_rng(seed).standard_normal((n, 2, d_out))
    y = g[:, 0] + 1j * g[:, 1]
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    x = np.zeros((n, d_in), dtype=np.complex128)
    val = np.full(n, np.inf)  # each restart's value at its last step
    active = np.arange(n)
    used = n  # restarts up to the first that finished below -tol
    last = max(1, iters) - 1
    for step in range(last + 1):
        _, xa = _lowest_eigvecs(y[active], by_y, d_in)
        wa, ya = _lowest_eigvecs(xa, by_x, d_out)
        done = (np.abs(val[active] - wa) < 1e-12) | (step == last)
        x[active], y[active], val[active] = xa, ya, wa
        neg = active[done & (wa < -tol)]
        if neg.size:
            used = min(used, int(neg[0]) + 1)
        active = active[~done & (active < used)]
        if not active.size:
            break
    k = int(np.argmin(val[:used]))
    best = float(val[k])
    ok = best >= -tol
    witness = None if ok else (x[k].copy(), y[k].copy())
    return BlockPositivityReport(ok, best, witness, used)


@dataclass(frozen=True, eq=False)
class DecomposabilityReport:
    """Outcome of the Douglas-Rachford search for a split C = A + B.

    ``decomposable`` is True with the split in ``part_cp`` (A, PSD) and
    ``part_co_cp`` (B, PSD partial transpose); False with a PPT witness in
    ``witness``: W and W^PT are PSD, ||W||_F = 1 and tr(W C) < 0, which no
    decomposable C allows; None when the budget ran out with neither.
    ``residual`` is ||(C - A)^PT_-||_F, the Frobenius norm of the negative
    part keeping the last iteration's (A, C - A) from a valid split (0 when
    C or C^PT is PSD), an upper bound on the distance from C to the
    decomposable cone; with a witness, -tr(W C) is a lower bound on it.
    """

    decomposable: bool | None
    residual: float
    iterations: int
    part_cp: np.ndarray | None
    part_co_cp: np.ndarray | None
    witness: np.ndarray | None = None


def _project_co_cp_shifted(z, cmat, dims):
    # Frobenius projection of z onto {A : (C - A)^PT >= 0}; the partial
    # transpose is a Frobenius isometry, so project in transposed frame.
    pt = matcore.partial_transpose(cmat - z, dims, leg=2)
    b = matcore.psd_project(pt)
    return cmat - matcore.partial_transpose(b, dims, leg=2)


def _ppt_witness(gap, dims):
    # Shift the hermitian part of the iterate gap by delta * I, the least
    # shift making it and its partial transpose PSD (I^PT = I), and
    # normalize to unit Frobenius norm.
    w = (gap + gap.conj().T) / 2.0
    lo = min(
        matcore.min_eigenvalue(w),
        matcore.min_eigenvalue(matcore.partial_transpose(w, dims, leg=2)),
    )
    w = w + max(0.0, -lo) * np.eye(w.shape[0])
    return w / matcore.frobenius_norm(w)


def is_decomposable(choi, max_iter=DEFAULT_DECOMP_ITERS, tol=DEFAULT_DECOMP_TOL):
    """Search for a split C = A + B with A PSD and B^PT PSD.

    Runs Douglas-Rachford splitting between the PSD cone and the shifted
    co-CP set {A : (C - A)^PT >= 0}: from z = C, each iteration takes
    y = P_psd(z), x = P_shift(2y - z) and z <- z + x - y, which converges
    for any two closed convex sets (Lions & Mercier, SIAM J. Numer. Anal.
    16, 964 (1979)).  The residual ||y - P_shift(y)||_F measures how far the
    split (y, C - y) is from valid; below ``tol`` it is returned.  When no
    split exists the gap y - x tends to the gap vector between the two sets
    (Bauschke & Moursi, Math. Program. 164, 263 (2017)), a PPT operator W
    with tr(W C) < 0; at iterations 1, 2, 4, 8, ... and at the last one the
    gap is shifted into a PPT witness, and -tr(W C) > 10 * tol with
    ||W||_F = 1 certifies non-decomposability (Woronowicz 1976); with
    neither the verdict is None.  ``max_iter`` must be >= 1.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    cmat = choi.mat
    dims = (choi.d_in, choi.d_out)
    scale = max(1.0, matcore.frobenius_norm(cmat))
    lo = matcore.min_eigenvalue(cmat)
    if lo >= -1e-10 * scale:
        return DecomposabilityReport(True, 0.0, 0, cmat, np.zeros_like(cmat))
    pt = matcore.partial_transpose(cmat, dims, leg=2)
    if matcore.min_eigenvalue(pt) >= -1e-10 * scale:
        return DecomposabilityReport(True, 0.0, 0, np.zeros_like(cmat), cmat)

    z = cmat
    for iterations in range(1, max_iter + 1):
        y = matcore.psd_project(z)
        x = _project_co_cp_shifted(2.0 * y - z, cmat, dims)
        z = z + x - y
        residual = matcore.frobenius_norm(y - _project_co_cp_shifted(y, cmat, dims))
        if residual < tol:
            return DecomposabilityReport(True, residual, iterations, y, cmat - y)
        if iterations & (iterations - 1) == 0 or iterations == max_iter:
            w = _ppt_witness(y - x, dims)
            if -float(np.vdot(cmat, w).real) > 10.0 * tol:
                return DecomposabilityReport(
                    False, residual, iterations, None, None, witness=w
                )
    return DecomposabilityReport(None, residual, iterations, None, None)


# ---------------------------------------------------------------------------
# catalog of reference maps
# ---------------------------------------------------------------------------


def _check_dim(d):
    if d < 2:
        raise ValueError(f"map dimension must be >= 2, got {d}")


def catalog(name, **params):
    """Reference maps by name.

    identity(d), transpose(d), depolarizing(d, lam), reduction(d),
    choi_map() on M3 (the canonical non-decomposable positive map) and
    werner_holevo(d).
    """
    if name == "identity":
        d = int(params.get("d", 2))
        _check_dim(d)
        return choi_from_map(lambda x: x, d)
    if name == "transpose":
        d = int(params.get("d", 2))
        _check_dim(d)
        return choi_from_map(lambda x: x.T, d)
    if name == "depolarizing":
        d = int(params.get("d", 2))
        _check_dim(d)
        lam = float(params.get("lam", 1.0))
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"depolarizing weight must be in [0, 1], got {lam}")
        eye = np.eye(d)
        return choi_from_map(
            lambda x: lam * x + (1.0 - lam) * np.trace(x) * eye / d, d
        )
    if name == "reduction":
        d = int(params.get("d", 2))
        _check_dim(d)
        eye = np.eye(d)
        return choi_from_map(lambda x: np.trace(x) * eye - x, d)
    if name == "choi_map":
        return choi_from_map(_choi_map_action, 3)
    if name == "werner_holevo":
        d = int(params.get("d", 2))
        _check_dim(d)
        eye = np.eye(d)
        return choi_from_map(lambda x: (np.trace(x) * eye - x.T) / (d - 1), d)
    raise ValueError(f"unknown catalog map {name!r}")


def _choi_map_action(x):
    # Positive non-decomposable map on M3: diagonal entries x_kk + x_(k+1,k+1)
    # cyclically, off-diagonal entries negated.
    out = -np.asarray(x, dtype=np.complex128).copy()
    for k in range(3):
        out[k, k] = x[k, k] + x[(k + 1) % 3, (k + 1) % 3]
    return out


def random_cp_map(d, kraus_count=2, seed=0):
    """Random completely positive map from Gaussian Kraus operators."""
    rng = np.random.default_rng(seed)
    ops = [
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for _ in range(kraus_count)
    ]
    norm = np.sqrt(sum(float(np.sum(np.abs(a) ** 2)) for a in ops))
    ops = [a / norm for a in ops]
    return choi_from_map(lambda x: sum(a @ x @ a.conj().T for a in ops), d)


# ---------------------------------------------------------------------------
# serialization (field names are part of the file format)
# ---------------------------------------------------------------------------


def choi_to_json(choi):
    return {
        "d_in": int(choi.d_in),
        "d_out": int(choi.d_out),
        "re": choi.mat.real.tolist(),
        "im": choi.mat.imag.tolist(),
        "convention": "in_out",
    }


def choi_from_json(obj):
    try:
        if obj.get("convention", "in_out") != "in_out":
            raise ValueError(f"unsupported Choi convention {obj['convention']!r}")
        d_in = int(obj["d_in"])
        d_out = int(obj["d_out"])
        mat = np.asarray(obj["re"], dtype=np.float64) + 1j * np.asarray(
            obj["im"], dtype=np.float64
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed Choi JSON: {exc}") from exc
    return ChoiMatrix(mat, d_in, d_out)
