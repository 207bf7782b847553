"""Bipartite density matrices, restrictions, entropy and named families."""

from dataclasses import dataclass, field

import numpy as np

from . import kernels, matcore

TRACE_TOL = 1e-9
PSD_TOL = 1e-9

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A bipartite state: hermitian, PSD and trace one, with a (d1, d2) split.

    ``certificate`` optionally stores a separable decomposition of the state
    (attached by the random-separable builder); it is advisory data and is
    not part of the serialized form.
    """

    mat: np.ndarray
    d1: int
    d2: int
    certificate: "Ensemble | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        a = matcore.as_complex_matrix(self.mat)
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError(f"split {self.d1}x{self.d2} has a dimension below 1")
        if self.d1 * self.d2 != a.shape[0]:
            raise ValueError(
                f"split {self.d1}x{self.d2} does not match dimension {a.shape[0]}"
            )
        a = matcore.require_hermitian(a, matcore.HERMITICITY_TOL, "density matrix")
        tr = float(np.trace(a).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} differs from 1")
        w = np.linalg.eigvalsh(a)
        if w[0] < -PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {w[0]:.3e}")
        a.setflags(write=False)
        object.__setattr__(self, "mat", a)

    @property
    def dim(self):
        return self.d1 * self.d2

    @property
    def split(self):
        return (self.d1, self.d2)

    def eigenvalues(self):
        return np.linalg.eigvalsh(self.mat)

    def rank(self, tol=1e-9):
        return int((self.eigenvalues() > tol).sum())

    def to_json(self):
        return state_to_json(self)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A finite convex decomposition {(weight_i, state_i)} of a state."""

    weights: np.ndarray
    components: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        comps = tuple(self.components)
        if w.ndim != 1 or w.shape[0] != len(comps) or len(comps) == 0:
            raise ValueError("ensemble needs one weight per component")
        if np.any(w <= 0.0):
            raise ValueError("ensemble weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"ensemble weights sum to {w.sum()}, expected 1")
        splits = {c.split for c in comps}
        if len(splits) != 1:
            raise ValueError("ensemble components must share one split")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", comps)

    @property
    def size(self):
        return len(self.components)

    @property
    def split(self):
        return self.components[0].split

    def barycenter(self):
        return sum(
            lam * comp.mat for lam, comp in zip(self.weights, self.components)
        )

    def check_barycenter(self, state, tol=1e-9):
        err = matcore.frobenius_norm(self.barycenter() - state.mat)
        if err > tol:
            raise ValueError(f"ensemble barycenter misses its state by {err:.3e}")
        return err

    def to_json(self):
        return {
            "weights": [float(x) for x in self.weights],
            "components": [state_to_json(c) for c in self.components],
        }


def restrict(state, leg):
    """Marginal of a bipartite state on one leg, as a (d, 1)-split state."""
    if leg not in (1, 2):
        raise ValueError(f"leg must be 1 or 2, got {leg}")
    red = matcore.partial_trace(state.mat, state.split, keep=leg)
    try:
        return DensityMatrix(red, state.split[leg - 1], 1)
    except ValueError:  # it can reach -d' PSD_TOL, d' the other leg's size: project it
        red = matcore.psd_project(red)
        return DensityMatrix(red / np.trace(red).real, state.split[leg - 1], 1)


def entropy_of_eigenvalues(w):
    """Shannon entropy in bits of a spectrum, flooring tiny eigenvalues."""
    w = np.asarray(w, dtype=np.float64)
    nz = w[w > kernels.ENTROPY_FLOOR]
    # 0.0 - sum, not -sum: a pure spectrum sums to 0.0 and gives +0.0, not -0.0
    return float(0.0 - (nz * np.log2(nz)).sum())


def von_neumann_entropy(state):
    """Von Neumann entropy of a state, in bits."""
    return entropy_of_eigenvalues(state.eigenvalues())


def state_to_json(state):
    return matcore.matrix_to_json(state.mat, d1=state.d1, d2=state.d2)


def state_from_json(obj):
    return DensityMatrix(*matcore.matrix_from_json(obj, ("d1", "d2"), "state JSON"))


# ---------------------------------------------------------------------------
# named state families
# ---------------------------------------------------------------------------


def bell_vector(k=1):
    """The four Bell vectors: 1 Phi+, 2 Phi-, 3 Psi+, 4 Psi- (singlet)."""
    if k not in (1, 2, 3, 4):
        raise ValueError(f"bell index must be in 1..4, got {k}")
    v = np.zeros(4, dtype=np.complex128)
    if k == 1:
        v[0] = v[3] = 1.0
    elif k == 2:
        v[0], v[3] = 1.0, -1.0
    elif k == 3:
        v[1] = v[2] = 1.0
    else:
        v[1], v[2] = 1.0, -1.0
    return v / np.sqrt(2.0)


def bell_state(k=1):
    v = bell_vector(k)
    return DensityMatrix(np.outer(v, v.conj()), 2, 2)


def pure_state(vector, d1, d2):
    """Projector onto a (normalized) vector as a DensityMatrix."""
    v = np.asarray(vector, dtype=np.complex128).ravel()
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("zero vector")
    v = v / n
    return DensityMatrix(np.outer(v, v.conj()), d1, d2)


def max_mixed(d1, d2):
    d = d1 * d2
    return DensityMatrix(np.eye(d, dtype=np.complex128) / d, d1, d2)


def werner_state(p):
    """p |Psi-><Psi-| + (1 - p) I/4 on two qubits; separable iff p <= 1/3."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"werner parameter must be in [0, 1], got {p}")
    v = bell_vector(4)
    mat = p * np.outer(v, v.conj()) + (1.0 - p) * np.eye(4) / 4.0
    return DensityMatrix(mat, 2, 2)


def isotropic_state(f, d):
    """Fidelity-f mixture of the d x d maximally entangled state with noise."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"isotropic fidelity must be in [0, 1], got {f}")
    if d < 2:
        raise ValueError(f"isotropic dimension must be >= 2, got {d}")
    omega = np.zeros(d * d, dtype=np.complex128)
    for i in range(d):
        omega[i * d + i] = 1.0
    omega /= np.sqrt(d)
    proj = np.outer(omega, omega.conj())
    rest = (np.eye(d * d) - proj) / (d * d - 1)
    return DensityMatrix(f * proj + (1.0 - f) * rest, d, d)


def product_state(rho1, rho2):
    """Tensor product of two states (accepts DensityMatrix or raw matrices)."""
    m1 = rho1.mat if isinstance(rho1, DensityMatrix) else matcore.as_complex_matrix(rho1)
    m2 = rho2.mat if isinstance(rho2, DensityMatrix) else matcore.as_complex_matrix(rho2)
    return DensityMatrix(matcore.kron(m1, m2), m1.shape[0], m2.shape[0])


def _random_single_density(rng, d, rank=None):
    rank = d if rank is None else rank
    if not 1 <= rank <= d:
        raise ValueError(f"rank must be in 1..{d}, got {rank}")
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_density(d1, d2, rank=None, seed=0):
    """Wishart-distributed random state; deterministic under the seed."""
    rng = np.random.default_rng(seed)
    m = _random_single_density(rng, d1 * d2, rank)
    return DensityMatrix(m, d1, d2)


def random_separable(d1, d2, m=4, seed=0):
    """Random mixture of m product states, with its decomposition attached.

    The returned state carries an Ensemble certificate whose components are
    the product states of the construction, so separability is known exactly.
    """
    if m < 1:
        raise ValueError(f"component count must be >= 1, got {m}")
    rng = np.random.default_rng(seed)
    raw = rng.random(m) + 0.05
    weights = raw / raw.sum()
    comps = []
    total = np.zeros((d1 * d2, d1 * d2), dtype=np.complex128)
    for i in range(m):
        r1 = _random_single_density(rng, d1)
        r2 = _random_single_density(rng, d2)
        prod = matcore.kron(r1, r2)
        comps.append(DensityMatrix(prod, d1, d2))
        total += weights[i] * prod
    cert = Ensemble(weights, tuple(comps))
    state = DensityMatrix(total, d1, d2, certificate=cert)
    cert.check_barycenter(state, tol=1e-12)
    return state


FAMILIES = matcore.Catalog(
    "state family",
    {
        "bell": lambda k=1: bell_state(int(k)),
        "werner": lambda p: werner_state(float(p)),
        "isotropic": lambda f, d=2: isotropic_state(float(f), int(d)),
        "max_mixed": lambda d1=2, d2=2: max_mixed(int(d1), int(d2)),
        "product": product_state,
        "random_separable": lambda d1=2, d2=2, m=4, seed=0: random_separable(
            int(d1), int(d2), m=int(m), seed=int(seed)
        ),
        "random_density": lambda d1=2, d2=2, rank=None, seed=0: random_density(
            int(d1), int(d2), rank=None if rank is None else int(rank), seed=int(seed)
        ),
    },
    shared=("seed",),
)


def make_named(name, **params):
    """Build a state family by name; raises ValueError on bad input.

    A parameter the family does not read is bad input, except ``seed``,
    which every family accepts.
    """
    return FAMILIES.build(name, params)


# ---------------------------------------------------------------------------
# Gibbs states and spin-chain Hamiltonians
# ---------------------------------------------------------------------------


def gibbs_state(h, beta, split=None):
    """exp(-beta H) / Z via eigendecomposition; commutes with H.

    ``split`` fixes the bipartite split of the result and defaults to
    (dim, 1).
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    w, v = matcore.hermitian_eig(h)
    ew = np.exp(-beta * (w - w[0]))
    ew /= ew.sum()
    mat = (v * ew) @ v.conj().T
    d = mat.shape[0]
    if split is None:
        split = (d, 1)
    return DensityMatrix(mat, split[0], split[1])


def _site_operator(op, site, n):
    out = np.eye(1, dtype=np.complex128)
    for i in range(n):
        out = np.kron(out, op if i == site else np.eye(2))
    return out


def _check_sites(n):
    if not 2 <= n <= 6:
        raise ValueError(f"site count must be in 2..6, got {n}")


def ising_hamiltonian(n, j, h):
    """Open-boundary Ising chain: -J sum sz_i sz_{i+1} - h sum sx_i."""
    _check_sites(n)
    dim = 2**n
    ham = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(n - 1):
        ham -= j * _site_operator(_SIGMA_Z, i, n) @ _site_operator(_SIGMA_Z, i + 1, n)
    for i in range(n):
        ham -= h * _site_operator(_SIGMA_X, i, n)
    return ham


def xxz_hamiltonian(n, j, delta):
    """Open-boundary XXZ chain: -J sum (sx sx + sy sy + delta sz sz)."""
    _check_sites(n)
    dim = 2**n
    ham = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(n - 1):
        for op, coeff in ((_SIGMA_X, 1.0), (_SIGMA_Y, 1.0), (_SIGMA_Z, delta)):
            ham -= j * coeff * _site_operator(op, i, n) @ _site_operator(op, i + 1, n)
    return ham
