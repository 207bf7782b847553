"""Dense complex linear algebra for small bipartite systems.

Everything operates on square complex numpy arrays.  The composite index
convention is fixed globally: the first tensor factor is the slow index,
so a product basis vector |i>|k> sits at position i * d2 + k.  ``Catalog``
names the builders of the states, maps and map families made from them.
``matrix_to_json`` and ``matrix_from_json`` are the one JSON form of a
state or Choi matrix: its sizes, "re" and "im", the keys of the file format.
"""

import inspect
import sys

import numpy as np

from . import kernels

HERMITICITY_TOL = 1e-10
_FLOAT_MAX = sys.float_info.max  # NaN, inf and larger integers are not finite


def as_complex_matrix(m):
    """Coerce input to a square complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def matrix_to_json(mat, **dims):
    """The JSON form of a matrix: its integer sizes ``dims``, then "re" and "im"."""
    return dict({k: int(n) for k, n in dims.items()}, re=mat.real.tolist(), im=mat.imag.tolist())


def matrix_from_json(obj, dims, what):
    """(matrix, *sizes) of the JSON form of a matrix with size keys ``dims``.

    It needs the ``dims`` keys, integral (2 or 2.0), and "re" and "im", number
    arrays of one shape with finite entries, and ignores other keys; anything
    else raises ValueError.
    """
    keys = (*dims, "re", "im")
    if not isinstance(obj, dict) or not all(key in obj for key in keys):
        raise ValueError(f"malformed {what}: expected an object with keys {', '.join(keys)}")
    sizes = [int(n) if type(n) is float and n.is_integer() else n for n in map(obj.get, dims)]
    if not all(type(n) is int for n in sizes):
        raise ValueError(f"malformed {what}: {', '.join(dims)} must be integers, got {sizes}")
    re, im = (np.array(obj[key], dtype=object) for key in ("re", "im"))
    entries = [*re.flat, *im.flat]
    # JSON numbers read as int or float; a bool is neither type
    if re.ndim == 0 or re.shape != im.shape or not {int, float}.issuperset(map(type, entries)):
        raise ValueError(f"malformed {what}: re and im must be number arrays of one shape")
    if not all(abs(x) <= _FLOAT_MAX for x in entries):  # before 1j * inf would give NaN
        raise ValueError(f"{what}: matrix has non-finite entries")
    return (re.astype(np.float64) + 1j * im.astype(np.float64), *sizes)


def frobenius_norm(m):
    return float(np.linalg.norm(np.asarray(m)))


def hermiticity_defect(m):
    """Largest entrywise deviation of M from M^+, non-finite if an entry is."""
    a = np.asarray(m)
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, without a warning
        return float(np.abs(a - a.conj().T).max())


def is_hermitian(m, tol=HERMITICITY_TOL):
    return hermiticity_defect(m) <= tol


def require_hermitian(m, tol, what):
    """(M + M^+) / 2, refusing non-finite entries and a defect above ``tol``."""
    a = as_complex_matrix(m)
    defect = hermiticity_defect(a)
    if not np.isfinite(defect):
        raise ValueError(f"{what}: matrix has non-finite entries")
    if defect > tol:
        raise ValueError(
            f"{what}: matrix is not hermitian (max deviation {defect:.3e} > {tol:.1e})"
        )
    return (a + a.conj().T) / 2.0


def kron(a, b):
    """Kronecker product with the first factor on the slow index."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    n = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def hermitian_eig(h, tol=HERMITICITY_TOL):
    """Eigendecomposition of a hermitian matrix.

    The input is symmetrized when its hermiticity defect is within ``tol``
    and rejected otherwise.  Returns (w, v): eigenvalues ascending and the
    matrix of orthonormal eigenvector columns, h v_k = w_k v_k.
    """
    sym = require_hermitian(h, tol, "hermitian_eig")
    return kernels.eigh(sym)


def _check_split(m, dims):
    d1, d2 = dims
    if d1 < 1 or d2 < 1:
        raise ValueError(f"invalid dimension split {dims}")
    a = as_complex_matrix(m)
    if a.shape[0] != d1 * d2:
        raise ValueError(
            f"matrix dimension {a.shape[0]} does not match split {d1}x{d2}"
        )
    return a, d1, d2


def partial_trace(m, dims, keep):
    """Trace out one tensor factor of a (d1*d2)-dimensional operator.

    ``keep=1`` returns the d1-dimensional operator tr_2 M, ``keep=2``
    returns tr_1 M.  Satisfies tr[tr_2(M) A] = tr[M (A ox I)].
    """
    a, d1, d2 = _check_split(m, dims)
    t = a.reshape(d1, d2, d1, d2)
    if keep == 1:
        return np.einsum("ikjk->ij", t)
    if keep == 2:
        return np.einsum("kikj->ij", t)
    raise ValueError(f"keep must be 1 or 2, got {keep}")


def partial_transpose(m, dims, leg):
    """Transpose one tensor factor: (A ox B)^G2 = A ox B^T, extended linearly."""
    a, d1, d2 = _check_split(m, dims)
    t = a.reshape(d1, d2, d1, d2)
    if leg == 1:
        out = t.transpose(2, 1, 0, 3)
    elif leg == 2:
        out = t.transpose(0, 3, 2, 1)
    else:
        raise ValueError(f"leg must be 1 or 2, got {leg}")
    return np.ascontiguousarray(out.reshape(d1 * d2, d1 * d2))


def psd_project(h, tol=HERMITICITY_TOL):
    """Frobenius-nearest positive semidefinite matrix to a hermitian input."""
    sym = require_hermitian(h, tol, "psd_project")
    w, v = kernels.eigh(sym)
    w = np.clip(w, 0.0, None)
    out = (v * w) @ v.conj().T
    return (out + out.conj().T) / 2.0


def min_eigenvalue(h, tol=HERMITICITY_TOL):
    """Smallest eigenvalue of a hermitian matrix."""
    sym = require_hermitian(h, tol, "min_eigenvalue")
    return float(np.linalg.eigvalsh(sym)[0])


class Catalog:
    """Builders by name; an entry reads exactly its builder's parameters.

    A parameter without a default is required.  ``shared`` names parameters
    that every entry accepts and that reach only the entries reading them.
    """

    def __init__(self, kind, builders, shared=()):
        self.kind = kind
        self.shared = shared
        self._entries = {
            name: (build, inspect.signature(build).parameters)
            for name, build in builders.items()
        }

    def reads(self, name):
        """The parameters entry ``name`` reads; ValueError for an unknown name."""
        if name not in self._entries:
            raise ValueError(f"unknown {self.kind} {name!r}; known: {', '.join(self._entries)}")
        return self._entries[name][1]

    def build(self, name, params):
        """Entry ``name`` built from ``params``, refusing those it does not read."""
        reads = self.reads(name)
        unread = [key for key in params if key not in reads and key not in self.shared]
        if unread:
            raise ValueError(f"{', '.join(unread)} not read by {self.kind} {name}")
        missing = [key for key, p in reads.items() if p.default is p.empty and key not in params]
        if missing:
            raise ValueError(f"{self.kind} {name} needs {', '.join(missing)}")
        return self._entries[name][0](**{key: params[key] for key in params if key in reads})
