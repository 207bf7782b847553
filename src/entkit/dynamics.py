"""Time-parametrized map families applied to one leg of a bipartite state.

A family mixes the identity with one fixed target map,
t -> s(t) id + (1 - s(t)) target with s(0) = 1.  Evolution applies the
dual map tensored with the identity (the Schroedinger picture) and records
positivity and entanglement diagnostics over the grid.  Taking the dual is
real-linear and the identity is its own dual, so a whole track is the
affine pencil s rho + (1 - s) tau with tau = (target^dual ox id)(rho):
``evolve_track`` applies the target's dual to the state once per track and
takes the eigenvalues of a block of time points in one stacked call.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import maps, matcore, measures, states

NEGATIVE_EIG_TOL = 1e-9
_BLOCK = 16  # time points per stacked eigenvalue call: small stacks keep memory flat


@dataclass(frozen=True, eq=False)
class ChannelFamily:
    """A named map family t >= 0 -> s(t) id + (1 - s(t)) target on leg 1.

    ``target`` is a ChoiMatrix on M_d, which fixes ``d``; ``weight(t)`` is
    the identity's weight s(t), which must be 1 at t = 0 and finite.
    """

    name: str
    target: maps.ChoiMatrix
    weight: object

    def __post_init__(self):
        if self.target.d_in != self.target.d_out:
            raise ValueError(f"family {self.name!r}: target does not map M_d to itself")
        if self.weight(0.0) != 1.0:
            raise ValueError(f"family {self.name!r} does not start at the identity")
        # Choi matrix of the identity map: C[i, a, j, b] = delta_ia delta_jb
        vec = np.eye(self.d).ravel()
        object.__setattr__(self, "_ident", np.outer(vec, vec))

    @property
    def d(self):
        return self.target.d_in

    def _weight_at(self, t):
        """s(t), refusing a negative or non-finite time and a non-finite weight."""
        t = float(t)
        if not (math.isfinite(t) and t >= 0):
            raise ValueError(f"time must be finite and >= 0, got {t}")
        s = self.weight(t)
        if not math.isfinite(s):
            raise ValueError(f"family {self.name!r}: weight {s} at t = {t} is non-finite")
        return s

    def __call__(self, t):
        s = self._weight_at(t)
        return maps.ChoiMatrix(s * self._ident + (1.0 - s) * self.target.mat, self.d, self.d)


def _nonnegative(key, val):
    """Family parameter ``key``, which must be finite and >= 0."""
    val = float(val)
    if not (math.isfinite(val) and val >= 0):
        raise ValueError(f"{key} must be finite and >= 0, got {val}")
    return val


def _decay(rate):
    """The identity weight s(t) = exp(-rate t)."""
    return lambda t: float(np.exp(-rate * t))


def _ramp(speed):
    """The identity weight s(t) = 1 - min(1, speed t)."""
    return lambda t: 1.0 - min(1.0, speed * t)


def _flip_map(h, beta):
    """Single-site thermal flip with Metropolis weights (illustrative demo).

    In the eigenbasis of ``h`` the populations follow a Metropolis chain
    (propose a uniform different level, accept with min(1, e^{-beta dE})),
    so the Gibbs state of ``h`` is stationary; coherences are scrambled.
    CP and trace preserving by its Kraus construction.
    """
    w, v = matcore.hermitian_eig(h)
    d = w.shape[0]
    stoch = np.zeros((d, d))
    for i in range(d):
        stay = 1.0
        for j in range(d):
            if j == i:
                continue
            accept = min(1.0, float(np.exp(-beta * (w[j] - w[i])))) / (d - 1)
            stoch[j, i] = accept
            stay -= accept
        stoch[i, i] = stay

    def act(x):
        pops = np.array([v[:, i].conj() @ x @ v[:, i] for i in range(d)])
        out = np.zeros_like(x)
        for j in range(d):
            out += (stoch[j] @ pops) * np.outer(v[:, j], v[:, j].conj())
        return out

    return maps.choi_from_map(act, d)


FAMILIES = matcore.Catalog(
    "channel family",
    {
        "identity": lambda d=2: ChannelFamily(
            "identity", maps.catalog("identity", d=d), lambda t: 1.0),
        "depolarizing_flow": lambda d=2, rate=1.0: ChannelFamily(
            "depolarizing_flow", maps.catalog("depolarizing", d=d, lam=0.0),
            _decay(_nonnegative("rate", rate))),
        "transpose_mix": lambda d=2, speed=1.0: ChannelFamily(
            "transpose_mix", maps.catalog("transpose", d=d),
            _ramp(_nonnegative("speed", speed))),
        "glauber_flip": lambda H, beta=1.0, rate=1.0: ChannelFamily(
            "glauber_flip", _flip_map(H, _nonnegative("beta", beta)),
            _decay(_nonnegative("rate", rate))),
    },
)


def family_catalog(name, **params):
    """Built-in families: identity(d), depolarizing_flow(d, rate),
    transpose_mix(d, speed) and glauber_flip(H, beta, rate), with d = 2 and
    rate, speed and beta 1 by default.  The site Hamiltonian H of
    glauber_flip is required.  A parameter the family does not read raises
    ValueError.
    """
    return FAMILIES.build(name, params)


@dataclass(frozen=True)
class TrackPoint:
    t: float
    min_eig: float
    negativity: float | None
    eof_upper: float | None
    dcoef_sup: float | None
    trace: float

    def to_json(self):
        return {col: getattr(self, col) for col in _COLUMNS}


_COLUMNS = tuple(f.name for f in fields(TrackPoint))


@dataclass(frozen=True, eq=False)
class TrackRecord:
    """Per-time diagnostics of a state evolving under a map family."""

    family: str
    points: tuple

    def first_negative_time(self, tol=NEGATIVE_EIG_TOL):
        for pt in self.points:
            if pt.min_eig < -tol:
                return pt.t
        return None

    def to_json(self):
        return [pt.to_json() for pt in self.points]

    def to_csv(self):
        lines = [",".join(_COLUMNS)]
        for pt in self.points:
            vals = (getattr(pt, col) for col in _COLUMNS)
            lines.append(",".join("" if v is None else repr(float(v)) for v in vals))
        return "\n".join(lines) + "\n"


def evolve_track(
    state,
    family,
    times,
    measure_eof=False,
    measure_dcoef=False,
    K=None,
    restarts=8,
    iters=40,
    seed=0,
):
    """Apply (t_t ox id) in the Schroedinger picture over a time grid.

    The dual of ``family(t)`` is s(t) id + (1 - s(t)) target^dual, so the
    output at time t is s(t) rho + (1 - s(t)) tau, with
    tau = (target^dual ox id)(rho) applied once for the whole grid; s = 1
    gives rho exactly.  Each block of time points is one stack of outputs,
    symmetrized, whose eigenvalues and partial-transpose eigenvalues come
    from one stacked call each.  Each measure searches the block's valid
    points in one call, as groups of one start scan per shape (rank, K)
    (``measures._StartScan``); every point's report is bit for bit what
    ``measures.eof_upper`` or ``measures.dcoef_sup`` gives it alone.  A
    point's values depend neither on the block it falls in nor on the
    points searched beside it.

    Records the minimal output eigenvalue and trace at every time, the
    negativity when the output is a valid state, and optionally the
    optimization-based measures (skipped, recorded as undefined, whenever
    the output fails state validity).  An output is valid when its lowest
    eigenvalue is at least -NEGATIVE_EIG_TOL and its trace is within
    ``states.TRACE_TOL`` of one, the tolerance ``DensityMatrix`` applies.
    """
    times = [float(t) for t in times]
    if not all(map(math.isfinite, times)):
        raise ValueError("time grid must be finite")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("time grid must be strictly ascending")
    if family.d != state.d1:
        raise ValueError(
            f"family acts on dimension {family.d}, state leg 1 is {state.d1}"
        )
    d1, d2 = state.split
    n = state.dim
    weights = np.array([family._weight_at(t) for t in times])
    rho = state.mat
    tau = maps.apply_map(maps.dual_map(family.target), rho, d2)
    pts = []
    for lo in range(0, len(times), _BLOCK):
        s = weights[lo:lo + _BLOCK, None, None]
        out = s * rho + (1.0 - s) * tau
        out = (out + out.conj().swapaxes(1, 2)) / 2.0
        min_eig = np.linalg.eigvalsh(out)[:, 0]
        # traces and negativities are summed per matrix, so no sum depends on the block
        trace = np.array([np.trace(m).real for m in out])
        valid = (min_eig >= -NEGATIVE_EIG_TOL) & (np.abs(trace - 1.0) <= states.TRACE_TOL)
        # partial transpose on leg 2 of every valid output, as one stack
        pt = out[valid].reshape(-1, d1, d2, d1, d2).transpose(0, 1, 4, 3, 2)
        w_pt = np.linalg.eigvalsh(pt.reshape(-1, n, n))
        cols = [[float(np.clip(-w, 0.0, None).sum()) for w in w_pt]]
        if measure_eof or measure_dcoef:  # each measure searches the valid points in one call
            measured = [states.DensityMatrix(m, d1, d2) for m in out[valid]]
        searches = (measure_eof, measures._eof_uppers), (measure_dcoef, measures._dcoef_sups)
        for on, search in searches:
            reports = search(measured, K, restarts, iters, seed) if on else [None] * len(w_pt)
            cols.append([rep.value if on else None for rep in reports])
        rows = iter(zip(*cols))  # one per valid point
        for i, t in enumerate(times[lo:lo + _BLOCK]):
            neg, eof_val, dsup_val = next(rows) if valid[i] else (None, None, None)
            pts.append(
                TrackPoint(t, float(min_eig[i]), neg, eof_val, dsup_val, float(trace[i]))
            )
    return TrackRecord(family.name, tuple(pts))
