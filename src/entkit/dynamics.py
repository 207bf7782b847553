"""Time-parametrized map families applied to one leg of a bipartite state.

Each family evaluates to a Choi matrix at every requested time; evolution
applies the dual map tensored with the identity (the Schroedinger picture)
and records positivity and entanglement diagnostics over the grid.
Families are closed-form in t, so grid evaluation is pointwise.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import maps, matcore, measures, states

NEGATIVE_EIG_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ChannelFamily:
    """A named map family t >= 0 -> ChoiMatrix acting on leg 1."""

    name: str
    d: int
    evaluator: object

    def __post_init__(self):
        c0 = self.evaluator(0.0)
        ident = maps.catalog("identity", d=self.d)
        if matcore.frobenius_norm(c0.mat - ident.mat) > 1e-10:
            raise ValueError(f"family {self.name!r} does not start at the identity")

    def __call__(self, t):
        t = float(t)
        if not (math.isfinite(t) and t >= 0):
            raise ValueError(f"time must be finite and >= 0, got {t}")
        return self.evaluator(t)


def _nonnegative(key, val):
    """Family parameter ``key``, which must be finite and >= 0."""
    val = float(val)
    if not (math.isfinite(val) and val >= 0):
        raise ValueError(f"{key} must be finite and >= 0, got {val}")
    return val


def _flip_channel(h, beta):
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

    return act


def _identity(d=2):
    d = int(d)
    ident = maps.catalog("identity", d=d)
    return ChannelFamily("identity", d, lambda t: ident)


def _depolarizing_flow(d=2, rate=1.0):
    d, rate = int(d), _nonnegative("rate", rate)

    def depol(t):
        return maps.catalog("depolarizing", d=d, lam=float(np.exp(-rate * t)))

    return ChannelFamily("depolarizing_flow", d, depol)


def _transpose_mix(d=2, speed=1.0):
    d, speed = int(d), _nonnegative("speed", speed)
    ident = maps.catalog("identity", d=d)
    trans = maps.catalog("transpose", d=d)

    def mix(t):
        m = min(1.0, speed * t)
        return maps.ChoiMatrix((1.0 - m) * ident.mat + m * trans.mat, d, d)

    return ChannelFamily("transpose_mix", d, mix)


def _glauber_flip(H, beta=1.0, rate=1.0):
    h = matcore.as_complex_matrix(H)
    beta, rate = _nonnegative("beta", beta), _nonnegative("rate", rate)
    d = h.shape[0]
    flip = maps.choi_from_map(_flip_channel(h, beta), d)
    ident = maps.catalog("identity", d=d)

    def glauber(t):
        q = 1.0 - float(np.exp(-rate * t))
        return maps.ChoiMatrix((1.0 - q) * ident.mat + q * flip.mat, d, d)

    return ChannelFamily("glauber_flip", d, glauber)


FAMILIES = matcore.Catalog(
    "channel family",
    {
        "identity": _identity,
        "depolarizing_flow": _depolarizing_flow,
        "transpose_mix": _transpose_mix,
        "glauber_flip": _glauber_flip,
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
    pts = []
    for t in times:
        choi_t = family(t)
        out = maps.apply_map(maps.dual_map(choi_t), state.mat, d2)
        out = (out + out.conj().T) / 2.0
        w, _ = matcore.hermitian_eig(out)
        min_eig = float(w[0])
        trace = float(np.trace(out).real)
        neg = None
        eof_val = None
        dsup_val = None
        valid = min_eig >= -NEGATIVE_EIG_TOL and abs(trace - 1.0) <= states.TRACE_TOL
        if valid:
            pt_mat = matcore.partial_transpose(out, (d1, d2), leg=2)
            wpt, _ = matcore.hermitian_eig(pt_mat)
            neg = float(np.clip(-wpt, 0.0, None).sum())
            if measure_eof or measure_dcoef:
                out_state = states.DensityMatrix(out, d1, d2)
            if measure_eof:
                eof_val = measures.eof_upper(
                    out_state, K=K, restarts=restarts, iters=iters, seed=seed
                ).value
            if measure_dcoef:
                dsup_val = measures.dcoef_sup(
                    out_state, K=K, restarts=restarts, iters=iters, seed=seed
                ).value
        pts.append(TrackPoint(t, min_eig, neg, eof_val, dsup_val, trace))
    return TrackRecord(family.name, tuple(pts))
