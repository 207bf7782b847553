"""Time-parametrized map families applied to one leg of a bipartite state.

Each family evaluates to a Choi matrix at every requested time; evolution
applies the dual map tensored with the identity (the Schroedinger picture)
and records positivity and entanglement diagnostics over the grid.
Families are closed-form in t, so grid evaluation is pointwise.
"""

from dataclasses import dataclass

import numpy as np

from . import maps, matcore, measures, states

TRACE_TOL = 1e-8
NEGATIVE_EIG_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ChannelFamily:
    """A named map family t >= 0 -> ChoiMatrix acting on leg 1."""

    name: str
    params: dict
    d: int
    evaluator: object

    def __post_init__(self):
        c0 = self.evaluator(0.0)
        ident = maps.catalog("identity", d=self.d)
        if matcore.frobenius_norm(c0.mat - ident.mat) > 1e-10:
            raise ValueError(f"family {self.name!r} does not start at the identity")

    def __call__(self, t):
        if t < 0:
            raise ValueError(f"time must be >= 0, got {t}")
        return self.evaluator(float(t))


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


def family_catalog(name, **params):
    """Built-in families: identity, depolarizing_flow, transpose_mix, glauber_flip."""
    if name == "identity":
        d = int(params.get("d", 2))
        ident = maps.catalog("identity", d=d)
        return ChannelFamily("identity", {"d": d}, d, lambda t: ident)
    if name == "depolarizing_flow":
        d = int(params.get("d", 2))
        rate = float(params.get("rate", 1.0))
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")

        def depol(t):
            return maps.catalog("depolarizing", d=d, lam=float(np.exp(-rate * t)))

        return ChannelFamily("depolarizing_flow", {"d": d, "rate": rate}, d, depol)
    if name == "transpose_mix":
        d = int(params.get("d", 2))
        speed = float(params.get("speed", 1.0))
        if speed < 0:
            raise ValueError(f"speed must be >= 0, got {speed}")
        ident = maps.catalog("identity", d=d)
        trans = maps.catalog("transpose", d=d)

        def mix(t):
            m = min(1.0, speed * t)
            return maps.ChoiMatrix((1.0 - m) * ident.mat + m * trans.mat, d, d)

        return ChannelFamily("transpose_mix", {"d": d, "speed": speed}, d, mix)
    if name == "glauber_flip":
        h = params.get("H")
        if h is None:
            raise ValueError("glauber_flip needs a site Hamiltonian H")
        h = matcore.as_complex_matrix(h)
        beta = float(params.get("beta", 1.0))
        rate = float(params.get("rate", 1.0))
        if beta < 0 or rate < 0:
            raise ValueError("beta and rate must be >= 0")
        d = h.shape[0]
        flip = maps.choi_from_map(_flip_channel(h, beta), d)
        ident = maps.catalog("identity", d=d)

        def glauber(t):
            q = 1.0 - float(np.exp(-rate * t))
            return maps.ChoiMatrix((1.0 - q) * ident.mat + q * flip.mat, d, d)

        return ChannelFamily(
            "glauber_flip", {"d": d, "beta": beta, "rate": rate}, d, glauber
        )
    raise ValueError(f"unknown channel family {name!r}")


@dataclass(frozen=True)
class TrackPoint:
    t: float
    min_eig: float
    negativity: float | None
    eof_upper: float | None
    dcoef_sup: float | None
    trace: float

    def to_json(self):
        return {
            "t": self.t,
            "min_eig": self.min_eig,
            "negativity": self.negativity,
            "eof_upper": self.eof_upper,
            "dcoef_sup": self.dcoef_sup,
            "trace": self.trace,
        }


_CSV_COLUMNS = ("t", "min_eig", "negativity", "eof_upper", "dcoef_sup", "trace")


@dataclass(frozen=True, eq=False)
class TrackRecord:
    """Per-time diagnostics of a state evolving under a map family."""

    family: str
    points: tuple

    @property
    def times(self):
        return [pt.t for pt in self.points]

    def first_negative_time(self, tol=NEGATIVE_EIG_TOL):
        for pt in self.points:
            if pt.min_eig < -tol:
                return pt.t
        return None

    def to_json(self):
        return [pt.to_json() for pt in self.points]

    def to_csv(self):
        lines = [",".join(_CSV_COLUMNS)]
        for pt in self.points:
            row = []
            for col in _CSV_COLUMNS:
                val = getattr(pt, col)
                row.append("" if val is None else repr(float(val)))
            lines.append(",".join(row))
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
    the output fails state validity).
    """
    times = [float(t) for t in times]
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
        valid = min_eig >= -NEGATIVE_EIG_TOL and abs(trace - 1.0) <= TRACE_TOL
        pt_mat = matcore.partial_transpose(out, (d1, d2), leg=2)
        wpt, _ = matcore.hermitian_eig(pt_mat)
        if valid:
            neg = float(np.clip(-wpt, 0.0, None).sum())
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
