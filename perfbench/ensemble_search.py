"""ensemble-search: long eof_upper and dcoef_sup searches on mixed inputs.

The kernels sweep and the multistart drivers in ``measures`` do almost all
the work; ``maps`` and ``dynamics`` do none.  The closed-form states (Werner,
isotropic d=3, Bell) run at fixed search seeds, so their values, and with
them ``eof_tightness``, are a property of the code and not of the workload
seed.  The workload seed draws the random two-qubit states, which take
under a tenth of a pass, so the amount of work hardly depends on it.
"""

import reference as ref
from common import Op

WERNER_P = (0.4, 0.5, 0.7, 0.9)
ISOTROPIC_F = (0.4, 0.5, 0.7)
WERNER_BUDGET = dict(K=16, restarts=32)  # as in acceptance criterion 3
ISOTROPIC_BUDGET = dict(K=9, restarts=4)  # the default K=81 takes ~50 s a call
RANDOM_BUDGET = dict(K=8, restarts=4)
FIXTURE_BUDGET = dict(K=16, restarts=32)
SEPARABLE_MAX = 0.02


def separable_fixtures(states):
    """The 20 certified-separable states of acceptance criterion 3."""
    out = [states.random_separable(2, 2, m=4, seed=s) for s in range(10)]
    return out + [states.random_separable(2, 3, m=2, seed=10 + s) for s in range(10)]


def build(ek, seed, workdir):
    states = ek.states
    return {
        "werner": [states.werner_state(p) for p in WERNER_P],
        "isotropic": [states.isotropic_state(f, 3) for f in ISOTROPIC_F],
        "random": [
            states.random_density(2, 2, rank=rank, seed=seed * 100 + 10 * rank + i)
            for rank in (2, 3)
            for i in range(2)
        ],
        "bell": states.bell_state(1),
        "fixtures": separable_fixtures(states),
    }


def _cert(rep):
    ens = rep.certificate
    return [float(w) for w in ens.weights], [c.mat for c in ens.components]


def _eof_check(st, exact=None, at_most=None, ratios=None):
    def check(rep):
        weights, comps = _cert(rep)
        errs = ref.check_eof(st.mat, st.d1, st.d2, rep.value, weights, comps, exact)
        if at_most is not None and rep.value > at_most:
            errs.append(f"value {rep.value!r} above {at_most}")
        if ratios is not None:
            ratios.append(exact / rep.value)
        return errs

    return check


def _dcoef_check(st, at_most=None, equals=None):
    def check(rep):
        weights, comps = _cert(rep)
        errs = ref.check_dcoef_sup(st.mat, st.d1, st.d2, rep.value, weights, comps)
        if at_most is not None and rep.value > at_most:
            errs.append(f"value {rep.value!r} above {at_most}")
        if equals is not None and abs(rep.value - equals) > 1e-9:
            errs.append(f"value {rep.value!r} differs from {equals}")
        return errs

    return check


def operations(ek, inp, seed, ratios):
    m = ek.measures
    ops = []
    for i, (p, st) in enumerate(zip(WERNER_P, inp["werner"])):
        ops.append(Op(
            f"eof_upper(werner({p}))",
            lambda st=st, i=i: m.eof_upper(st, seed=11 + i, **WERNER_BUDGET),
            _eof_check(st, exact=ref.wootters_eof(st.mat), ratios=ratios),
        ))
    for i, (f, st) in enumerate(zip(ISOTROPIC_F, inp["isotropic"])):
        ops.append(Op(
            f"eof_upper(isotropic({f}, 3))",
            lambda st=st, i=i: m.eof_upper(st, seed=21 + i, **ISOTROPIC_BUDGET),
            _eof_check(st, exact=ref.tv_isotropic_eof(f, 3), ratios=ratios),
        ))
    bell = inp["bell"]
    ops.append(Op("eof_upper(bell)", lambda: m.eof_upper(bell),
                  _eof_check(bell, exact=1.0, ratios=ratios)))
    ops.append(Op("dcoef_sup(bell)", lambda: m.dcoef_sup(bell),
                  _dcoef_check(bell, equals=1.0)))
    w9 = inp["werner"][WERNER_P.index(0.9)]
    ops.append(Op("dcoef_sup(werner(0.9))",
                  lambda: m.dcoef_sup(w9, seed=12, **WERNER_BUDGET), _dcoef_check(w9)))
    for i, st in enumerate(inp["random"]):
        ops.append(Op(
            f"eof_upper(random #{i})",
            lambda st=st, i=i: m.eof_upper(st, seed=seed * 100 + i, **RANDOM_BUDGET),
            _eof_check(st, exact=ref.wootters_eof(st.mat)),
        ))
    for i in (0, 2):  # one rank-2 and one rank-3 state
        st = inp["random"][i]
        ops.append(Op(
            f"dcoef_sup(random #{i})",
            lambda st=st, i=i: m.dcoef_sup(st, seed=seed * 100 + 50 + i, **RANDOM_BUDGET),
            _dcoef_check(st),
        ))
    for i, st in enumerate(inp["fixtures"]):
        ops.append(Op(
            f"eof_upper(fixture {i})",
            lambda st=st, i=i: m.eof_upper(st, seed=100 + i, **FIXTURE_BUDGET),
            _eof_check(st, exact=0.0, at_most=SEPARABLE_MAX),
        ))
        ops.append(Op(
            f"dcoef_sup(fixture {i})",
            lambda st=st, i=i: m.dcoef_sup(st, seed=200 + i, **FIXTURE_BUDGET),
            _dcoef_check(st, at_most=SEPARABLE_MAX),
        ))
    return ops
