"""map-hierarchy: the positivity hierarchy, Dykstra splits and map witnesses.

``maps`` and ``matcore`` do the work (Dykstra's eigendecompositions, the
see-saw, ``tensor_with_identity``); ``kernels.eof_sweep`` is never called,
so a change to the EOF search should leave this workload alone.  The
workload seed draws the strictly decomposable mixture and the isotropic
fidelities on each side of F = 1/d.  The maps and the see-saw seeds are
fixed, so that the amount of work does not depend on the workload seed.
"""

import numpy as np

import reference as ref
from common import Op
from ensemble_search import separable_fixtures

BLOCK_BUDGET = dict(restarts=40, iters=200)
CP_BLOCK_BUDGET = dict(restarts=8, iters=80)  # as in acceptance criterion 4
WITNESS_DIMS = (3, 4, 5, 6)
WITNESS_MAPS = ("transpose", "reduction", "werner_holevo")
MIN_RESIDUAL = 1e-3

# (catalog name, params, cp, co-cp); every one of them is a positive map,
# and all but the Choi map are decomposable.
CATALOG = (
    ("identity", {"d": 2}, True, False),
    ("identity", {"d": 3}, True, False),
    ("transpose", {"d": 2}, False, True),
    ("transpose", {"d": 3}, False, True),
    ("depolarizing", {"d": 3, "lam": 0.5}, True, False),
    ("reduction", {"d": 2}, False, True),
    ("reduction", {"d": 3}, False, True),
    ("werner_holevo", {"d": 3}, True, False),
    ("choi_map", {}, False, False),
)


def breuer_hall(maps, d):
    """Breuer-Hall map on M_d (d even): positive, not decomposable for d >= 4."""
    u = np.zeros((d, d))
    for k in range(0, d, 2):
        u[k, k + 1], u[k + 1, k] = 1.0, -1.0
    eye = np.eye(d)
    return maps.choi_from_map(
        lambda x: (np.trace(x) * eye - x - u @ x.T @ u.T) / (d - 2), d
    )


def strict_mixture(maps, rng):
    """0.5 A + 0.5 B^G on M3 with A, B > 0: decomposable by construction.

    It is not CP, so Dykstra has to run (acceptance criterion 6).
    """
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    a0 = g @ g.conj().T
    a0 /= np.trace(a0).real
    b0 = ref.isotropic_matrix(0.9 + 0.1 / 9, 3)  # 0.9 |Omega><Omega| + 0.1 I/9
    cmat = 0.5 * a0 + 0.5 * ref.ptranspose(b0, 3, 3, leg=2)
    if ref.min_eig(cmat) > -1e-6:
        raise ValueError("strict mixture came out CP; Dykstra would not run")
    return maps.ChoiMatrix(cmat, 3, 3)


def build(ek, seed, workdir):
    maps, states = ek.maps, ek.states
    rng = np.random.default_rng([seed, 2])
    fids = {}
    for d in WITNESS_DIMS:
        lo = rng.uniform(0.2, 0.9) / d
        hi = 1.0 / d + rng.uniform(0.1, 0.9) * (1.0 - 1.0 / d)
        fids[d] = (lo, hi)
    return {
        "catalog": [maps.catalog(name, **params) for name, params, _, _ in CATALOG],
        "breuer_hall": [breuer_hall(maps, 4), breuer_hall(maps, 6)],
        "random_cp": [  # the 50 maps of acceptance criterion 4
            maps.random_cp_map(2 + k % 2, kraus_count=2 + k % 3, seed=1000 + k)
            for k in range(50)
        ],
        "mixture": strict_mixture(maps, rng),
        "isotropic": {
            (d, f): states.isotropic_state(f, d) for d in WITNESS_DIMS for f in fids[d]
        },
        "witness_maps": {
            (name, d): maps.catalog(name, d=d)
            for name in WITNESS_MAPS
            for d in (2,) + WITNESS_DIMS
        },
        "fixtures": separable_fixtures(states),
    }


def _min_eig_check(expect_ok, reference_min):
    def check(rep):
        errs = []
        if rep.ok != expect_ok:
            errs.append(f"verdict {rep.ok}, expected {expect_ok}")
        if abs(rep.min_eig - reference_min) > 1e-9:
            errs.append(f"min_eig {rep.min_eig!r}, numpy gives {reference_min!r}")
        return errs

    return check


def _block_check(rep):
    if not rep.block_positive:
        return [f"positive map judged not block positive (min {rep.min_value!r})"]
    return []


def _decomp_check(choi, decomposable):
    def check(rep):
        if decomposable:
            if rep.decomposable is not True:
                return [f"decomposable map got verdict {rep.decomposable}"]
            return ref.check_split(choi.mat, choi.d_in, choi.d_out, rep.part_cp, rep.residual)
        errs = []
        if rep.decomposable is not False:
            errs.append(f"non-decomposable map got verdict {rep.decomposable}")
        if rep.residual < MIN_RESIDUAL:
            errs.append(f"residual {rep.residual!r} below {MIN_RESIDUAL}")
        return errs

    return check


def _hierarchy_ops(maps, label, choi, cp, co_cp, decomposable, see_saw_seed, budget):
    """The hierarchy checks of one positive map; ``co_cp=None`` skips co-CP."""
    cp_min = ref.min_eig(choi.mat)
    ops = [Op(f"is_cp({label})", lambda: maps.is_cp(choi), _min_eig_check(cp, cp_min))]
    if co_cp is not None:
        co_cp_min = ref.min_eig(ref.ptranspose(choi.mat, choi.d_in, choi.d_out, leg=2))
        ops.append(Op(f"is_co_cp({label})", lambda: maps.is_co_cp(choi),
                      _min_eig_check(co_cp, co_cp_min)))
    return ops + [
        Op(f"is_block_positive({label})",
           lambda: maps.is_block_positive(choi, seed=see_saw_seed, **budget), _block_check),
        Op(f"is_decomposable({label})", lambda: maps.is_decomposable(choi),
           _decomp_check(choi, decomposable)),
    ]


def _witness_check(expected, separable):
    def check(rep):
        errs = []
        if abs(rep.lambda_min - expected) > 1e-9:
            errs.append(f"lambda_min {rep.lambda_min!r}, reference {expected!r}")
        if rep.entangled != (expected < -1e-10):
            errs.append(f"verdict entangled={rep.entangled} for minimum {expected!r}")
        if separable and rep.entangled:
            errs.append("separable state judged entangled")
        return errs

    return check


def operations(ek, inp, seed, ratios):
    maps, measures = ek.maps, ek.measures
    ops = []
    for k, ((name, params, cp, co_cp), choi) in enumerate(zip(CATALOG, inp["catalog"])):
        label = name + "".join(f",{key}={val}" for key, val in params.items())
        ops += _hierarchy_ops(maps, label, choi, cp, co_cp, name != "choi_map", k,
                              BLOCK_BUDGET)
    for d, choi in zip((4, 6), inp["breuer_hall"]):
        ops += _hierarchy_ops(maps, f"breuer_hall,d={d}", choi, False, False, False, d,
                              BLOCK_BUDGET)
    for k, choi in enumerate(inp["random_cp"]):
        ops += _hierarchy_ops(maps, f"random_cp #{k}", choi, True, None, True, k,
                              CP_BLOCK_BUDGET)
    mix = inp["mixture"]
    ops.append(Op(
        "is_decomposable(strict mixture)",
        lambda: maps.is_decomposable(mix, max_iter=2000, tol=1e-8),
        _decomp_check(mix, True),
    ))
    for (d, f), st in inp["isotropic"].items():
        for name in WITNESS_MAPS:
            choi = inp["witness_maps"][(name, d)]
            ops.append(Op(
                f"map_witness({name}, isotropic({f:.4f}, {d}))",
                lambda st=st, choi=choi: measures.map_witness(st, choi),
                _witness_check(ref.isotropic_witness_min(name, f, d), f <= 1.0 / d),
            ))
    for i, st in enumerate(inp["fixtures"]):
        for name in WITNESS_MAPS:
            choi = inp["witness_maps"][(name, 2)]
            expected = ref.min_eig(ref.witness_output(name, st.mat, st.d1, st.d2))
            ops.append(Op(
                f"map_witness({name}, fixture {i})",
                lambda st=st, choi=choi: measures.map_witness(st, choi),
                _witness_check(expected, True),
            ))
    return ops
