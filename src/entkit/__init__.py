"""Finite-dimensional toolkit for bipartite entanglement and positive maps.

Modules: ``matcore`` (dense complex linear algebra), ``states`` (density
matrices and named families), ``maps`` (Choi machinery and the positivity
hierarchy), ``measures`` (separability probes and correlation measures),
``dynamics`` (time-parametrized map families) and ``cli``.
"""

from .matcore import (
    hermitian_eig,
    kron,
    partial_trace,
    partial_transpose,
    psd_project,
)
from .states import (
    DensityMatrix,
    Ensemble,
    bell_state,
    gibbs_state,
    isotropic_state,
    ising_hamiltonian,
    make_named,
    max_mixed,
    product_state,
    random_density,
    random_separable,
    restrict,
    von_neumann_entropy,
    werner_state,
    xxz_hamiltonian,
)
from .maps import (
    ChoiMatrix,
    apply_map,
    catalog,
    choi_from_map,
    dual_map,
    is_block_positive,
    is_co_cp,
    is_cp,
    is_decomposable,
    tensor_with_identity,
)
from .measures import (
    MeasureReport,
    dcoef,
    dcoef_sup,
    eof_upper,
    gell_mann_basis,
    map_witness,
    negativity,
    ppt_test,
)
from .dynamics import ChannelFamily, TrackRecord, evolve_track, family_catalog

__version__ = "0.1.0"
