"""Search-grid constants of the ``dcoef`` two-member rotation search, and floors.

The correlation-coefficient sweep in ``measures`` runs a coarse-grid /
refinement protocol through ``kernels._best_rotation``, scoring in float
arithmetic on the 3 x 3 Bloch frame of the pair.  The weight and entropy
floors also serve ``kernels.column_scores``.
"""

import numpy as np

# Coarse grid for the two-member rotation search: theta in (0, pi/2),
# phi over the full circle.  theta = 0 is the identity rotation and serves
# as the baseline, theta = pi/2 merely swaps the two members.
THETAS = np.arange(1, 9) * (np.pi / 2.0) / 9.0
PHIS = np.arange(8) * (2.0 * np.pi / 8.0)

# Local 3x3 refinement around the best coarse point, halving the step each
# round.  Initial steps are half the coarse spacings.
REFINE_ROUNDS = 6
THETA_STEP0 = (np.pi / 2.0) / 9.0 / 2.0
PHI_STEP0 = (2.0 * np.pi / 8.0) / 2.0

# A rotation is applied only if it beats the current pair objective by this
# margin; guards against float-noise churn.
ACCEPT_EPS = 1e-14

# Ensemble members lighter than this carry no objective weight.
WEIGHT_FLOOR = 1e-14

# Normalised eigenvalues at or below this floor contribute zero entropy.
ENTROPY_FLOOR = 1e-12
