"""Dense matrices of the linear operators, for tests that check them whole.

dense_operator probes a residual evaluator with every unit state at once:
the identity columns stacked along one batch axis, E = moveaxis(eye(n)
.reshape(n, n_comp, *grid), 0, 1), go through one call, and since each
batch element keeps the bits of its own evaluation, column k of L = -R(E)
is the operator applied to the k-th unit state.
"""

import numpy as np

from skewform.models import make_model, sample_state
from skewform.sbp_core import build_operators, make_grid, quadrature_weights


def dense_operator(residual, n_comp, grid) -> np.ndarray:
    """The n x n matrix L with du/dt = L u for u flattened in C order, from
    one evaluation of residual (a state -> Residual map, linear in the
    state) on every unit state of the (n_comp, *grid.shape) layout."""
    n = n_comp * int(np.prod(grid.shape))
    E = np.moveaxis(np.eye(n).reshape((n, n_comp) + grid.shape), 0, 1)
    R = residual(E).R
    return -np.moveaxis(R, 1, 0).reshape(n, n).T


def norm_weights(ops, n_comp) -> np.ndarray:
    """The diagonal of H, the quadrature weight tiled over the components."""
    return np.tile(quadrature_weights(ops).ravel(), n_comp)


def periodic_frozen_setup(kind):
    """A periodic (4,2) grid and a coefficient state V (seed 3): burgers1d on
    64 nodes, or swe2d with Coriolis on 17 x 17 nodes."""
    if kind == "burgers1d":
        m = make_model("burgers1d")
        g = make_grid(((0.0, 1.0),), (64,), periodic=(True,))
    else:
        m = make_model("swe2d", alpha=0.4, beta=0.7, f0=0.7, f1=0.3)
        g = make_grid(((0.0, 1.0), (0.0, 1.0)), (17, 17), periodic=(True, True))
    V = sample_state(m, g.shape, np.random.default_rng(3))
    return m, g, build_operators(g, (4, 2)), V
