"""Model catalogue: coefficient entry tables of the skew-symmetric first-order form.

Every model writes its governing system as

    P u_t + sum_i [ (A_i(V) u)_{x_i} + A_i(V)^T u_{x_i} ] + C(V) u = F,

with C + C^T = 0, where V is the coefficient state (V = u nonlinear, V fixed
frozen, V = mean for the perturbation equation).  The catalogue:

    burgers1d    u               A = v/3                          P = 1
    euler2d      (u, v, p)       A1 = A/2, A2 = B/2               P = diag(1,1,0)
    euler3d_cyl  (u, v, w, p)    A_r = rA/2, A_th = B/2,          P = r diag(1,1,1,0)
                                 A_z = rC/2, skew zero-order term
    swe2d        (phi, sqrt(phi)u, sqrt(phi)v)
                                 one-parameter families A1(alpha),
                                 A2(beta), Coriolis skew term      P = I

The shallow water model works in transformed variables whose squared norm is
twice the energy density; alpha and beta parametrise valid splittings that
all produce the same boundary contraction.

A coefficient matrix is an entry table: a dict {(row, col): field} of the
entries that can be nonzero, keys in row-major order.  Every other entry is
zero at every state, so no dense tensor is built; dense_matrix expands one
point's table where a linear-algebra routine needs the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .sbp_core import Grid

# Depth floor for the shallow water transform; sqrt and 1/sqrt must stay
# well conditioned.
_DEPTH_FLOOR = 1e-10


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    components: tuple[str, ...]
    axis_names: tuple[str, ...]
    alpha: float = 1.0
    beta: float = 1.0
    f0: float = 0.0
    f1: float = 0.0

    @property
    def n_comp(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return len(self.axis_names)


def make_model(kind: str, **params) -> ModelSpec:
    """Builds a model spec.

    Args:
        kind: one of MODEL_KINDS.
        params: swe2d accepts alpha, beta (splitting parameters) and
            f0, f1 for the Coriolis profile f(y) = f0 + f1 y.  Other kinds
            accept no parameters.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model '{kind}'; try one of {MODEL_KINDS}")
    allowed = {"alpha", "beta", "f0", "f1"} if kind == "swe2d" else set()
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"model '{kind}' does not accept parameters {sorted(unknown)}")
    components, axis_names, *_ = _KINDS[kind]
    return with_params(ModelSpec(kind, components, axis_names), **params)


def with_params(model: ModelSpec, **params) -> ModelSpec:
    """A copy of model with the given parameters replaced; None values
    leave the parameter as it is.  Parameters must be finite."""
    params = {k: float(v) for k, v in params.items() if v is not None}
    if model.kind != "swe2d" and params:
        raise ValueError(f"model '{model.kind}' does not accept parameters {sorted(params)}")
    bad = sorted(k for k, v in params.items() if not np.isfinite(v))
    if bad:
        raise ValueError(f"model parameters {bad} must be finite")
    return replace(model, **params)


def validate_grid(model: ModelSpec, grid: Grid) -> None:
    if grid.dim != model.dim:
        raise ValueError(
            f"model '{model.kind}' is {model.dim}D but the grid is {grid.dim}D"
        )
    if model.kind == "euler3d_cyl" and grid.extents[0][0] <= 0.0:
        raise ValueError("cylindrical grids need r_min > 0")


def _as_state(model: ModelSpec, V) -> np.ndarray:
    V = np.asarray(V, dtype=np.float64)
    if V.ndim == 0 or V.shape[0] != model.n_comp:
        raise ValueError(
            f"model '{model.kind}' states have {model.n_comp} leading components,"
            f" got shape {V.shape}"
        )
    return V


def check_admissible(model: ModelSpec, V) -> None:
    """Raises if V leaves the model's admissible set (swe2d depth floor)."""
    V = _as_state(model, V)
    if model.kind == "swe2d":
        dmin = float(V[0].min())
        if not dmin > _DEPTH_FLOOR:
            raise ValueError(
                f"shallow water depth variable must exceed {_DEPTH_FLOOR}, min is {dmin}"
            )
    if not np.isfinite(V).all():
        raise ValueError("state contains non-finite entries")


def coeff_matrices(model: ModelSpec, V, pos=None):
    """Coefficient entry tables at the state V, which must be admissible.

    Args:
        V: coefficient state, shape (n_comp, *s) where s may be empty for a
           single point.
        pos: per-axis coordinate arrays broadcastable to s.  Required for
           euler3d_cyl (radius) and for swe2d when f1 is nonzero.

    Returns:
        (A, C): A is a tuple of dim tables {(row, col): field} for A_i and C
        one table, keys row-major, every field of shape s (0-d for a point);
        C is skew per node.  The fields are views into one packed block.

    The block is allocated first and each entry is computed straight into
    its view (ufunc out=).  A full-size temporary per entry, copied into
    the block, would cost a second pass and fresh pages that the kernel
    faults in on every call.  One block rather than one array per entry:
    it is one allocation, coeff_split needs one subtraction, and a block
    above the 16 MiB that cli.main primes glibc's mmap threshold to (the
    513^2 swe2d block is 25.3 MB) still lifts the threshold above the field
    size when freed, so the residual's per-field temporaries reuse the heap.
    """
    V = _as_state(model, V)
    check_admissible(model, V)
    *_, pattern, writer = _KINDS[model.kind]
    block = np.empty((sum(map(len, pattern)),) + V.shape[1:])
    views = (block[k, ...] for k in range(len(block)))
    tables = [{key: next(views) for key in keys} for keys in pattern]
    writer(model, V, pos, *tables)
    return tuple(tables[:-1]), tables[-1]


def dense_matrix(entries, n_comp: int) -> np.ndarray:
    """The n_comp x n_comp matrix of one point's entry table, zero elsewhere."""
    M = np.zeros((n_comp, n_comp))
    for key, value in entries.items():
        M[key] = value
    return M


# The writers fill every entry of a kind's tables in place; the tables share
# one packed block, so an entry already written serves as an operand.

def _write_burgers1d(model, V, pos, A, C):
    np.divide(V[0], 3.0, out=A[0, 0])


def _write_euler2d(model, V, pos, A1, A2, C):
    for ax, M in enumerate((A1, A2)):
        np.divide(V[ax], 2.0, out=M[0, 0])
        np.copyto(M[1, 1], M[0, 0])
        M[ax, 2].fill(0.5)
        M[2, ax].fill(0.5)


def _write_euler3d_cyl(model, V, pos, Ar, Ath, Az, C):
    if pos is None:
        raise ValueError("euler3d_cyl needs pos with the radius array")
    hr = Ar[0, 3]
    np.divide(np.asarray(pos[0], dtype=np.float64), 2.0, out=hr)
    np.multiply(hr, V[0], out=Ar[0, 0])
    np.divide(V[1], 2.0, out=Ath[0, 0])
    np.multiply(hr, V[2], out=Az[0, 0])
    for M in (Ar, Ath, Az):
        np.copyto(M[1, 1], M[0, 0])
        np.copyto(M[2, 2], M[0, 0])
    for key, M in (((3, 0), Ar), ((2, 3), Az), ((3, 2), Az)):
        np.copyto(M[key], hr)
    Ath[1, 3].fill(0.5)
    Ath[3, 1].fill(0.5)
    np.negative(V[1], out=C[0, 1])
    np.copyto(C[1, 0], V[1])
    C[0, 3].fill(-0.5)
    C[3, 0].fill(0.5)


def _write_swe2d(model, V, pos, A1, A2, C):
    root = np.sqrt(V[0])
    for ax, s, M in ((1, model.alpha, A1), (2, model.beta, A2)):
        np.multiply(s, V[ax], out=M[0, 0])
        np.divide(M[0, 0], root, out=M[0, 0])
        np.multiply(1.0 - 3.0 * s, root, out=M[0, ax])
        np.multiply(2.0 * s, root, out=M[ax, 0])
        u = M[1, 1]
        np.multiply(2.0, root, out=u)
        np.divide(V[ax], u, out=u)
        np.copyto(M[2, 2], u)
    f = C[2, 1]
    if model.f1 == 0.0:
        f.fill(model.f0)
    else:
        if pos is None:
            raise ValueError("swe2d with f1 != 0 needs pos with the y array")
        np.multiply(model.f1, np.asarray(pos[1], dtype=np.float64), out=f)
        np.add(model.f0, f, out=f)
    np.negative(f, out=C[1, 2])


# One row per kind: the state component names (final-state file headers),
# the axis names (n_comp and dim are their lengths), the keys of the entries
# of A_1 .. A_dim and C that can be nonzero, each table row-major, and the
# writer of those entries.
_KINDS = {
    "burgers1d": (("u",), ("x",), (((0, 0),), ()), _write_burgers1d),
    "euler2d": (("u", "v", "p"), ("x", "y"),
                (((0, 0), (0, 2), (1, 1), (2, 0)), ((0, 0), (1, 1), (1, 2), (2, 1)), ()),
                _write_euler2d),
    "euler3d_cyl": (("u", "v", "w", "p"), ("r", "theta", "z"),
                    (((0, 0), (0, 3), (1, 1), (2, 2), (3, 0)),
                     ((0, 0), (1, 1), (1, 3), (2, 2), (3, 1)),
                     ((0, 0), (1, 1), (2, 2), (2, 3), (3, 2)),
                     ((0, 1), (0, 3), (1, 0), (3, 0))),
                    _write_euler3d_cyl),
    "swe2d": (("U1", "U2", "U3"), ("x", "y"),
              (((0, 0), (0, 1), (1, 0), (1, 1), (2, 2)),
               ((0, 0), (0, 2), (1, 1), (2, 0), (2, 2)),
               ((1, 2), (2, 1))),
              _write_swe2d),
}
MODEL_KINDS = tuple(_KINDS)


def norm_weight(model: ModelSpec, grid: Grid) -> np.ndarray:
    """Per-node diagonal of the norm matrix P, shape (n_comp, *grid.shape);
    P is diagonal for every model.

    Singular for the euler models (pressure carries no norm weight); the
    cylindrical model includes the radius factor.
    """
    validate_grid(model, grid)
    W = np.ones((model.n_comp,) + grid.shape)
    if model.kind in ("euler2d", "euler3d_cyl"):
        W[-1] = 0.0
    if model.kind == "euler3d_cyl":
        W[:3] *= grid.coords[0].reshape((grid.shape[0], 1, 1))
    return W


def has_invertible_norm(model: ModelSpec) -> bool:
    return model.kind in ("burgers1d", "swe2d")


def swe_transform(phi, u, v) -> np.ndarray:
    """Primitive (phi, u, v) to transformed variables (phi, sqrt(phi)u, sqrt(phi)v)."""
    phi = np.asarray(phi, dtype=np.float64)
    if np.min(phi) <= _DEPTH_FLOOR:
        raise ValueError("phi must be positive for the square-root transform")
    root = np.sqrt(phi)
    return np.stack([phi, root * np.asarray(u, float), root * np.asarray(v, float)])


def swe_inverse(U) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transformed variables back to primitive (phi, u, v)."""
    U = np.asarray(U, dtype=np.float64)
    if np.min(U[0]) <= _DEPTH_FLOOR:
        raise ValueError("depth variable must be positive")
    root = np.sqrt(U[0])
    return U[0], U[1] / root, U[2] / root


def swe_quasilinear(U) -> tuple[dict, dict]:
    """Quasilinear target matrices of the transformed shallow water system,
    as entry tables.

    For smooth fields, (A1(U) U)_x + A1(U)^T U_x equals calA(U) U_x with the
    first matrix returned here, and likewise in y with the second; this is
    the identity behind the splitting ansatz and holds for every alpha, beta.
    """
    U = np.asarray(U, dtype=np.float64)
    root = np.sqrt(U[0])
    r3 = U[0] * root
    calA = {(0, 0): U[1] / (2.0 * root), (0, 1): root,
            (1, 0): root - U[1] ** 2 / (4.0 * r3), (1, 1): 3.0 * U[1] / (2.0 * root),
            (2, 0): -U[1] * U[2] / (4.0 * r3), (2, 1): U[2] / (2.0 * root),
            (2, 2): U[1] / root}
    calB = {(0, 0): U[2] / (2.0 * root), (0, 2): root,
            (1, 0): -U[1] * U[2] / (4.0 * r3), (1, 1): U[2] / root,
            (1, 2): U[1] / (2.0 * root),
            (2, 0): root - U[2] ** 2 / (4.0 * r3), (2, 2): 3.0 * U[2] / (2.0 * root)}
    return calA, calB


def coeff_split(model: ModelSpec, U_bar, U_prime, pos=None) -> tuple:
    """Increment tables (A', C') of the coefficients from the mean to the
    total state.

    A' = A(mean + pert) - A(mean) entry for entry; for burgers1d the
    coefficient is linear in the state, so the increment is evaluated
    directly as A(pert), which scales exactly under scaling of the
    perturbation.
    """
    U_bar = _as_state(model, U_bar)
    U_prime = _as_state(model, U_prime)
    if model.kind == "burgers1d":
        check_admissible(model, U_bar)
        return coeff_matrices(model, U_prime, pos)
    A_bar, _ = coeff_matrices(model, U_bar, pos)
    A_tot, C_tot = coeff_matrices(model, U_bar + U_prime, pos)
    # Every field is a view of its call's block: one subtraction of the
    # mean's block turns the total's tables into the increments.
    bar, tot = (next(iter(A[0].values())).base for A in (A_bar, A_tot))
    np.subtract(tot, bar, out=tot)
    return A_tot, C_tot


def wavespeeds(model: ModelSpec, V) -> tuple[float, ...]:
    """Per-axis largest characteristic speed over all nodes (CFL estimate):
    |u| for burgers1d, |u_i| + sqrt(phi) for swe2d (the eigenvalue radius of
    swe_quasilinear, free of alpha, beta).  Only these two models march."""
    V = _as_state(model, V)
    check_admissible(model, V)
    if model.kind == "burgers1d":
        return (float(np.max(np.abs(V[0]))),)
    if model.kind != "swe2d":
        raise ValueError(f"model '{model.kind}' is not marched and has no wave speeds")
    root = np.sqrt(V[0])
    return tuple(float(np.max(np.abs(V[ax + 1]) / root + root)) for ax in range(2))


def sample_state(model: ModelSpec, shape, rng) -> np.ndarray:
    """Random admissible state on the given spatial shape.

    Ranges: velocities and pressure uniform in [-1, 1]; the shallow water
    depth variable uniform in [0.5, 2] so the square-root transform stays
    well conditioned.
    """
    shape = tuple(shape)
    nc = model.n_comp
    U = rng.uniform(-1.0, 1.0, size=(nc,) + shape)
    if model.kind == "swe2d":
        U[0] = rng.uniform(0.5, 2.0, size=shape)
    return U
