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
point's table where a linear-algebra routine needs the whole matrix.  A
table stores each distinct field once: keys that repeat a field share its
view, a constant entry is a 0-d float64, and an entry that depends on the
coordinates only keeps the shape of its Grid.positions axis; both broadcast
to every node.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

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


# The fields of a ModelSpec after kind, components and axis_names: swe2d's
# splitting alpha, beta and Coriolis profile f0 + f1 y.  Other kinds take none.
MODEL_PARAMS = tuple(f.name for f in fields(ModelSpec))[3:]


def make_model(kind: str, **params) -> ModelSpec:
    """Builds a model spec: with_params of the kind's defaults.

    Args:
        kind: one of MODEL_KINDS.
        params: swe2d accepts MODEL_PARAMS, alpha, beta (splitting) and f0,
            f1 (Coriolis f(y) = f0 + f1 y); None leaves the default.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model '{kind}'; try one of {MODEL_KINDS}")
    components, axis_names, *_ = _KINDS[kind]
    return with_params(ModelSpec(kind, components, axis_names), **params)


def with_params(model: ModelSpec, **params) -> ModelSpec:
    """A copy of model with the given parameters replaced; None values
    leave the parameter as it is.  Only swe2d takes parameters, those of
    MODEL_PARAMS, and they must be finite."""
    params = {k: float(v) for k, v in params.items() if v is not None}
    unknown = sorted(set(params) - set(MODEL_PARAMS if model.kind == "swe2d" else ()))
    if unknown:
        raise ValueError(f"model '{model.kind}' does not accept parameters {unknown}")
    bad = sorted(k for k, v in params.items() if not np.isfinite(v))
    if bad:
        raise ValueError(f"model parameters {bad} must be finite")
    return replace(model, **params)


def unit_normal(model: ModelSpec, normal) -> tuple[float, ...]:
    """normal as a tuple of floats, refused unless it has the model's
    dimension and unit length to 1e-6."""
    normal = tuple(float(c) for c in normal)
    if len(normal) != model.dim:
        raise ValueError(f"normal has {len(normal)} components, model is {model.dim}D")
    length = float(np.linalg.norm(normal))
    if not abs(length - 1.0) <= 1e-6:
        raise ValueError(f"normal must have unit length, got length {length!r}")
    return normal


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


def check_admissible(model: ModelSpec, V) -> np.ndarray:
    """V as a float64 state, refused unless it has the model's components and
    lies in its admissible set (swe2d depth floor, finite entries)."""
    V = _as_state(model, V)
    if model.kind == "swe2d":
        dmin = float(V[0].min())
        if not dmin > _DEPTH_FLOOR:
            raise ValueError(
                f"shallow water depth variable must exceed {_DEPTH_FLOOR}, min is {dmin}"
            )
    if not np.isfinite(V).all():
        raise ValueError("state contains non-finite entries")
    return V


def coeff_matrices(model: ModelSpec, V, pos=None):
    """Coefficient entry tables at the state V, which must be admissible.

    Args:
        V: coefficient state, shape (n_comp, *s) where s may be empty for a
           single point.
        pos: per-axis coordinate arrays broadcastable to s.  Required for
           euler3d_cyl (radius) and for swe2d when f1 is nonzero.

    Returns:
        (A, C): A is a tuple of dim tables {(row, col): field} for A_i and C
        one table, keys row-major; C is skew per node.  Each distinct field
        of shape s is a view of one slot of a packed block, and a key that
        repeats a field holds the same view (the euler (1,1) and (2,2),
        swe2d's (2,2), euler3d_cyl's r/2 at four keys).  A constant entry is
        a 0-d float64 (the euler +-0.5, swe2d's f0 when f1 = 0).  swe2d's
        Coriolis entries f = f0 + f1 y and -f with f1 nonzero depend on the
        coordinates only: they are y-profiles at the shape of pos[1]
        ((1, n_y) for Grid.positions), outside the block.  The block
        holds 1, 2, 6 and 8 slots for burgers1d, euler2d, euler3d_cyl and
        swe2d, where the tables hold 1, 8, 19 and 12 entries.  The radius
        stays a slot: the face terms cut the A tables to face layers.

    A product by a 0-d constant, a profile or a shared view equals the
    product by a filled field bit for bit, so the kernels give the same
    bytes as with one field per entry.  The block is allocated first and
    each slot is computed straight into its view (ufunc out=).  A full-size
    temporary per entry, copied into the block, would cost a second pass and
    fresh pages that the kernel faults in on every call.  One block rather than
    one array per slot: it is one allocation, coeff_split needs one
    subtraction, and a block above the 16 MiB that cli.main primes glibc's
    mmap threshold to still lifts the threshold above the field size when
    freed, so the residual's per-field temporaries reuse the heap.
    """
    V = check_admissible(model, V)
    *_, writer = _KINDS[model.kind]
    return writer(model, V, pos)


def dense_matrix(entries, n_comp: int) -> np.ndarray:
    """The n_comp x n_comp matrix of one point's entry table, zero elsewhere."""
    M = np.zeros((n_comp, n_comp))
    for key, value in entries.items():
        M[key] = value
    return M


# The writers compute each distinct field of a kind's tables into a slot of
# one fresh block and return the tables, keys row-major.

def _slots(V, n: int) -> list:
    """n slot views of one packed (n, *s) block, s the node shape of V."""
    block = np.empty((n,) + V.shape[1:])
    return [block[k, ...] for k in range(n)]


def _const(value: float) -> np.ndarray:
    """A constant entry: one 0-d float64 for every node."""
    return np.asarray(value, dtype=np.float64)


def _write_burgers1d(model, V, pos):
    (u,) = _slots(V, 1)
    np.divide(V[0], 3.0, out=u)
    return ({(0, 0): u},), {}


def _write_euler2d(model, V, pos):
    ux, uy = _slots(V, 2)
    np.divide(V[0], 2.0, out=ux)
    np.divide(V[1], 2.0, out=uy)
    half = _const(0.5)
    return ({(0, 0): ux, (0, 2): half, (1, 1): ux, (2, 0): half},
            {(0, 0): uy, (1, 1): uy, (1, 2): half, (2, 1): half}), {}


def _write_euler3d_cyl(model, V, pos):
    if pos is None:
        raise ValueError("euler3d_cyl needs pos with the radius array")
    u, hr, v, w, c01, c10 = _slots(V, 6)
    np.divide(np.asarray(pos[0], dtype=np.float64), 2.0, out=hr)
    np.multiply(hr, V[0], out=u)
    np.divide(V[1], 2.0, out=v)
    np.multiply(hr, V[2], out=w)
    np.negative(V[1], out=c01)
    np.copyto(c10, V[1])
    half = _const(0.5)
    return (({(0, 0): u, (0, 3): hr, (1, 1): u, (2, 2): u, (3, 0): hr},
             {(0, 0): v, (1, 1): v, (1, 3): half, (2, 2): v, (3, 1): half},
             {(0, 0): w, (1, 1): w, (2, 2): w, (2, 3): hr, (3, 2): hr}),
            {(0, 1): c01, (0, 3): _const(-0.5), (1, 0): c10, (3, 0): half})


def _write_swe2d(model, V, pos):
    if model.f1 != 0.0 and pos is None:
        raise ValueError("swe2d with f1 != 0 needs pos with the y array")
    slots = _slots(V, 8)
    root = np.sqrt(V[0])
    two_root = 2.0 * root  # exact: V[ax] / two_root is V[ax] / (2.0 * root) bit for bit
    for ax, s, (a, b, c, u) in ((1, model.alpha, slots[0:4]), (2, model.beta, slots[4:8])):
        np.multiply(s, V[ax], out=a)
        np.divide(a, root, out=a)
        np.multiply(1.0 - 3.0 * s, root, out=b)
        np.multiply(2.0 * s, root, out=c)
        np.divide(V[ax], two_root, out=u)
    a1, b1, c1, ux, a2, b2, c2, uy = slots
    if model.f1 == 0.0:
        f, minus_f = _const(model.f0), _const(-model.f0)
    else:
        profiles = np.empty((2,) + np.shape(pos[1]))
        f, minus_f = profiles[0, ...], profiles[1, ...]
        np.multiply(model.f1, pos[1], out=f)
        np.add(model.f0, f, out=f)
        np.negative(f, out=minus_f)
    return (({(0, 0): a1, (0, 1): b1, (1, 0): c1, (1, 1): ux, (2, 2): ux},
             {(0, 0): a2, (0, 2): b2, (1, 1): uy, (2, 0): c2, (2, 2): uy}),
            {(1, 2): minus_f, (2, 1): f})


# One row per kind: the state component names (final-state file headers),
# the axis names (n_comp and dim are their lengths) and the writer of the
# kind's coefficient tables.
_KINDS = {
    "burgers1d": (("u",), ("x",), _write_burgers1d),
    "euler2d": (("u", "v", "p"), ("x", "y"), _write_euler2d),
    "euler3d_cyl": (("u", "v", "w", "p"), ("r", "theta", "z"), _write_euler3d_cyl),
    "swe2d": (("U1", "U2", "U3"), ("x", "y"), _write_swe2d),
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
        W[:3] *= grid.positions[0]
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
    # A field is a slot of its call's block, a 0-d constant or a coordinate
    # profile: one subtraction of the mean's block turns the total's slots
    # into the increments, and the others' increment c - c is an exact +0.0.
    bar, tot = (A[0][0, 0].base for A in (A_bar, A_tot))
    np.subtract(tot, bar, out=tot)
    zero = np.zeros(())
    *A_prime, C_prime = ({key: field if field.base is tot else zero
                          for key, field in M.items()} for M in (*A_tot, C_tot))
    return tuple(A_prime), C_prime


def wavespeeds(model: ModelSpec, V) -> tuple[float, ...]:
    """Per-axis largest characteristic speed over all nodes (CFL estimate):
    |u| for burgers1d, |u_i| + sqrt(phi) for swe2d (the eigenvalue radius of
    swe_quasilinear, free of alpha, beta).  Only these two models march."""
    V = check_admissible(model, V)
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
