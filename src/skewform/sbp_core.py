"""One-dimensional summation-by-parts operators and tensor-product grids.

A diagonal-norm SBP operator on n nodes is a positive quadrature vector P,
an almost-skew matrix Q with Q + Q^T = B = diag(-1, 0, ..., 0, +1), and the
derivative D = P^{-1} Q.  Periodic closures use a circulant skew Q with
B = 0 and uniform weights over a half-open interval.

States on tensor-product grids are plain numpy arrays of shape
(n_comp, n_x[, n_y[, n_z]]).  Flattening such an array in C order gives the
component-major vector layout in which the last spatial axis varies fastest,
matching the Kronecker ordering I_comp (x) D_x (x) I_y used throughout.

All reductions (inner products, boundary quadratures) accumulate
left-to-right over lexicographic node order.  Operator application adds the
nonzero diagonals of D in increasing offset order; row i of diagonal k holds
the entry in column i + k, so every row adds its products in increasing
column order, exactly as a walk over the matrix columns would.  Every result
is therefore reproducible bit-for-bit for a given build.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

_MIN_NODES = {(2, 1): 4, (4, 2): 8}
_HALF_WIDTH = {(2, 1): 1, (4, 2): 2}

_INTERIOR = {
    (2, 1): (-1 / 2, 0.0, 1 / 2),
    (4, 2): (1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12),
}

# Boundary quadrature weights (units of h) and the upper-left Q block.
_P_BLOCK = {
    (2, 1): (1 / 2,),
    (4, 2): (17 / 48, 59 / 48, 43 / 48, 49 / 48),
}

_Q_BLOCK = {
    (2, 1): ((-1 / 2, 1 / 2),),
    (4, 2): (
        (-1 / 2, 59 / 96, -1 / 12, -1 / 32, 0.0, 0.0),
        (-59 / 96, 0.0, 59 / 96, 0.0, 0.0, 0.0),
        (1 / 12, -59 / 96, 0.0, 59 / 96, -1 / 12, 0.0),
        (1 / 32, 0.0, -59 / 96, 0.0, 2 / 3, -1 / 12),
    ),
}


@dataclass(frozen=True, eq=False)
class SbpOperator1D:
    """A 1D diagonal-norm SBP first-derivative operator.

    Attributes:
        n: number of nodes along the axis.
        h: node spacing (positive).
        order: accuracy pair (interior, boundary).
        periodic: True for the circulant closure on a half-open interval.
        P: quadrature weights, shape (n,), strictly positive.
        Q: almost-skew matrix, shape (n, n).
        D: derivative matrix P^{-1} Q, shape (n, n).
        B: diagonal of Q + Q^T, shape (n,); zero for periodic operators.
        diagonals: the nonzero diagonals of D as (offset, values) pairs in
            increasing offset, values[i] = D[i, i + offset]; the periodic
            wrap-around entries form short diagonals of their own.
    """

    n: int
    h: float
    order: tuple[int, int]
    periodic: bool
    P: np.ndarray
    Q: np.ndarray
    D: np.ndarray
    B: np.ndarray
    diagonals: tuple


def build_sbp_operator(
    order: tuple[int, int],
    n: int,
    h: float,
    periodic: bool = False,
) -> SbpOperator1D:
    """Builds the 1D SBP operator of the requested accuracy.

    Args:
        order: (2, 1) or (4, 2), interior and boundary accuracy.
        n: node count; at least 4 for (2, 1) and 8 for (4, 2) closures,
           at least the stencil width for periodic operators.
        h: node spacing.
        periodic: build the circulant closure (P = h I, B = 0) instead.

    Returns:
        SbpOperator1D with Q + Q^T = B holding entry for entry.
    """
    order = (int(order[0]), int(order[1]))
    if order not in _INTERIOR:
        raise ValueError(f"unsupported accuracy {order}; try (2, 1) or (4, 2)")
    if not h > 0.0:
        raise ValueError(f"spacing must be positive, got {h}")
    half = _HALF_WIDTH[order]
    stencil = _INTERIOR[order]
    if periodic:
        min_nodes = 2 * half + 1
    else:
        min_nodes = _MIN_NODES[order]
    if n < min_nodes:
        raise ValueError(f"order {order} needs at least {min_nodes} nodes, got {n}")

    Q = np.zeros((n, n))
    if periodic:
        for i in range(n):
            for k in range(-half, half + 1):
                if stencil[k + half] != 0.0:
                    Q[i, (i + k) % n] = stencil[k + half]
        P = np.full(n, h)
        B = np.zeros(n)
    else:
        block = _Q_BLOCK[order]
        bw = len(block)
        for i in range(bw):
            for j, val in enumerate(block[i]):
                Q[i, j] = val
        for i in range(bw, n - bw):
            for k in range(-half, half + 1):
                Q[i, i + k] = stencil[k + half]
        # Mirror with flipped sign so symmetric pairs cancel exactly.
        for i in range(bw):
            for j, val in enumerate(block[i]):
                Q[n - 1 - i, n - 1 - j] = -val
        pb = _P_BLOCK[order]
        P = np.full(n, h)
        for i, w in enumerate(pb):
            P[i] = w * h
            P[n - 1 - i] = w * h
        B = np.zeros(n)
        B[0] = -1.0
        B[-1] = 1.0

    D = Q / P[:, None]
    rows, cols = np.nonzero(D)
    # Not np.unique: it imports numpy.ma, which costs resident memory.
    offsets = sorted(set((cols - rows).tolist()))
    diagonals = tuple((k, D.diagonal(k).copy()) for k in offsets)
    return SbpOperator1D(
        n=n, h=float(h), order=order, periodic=periodic,
        P=P, Q=Q, D=D, B=B, diagonals=diagonals,
    )


def apply_derivative(op: SbpOperator1D, field: np.ndarray, axis: int = 0) -> np.ndarray:
    """Applies D along one spatial axis of a state field.

    Args:
        op: operator for that axis.
        field: array of shape (n_comp, *spatial).
        axis: spatial axis index (0 for x, 1 for y, ...).

    Returns:
        Array of the same shape.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.ndim < 2:
        raise ValueError("state fields carry a leading component axis")
    ax = axis + 1
    if ax >= field.ndim:
        raise ValueError(f"field has no spatial axis {axis}")
    if field.shape[ax] != op.n:
        raise ValueError(
            f"axis {axis} has {field.shape[ax]} nodes, operator expects {op.n}"
        )
    v = np.moveaxis(field, ax, -1)
    out = np.zeros(v.shape)
    for k, d in op.diagonals:
        lo, hi = max(0, -k), op.n - max(0, k)
        out[..., lo:hi] += d * v[..., lo + k:hi + k]
    return np.moveaxis(out, -1, ax)


@dataclass(frozen=True, eq=False)
class Grid:
    """Tensor-product grid over a 1-3 dimensional box.

    Non-periodic axes place n nodes on the closed interval with spacing
    L/(n-1); periodic axes place n nodes on the half-open interval with
    spacing L/n.
    """

    extents: tuple[tuple[float, float], ...]
    shape: tuple[int, ...]
    periodic: tuple[bool, ...]
    axis_names: tuple[str, ...]
    spacings: tuple[float, ...]
    coords: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return len(self.shape)

    @cached_property
    def positions(self) -> tuple[np.ndarray, ...]:
        """Per-axis coordinate arrays broadcast to the full grid shape,
        built once per grid and read-only."""
        pos = tuple(np.meshgrid(*self.coords, indexing="ij"))
        for arr in pos:
            arr.flags.writeable = False
        return pos


_DEFAULT_AXES = {1: ("x",), 2: ("x", "y"), 3: ("x", "y", "z")}


def make_grid(
    extents,
    shape,
    periodic=None,
    axis_names=None,
) -> Grid:
    """Builds a grid.

    Args:
        extents: per-axis (lo, hi) pairs.
        shape: per-axis node counts.
        periodic: per-axis flags, default all False.
        axis_names: labels, default x/y/z.
    """
    extents = tuple((float(lo), float(hi)) for lo, hi in extents)
    shape = tuple(int(n) for n in shape)
    dim = len(shape)
    if dim not in (1, 2, 3):
        raise ValueError(f"grids are 1 to 3 dimensional, got {dim} axes")
    if len(extents) != dim:
        raise ValueError("extents and shape disagree on dimension")
    if periodic is None:
        periodic = (False,) * dim
    periodic = tuple(bool(p) for p in periodic)
    if axis_names is None:
        axis_names = _DEFAULT_AXES[dim]
    axis_names = tuple(axis_names)
    if len(axis_names) != dim or len(periodic) != dim:
        raise ValueError("per-axis arguments disagree on dimension")

    spacings = []
    coords = []
    for ax in range(dim):
        lo, hi = extents[ax]
        n = shape[ax]
        if not hi > lo:
            raise ValueError(f"axis {axis_names[ax]}: extent [{lo}, {hi}] is empty")
        if n < 2:
            raise ValueError(f"axis {axis_names[ax]}: need at least 2 nodes")
        if periodic[ax]:
            h = (hi - lo) / n
            x = lo + h * np.arange(n)
        else:
            h = (hi - lo) / (n - 1)
            x = np.linspace(lo, hi, n)
        spacings.append(float(h))
        coords.append(x)
    return Grid(
        extents=extents, shape=shape, periodic=periodic,
        axis_names=axis_names, spacings=tuple(spacings), coords=tuple(coords),
    )


def position_arrays(grid: Grid) -> tuple[np.ndarray, ...]:
    """Per-axis coordinate arrays broadcast to the full grid shape."""
    return grid.positions


def build_operators(grid: Grid, order: tuple[int, int]) -> tuple[SbpOperator1D, ...]:
    """One operator per grid axis, periodic where the grid is."""
    return tuple(
        build_sbp_operator(order, grid.shape[ax], grid.spacings[ax],
                           periodic=grid.periodic[ax])
        for ax in range(grid.dim)
    )


def faces(grid: Grid) -> tuple[tuple[int, str], ...]:
    """All (axis, side) faces of the non-periodic axes, in axis order."""
    out = []
    for ax in range(grid.dim):
        if not grid.periodic[ax]:
            out.append((ax, "low"))
            out.append((ax, "high"))
    return tuple(out)


def face_label(grid: Grid, face: tuple[int, str]) -> str:
    ax, side = face
    return f"{grid.axis_names[ax]}_{side}"


def parse_face(grid: Grid, label: str) -> tuple[int, str]:
    """Inverse of face_label, e.g. 'x_low' -> (0, 'low')."""
    for face in faces(grid):
        if face_label(grid, face) == label:
            return face
    known = ", ".join(face_label(grid, f) for f in faces(grid))
    raise ValueError(f"unknown face '{label}'; known faces: {known}")


def _seq_sum(values: np.ndarray) -> float:
    """Left-to-right sum over C-order entries (no reassociation)."""
    flat = np.ravel(values, order="C")
    if flat.size == 0:
        return 0.0
    return float(np.add.accumulate(flat)[-1])


def quadrature_weights(grid: Grid, ops) -> np.ndarray:
    """Tensor-product quadrature weights, shape grid.shape."""
    w = np.ones(grid.shape)
    for ax in range(grid.dim):
        reshape = [1] * grid.dim
        reshape[ax] = grid.shape[ax]
        w = w * ops[ax].P.reshape(reshape)
    return w


def inner_product(grid: Grid, ops, u: np.ndarray, v: np.ndarray,
                  weight: np.ndarray | None = None) -> float:
    """Discrete inner product sum_nodes quad * u^T W v.

    Args:
        u, v: state fields of shape (n_comp, *grid.shape).
        weight: per-node symmetric matrix field (n_comp, n_comp, *grid.shape),
            or None for the identity component weight.

    The component contraction runs in fixed index order and the node
    reduction is sequential over lexicographic order.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"mismatched state shapes {u.shape} and {v.shape}")
    if u.shape[1:] != grid.shape:
        raise ValueError(f"state shape {u.shape} does not match grid {grid.shape}")
    nc = u.shape[0]
    if weight is None:
        s = np.zeros(grid.shape)
        for c in range(nc):
            s += u[c] * v[c]
    else:
        weight = np.asarray(weight, dtype=np.float64)
        if weight.shape[:2] != (nc, nc):
            raise ValueError(f"weight shape {weight.shape} does not match {nc} components")
        wt = np.moveaxis(weight, 0, 1)
        gap = np.abs(weight - wt).max()
        ref = np.abs(weight).max()
        if gap > 1e-13 * max(1.0, ref):
            raise ValueError("inner-product weight must be symmetric per node")
        s = np.zeros(grid.shape)
        for a in range(nc):
            for b in range(nc):
                s += u[a] * weight[a, b] * v[b]
    return _seq_sum(s * quadrature_weights(grid, ops))


def boundary_quadrature(grid: Grid, ops, u: np.ndarray, v: np.ndarray,
                        face: tuple[int, str]) -> float:
    """Signed face term of the SBP identity, outward positive.

    Contracts u and v componentwise on the face layer, weighted by the
    transverse quadrature.  The low face carries sign -1 and the high face
    +1, so for a 1D grid the right face returns u(b) v(b) and the left face
    -u(a) v(a).  Periodic axes have no faces.
    """
    ax, side = face
    if grid.periodic[ax]:
        raise ValueError(f"axis {grid.axis_names[ax]} is periodic and has no faces")
    if side not in ("low", "high"):
        raise ValueError(f"face side must be 'low' or 'high', got '{side}'")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.shape[1:] != grid.shape:
        raise ValueError("states must share the grid shape")
    idx = 0 if side == "low" else grid.shape[ax] - 1
    sign = -1.0 if side == "low" else 1.0
    take = [slice(None)] * (grid.dim + 1)
    take[ax + 1] = idx
    uf = u[tuple(take)]
    vf = v[tuple(take)]
    nc = u.shape[0]
    s = np.zeros(uf.shape[1:])
    for c in range(nc):
        s = s + uf[c] * vf[c]
    tshape = [n for a, n in enumerate(grid.shape) if a != ax]
    w = np.ones(tuple(tshape))
    pos = 0
    for a in range(grid.dim):
        if a == ax:
            continue
        reshape = [1] * len(tshape)
        reshape[pos] = grid.shape[a]
        w = w * ops[a].P.reshape(reshape)
        pos += 1
    return sign * _seq_sum(s * w)


def state_zeros(n_comp: int, grid: Grid) -> np.ndarray:
    """A zero state field of shape (n_comp, *grid.shape)."""
    return np.zeros((int(n_comp),) + grid.shape)
