"""One-dimensional summation-by-parts operators and tensor-product grids.

A diagonal-norm SBP operator on n nodes is a positive quadrature vector P,
an almost-skew matrix Q with Q + Q^T = B = diag(-1, 0, ..., 0, +1), and the
derivative D = P^{-1} Q.  Periodic closures use a circulant skew Q with
B = 0 and uniform weights over a half-open interval.

States on tensor-product grids are plain numpy arrays of shape
(n_comp, n_x[, n_y[, n_z]]).  Flattening such an array in C order gives the
component-major vector layout in which the last spatial axis varies fastest,
matching the Kronecker ordering I_comp (x) D_x (x) I_y used throughout.  A
stack of states carries batch axes between the component and grid axes,
(n_comp, *batch, *grid); every kernel treats each batch element as the state
it holds, with the same bits.

All reductions (inner products, boundary quadratures) accumulate
left-to-right over lexicographic node order, each batch element on its own,
and return one value per element (a float for an unbatched state).

Operator application follows a plan built once per operator: the interior
stencil takes one flat run over the C-contiguous field per nonzero stencil
offset, shifted by the offset times the axis stride, with a scalar
coefficient; the boundary-block and periodic wrap rows, which those runs
cross, are then overwritten from one gathered block of their nonzero
columns.  The runs are taken in pieces of _CHUNK values, every offset's
pass over one piece before the next piece, so a piece's input, output and
product temporary stay in a core's L2 cache where whole (3, 257, 257)
fields would stream from L3 once per pass; each value still gets the same
products in the same order.  Every row sum starts as its first product plus
+0.0 and adds the other products in increasing column order, so it never
becomes -0.0; the skipped exact zero products therefore change nothing for
finite fields, and every result equals the walk over all matrix columns bit
for bit and is reproducible for a given build.  The edge rows take one
np.add.reduce from +0.0: numpy adds fewer than 8 terms in sequence whichever
axis it puts inner, so it differs from that sum at most in the sign of a
zero neither ends with; wider rows are refused at build.  For the same
reason the output does not depend on the sign of any zero in the input: a
zero's products are zeros, which a sum that is not -0.0 absorbs whatever
their sign, so a field that holds -0.0 where another holds +0.0 gives the
same bytes.  A batch axis is one more axis of lines: the runs and the edge
rows treat each element's lines as they treat a single state's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

_MIN_NODES = {(2, 1): 4, (4, 2): 8}
# Values per piece of an interior run: 128 KiB per array.  A 65 x 65
# field of 3 components (12,675 values) is one piece.
_CHUNK = 16384
_HALF_WIDTH = {(2, 1): 1, (4, 2): 2}

_INTERIOR = {
    (2, 1): (-1 / 2, 0.0, 1 / 2),
    (4, 2): (1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12),
}
# The supported (interior, boundary) accuracy pairs.
ACCURACIES = tuple(_INTERIOR)


class ArgumentError(ValueError):
    """A refused argument value; arg names the argument (or field) at fault."""

    def __init__(self, arg: str, message: str):
        super().__init__(message)
        self.arg = arg


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

    It holds O(n) data: the weights and the apply plan.  Q + Q^T gives B
    and the grid's spacings give h, so neither is stored.  The dense Q and
    D are formed on first read, from the closure tables the plan comes
    from, and kept; apply_derivative never reads them.

    Attributes:
        n: number of nodes along the axis.
        order: accuracy pair (interior, boundary).
        periodic: True for the circulant closure on a half-open interval.
        P: quadrature weights, shape (n,), strictly positive.
        interior: (lo, hi, terms), the rows lo..hi-1 that the closure
            leaves to the interior stencil (possibly none) and their
            nonzero entries as ((offset, coefficient), ...) in increasing
            offset: D[i, i + offset] = coefficient on every such row, applied
            as one run from row lo of the first line to hi-1 of the last.
        edge: (rows, cols, coefs), the other rows of D: the boundary blocks
            or the periodic wrap rows.  cols and coefs have shape
            (len(rows), K); row rows[e] holds its nonzeros D[rows[e],
            cols[e, j]] = coefs[e, j] in increasing column order, padded
            to K entries with coefficient 0 on its last nonzero column.
    """

    n: int
    order: tuple[int, int]
    periodic: bool
    P: np.ndarray
    interior: tuple
    edge: tuple

    @cached_property
    def Q(self) -> np.ndarray:
        """The almost-skew matrix, shape (n, n), formed on first read."""
        Q = np.zeros((self.n, self.n))
        for i in range(self.n):
            for j, q in _q_row(self.order, self.n, i, self.periodic).items():
                Q[i, j] = q
        return Q

    @cached_property
    def D(self) -> np.ndarray:
        """The derivative matrix P^{-1} Q, shape (n, n), formed on first read."""
        return self.Q / self.P[:, None]


def _q_row(order: tuple[int, int], n: int, i: int, periodic: bool) -> dict:
    """Row i of Q as {column: entry}: the interior stencil, wrapped when
    periodic and clipped at the ends otherwise, then for a bounded closure
    its boundary block over the first rows and the mirror with flipped sign
    over the last, so symmetric pairs cancel exactly.  The entries the
    block writes are kept even where they are zero."""
    half = _HALF_WIDTH[order]
    row = {(i + k) % n: c for k, c in enumerate(_INTERIOR[order], -half)
           if periodic or 0 <= i + k < n}
    if not periodic:
        block = _Q_BLOCK[order]
        if i < len(block):
            row.update(enumerate(block[i]))
        elif n - 1 - i < len(block):
            row.update((n - 1 - j, -q) for j, q in enumerate(block[n - 1 - i]))
    return row


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
        h: node spacing, kept only inside P and the plan.
        periodic: build the circulant closure (P = h I, B = 0) instead.

    Returns:
        SbpOperator1D whose Q satisfies Q + Q^T = B entry for entry; B is
        read off Q and not stored.  The build forms no n x n matrix: each
        edge row of the plan comes from its own row of Q.
    """
    order = (int(order[0]), int(order[1]))
    if order not in ACCURACIES:
        raise ValueError(f"unsupported accuracy {order}; try (2, 1) or (4, 2)")
    if not h > 0.0:
        raise ValueError(f"spacing must be positive, got {h}")
    if not math.isfinite(h):
        raise ValueError(f"spacing must be finite, got {h}")
    half = _HALF_WIDTH[order]
    stencil = _INTERIOR[order]
    min_nodes = 2 * half + 1 if periodic else _MIN_NODES[order]
    if n < min_nodes:
        raise ValueError(f"order {order} needs at least {min_nodes} nodes, got {n}")

    P = np.full(n, h)
    if not periodic:
        for i, w in enumerate(_P_BLOCK[order]):
            P[i] = w * h
            P[n - 1 - i] = w * h

    lo = half if periodic else len(_Q_BLOCK[order])
    hi = n - lo
    # P is h on the interior rows, so D holds stencil / h there
    terms = tuple((k, stencil[k + half] / h) for k in range(-half, half + 1)
                  if stencil[k + half] != 0.0)
    # The edge rows of D = P^{-1} Q, each from its row of Q alone
    rows = np.r_[0:lo, hi:n]
    nonzero = [sorted((j, q) for j, q in _q_row(order, n, i, periodic).items() if q != 0.0)
               for i in rows]
    width = max(map(len, nonzero))
    if width >= 8:  # numpy sums 8 or more reduced terms pairwise, not in order
        raise ValueError(f"edge rows of {width} nonzeros; the apply sums at most 7")
    pad = [width - len(r) for r in nonzero]
    cols = np.array([[j for j, _ in r] + [r[-1][0]] * p for r, p in zip(nonzero, pad)])
    coefs = np.array([[q / P[i] for _, q in r] + [0.0] * p
                      for i, r, p in zip(rows, nonzero, pad)])
    return SbpOperator1D(n=n, order=order, periodic=periodic, P=P,
                         interior=(lo, hi, terms), edge=(rows, cols, coefs))


def apply_derivative(op: SbpOperator1D, field: np.ndarray, axis: int = 0) -> np.ndarray:
    """Applies D along one spatial axis of a state field.

    Args:
        op: operator for that axis.
        field: array of shape (n_comp, *axes).
        axis: index into axes (0 for x, 1 for y, ... on a plain state; a
            state with batch axes before its grid axes offsets the grid
            axis by their number).

    Returns:
        Array of the same shape.  A field not in C order is copied first;
        the flat interior runs cross the edge rows, which are then rewritten.
        Each run is taken in _CHUNK-sized pieces, all offsets over one piece
        before the next, so the piece's arrays stay in L2; the products of
        each value and their order are those of one whole-field pass.  Each
        edge row is one reduction of its products from +0.0 in column order.
    """
    field = np.ascontiguousarray(field, dtype=np.float64)
    if field.ndim < 2:
        raise ValueError("state fields carry a leading component axis")
    ax = axis + 1
    if axis < 0 or ax >= field.ndim:
        raise ValueError(f"field has no spatial axis {axis}")
    if field.shape[ax] != op.n:
        raise ValueError(
            f"axis {axis} has {field.shape[ax]} nodes, operator expects {op.n}"
        )
    out = np.empty(field.shape)
    post = math.prod(field.shape[ax + 1:])
    fl = field.reshape(-1)
    flat = out.reshape(-1)
    lo, hi, ((k0, c0), *terms) = op.interior
    stop = field.size - (op.n - hi) * post
    for a in range(lo * post, stop, _CHUNK):
        b = min(a + _CHUNK, stop)
        inner = flat[a:b]
        np.multiply(fl[a + k0 * post:b + k0 * post], c0, out=inner)
        inner += 0.0
        for k, c in terms:
            inner += c * fl[a + k * post:b + k * post]
    f = field.swapaxes(ax, -1)
    o = out.swapaxes(ax, -1)
    rows, cols, coefs = op.edge
    block = f[..., cols]
    block *= coefs
    o[..., rows] = np.add.reduce(block, axis=-1, initial=0.0)
    return out


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
        """The sparse open mesh of the coords: per axis a view of its 1D
        coords (read-only: make_grid freezes them), of length 1 on every
        other axis, which broadcasts to the grid shape."""
        return tuple(np.meshgrid(*self.coords, indexing="ij", sparse=True, copy=False))


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
        if not math.isfinite(hi - lo):
            raise ArgumentError("extents", f"axis {axis_names[ax]}: extent [{lo}, {hi}]"
                                " has no finite length")
        if not hi > lo:
            raise ArgumentError("extents", f"axis {axis_names[ax]}: extent [{lo}, {hi}]"
                                " is empty")
        if n < 2:
            raise ArgumentError("shape", f"axis {axis_names[ax]}: need at least 2 nodes")
        if periodic[ax]:
            h = (hi - lo) / n
            x = lo + h * np.arange(n)
        else:
            h = (hi - lo) / (n - 1)
            x = np.linspace(lo, hi, n)
        x.flags.writeable = False
        spacings.append(float(h))
        coords.append(x)
    return Grid(
        extents=extents, shape=shape, periodic=periodic,
        axis_names=axis_names, spacings=tuple(spacings), coords=tuple(coords),
    )


def build_operators(grid: Grid, order: tuple[int, int]) -> tuple[SbpOperator1D, ...]:
    """One operator per grid axis, periodic where the grid is."""
    return tuple(
        build_sbp_operator(order, grid.shape[ax], grid.spacings[ax],
                           periodic=grid.periodic[ax])
        for ax in range(grid.dim)
    )


def faces(grid: Grid) -> tuple[tuple[int, str], ...]:
    """All (axis, side) faces of the non-periodic axes, in axis order."""
    return tuple((ax, side) for ax in range(grid.dim) if not grid.periodic[ax]
                 for side in ("low", "high"))


def face_label(grid: Grid, face: tuple[int, str]) -> str:
    ax, side = face
    return f"{grid.axis_names[ax]}_{side}"


def quadrature_weights(ops) -> np.ndarray:
    """Tensor-product quadrature weights: the product of the operators'
    weights P, one axis each, in order (shape grid.shape for a grid's ops;
    0-d 1.0 for none).  The outer products (P0 x P1) x P2 equal ((1 P0) P1)
    P2 bit for bit.  Not cached: a cache keeps whole operator sets alive."""
    ws = [op.P for op in ops]
    return reduce(np.multiply.outer, ws[1:], ws[0].copy()) if ws else np.ones(())


def _contract(ops, u: np.ndarray, v: np.ndarray, weight=None):
    """sum_nodes quad * sum_c u_c weight_c v_c: the components in index
    order, then the nodes left to right in C order (no reassociation), one
    sequential accumulation per batch element.  u is (n_comp, *batch, *axes)
    over the len(ops) axes of the ops; returns a float without batch axes,
    else an array of shape batch."""
    s = np.zeros(u.shape[1:])
    for c in range(u.shape[0]):
        s += u[c] * v[c] if weight is None else u[c] * weight[c] * v[c]
    batch = s.shape[:s.ndim - len(ops)]
    rows = (s * quadrature_weights(ops)).reshape(batch + (-1,))
    sums = np.add.accumulate(rows, axis=-1)[..., -1]
    return sums if batch else float(sums)


def inner_product(grid: Grid, ops, u: np.ndarray, v: np.ndarray,
                  weight: np.ndarray | None = None) -> float:
    """Discrete inner product sum_nodes quad * u^T W v.

    Args:
        u, v: state fields of shape (n_comp, *batch, *grid.shape), batch
            possibly empty.
        weight: per-node diagonal of W, of u's shape or (n_comp,
            *grid.shape), or None for the identity component weight.

    The component contraction runs in fixed index order and the node
    reduction is sequential over lexicographic order.  Returns a float, or
    one value per batch element.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"mismatched state shapes {u.shape} and {v.shape}")
    if u.ndim <= grid.dim or u.shape[-grid.dim:] != grid.shape:
        raise ValueError(f"state shape {u.shape} does not match grid {grid.shape}")
    if weight is not None and np.shape(weight) not in (u.shape, u.shape[:1] + grid.shape):
        raise ValueError(f"weight shape {np.shape(weight)} does not match {u.shape}")
    return _contract(ops, u, v, weight)


def face_layer(grid: Grid, field: np.ndarray, face: tuple[int, str]) -> np.ndarray:
    """The view of field on a face's node layer; field may carry any
    leading axes before the grid's."""
    ax, side = face
    idx = 0 if side == "low" else grid.shape[ax] - 1
    return field[(Ellipsis, idx) + (slice(None),) * (grid.dim - 1 - ax)]


def boundary_quadrature(grid: Grid, ops, uf: np.ndarray, vf: np.ndarray,
                        face: tuple[int, str]):
    """Signed face term of the SBP identity, outward positive.

    Contracts two states given by their face layers (face_layer)
    componentwise, weighted by the transverse quadrature; a float, or one
    value per batch element of a stacked state.  The low face carries sign
    -1 and the high face +1, so for a 1D grid the right face returns u(b)
    v(b) and the left face -u(a) v(a).  Periodic axes have no faces.
    """
    ax, side = face
    if grid.periodic[ax]:
        raise ValueError(f"axis {grid.axis_names[ax]} is periodic and has no faces")
    if side not in ("low", "high"):
        raise ValueError(f"face side must be 'low' or 'high', got '{side}'")
    uf = np.asarray(uf, dtype=np.float64)
    vf = np.asarray(vf, dtype=np.float64)
    tshape = grid.shape[:ax] + grid.shape[ax + 1:]
    lead = uf.ndim - len(tshape)
    if uf.shape != vf.shape or lead < 1 or uf.shape[lead:] != tshape:
        raise ValueError("face layers must share the face's shape")
    sign = -1.0 if side == "low" else 1.0
    return sign * _contract([op for a, op in enumerate(ops) if a != ax], uf, vf)
