"""Assembly of primal, dual, linearised, and remainder spatial operators.

The residual convention is

    R = spatial - SAT - forcing,      norm-matrix * u_t = -R,

so SAT penalties and forcing enter the tendency with a plus sign.  One
shared assembler produces every skew-form operator from a (coefficient
state, acted-on state) pair.  skew_evaluator(V) and standard_evaluator(V)
build the tables of a fixed V once and return its Operator: its call gives
the Residual on a state, and its closures, face terms and face functional
read the face layers of the same tables, cut once on first read.  The wrappers
eval_primal_residual, eval_dual_residual, eval_new_linearised_pair and
bilinear_face_functional build one Operator per call, V = None evaluating
the coefficients at the acted-on state:

    nonlinear            (U, U)              V = None
    frozen               (V_fixed, U)        skew_evaluator(V_fixed)(U)
    perturbation eq      (mean, U')          which is the new linearisation
    mean eq              (mean + pert, mean)
    remainder H          increment matrices acting on U'
    dual                 minus the assembler output (dual=True)
    standard             standard_evaluator(mean)(U'), not in skew form

Because the paths share code, the coupled mean/perturbation system with a
zero perturbation reproduces the nonlinear evaluation bit for bit.

Coefficient matrices arrive as entry tables {(row, col): field} in row-major
order (models.coeff_matrices); every kernel walks the table's entries only,
and a field may be a 0-d constant that broadcasts to every node.

Sums accumulate in place: a skew-form spatial part starts as its first
flux D_0(A_0 W), and matfield_apply adds each row's sum into the field it
is given.  The bits are those of a sum from a +0.0 field: no
apply_derivative output is -0.0 (sbp_core), x + y is -0.0 only when x and
y both are, so no accumulator is -0.0, and adding s to such a value equals
adding +0.0 + s, which differs from s only when s is -0.0.  The fluxes A_ax W
are written straight into fresh fields, each row from its first product, so
a flux may hold -0.0 where the sum from +0.0 holds +0.0.  Nothing sees it:
apply_derivative's output does not depend on the sign of a zero in its
input (sbp_core), boundary_quadrature sums from +0.0, verify's ansatz
defect takes the largest absolute value, and the spatial accumulator still
never holds -0.0.

A state may stack several states along batch axes between its component and
grid axes, (n_comp, *batch, *grid).  Every evaluator, its SAT and its face
terms then give each element the bits of its own evaluation, and the face
functionals give one value per element.  A coefficient state may be
stacked too, but the state an operator acts on must take its batch axes:
an unstacked V acts on a stack, and a stacked V on one state is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from operator import itemgetter
from typing import Callable

import numpy as np

from .boundary import build_sat
from .models import ModelSpec, coeff_matrices, coeff_split, swe_inverse, validate_grid
from .sbp_core import (
    Grid,
    apply_derivative,
    boundary_quadrature,
    face_label,
    face_layer,
    faces,
)


@dataclass(frozen=True, eq=False)
class Residual:
    """An evaluated residual with all that its energy report reads.

    R = spatial - sat - forcing (missing parts treated as zero), acting on
    state, evaluated by the operator op.  flux_sign is -2 for a primal
    evaluation and +2 for the dual.  face_terms maps face labels to
    boundary_quadrature(state, A_ax state) on the operator's face tables;
    it is formed on first read, since only the energy reports read it.
    """

    R: np.ndarray
    spatial: np.ndarray
    sat: np.ndarray | None
    op: Operator
    state: np.ndarray
    flux_sign: float

    @cached_property
    def face_terms(self) -> dict:
        return self.op.face_terms(self.state, self.state)


@dataclass(frozen=True, eq=False)
class Operator:
    """The operator of one fixed coefficient state V on a grid.

    A holds the tables whose face layers give the face terms and the
    boundary matrices a closure penalises (the skew form's A_ax, the
    standard form's M_ax / 2), and spatial(W) is the spatial part acting on
    a state W of the grid.  face_tables are cut from A once, on first read:
    a characteristic closure reads them at every stage.  batch is V's batch
    shape, which every state the operator acts on must take (_acted_state).
    """

    model: ModelSpec
    grid: Grid
    ops: tuple
    batch: tuple
    A: tuple
    spatial: Callable[[np.ndarray], np.ndarray]

    def __call__(self, U, sat=None, forcing=None, dual=False) -> Residual:
        """The residual R = spatial - SAT - forcing acting on U.  With dual
        the spatial part is negated and the flux sign is +2: for the skew
        form this is the dual residual -[ (A_i U)_{x_i} + A_i^T U_{x_i} + C U ]."""
        U = _acted_state(self.model, self.grid, self.batch, U)
        spatial = self.spatial(U)
        if dual:
            spatial = -spatial
        sat_field = build_sat(self, U, sat, dual)
        R = spatial
        if sat_field is not None:
            R = R - sat_field
        if forcing is not None:
            R = R - np.asarray(forcing, dtype=np.float64)
        return Residual(R, spatial, sat_field, self, U, 2.0 if dual else -2.0)

    @cached_property
    def face_tables(self) -> dict:
        """{face: the table of A_ax on that face's layer}; a 0-d constant
        entry serves every layer as it is."""
        return {face: {key: field if np.ndim(field) == 0
                       else face_layer(self.grid, field, face)
                       for key, field in self.A[face[0]].items()}
                for face in faces(self.grid)}

    def face_terms(self, X: np.ndarray, Y: np.ndarray) -> dict:
        """bq(X, A_ax Y) per face label, with A_ax Y formed on the face
        layer only."""
        grid = self.grid
        return {face_label(grid, face): boundary_quadrature(
                    grid, self.ops, face_layer(grid, X, face),
                    matfield_apply(Af, face_layer(grid, Y, face)), face)
                for face, Af in self.face_tables.items()}

    def face_functional(self, U: np.ndarray, Phi: np.ndarray):
        """Boundary functional pairing primal and dual solutions (a float,
        or one value per batch element): the sum over faces of
        bq(Phi, A_ax U) + bq(A_ax Phi, U), which for the skew form equals
        ip(Phi, R_primal(U)) - ip(U, R_dual_spatial(Phi)) up to roundoff and
        collapses to twice the energy-identity flux at Phi = U.  bq is
        symmetric bit for bit, so bq(A_ax Phi, U) = bq(U, A_ax Phi)."""
        U, Phi = (_acted_state(self.model, self.grid, self.batch, X) for X in (U, Phi))
        total = 0.0
        for a, b in zip(self.face_terms(Phi, U).values(),
                        self.face_terms(U, Phi).values()):
            total += a
            total += b
        return total


def matfield_apply(M: dict, W: np.ndarray, transpose: bool = False,
                   out: np.ndarray | None = None) -> np.ndarray:
    """The pointwise product M W (M^T W with transpose) over the grid: added
    into out and returned, or written into a fresh field when out is None.

    M is an entry table {(i, j): field} with keys in row-major order; the
    entries it leaves out are zero.  Each output row sums its products in
    increasing column order.  Into a given out, the row's sum is formed in
    one temporary and added to out[row]; on finite fields and an out without
    -0.0 the result is out plus the loop over every dense entry from +0.0,
    bit for bit (module docstring).  A fresh field takes each row's sum
    straight from its first product, and a row without entries is +0.0: its
    values are those of the dense loop from +0.0, but a zero may be -0.0,
    so it is for consumers that ignore the sign of zero (module docstring).
    """
    fresh = out is None
    if fresh:
        rows = {key[1] if transpose else key[0] for key in M}
        out = np.empty(W.shape) if len(rows) == len(W) else np.zeros(W.shape)
    row = total = None
    for key in sorted(M, key=itemgetter(1, 0)) if transpose else M:
        i, j = key[::-1] if transpose else key
        if i == row:
            total += M[key] * W[j]
            continue
        if total is not None and not fresh:
            out[row] += total
        row = i
        total = np.multiply(M[key], W[j], out=out[i, ...]) if fresh else M[key] * W[j]
    if total is not None and not fresh:
        out[row] += total
    return out


def _batch(grid: Grid, W: np.ndarray) -> tuple:
    """The batch shape of a state W on the grid."""
    return W.shape[1:W.ndim - grid.dim]


def _assemble(grid: Grid, ops, A: tuple, C: dict, W: np.ndarray) -> np.ndarray:
    """sum_ax [ D_ax(A_ax W) + A_ax^T D_ax W ] + C W over the tables' entries,
    added in this order into the first flux D_0(A_0 W) (module docstring).
    No name holds a flux while D_ax W is formed: it would keep a field alive."""
    lead = len(_batch(grid, W))
    out = apply_derivative(ops[0], matfield_apply(A[0], W), lead)
    for ax in range(grid.dim):
        if ax:
            out += apply_derivative(ops[ax], matfield_apply(A[ax], W), lead + ax)
        matfield_apply(A[ax], apply_derivative(ops[ax], W, lead + ax), True, out)
    return matfield_apply(C, W, out=out)


def _grid_state(model: ModelSpec, grid: Grid, X) -> np.ndarray:
    """X as a state of the grid, a coefficient or an acted-on one, refused
    unless its shape is (n_comp, *batch, *grid.shape)."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[:1] != (model.n_comp,) or X.shape[max(1, X.ndim - grid.dim):] != grid.shape:
        raise ValueError(f"state has shape {X.shape}; the grid takes"
                         f" {(model.n_comp,) + grid.shape}, with any batch axes after"
                         " the first")
    return X


def _acted_state(model: ModelSpec, grid: Grid, batch: tuple, X) -> np.ndarray:
    """X as a state of the grid (_grid_state) for coefficients of batch shape
    batch to act on, refused unless its batch axes take batch: broadcast
    against them, batch must leave them as they are, since an evaluation
    writes into fields of X's shape."""
    X = _grid_state(model, grid, X)
    own = _batch(grid, X)
    if len(batch) > len(own) or any(b not in (1, o) for b, o in zip(batch[::-1], own[::-1])):
        raise ValueError(f"state has shape {X.shape}, whose batch axes {own} do not take"
                         f" the coefficient state's batch axes {batch}")
    return X


def _check_ops(model: ModelSpec, grid: Grid, ops) -> None:
    """Refuses a grid that does not suit the model (models.validate_grid) and
    SBP operators that are not one per axis, of its node count and periodicity."""
    validate_grid(model, grid)
    built = tuple((op.n, op.periodic) for op in ops)
    if built != tuple(zip(grid.shape, grid.periodic)):
        raise ValueError(f"ops are built for (nodes, periodic) {built} per axis;"
                         f" the grid has {tuple(zip(grid.shape, grid.periodic))}")


def skew_evaluator(model: ModelSpec, grid: Grid, ops, V: np.ndarray) -> Operator:
    """The Operator of the skew form with coefficients at the fixed state V,
    whose tables A and C are built here, once.  Its call with dual
    evaluates the dual residual at V, whose flux sign is +2."""
    _check_ops(model, grid, ops)
    V = _grid_state(model, grid, V)
    A, C = coeff_matrices(model, V, grid.positions)
    return Operator(model, grid, ops, _batch(grid, V), A,
                    partial(_assemble, grid, ops, A, C))


def eval_primal_residual(model: ModelSpec, grid: Grid, ops, U: np.ndarray,
                         V: np.ndarray | None = None, sat=None, forcing=None) -> Residual:
    """skew_evaluator(V)(U, sat, forcing): the primal residual of the skew
    form acting on U (the perturbation of a linearisation) with coefficients
    at V; V None evaluates them at U (the nonlinear residual).  U and V are
    states of the grid, and a V without batch axes acts on a stack U.
    sat holds faces resolved by boundary.make_sat_config."""
    return skew_evaluator(model, grid, ops, U if V is None else V)(U, sat, forcing)


def eval_dual_residual(model: ModelSpec, grid: Grid, ops, Phi: np.ndarray,
                       V: np.ndarray | None = None, sat=None, forcing=None) -> Residual:
    """skew_evaluator(V)(Phi, sat, forcing, dual=True): the dual residual
    -[ (A_i Phi)_{x_i} + A_i^T Phi_{x_i} + C Phi ] with coefficients at V.
    With V None they are evaluated at Phi itself (the self-adjoint case), and
    the spatial part is exactly the negated primal one at the same state;
    Phi and V are shaped as U and V of eval_primal_residual."""
    return skew_evaluator(model, grid, ops, Phi if V is None else V)(Phi, sat, forcing, True)


def eval_new_linearised_pair(
    model: ModelSpec,
    grid: Grid,
    ops,
    U_bar: np.ndarray,
    U_prime: np.ndarray,
    sat_mean=None,
    forcing=None,
) -> tuple[Residual, Residual]:
    """Mean and perturbation residuals of the non-standard linearisation.

    The mean equation evaluates coefficients at the total state mean + pert
    and applies them to the mean; the perturbation equation evaluates them
    at the mean and applies them to the perturbation.  Together with the
    remainder H these reproduce the full nonlinear residual at the total
    state up to roundoff.  sat_mean and forcing apply to the mean equation;
    the perturbation equation is left open (no SAT).
    """
    U_bar = np.asarray(U_bar, dtype=np.float64)
    U_prime = np.asarray(U_prime, dtype=np.float64)
    res_mean = eval_primal_residual(model, grid, ops, U_bar, U_bar + U_prime, sat_mean,
                                    forcing)
    res_pert = eval_primal_residual(model, grid, ops, U_prime, U_bar)
    return res_mean, res_pert


def eval_remainder_H(
    model: ModelSpec,
    grid: Grid,
    ops,
    U_bar: np.ndarray,
    U_prime: np.ndarray,
) -> np.ndarray:
    """The linearisation remainder H built from increment matrices.

    H = sum_ax [ D_ax(A'_ax U') + A'_ax^T D_ax U' ] + C' U' with
    A' = A(mean + pert) - A(mean).  full = mean-eq + pert-eq + H up to
    roundoff, and H is quadratic in the perturbation whenever the
    coefficients are linear in the state.  The grid, ops and both states are
    checked as skew_evaluator(U_bar) checks them acting on U_prime."""
    _check_ops(model, grid, ops)
    U_bar = _grid_state(model, grid, U_bar)
    U_prime = _acted_state(model, grid, _batch(grid, U_bar), U_prime)
    A_prime, C_prime = coeff_split(model, U_bar, U_prime, grid.positions)
    return _assemble(grid, ops, A_prime, C_prime, U_prime)


def standard_evaluator(model: ModelSpec, grid: Grid, ops, V: np.ndarray) -> Operator:
    """The Operator of the textbook advective linearisation about the fixed
    mean V, whose tables M, N and M_ax / 2 are built here, once.

    Supported for burgers1d and swe2d only.  V is in state variables, as
    for every residual.  For swe2d the perturbation q' is primitive
    (phi, u, v) and the operator is M1 d_x q' + M2 d_y q' + N q' at the
    primitive mean swe_inverse(V), N collecting the mean-gradient and
    Coriolis zero-order terms.  This operator is not in skew form: its
    face terms and a characteristic closure read the transport matrices
    M_ax / 2, and its call is meant without dual, which belongs to the skew form.
    """
    _check_ops(model, grid, ops)
    V = _grid_state(model, grid, V)
    M, N = _standard_matrices(model, grid, ops, V)
    half = tuple({key: 0.5 * field for key, field in M_ax.items()} for M_ax in M)
    return Operator(model, grid, ops, _batch(grid, V), half,
                    partial(_advect, grid, ops, M, N))


def _advect(grid: Grid, ops, M: tuple, N: dict, W: np.ndarray) -> np.ndarray:
    """sum_ax M_ax D_ax W + N W, added in this order into a +0.0 field."""
    lead = len(_batch(grid, W))
    spatial = np.zeros(W.shape)
    for ax in range(grid.dim):
        matfield_apply(M[ax], apply_derivative(ops[ax], W, lead + ax), out=spatial)
    return matfield_apply(N, W, out=spatial)


def _standard_matrices(model: ModelSpec, grid: Grid, ops, V: np.ndarray):
    """Tables of the advective matrices M_ax and the zero-order N at the
    mean V, taken to primitive variables for swe2d; M_ax has the entries of
    the skew-form A_ax."""
    if model.kind not in ("burgers1d", "swe2d"):
        raise ValueError(
            f"standard linearisation covers burgers1d and swe2d, not '{model.kind}'"
        )
    lead = len(_batch(grid, V))
    if model.kind == "burgers1d":
        return ({(0, 0): V[0]},), {(0, 0): apply_derivative(ops[0], V, lead)[0]}
    qbar = np.stack(swe_inverse(V))
    dqx, dqy = (apply_derivative(ops[ax], qbar, lead + ax) for ax in range(grid.dim))
    phib, ub, vb = qbar
    one = np.ones(())
    M = ({(0, 0): ub, (0, 1): phib, (1, 0): one, (1, 1): ub, (2, 2): ub},
         {(0, 0): vb, (0, 2): phib, (1, 1): vb, (2, 0): one, (2, 2): vb})

    f = model.f0
    if model.f1 != 0.0:  # a y-profile, broadcast along x
        f = model.f0 + model.f1 * grid.positions[1]
    N = {(0, 0): dqx[1] + dqy[2], (0, 1): dqx[0], (0, 2): dqy[0],
         (1, 1): dqx[1], (1, 2): dqy[1] - f,
         (2, 1): dqx[2] + f, (2, 2): dqy[2]}
    return M, N


def bilinear_face_functional(model: ModelSpec, grid: Grid, ops, U: np.ndarray,
                             Phi: np.ndarray, V: np.ndarray):
    """skew_evaluator(V).face_functional(U, Phi): the boundary functional
    pairing primal and dual solutions with coefficients at V (at U when V is
    None); a V without batch axes pairs stacks U and Phi."""
    return skew_evaluator(model, grid, ops, U if V is None else V).face_functional(U, Phi)
