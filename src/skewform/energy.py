"""Discrete energy bookkeeping for the skew-form schemes.

The energy is E = <U, P U> without a half factor, with P the model's
norm matrix (singular for the euler models, where pressure carries no
weight).  For the semi-discrete scheme P U_t = -R the rate of change of E
decomposes as

    rate = boundary_flux + sat_contribution + volume_residual

and the skew structure makes volume_residual vanish to rounding, which is
the quantity the verification checks pin down.  The rate is evaluated
algebraically from the residual, not by differencing E in time:
energy_report evaluates the residual itself, while a march builds its
reports with report_from_residual from the stage-1 residual that each RK4
step evaluates anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import (ModelSpec, coeff_matrices, dense_matrix, has_invertible_norm,
                     norm_weight, unit_normal, validate_grid)
from .sbp_core import Grid, inner_product
from .spatial_op import Residual, eval_dual_residual, eval_primal_residual


def total_energy(model: ModelSpec, grid: Grid, ops, U: np.ndarray):
    """E = <U, P U> in the model norm (a semi-norm for the euler models), one
    value per batch element of a stacked U.  An invertible P is I
    (burgers1d, swe2d): u 1.0 v = u v, so no weight field."""
    validate_grid(model, grid)
    weight = None if has_invertible_norm(model) else norm_weight(model, grid)
    return inner_product(grid, ops, U, U, weight=weight)


@dataclass(frozen=True, eq=False)
class EnergyReport:
    """One snapshot of the energy balance.

    rate excludes forcing; boundary_flux is the signed sum of the face
    contractions (-2 sum_faces bq(U, n.A U) for a primal evaluation, +2 for
    the dual, whose flux enters with the opposite sign); sat_contribution
    is 2 <U, SAT>; volume_residual is rate minus both, the conservation
    defect.  The values are floats, or one array entry per batch element
    when the state stacks several.
    """

    t: float
    energy: float
    rate: float
    boundary_flux: float
    sat_contribution: float
    volume_residual: float
    face_fluxes: dict


def energy_report(
    model: ModelSpec,
    grid: Grid,
    ops,
    U: np.ndarray,
    V: np.ndarray | None = None,
    dual: bool = False,
    sat=None,
    t: float = 0.0,
) -> EnergyReport:
    """Evaluates the energy balance of the residual acting on the state U
    with coefficients at V (at U itself when V is None).

    With dual the residual is the dual one, U is the dual variable and the
    face fluxes flip sign.  Forcing never enters the rate.
    """
    evaluate = eval_dual_residual if dual else eval_primal_residual
    return report_from_residual(evaluate(model, grid, ops, U, V, sat=sat), t)


def report_from_residual(res: Residual, t: float) -> EnergyReport:
    """The energy balance of an evaluated residual at the state it acted on.

    Reads the model, grid and ops of res.op and res.spatial, res.sat,
    res.face_terms and res.flux_sign, none of which depends on forcing, so a
    residual evaluated with forcing gives the same report as one without.
    """
    model, grid, ops, U = res.op.model, res.op.grid, res.op.ops, res.state
    rate = -2.0 * inner_product(grid, ops, U, res.spatial)
    sat_contribution = 0.0
    if res.sat is not None:
        sat_contribution = 2.0 * inner_product(grid, ops, U, res.sat)
    rate += sat_contribution
    face_fluxes = {label: res.flux_sign * val for label, val in res.face_terms.items()}
    boundary_flux = 0.0
    for val in face_fluxes.values():
        boundary_flux += val
    return EnergyReport(
        t=float(t),
        energy=total_energy(model, grid, ops, U),
        rate=rate,
        boundary_flux=boundary_flux,
        sat_contribution=sat_contribution,
        volume_residual=rate - boundary_flux - sat_contribution,
        face_fluxes=face_fluxes,
    )


def axis_contractions(model: ModelSpec, state, mean=None, pos=None) -> tuple:
    """The per-axis face contractions u^T A_ax(V) u, one float per axis, from
    one build of the coefficient matrices at V (the state itself, or the
    mean when one is given).

    For swe2d, A_1 reads alpha only and A_2 beta only, so an alpha/beta
    sweep at alpha = beta = s gives every pairing's terms bit for bit.
    """
    state = np.asarray(state, dtype=np.float64)
    V = state if mean is None else np.asarray(mean, dtype=np.float64)
    A, _ = coeff_matrices(model, V, pos)
    return tuple(float(state @ dense_matrix(A_ax, model.n_comp) @ state) for A_ax in A)


def boundary_contraction(model: ModelSpec, state, normal, mean=None, pos=None) -> float:
    """Pointwise face contraction u^T (n . A(V)) u through the actual
    coefficient matrices, n an outward unit normal: the normal-weighted sum
    of axis_contractions, added from 0.0 in axis order.

    V is the state itself, or the mean when one is given (the linearised
    contraction).  For swe2d the value is independent of the model's alpha
    and beta at V = state, and genuinely parameter-dependent about a mean.
    """
    total = 0.0
    for n_ax, q_ax in zip(unit_normal(model, normal),
                          axis_contractions(model, state, mean, pos)):
        total += n_ax * q_ax
    return total
