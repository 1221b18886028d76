"""Explicit RK4 time marching for the skew-form semi-discretisations.

Marching is defined for the models whose norm matrix is invertible
(burgers1d and swe2d, both of which carry unit norm matrices, so the
tendency is simply the negated residual).  The euler models have singular
norm matrices and are verified statically instead.

Each uncoupled mode marches one residual of the marched state U with
coefficients at V: the primal (nonlinear, frozen), the dual, or the
standard linearisation.  V is None in nonlinear runs and the mean when one
is given; the coupled mode marches the mean/perturbation pair.

Conservation claims are always asserted through the per-step
volume_residual of the energy reports, never through E(T) - E(0): the
semi-discrete identity is exact while RK4 adds an O(dt^4) drift.  A report
at a state is built from the stage-1 residual of the step that starts
there, so only the final report costs an evaluation of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import EnergyReport, report_from_residual
from .models import ModelSpec, check_admissible, has_invertible_norm, swe_transform, wavespeeds
from .sbp_core import Grid, face_label
from .spatial_op import (
    eval_dual_residual,
    eval_new_linearised_pair,
    eval_primal_residual,
    eval_standard_linearised_residual,
)

MODES = (
    "nonlinear",
    "frozen",
    "new_linearised_coupled",
    "standard_linearised",
    "dual",
)

# The modes whose scenario needs a mean field.
MEAN_MODES = ("frozen", "new_linearised_coupled", "standard_linearised")

# Diagnostic guard, not a physical bound: abort when the sup norm grows a
# thousandfold from the start, measured against at least 1 (the models'
# unit scale) so that a march starting at rest is not aborted at once.
BLOWUP_FACTOR = 1e3


def rk4_step(rhs, u, t: float, dt: float):
    """One classical fourth-order Runge-Kutta step of u_t = rhs(u, t)."""
    k1 = rhs(u, t)
    k2 = rhs(u + (0.5 * dt) * k1, t + 0.5 * dt)
    k3 = rhs(u + (0.5 * dt) * k2, t + 0.5 * dt)
    k4 = rhs(u + dt * k3, t + dt)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A complete marching setup.

    initial is the marched state: U for nonlinear/frozen, the perturbation
    for the linearised modes, the dual variable for dual runs.  mean is the
    coefficient state V (frozen, standard_linearised, dual with fixed
    coefficients; a nonlinear run ignores it) or the initial mean state of
    the coupled mode.  sat holds the penalised faces that
    boundary.make_sat_config resolved, or None.  forcing may be None, a
    constant field, or a callable t -> field, and applies to the marched
    equation (the mean equation in coupled mode).
    """

    model: ModelSpec
    grid: Grid
    ops: tuple
    mode: str
    initial: np.ndarray
    dt: float
    t_final: float
    mean: np.ndarray | None = None
    forcing: object = None
    sat: object = None
    stride: int = 1
    cfl: float = 0.2


def validate_scenario(sc: Scenario) -> None:
    """Raises ValueError when the scenario is malformed or the model/mode
    pair is unsupported (singular norm matrix, missing mean field, a SAT
    closure on a swe2d standard linearisation)."""
    if sc.mode not in MODES:
        raise ValueError(f"unknown mode '{sc.mode}'; expected one of {MODES}")
    if not has_invertible_norm(sc.model):
        raise ValueError(
            f"model '{sc.model.kind}' has a singular norm matrix; time marching"
            " covers burgers1d and swe2d (verify the euler models statically)"
        )
    for name in ("dt", "t_final", "cfl"):
        if not np.isfinite(getattr(sc, name)):
            raise ValueError(f"{name} must be finite")
    if not sc.dt > 0.0:
        raise ValueError("dt must be positive")
    if sc.t_final < sc.dt:
        raise ValueError("t_final must be at least one step long")
    steps = sc.t_final / sc.dt
    if not np.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
        raise ValueError(f"t_final is not a whole number of steps dt = {sc.dt}")
    if sc.stride < 1:
        raise ValueError("report stride must be at least 1")
    if not 0.0 < sc.cfl:
        raise ValueError("cfl must be positive")
    if np.asarray(sc.initial).shape != (sc.model.n_comp,) + sc.grid.shape:
        raise ValueError("initial data does not match the model/grid shape")
    if sc.mode in MEAN_MODES:
        if sc.mean is None:
            raise ValueError(f"mode '{sc.mode}' needs a mean field")
        if np.asarray(sc.mean).shape != (sc.model.n_comp,) + sc.grid.shape:
            raise ValueError("mean field does not match the model/grid shape")
    if sc.mode == "standard_linearised" and sc.model.kind == "swe2d" and sc.sat:
        active = ", ".join(face_label(sc.grid, face) for face in sc.sat)
        raise ValueError("swe2d standard_linearised marches a primitive perturbation,"
                         " and the SAT closures are written for transformed variables:"
                         f" close its faces with none or periodic, got {active}")


def _forcing_at(forcing, t: float):
    if forcing is None:
        return None
    if callable(forcing):
        return forcing(t)
    return forcing


def _check_cfl(sc: Scenario, V: np.ndarray, t: float) -> None:
    """Raises when dt > cfl * min(h / speed) at the speed state V: a CFL
    estimate from the physical speeds, not a stability certificate.  The
    frozen-coefficient symbol A(V) + A(V)^T depends on alpha/beta and its
    radius can exceed |u| + sqrt(phi) (2|u| at alpha = 1 when
    |u| > sqrt(phi)); the default cfl = 0.2 leaves a wide margin."""
    speeds = wavespeeds(sc.model, V)
    bound = np.inf
    for ax in range(sc.grid.dim):
        if speeds[ax] > 1e-14:
            bound = min(bound, sc.grid.spacings[ax] / speeds[ax])
    limit = sc.cfl * bound
    if sc.dt > limit:
        raise RuntimeError(
            f"CFL violation at t={t:.6g}: dt={sc.dt} exceeds cfl*min(h/speed)={limit:.6g}"
        )


def march(sc: Scenario) -> tuple[list[EnergyReport], np.ndarray | tuple]:
    """Marches the scenario and reports the energy balance every stride.

    Returns (reports, final_state); in coupled mode the final state is the
    (mean, perturbation) pair and the reports track the perturbation
    equation, whose skew structure is the linearisation claim under test.
    Raises on CFL violation, admissibility loss, or the blow-up guard.
    """
    validate_scenario(sc)
    model, grid, ops = sc.model, sc.grid, sc.ops
    coupled = sc.mode == "new_linearised_coupled"
    dual = sc.mode == "dual"
    U = np.array(sc.initial, dtype=np.float64)
    # frozen-coefficient modes, and dual runs with a mean, take their
    # coefficients (and their speeds) from the mean
    V = None if sc.mode == "nonlinear" or sc.mean is None \
        else np.asarray(sc.mean, dtype=np.float64)
    # a swe2d standard run's mean is primitive: its speeds are the transformed mean's
    V_speed = swe_transform(*V) if sc.mode == "standard_linearised" \
        and model.kind == "swe2d" else V

    # evaluate(y, t) -> (tendency, the residual a report reads, its state)
    if coupled:
        state = np.stack([np.array(sc.mean, dtype=np.float64), U])

        def evaluate(y, t):
            res_mean, res_pert = eval_new_linearised_pair(
                model, grid, ops, y[0], y[1], sat_mean=sc.sat
            )
            f_t = _forcing_at(sc.forcing, t)
            rm = res_mean.R if f_t is None else res_mean.R - f_t
            return np.stack([-rm, -res_pert.R]), res_pert, y[1]

    else:
        state = U
        # the residual each uncoupled mode marches, called as (U, V, sat, forcing)
        evaluator = {"nonlinear": eval_primal_residual, "frozen": eval_primal_residual,
                     "standard_linearised": eval_standard_linearised_residual,
                     "dual": eval_dual_residual}[sc.mode]

        def evaluate(y, t):
            res = evaluator(model, grid, ops, y, V, sat=sc.sat,
                            forcing=_forcing_at(sc.forcing, t))
            return -res.R, res, y

    def rhs(u, s):
        # rk4_step evaluates stage 1 at the state it was handed: k1 holds it
        return k1 if u is state else evaluate(u, s)[0]

    def speed_state(y):
        return y[0] + y[1] if coupled else (y if V is None else V_speed)

    sup0 = max(float(np.max(np.abs(state))), 1.0)
    nsteps = round(sc.t_final / sc.dt)
    reports: list[EnergyReport] = []

    t = 0.0
    for k in range(1, nsteps + 1):
        _check_cfl(sc, speed_state(state), t)
        # Stage 1 feeds the report at t and then rk4_step; the residual is
        # released first, so its fields do not live through the later stages.
        k1, res, y = evaluate(state, t)
        if (k - 1) % sc.stride == 0:
            reports.append(report_from_residual(model, grid, ops, y, res, dual, t))
        del res, y
        state = rk4_step(rhs, state, t, sc.dt)
        t = k * sc.dt
        sup = float(np.max(np.abs(state)))
        if not np.isfinite(sup) or sup > BLOWUP_FACTOR * sup0:
            raise RuntimeError(
                f"blow-up guard tripped at t={t:.6g}: sup norm {sup:.3g} vs"
                f" reference {sup0:.3g}"
            )
        # the next CFL guard or the last evaluation checks the other modes' states
        if model.kind == "swe2d" and sc.mode == "frozen":
            check_admissible(model, state)
    _, res, y = evaluate(state, t)
    reports.append(report_from_residual(model, grid, ops, y, res, dual, t))

    final = (state[0], state[1]) if coupled else state
    return reports, final
