"""Explicit RK4 time marching for the skew-form semi-discretisations.

Marching is defined for the models whose norm matrix is invertible
(burgers1d and swe2d, both of which carry unit norm matrices, so the
tendency is simply the negated residual).  The euler models have singular
norm matrices and are verified statically instead.

Each uncoupled mode marches one residual of the marched state U with
coefficients at V: the primal (nonlinear, frozen), the dual, or the
standard linearisation.  V is the mean, in state variables, when one is
given, and the operator of that fixed V is built once per march; the
coupled mode marches the mean/perturbation pair.

Conservation claims are always asserted through the per-step
volume_residual of the energy reports, never through E(T) - E(0): the
semi-discrete identity is exact while RK4 adds an O(dt^4) drift.  A report
at a state is built from the stage-1 residual of the step that starts
there, so only the final report costs an evaluation of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .energy import EnergyReport, report_from_residual
from .models import ModelSpec, has_invertible_norm, validate_grid, wavespeeds
from .sbp_core import ArgumentError, Grid, face_label
from .spatial_op import (
    eval_dual_residual,
    eval_new_linearised_pair,
    eval_primal_residual,
    skew_evaluator,
    standard_evaluator,
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
    """One classical fourth-order Runge-Kutta step of u_t = rhs(u, t).

    Each stage is folded into one accumulator k as soon as the next stage
    input is formed, so a stage's tendency is freed before the next rhs
    call: the additions are those of u + (dt/6) (k1 + 2 k2 + 2 k3 + k4),
    in the same order, with three fields live in stage 4 instead of five.
    """
    k1 = rhs(u, t)
    k2 = rhs(u + (0.5 * dt) * k1, t + 0.5 * dt)
    y = u + (0.5 * dt) * k2
    k = k1 + 2.0 * k2
    del k1, k2
    k3 = rhs(y, t + 0.5 * dt)
    y = u + dt * k3
    k += 2.0 * k3
    del k3
    k += rhs(y, t + dt)
    return u + (dt / 6.0) * k


@dataclass(frozen=True, eq=False)
class Scenario:
    """A complete marching setup.

    initial is the marched state: U for nonlinear/frozen, the perturbation
    for the linearised modes (primitive for swe2d standard_linearised), the
    dual variable for dual runs.  mean is the coefficient state V in state
    variables (frozen, standard_linearised, dual with fixed coefficients) or
    the initial mean state of the coupled mode; nonlinear takes none.  sat
    holds the penalised faces that boundary.make_sat_config resolved, or
    None.  forcing may be None, a constant field, or a callable t -> field,
    and applies to the marched equation (the mean equation in coupled mode).
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
    """Raises ValueError when the scenario is malformed or unsupported (a grid
    that does not suit the model, a missing or unread mean, a SAT closure on
    a swe2d standard run), and an ArgumentError naming the field for a
    refused mode, dt, t_final, stride or cfl."""
    if sc.mode not in MODES:
        raise ValueError(f"unknown mode '{sc.mode}'; expected one of {MODES}")
    if not has_invertible_norm(sc.model):
        raise ArgumentError("mode", f"model '{sc.model.kind}' has a singular norm matrix;"
                            " time marching covers burgers1d and swe2d (verify the"
                            " euler models statically)")
    for name in ("dt", "t_final", "cfl"):
        if not np.isfinite(getattr(sc, name)):
            raise ArgumentError(name, f"{name} must be finite")
    if not sc.dt > 0.0:
        raise ArgumentError("dt", "dt must be positive")
    if sc.t_final < sc.dt:
        raise ArgumentError("t_final", "t_final must be at least one step long")
    steps = sc.t_final / sc.dt
    if not np.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
        raise ArgumentError("t_final", "t_final is not a whole number of steps"
                            f" dt = {sc.dt}")
    if sc.stride < 1:
        raise ArgumentError("stride", "report stride must be at least 1")
    if not 0.0 < sc.cfl:
        raise ArgumentError("cfl", "cfl must be positive")
    validate_grid(sc.model, sc.grid)
    if np.asarray(sc.initial).shape != (sc.model.n_comp,) + sc.grid.shape:
        raise ValueError("initial data does not match the model/grid shape")
    if sc.mode in MEAN_MODES and sc.mean is None:
        raise ValueError(f"mode '{sc.mode}' needs a mean field")
    if sc.mode == "nonlinear" and sc.mean is not None:
        raise ValueError("mode 'nonlinear' takes no mean field: its coefficients are at"
                         " the marched state")
    if sc.mean is not None and np.asarray(sc.mean).shape != np.shape(sc.initial):
        raise ValueError("mean field does not match the model/grid shape")
    if sc.mode == "standard_linearised" and sc.model.kind == "swe2d" and sc.sat:
        active = ", ".join(face_label(sc.grid, face) for face in sc.sat)
        raise ValueError("swe2d standard_linearised marches a primitive perturbation,"
                         " and the SAT closures are written for transformed variables:"
                         f" close its faces with none or periodic, got {active}")


def _forcing_at(forcing, t: float):
    return forcing(t) if callable(forcing) else forcing


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


def _sup(x: np.ndarray) -> float:
    """The sup norm max |x|: np.max(np.abs(x)) to the bit, NaN, inf and
    zeros of either sign included, without a temporary of x's size."""
    return max(float(x.max()), -float(x.min())) + 0.0


def march(sc: Scenario) -> tuple[list[EnergyReport], np.ndarray]:
    """Marches the scenario and reports the energy balance every stride.

    Returns (reports, the marched state at t_final), in coupled mode the
    stacked (mean, perturbation) pair; its reports track the perturbation
    equation, whose skew structure is the linearisation claim under test.
    Raises on CFL violation, the blow-up guard, or admissibility loss where
    an operator reads it: a fixed-coefficient march is linear in its marched
    state, which may leave the admissible set.

    The march reads sc.initial in place and never writes into it, so it
    holds no copy of it.  Between steps it holds the state, the
    coefficient state of a fixed operator and that operator's tables;
    within a step, rk4_step's fields and one residual's (README, Memory).
    """
    validate_scenario(sc)
    model, grid, ops = sc.model, sc.grid, sc.ops
    coupled = sc.mode == "new_linearised_coupled"
    # the coefficient state, which also gives a frozen-coefficient run its speeds
    V = None if sc.mean is None else np.asarray(sc.mean, dtype=np.float64)

    # A fixed coefficient state gives fixed speeds, checked once before the
    # march, and one operator, built once.
    fixed = None
    if V is not None and not coupled:
        _check_cfl(sc, V, 0.0)
        if sc.mode == "standard_linearised":
            fixed = standard_evaluator(model, grid, ops, V)
        else:
            fixed = partial(skew_evaluator(model, grid, ops, V), dual=sc.mode == "dual")

    # evaluate(y, t) -> (tendency, the residual a report reads)
    if coupled:
        state = np.stack([V, np.asarray(sc.initial, dtype=np.float64)])

        def evaluate(y, t):
            res_mean, res_pert = eval_new_linearised_pair(
                model, grid, ops, y[0], y[1], sat_mean=sc.sat,
                forcing=_forcing_at(sc.forcing, t))
            return np.stack([-res_mean.R, -res_pert.R]), res_pert

    else:
        state = np.asarray(sc.initial, dtype=np.float64)
        # without a fixed operator the coefficients are at the marched state
        residual = fixed or partial(
            eval_dual_residual if sc.mode == "dual" else eval_primal_residual,
            model, grid, ops)

        def evaluate(y, t):
            res = residual(y, sat=sc.sat, forcing=_forcing_at(sc.forcing, t))
            return -res.R, res

    def rhs(u, s):
        # rk4_step evaluates stage 1 at the state it was handed: k1 holds it,
        # and is handed over, so that rk4_step can free it after stage 2
        nonlocal k1
        if u is state:
            k, k1 = k1, None
            return k
        return evaluate(u, s)[0]

    sup0 = max(_sup(state), 1.0)
    nsteps = round(sc.t_final / sc.dt)
    reports: list[EnergyReport] = []

    t = 0.0
    for k in range(1, nsteps + 1):
        if fixed is None:
            _check_cfl(sc, state[0] + state[1] if coupled else state, t)
        # Stage 1 feeds the report at t and then rk4_step; the residual is
        # released first, so its fields do not live through the later stages.
        k1, res = evaluate(state, t)
        if (k - 1) % sc.stride == 0:
            reports.append(report_from_residual(res, t))
        del res
        state = rk4_step(rhs, state, t, sc.dt)
        t = k * sc.dt
        sup = _sup(state)
        if not np.isfinite(sup) or sup > BLOWUP_FACTOR * sup0:
            raise RuntimeError(
                f"blow-up guard tripped at t={t:.6g}: sup norm {sup:.3g} vs"
                f" reference {sup0:.3g}"
            )
    reports.append(report_from_residual(evaluate(state, t)[1], t))
    return reports, state
