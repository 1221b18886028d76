"""Tests for the time marching driver."""

import hashlib
import tracemalloc
import weakref
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
import sympy

import skewform as sk
from skewform import energy, models, spatial_op, timeint
from skewform.boundary import make_sat_config
from skewform.energy import energy_report, report_from_residual
from skewform.models import make_model, sample_state, swe_transform
from skewform.sbp_core import ArgumentError, build_operators, inner_product, make_grid
from skewform.spatial_op import (
    eval_dual_residual,
    eval_new_linearised_pair,
    eval_primal_residual,
    skew_evaluator,
    standard_evaluator,
)
from skewform.timeint import MODES, Scenario, march, rk4_step, validate_scenario

from dense_probe import dense_operator, norm_weights, periodic_frozen_setup


def burgers_setup(n=32, periodic=True, order=(4, 2)):
    m = make_model("burgers1d")
    g = make_grid(((0.0, 1.0),), (n,), periodic=(periodic,))
    ops = build_operators(g, order)
    return m, g, ops


def swe_setup(n=24, periodic=True, order=(4, 2)):
    m = make_model("swe2d", alpha=0.3, beta=0.6, f0=0.5, f1=0.4)
    g = make_grid(((0.0, 1.0), (0.0, 1.0)), (n, n), periodic=(periodic, periodic))
    return m, g, build_operators(g, order)


def test_rk4_pinned_single_step():
    # u' = -u from 1 over dt = 0.1: the quartic Taylor polynomial of exp
    got = rk4_step(lambda u, t: -u, np.array([1.0]), 0.0, 0.1)
    assert got[0] == 0.9048375


def test_rk4_zero_rhs_returns_the_state_unchanged():
    u = np.array([1.0, -2.0, 3.0])
    got = rk4_step(lambda u, t: np.zeros_like(u), u, 0.0, 0.25)
    assert np.array_equal(got, u)


def test_rk4_time_dependence_enters_through_the_stages():
    # u' = cos(t) integrates to sin(t) with O(dt^5) local error
    u = np.array([0.0])
    dt = 0.1
    t = 0.0
    for k in range(10):
        u = rk4_step(lambda u, t: np.array([np.cos(t)]), u, t, dt)
        t += dt
    assert abs(u[0] - np.sin(1.0)) <= 1e-7


def test_rk4_equals_the_textbook_combination_bit_for_bit():
    rng = np.random.default_rng(11)
    u = rng.standard_normal((3, 17, 19))
    a, b = rng.standard_normal((2, 3, 17, 19))

    def rhs(y, t):
        return np.sin(a * y + t) * b - 0.3 * y * y

    t, dt = 0.37, 0.0123
    k1 = rhs(u, t)
    k2 = rhs(u + (0.5 * dt) * k1, t + 0.5 * dt)
    k3 = rhs(u + (0.5 * dt) * k2, t + 0.5 * dt)
    k4 = rhs(u + dt * k3, t + dt)
    want = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert rk4_step(rhs, u, t, dt).tobytes() == want.tobytes()


def test_rk4_frees_the_first_three_tendencies_before_the_last_stage():
    refs = []
    alive = []

    def rhs(y, t):
        if len(refs) == 3:
            alive.extend(ref() is not None for ref in refs)
        k = -y
        refs.append(weakref.ref(k))
        return k

    rk4_step(rhs, np.ones((3, 8, 8)), 0.0, 0.1)
    assert len(refs) == 4 and alive == [False, False, False]


# The Butcher tableau of the classical RK4 step.
RK4_A = np.array([[0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0],
                  [0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
RK4_B = np.array([1.0, 2.0, 2.0, 1.0]) / 6.0


def nonlinear_burgers_bounded():
    m, g, ops = burgers_setup(n=65, periodic=False)
    sat = make_sat_config(m, g, {"x_low": {"kind": "characteristic", "g": 1.0}})
    u0 = (1.0 + 0.1 * np.sin(2 * np.pi * g.coords[0]))[None]
    return g, ops, u0, lambda u: eval_primal_residual(m, g, ops, u, sat=sat)


def frozen_burgers_periodic():
    m, g, ops = burgers_setup(n=64)
    rng = np.random.default_rng(4)
    V, u0 = sample_state(m, g.shape, rng), sample_state(m, g.shape, rng)
    return g, ops, u0, lambda u: eval_primal_residual(m, g, ops, u, V)


def nonlinear_swe_periodic():
    m, g, ops = swe_setup()
    u0 = sample_state(m, g.shape, np.random.default_rng(5))
    return g, ops, u0, lambda u: eval_primal_residual(m, g, ops, u)


def frozen_swe_bounded():
    m, g, ops = swe_setup(n=17, periodic=False, order=(2, 1))
    rng = np.random.default_rng(6)
    V, u0 = sample_state(m, g.shape, rng), sample_state(m, g.shape, rng)
    return g, ops, u0, lambda u: eval_primal_residual(m, g, ops, u, V)


def dual_burgers_bounded():
    # the dual with a mean, whose inflow penalty reads the acted-on state
    m, g, ops = burgers_setup(n=33, periodic=False)
    sat = make_sat_config(m, g, {"x_high": {"kind": "characteristic", "g": 0.2}})
    rng = np.random.default_rng(7)
    V, u0 = sample_state(m, g.shape, rng), sample_state(m, g.shape, rng)
    return g, ops, u0, lambda u: eval_dual_residual(m, g, ops, u, V, sat)


def standard_burgers_bounded():
    m, g, ops = burgers_setup(n=33, periodic=False)
    sat = make_sat_config(m, g, {"x_low": {"kind": "characteristic", "g": 0.1},
                                 "x_high": {"kind": "characteristic"}})
    rng = np.random.default_rng(8)
    V, u0 = sample_state(m, g.shape, rng), 0.1 * sample_state(m, g.shape, rng)
    operator = standard_evaluator(m, g, ops, V)
    return g, ops, u0, lambda u: operator(u, sat=sat)


def two_condition_swe_bounded():
    m, g, ops = swe_setup(n=17, periodic=False)
    sat = make_sat_config(m, g, {"x_low": {"kind": "swe_two_condition", "g2": 1.3,
                                           "g3": 0.2, "scale": 1.5}})
    x, y = np.meshgrid(*g.coords, indexing="ij")
    u0 = swe_transform(1.0 + 0.05 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
                       0.8 + 0.1 * np.cos(2 * np.pi * y), 0.1 * np.sin(2 * np.pi * x))
    return g, ops, u0, lambda u: eval_primal_residual(m, g, ops, u, sat=sat)


def coupled_burgers_bounded():
    # the stacked (mean, perturbation) pair of the coupled mode, the mean
    # equation closed as march closes it
    m, g, ops = burgers_setup(n=33, periodic=False)
    sat = make_sat_config(m, g, {"x_low": {"kind": "characteristic", "g": 1.0}})
    rng = np.random.default_rng(9)
    mean = 1.0 + 0.2 * sample_state(m, g.shape, rng)
    pert = 0.1 * sample_state(m, g.shape, rng)

    def residual(y):
        res_mean, res_pert = eval_new_linearised_pair(m, g, ops, y[0], y[1], sat_mean=sat)
        return SimpleNamespace(R=np.stack([res_mean.R, res_pert.R]))

    return g, ops, np.stack([mean, pert]), residual


@pytest.mark.parametrize("setup", [nonlinear_burgers_bounded, frozen_burgers_periodic,
                                   nonlinear_swe_periodic, frozen_swe_bounded,
                                   dual_burgers_bounded, standard_burgers_bounded,
                                   two_condition_swe_bounded, coupled_burgers_bounded])
@pytest.mark.parametrize("dt", [2e-3, 1e-3, 5e-4])
def test_one_rk4_step_changes_the_energy_by_its_stage_budget(setup, dt):
    # for u1 = u0 + dt sum_i b_i F_i with stages U_i = u0 + dt sum_j a_ij F_j,
    # exactly: |u1|^2 - |u0|^2 = 2 dt sum_i b_i <U_i, F_i>
    #                           - dt^2 sum_ij m_ij <F_i, F_j>, m = bA + (bA)^T - bb^T
    g, ops, u0, residual = setup()
    stages = []

    def rhs(u, t):
        F = -residual(u).R
        stages.append((u, F))
        return F

    u1 = rk4_step(rhs, u0, 0.0, dt)
    assert len(stages) == 4

    def ip(a, b):
        # over every component, of both equations of a stacked pair
        return inner_product(g, ops, a.reshape((-1,) + g.shape), b.reshape((-1,) + g.shape))

    bA = RK4_B[:, None] * RK4_A
    M = bA + bA.T - np.outer(RK4_B, RK4_B)
    work = 2.0 * dt * sum(b * ip(U, F) for b, (U, F) in zip(RK4_B, stages))
    remainder = dt ** 2 * sum(M[i, j] * ip(stages[i][1], stages[j][1])
                              for i in range(4) for j in range(4))
    E0 = ip(u0, u0)
    assert abs(ip(u1, u1) - E0 - (work - remainder)) <= 1e-14 * E0


@pytest.mark.parametrize("kind", ["burgers1d", "swe2d"])
@pytest.mark.parametrize("dt", [1e-2, 5e-3, 2e-3])
def test_one_rk4_step_of_an_h_skew_operator_changes_the_energy_in_closed_form(kind, dt):
    # for HL skew, RK4's amplification 1 + z + z^2/2 + z^3/6 + z^4/24 at
    # z = dt L changes |u|_H^2 by exactly
    # -(dt^6/72) |L^3 u|_H^2 + (dt^8/576) |L^4 u|_H^2
    m, g, ops, V = periodic_frozen_setup(kind)
    operator = skew_evaluator(m, g, ops, V)
    L = dense_operator(operator, m.n_comp, g)
    h = norm_weights(ops, m.n_comp)
    u0 = sample_state(m, g.shape, np.random.default_rng(12))
    u1 = rk4_step(lambda u, t: -operator(u).R, u0, 0.0, dt)
    L3u = np.linalg.matrix_power(L, 3) @ u0.ravel()
    L4u = L @ L3u
    change = -dt ** 6 / 72 * (h * L3u) @ L3u + dt ** 8 / 576 * (h * L4u) @ L4u
    E0 = inner_product(g, ops, u0, u0)
    assert abs(inner_product(g, ops, u1, u1) - E0 - change) <= 1e-14 * E0


def test_march_hands_its_stage_one_tendency_over_to_the_step(monkeypatch):
    # march evaluates stage 1 itself; the step must hold the only reference
    refs = []
    step = timeint.rk4_step

    def recording_step(rhs, u, t, dt):
        def watched(y, s):
            k = rhs(y, s)
            refs.append(weakref.ref(k))
            if len(refs) % 4 == 0:
                assert all(ref() is None for ref in refs[-4:-1])
            return k
        return step(watched, u, t, dt)

    monkeypatch.setattr(timeint, "rk4_step", recording_step)
    m, g, ops = burgers_setup()
    u0 = (0.2 * np.sin(2 * np.pi * g.coords[0]))[None]
    march(Scenario(model=m, grid=g, ops=ops, mode="nonlinear", initial=u0,
                   dt=0.002, t_final=0.01))
    assert len(refs) == 20


def test_march_emits_reports_on_the_stride_and_always_at_the_end():
    m, g, ops = burgers_setup()
    u0 = (0.2 * np.sin(2 * np.pi * g.coords[0]))[None]
    sc = Scenario(model=m, grid=g, ops=ops, mode="nonlinear", initial=u0,
                  dt=0.01, t_final=0.1, stride=3)
    reps, final = march(sc)
    assert [round(r.t, 3) for r in reps] == [0.0, 0.03, 0.06, 0.09, 0.1]
    assert final.shape == u0.shape
    sc5 = Scenario(model=m, grid=g, ops=ops, mode="nonlinear", initial=u0,
                   dt=0.01, t_final=0.1, stride=5)
    reps5, _ = march(sc5)
    assert [round(r.t, 3) for r in reps5] == [0.0, 0.05, 0.1]


def test_march_conserves_energy_on_a_periodic_grid():
    m, g, ops = burgers_setup(n=48)
    u0 = (0.5 * np.sin(2 * np.pi * g.coords[0]) + 0.1)[None]
    sc = Scenario(model=m, grid=g, ops=ops, mode="nonlinear", initial=u0,
                  dt=0.002, t_final=0.2, stride=10)
    reps, _ = march(sc)
    for r in reps:
        scale = 1.0 + abs(r.rate) + abs(r.boundary_flux)
        assert abs(r.volume_residual) <= 1e-12 * scale
    drift = abs(reps[-1].energy - reps[0].energy)
    assert drift <= 1e-10


def test_energy_drift_shrinks_at_fourth_order():
    m, g, ops = burgers_setup(n=48)
    u0 = (0.5 * np.sin(2 * np.pi * g.coords[0]) + 0.1)[None]

    def drift(dt):
        sc = Scenario(model=m, grid=g, ops=ops, mode="nonlinear", initial=u0,
                      dt=dt, t_final=0.2, stride=10 ** 9)
        reps, _ = march(sc)
        return abs(reps[-1].energy - reps[0].energy)

    ratio = drift(4e-3) / drift(2e-3)
    assert 12.0 <= ratio <= 20.0


def test_solution_error_shrinks_at_fourth_order_in_time():
    m, g, ops = burgers_setup()
    u0 = (0.4 * np.sin(2 * np.pi * g.coords[0]))[None]

    def final(dt):
        sc = Scenario(model=m, grid=g, ops=ops, mode="nonlinear", initial=u0,
                      dt=dt, t_final=0.16, stride=10 ** 9)
        return march(sc)[1]

    ref = final(2.5e-4)
    e1 = np.max(np.abs(final(4e-3) - ref))
    e2 = np.max(np.abs(final(2e-3) - ref))
    assert 13.0 <= e1 / e2 <= 19.0


def burgers_mms_errors(n):
    """L2 (P-norm) error of the solution and error of J = (1, u)_P at t = 0.5
    for the manufactured u = 1 + 0.1 sin(pi x) cos t of nonlinear (4,2)
    burgers, x_low closed by the default characteristic penalty with g = 1
    and x_high open."""
    m, g, ops = burgers_setup(n=n, periodic=False)
    x = g.coords[0]

    def exact(t):
        return (1.0 + 0.1 * np.sin(np.pi * x) * np.cos(t))[None]

    def forcing(t):  # u_t + u u_x
        return (-0.1 * np.sin(np.pi * x) * np.sin(t)
                + exact(t) * (0.1 * np.pi * np.cos(np.pi * x) * np.cos(t)))

    sat = make_sat_config(m, g, {"x_low": {"kind": "characteristic", "g": 1.0},
                                 "x_high": {"kind": "none"}})
    t_final = 0.5
    dt = t_final / np.ceil(t_final / (0.15 * g.spacings[0]))
    final = march(Scenario(model=m, grid=g, ops=ops, mode="nonlinear", initial=exact(0.0),
                           forcing=forcing, sat=sat, dt=dt, t_final=t_final,
                           stride=10 ** 9))[1]
    e = final - exact(t_final)
    J = inner_product(g, ops, np.ones_like(final), final)
    return np.sqrt(inner_product(g, ops, e, e)), abs(J - (1.0 + 0.2 * np.cos(t_final) / np.pi))


def test_default_characteristic_closure_converges_and_superconverges_its_functional():
    # The default scale 3 matches the Jacobian of the boundary term (see
    # _characteristic_penalty), so J converges at orders 4.10 and 4.75 and
    # the solution at 3.02 and 3.01; scale 1 gave J orders 3.00 and 3.00
    # (L2 2.99, 2.98).  3.7 sits between 3 and 4.75 on the last pair; 2.8
    # leaves 0.2 below the (4,2) closure's order 3.
    l2, J = np.array([burgers_mms_errors(n) for n in (33, 65, 129)]).T
    l2_orders, J_orders = np.log2(l2[:-1] / l2[1:]), np.log2(J[:-1] / J[1:])
    assert J_orders[-1] >= 3.7, J_orders
    assert (l2_orders >= 2.8).all(), l2_orders


def swe_mms(f0, f1):
    """Callables (t, x, y) -> the three transformed components of a smooth
    periodic manufactured swe2d solution (depth 1 +- 0.2) and of its
    forcing F = U_t + calA(U) U_x + calB(U) U_y + C U.  F comes from the
    primitive shallow water equations with the Coriolis term f = f0 + f1 y,
    taken to (phi, sqrt(phi) u, sqrt(phi) v) by the Jacobian of that map,
    so no coefficient table of the package enters it."""
    t, x, y = sympy.symbols("t x y")
    k, fifth = 2 * sympy.pi, sympy.Rational(1, 5)
    phi = 1 + fifth * sympy.sin(k * x - t) * sympy.cos(k * y)
    u = sympy.Rational(3, 10) + fifth * sympy.cos(k * y + t) * sympy.sin(k * x)
    v = fifth * sympy.sin(k * (x + y) - t)
    f, d = f0 + f1 * y, sympy.diff
    mass = d(phi, t) + d(phi * u, x) + d(phi * v, y)
    mom_u = d(u, t) + u * d(u, x) + v * d(u, y) + d(phi, x) - f * v
    mom_v = d(v, t) + u * d(v, x) + v * d(v, y) + d(phi, y) + f * u
    root = sympy.sqrt(phi)
    exact = (phi, root * u, root * v)
    F = (mass, u / (2 * root) * mass + root * mom_u, v / (2 * root) * mass + root * mom_v)
    return (sympy.lambdify((t, x, y), exact, "numpy"),
            sympy.lambdify((t, x, y), F, "numpy"))


def test_periodic_swe_march_converges_to_a_manufactured_solution():
    # Nonlinear swe2d on periodic 16^2 and 32^2 to T = 0.2 at dt = 0.1h,
    # forced by swe_mms: L2 (P-norm) orders 2.01 for (2,1) and 3.95 for
    # (4,2) on this pair (2.00 and 3.99 on 32 -> 64), asserted at 0.1 and
    # 0.3 below the interior orders 2 and 4.
    m = make_model("swe2d", alpha=0.4, beta=0.7, f0=0.7, f1=0.3)
    exact, forcing = swe_mms(m.f0, m.f1)
    t_final = 0.2

    def at(fn, g, t):
        return np.stack([np.broadcast_to(c, g.shape) for c in fn(t, *g.positions)])

    for order, least in (((2, 1), 1.9), ((4, 2), 3.7)):
        errors = []
        for n in (16, 32):
            g = make_grid(((0.0, 1.0), (0.0, 1.0)), (n, n), periodic=(True, True))
            ops = build_operators(g, order)
            sc = Scenario(model=m, grid=g, ops=ops, mode="nonlinear", initial=at(exact, g, 0.0),
                          forcing=partial(at, forcing, g), dt=0.1 * g.spacings[0],
                          t_final=t_final, stride=10 ** 9)
            e = march(sc)[1] - at(exact, g, t_final)
            errors.append(np.sqrt(inner_product(g, ops, e, e)))
        assert np.log2(errors[0] / errors[1]) >= least, (order, errors)


def test_frozen_characteristic_closure_keeps_the_energy_bounded():
    # Frozen (4,2) burgers at V = 1 with homogeneous characteristic data on
    # both faces: the inflow face x_low is where V flows in, and the closure
    # reads V's boundary matrix there, though U = -exp(-50 x^2) flows out.
    # E falls from 0.0886 to 0.0808; a closure that picked its faces from U
    # would leave x_low open, and E would grow to 0.1212.
    m, g, ops = burgers_setup(n=33, periodic=False)
    sat = make_sat_config(m, g, {face: {"kind": "characteristic", "g": 0.0}
                                 for face in ("x_low", "x_high")})
    U0 = -np.exp(-50.0 * g.coords[0] ** 2)[None]
    reports, _ = march(Scenario(model=m, grid=g, ops=ops, mode="frozen", initial=U0,
                                mean=np.ones_like(U0), sat=sat, dt=1e-3, t_final=0.05))
    assert all(r.energy <= reports[0].energy for r in reports), \
        (reports[0].energy, reports[-1].energy)


@pytest.mark.parametrize("order", [(4, 2), (2, 1)])
def test_dual_characteristic_march_is_the_negated_primal_march_and_keeps_e_bounded(order):
    # The burgers skew form is quadratic, so the self-adjoint dual tendency
    # at Phi is the negated primal tendency at -Phi, and the dual's boundary
    # matrix -n Phi / 3 is the primal's at -Phi: closed alike, the dual
    # march of Phi0 is the negated primal march of -Phi0, bit for bit.  With
    # homogeneous data on both faces E falls from 0.2950 to 0.2611 (4,2)
    # and 0.2609 (2,1); a dual closure that penalised the primal's inflow
    # faces would leave the dual's inflow open, and E would grow to 0.3059
    # and 0.3011.
    m, g, ops = burgers_setup(n=33, periodic=False, order=order)
    sat = make_sat_config(m, g, {face: {"kind": "characteristic", "g": 0.0}
                                 for face in ("x_low", "x_high")})
    phi0 = (0.5 + 0.3 * np.sin(2 * np.pi * g.coords[0]))[None]

    def run(mode, initial):
        return march(Scenario(model=m, grid=g, ops=ops, mode=mode, initial=initial, sat=sat,
                              dt=1e-3, t_final=0.2))

    reports, final = run("dual", phi0)
    assert np.array_equal(final, -run("nonlinear", -phi0)[1])
    energies = [r.energy for r in reports]
    assert all(b <= a for a, b in zip(energies, energies[1:])), (energies[0], energies[-1])


def test_dual_march_retraces_the_primal_trajectory():
    # the self-adjoint dual tendency is the exact negation of the primal one,
    # so marching the dual from the final state walks the trajectory back
    m, g, ops = burgers_setup()
    u0 = (0.4 * np.sin(2 * np.pi * g.coords[0]))[None]
    fwd = Scenario(model=m, grid=g, ops=ops, mode="nonlinear", initial=u0,
                   dt=1e-3, t_final=0.16, stride=10 ** 9)
    uT = march(fwd)[1]
    back = Scenario(model=m, grid=g, ops=ops, mode="dual", initial=uT,
                    dt=1e-3, t_final=0.16, stride=10 ** 9)
    u0_again = march(back)[1]
    assert np.max(np.abs(u0_again - u0)) <= 1e-12


@pytest.mark.parametrize("order", [(4, 2), (2, 1)])
@pytest.mark.parametrize("kind", ["burgers1d", "swe2d"])
def test_primal_and_dual_marches_pair_to_rounding_on_periodic_grids(kind, order):
    # the dual operator at V is the H-adjoint of the frozen one, and RK4 of the
    # adjoint is the adjoint of RK4: with no data and no forcing, marching U and
    # Phi N steps each gives (Phi_0, U_N)_H = (Phi_N, U_0)_H
    m, g, ops = (burgers_setup(n=64, order=order) if kind == "burgers1d"
                 else swe_setup(order=order))
    rng = np.random.default_rng(11)
    U0, Phi0, V = (sample_state(m, g.shape, rng) for _ in range(3))

    def final(mode, initial):
        return march(Scenario(model=m, grid=g, ops=ops, mode=mode, initial=initial,
                              mean=V, dt=1e-3, t_final=0.02, stride=10 ** 9))[1]

    forward = inner_product(g, ops, Phi0, final("frozen", U0))
    backward = inner_product(g, ops, final("dual", Phi0), U0)
    assert abs(forward - backward) <= 1e-14 * abs(forward)


def test_coupled_march_with_zero_perturbation_matches_nonlinear_bitwise():
    m, g, ops = burgers_setup(n=24)
    rng = np.random.default_rng(61)
    u0 = (0.3 * np.sin(2 * np.pi * g.coords[0]) + 0.05)[None]
    base = Scenario(model=m, grid=g, ops=ops, mode="nonlinear", initial=u0,
                    dt=2e-3, t_final=0.1, stride=10)
    _, u_nl = march(base)
    coupled = Scenario(model=m, grid=g, ops=ops, mode="new_linearised_coupled",
                       initial=np.zeros_like(u0), mean=u0, dt=2e-3,
                       t_final=0.1, stride=10)
    reps, (mean_final, pert_final) = march(coupled)
    assert np.array_equal(mean_final, u_nl)
    assert not pert_final.any()
    for r in reps:
        assert r.volume_residual == 0.0


def test_coupled_march_keeps_the_perturbation_energy_identity():
    m, g, ops = burgers_setup(n=48)
    x = g.coords[0]
    mean0 = np.sin(2 * np.pi * x)[None]
    pert0 = (0.01 * np.cos(2 * np.pi * x))[None]
    sc = Scenario(model=m, grid=g, ops=ops, mode="new_linearised_coupled",
                  initial=pert0, mean=mean0, dt=2e-3, t_final=0.1, stride=5)
    reps, _ = march(sc)
    for r in reps:
        scale = 1.0 + abs(r.rate) + abs(r.boundary_flux) + abs(r.sat_contribution)
        assert abs(r.volume_residual) <= 1e-12 * scale


def test_standard_linearisation_leaks_energy_where_the_new_one_does_not():
    m, g, ops = burgers_setup(n=48)
    x = g.coords[0]
    mean = np.sin(2 * np.pi * x)[None]
    pert0 = (0.01 * np.cos(2 * np.pi * x))[None]
    std = Scenario(model=m, grid=g, ops=ops, mode="standard_linearised",
                   initial=pert0, mean=mean, dt=2e-3, t_final=0.1, stride=1)
    reps_std, _ = march(std)
    worst_std = max(abs(r.volume_residual) for r in reps_std)
    assert worst_std > 1e-6
    new = Scenario(model=m, grid=g, ops=ops, mode="new_linearised_coupled",
                   initial=pert0, mean=mean, dt=2e-3, t_final=0.1, stride=1)
    reps_new, _ = march(new)
    for r in reps_new:
        scale = 1.0 + abs(r.rate) + abs(r.boundary_flux) + abs(r.sat_contribution)
        assert abs(r.volume_residual) <= 1e-12 * scale


def test_frozen_march_integrates_pure_forcing_exactly_enough():
    # zero mean coefficients reduce the scheme to du/dt = F(t)
    m, g, ops = burgers_setup(n=16, order=(2, 1))
    u0 = np.sin(2 * np.pi * g.coords[0])[None]
    F = np.ones_like(u0)
    sc = Scenario(model=m, grid=g, ops=ops, mode="frozen", initial=u0,
                  mean=np.zeros_like(u0), forcing=lambda t: np.cos(t) * F,
                  dt=0.05, t_final=1.0, stride=10 ** 9)
    _, final = march(sc)
    assert np.max(np.abs(final - (u0 + np.sin(1.0)))) <= 1e-7


def test_coupled_march_applies_its_forcing_to_the_mean_equation():
    # a uniform mean and a zero perturbation: the forcing drives the mean
    # alone, and the perturbation equation, linear in the perturbation,
    # keeps it at zero
    m, g, ops = burgers_setup(n=16, order=(2, 1))
    one = np.ones((1, 16))
    sc = Scenario(model=m, grid=g, ops=ops, mode="new_linearised_coupled",
                  initial=0.0 * one, mean=one, forcing=lambda t: np.cos(t) * one,
                  dt=0.005, t_final=1.0, stride=10 ** 9)
    _, (mean, pert) = march(sc)
    assert np.max(np.abs(mean - (1.0 + np.sin(1.0)))) <= 1e-7
    assert not pert.any()


def sat_forced_scenario(mode, stride, t_final):
    # bounded burgers grid, an inflow SAT on the left face and a forcing
    # that changes with t
    m, g, ops = burgers_setup(n=33, periodic=False)
    x = g.coords[0]
    u0 = (0.5 + 0.1 * np.sin(2 * np.pi * x))[None]
    mean = (0.6 + 0.05 * np.cos(2 * np.pi * x))[None]
    if mode in ("new_linearised_coupled", "standard_linearised"):
        u0 = 0.01 * u0  # the marched state is a perturbation of the mean
    sat = make_sat_config(m, g, {"x_low": {"kind": "characteristic", "g": 0.4}})
    return Scenario(model=m, grid=g, ops=ops, mode=mode, initial=u0,
                    mean=None if mode == "nonlinear" else mean,
                    forcing=lambda t: 0.1 * np.cos(3.0 * t) * np.ones_like(u0),
                    sat=sat, dt=0.002, t_final=t_final, stride=stride)


@pytest.mark.parametrize("mode", MODES)
def test_march_reports_equal_energy_report_at_the_same_state(monkeypatch, mode):
    sc = sat_forced_scenario(mode, stride=3, t_final=0.014)
    starts = {}
    step = timeint.rk4_step

    def recording_step(rhs, u, t, dt):
        starts[t] = np.array(u, copy=True)
        return step(rhs, u, t, dt)

    monkeypatch.setattr(timeint, "rk4_step", recording_step)
    reps, final = march(sc)
    assert [round(r.t, 6) for r in reps] == [0.0, 0.006, 0.012, 0.014]
    for r in reps:
        y = starts.get(r.t, final)
        if mode == "new_linearised_coupled":
            want = energy_report(sc.model, sc.grid, sc.ops, y[1],
                                 y[0], sat=None, t=r.t)
        elif mode == "standard_linearised":
            res = standard_evaluator(sc.model, sc.grid, sc.ops, sc.mean)(y, sat=sc.sat)
            want = report_from_residual(res, r.t)
        else:
            want = energy_report(sc.model, sc.grid, sc.ops, y, sc.mean,
                                 mode == "dual", sat=sc.sat, t=r.t)
        assert vars(r) == vars(want), r.t


def counted_calls(monkeypatch, module, name, calls):
    """Rebinds module.name to a wrapper that appends 1 to calls per call."""
    def counted(*args, _fn=getattr(module, name), **kwargs):
        calls.append(1)
        return _fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("mode", MODES)
def test_march_evaluates_four_residuals_per_step_plus_the_last_report(
        monkeypatch, mode):
    # a nonlinear march evaluates by name, a fixed-coefficient one through
    # the operator it built, and the coupled one through the pair
    calls = []
    for module in (timeint, energy):
        for name in ("eval_primal_residual", "eval_dual_residual",
                     "eval_new_linearised_pair"):
            if hasattr(module, name):
                counted_calls(monkeypatch, module, name, calls)
    for name in ("skew_evaluator", "standard_evaluator"):
        def counted_operator(model, grid, ops, V, _build=getattr(timeint, name)):
            operator = _build(model, grid, ops, V)
            def counted(*args, **kwargs):
                calls.append(1)
                return operator(*args, **kwargs)
            return counted
        monkeypatch.setattr(timeint, name, counted_operator)
    sc = sat_forced_scenario(mode, stride=1, t_final=0.014)
    reps, _ = march(sc)
    assert len(reps) == 8
    assert len(calls) == 4 * 7 + 1


@pytest.mark.parametrize("mode, tables, builds", [
    ("nonlinear", "coeff_matrices", 41),
    ("frozen", "coeff_matrices", 1),
    ("dual", "coeff_matrices", 1),
    ("standard_linearised", "_standard_matrices", 1),
])
def test_a_fixed_coefficient_march_builds_its_tables_once(monkeypatch, mode, tables, builds):
    # 10 steps of 4 residuals and the last report: a march whose
    # coefficients are at its marched state builds them for each of the 41,
    # one about a fixed mean (the dual one here has a mean) only once
    calls = []
    counted_calls(monkeypatch, spatial_op, tables, calls)
    reps, _ = march(sat_forced_scenario(mode, stride=1, t_final=0.02))
    assert len(reps) == 11
    assert len(calls) == builds


@pytest.mark.parametrize("mode", MODES)
def test_cfl_guard_checks_a_fixed_coefficient_state_once(monkeypatch, mode):
    # frozen, dual with a mean and standard_linearised take their speeds at
    # the fixed mean, so one check before the first step covers the march;
    # nonlinear and coupled take them at the marched state before every step
    calls = []

    def counted(model, V):
        calls.append(1)
        return models.wavespeeds(model, V)

    monkeypatch.setattr(timeint, "wavespeeds", counted)
    march(sat_forced_scenario(mode, stride=1, t_final=0.02))
    assert len(calls) == (10 if mode in ("nonlinear", "new_linearised_coupled") else 1)


@pytest.mark.parametrize("mode", ["frozen", "dual", "standard_linearised"])
def test_a_fixed_coefficient_state_refuses_a_too_large_dt_at_t0(mode):
    # the mean's max|u| = 0.65 on h = 1/32 allows dt up to 0.2 h / 0.65 = 0.0096
    sc = replace(sat_forced_scenario(mode, stride=1, t_final=0.02), dt=0.01, t_final=0.1)
    with pytest.raises(RuntimeError, match=r"^CFL violation at t=0: dt=0.01 exceeds"):
        march(sc)


def test_cfl_violation_raises():
    m, g, ops = burgers_setup()
    u0 = (0.4 * np.sin(2 * np.pi * g.coords[0]))[None]
    sc = Scenario(model=m, grid=g, ops=ops, mode="nonlinear", initial=u0,
                  dt=0.5, t_final=1.0)
    with pytest.raises(RuntimeError, match="CFL"):
        march(sc)


def test_cfl_guard_uses_the_burgers_speed_u():
    # limit 0.2 * (1/64) / max|u| = 0.003125 < dt; the spectral radius of
    # A = u/3 would allow dt up to three times that
    m, g, ops = burgers_setup(n=64)
    u0 = np.sin(2 * np.pi * g.coords[0])[None]
    sc = Scenario(model=m, grid=g, ops=ops, mode="nonlinear", initial=u0,
                  dt=0.005, t_final=0.05, cfl=0.2)
    with pytest.raises(RuntimeError, match="CFL"):
        march(sc)


@pytest.mark.parametrize("mode", ["standard_linearised", "new_linearised_coupled"])
def test_swe_linearised_cfl_guard_takes_the_speed_of_the_transformed_mean(mode):
    # mean phi = 4, u = 2, v = 0: the speed |u| + sqrt(phi) = 4 exceeds
    # 0.2 h / dt = 3.5; the primitive mean read as a transformed state would
    # give |u| / sqrt(phi) + sqrt(phi) = 3, which would let the run march
    m = make_model("swe2d")
    g = make_grid(((0.0, 1.0), (0.0, 1.0)), (16, 16), periodic=(True, True))
    ops = build_operators(g, (2, 1))
    ones = np.ones((3, 16, 16))
    mean = swe_transform(*(np.array([4.0, 2.0, 0.0])[:, None, None] * ones))
    dt = 0.2 * g.spacings[0] / 3.5
    sc = Scenario(model=m, grid=g, ops=ops, mode=mode, initial=1e-3 * ones, mean=mean,
                  dt=dt, t_final=dt)
    with pytest.raises(RuntimeError, match="CFL violation"):
        march(sc)


def test_blow_up_guard_raises():
    # with a zero frozen coefficient u_t = F, so F = 1e6 takes the sup norm
    # to 1e4, ten times the guard's limit of 1e3, in the first step
    m, g, ops = burgers_setup()
    u0 = (0.4 * np.sin(2 * np.pi * g.coords[0]))[None]
    sc = Scenario(model=m, grid=g, ops=ops, mode="frozen", initial=u0,
                  mean=np.zeros_like(u0), forcing=lambda t: np.full_like(u0, 1e6),
                  dt=0.01, t_final=1.0, stride=10 ** 9)
    with pytest.raises(RuntimeError, match="blow-up") as info:
        march(sc)
    assert "tripped at t=0.01:" in str(info.value)


def test_the_guards_sup_norm_is_the_max_of_absolute_values_to_the_bit():
    # max(x.max(), -x.min()) + 0.0 forms no |x| field; it must give the
    # float np.max(np.abs(x)) gives, NaN, infinities and signed zeros included
    rng = np.random.default_rng(12)
    fields = [rng.normal(size=(3, 5, 4)), -np.abs(rng.normal(size=(2, 7))),
              np.full((1, 6), -0.0), np.zeros((1, 6)), np.array([[0.0, -0.0, -0.0]]),
              np.array([[-0.0, 0.0]]), np.array([[1.0, np.inf, -2.0]]),
              np.array([[1.0, -np.inf, 2.0]]), np.array([[-0.0, np.nan, 3.0]]),
              np.array([[-np.nan, -5.0]]), np.array([[np.inf, -np.inf]])]
    for x in fields:
        got, want = timeint._sup(x), float(np.max(np.abs(x)))
        assert type(got) is float
        if np.isnan(want):
            assert np.isnan(got)
        else:
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), x


def test_a_swe_march_holds_only_state_sized_fields():
    # The operators, positions and Coriolis profile are O(n) per axis, and
    # the march reads its initial state in place, so the traced peak of a
    # 129^2 march, scenario included, is its state-sized fields: 30.1 of
    # them at the time of writing, where dense operators, full-grid
    # positions, two Coriolis slots and a copy of the initial state made 38.1.
    n = 129
    tracemalloc.start()
    try:
        m, g, ops = swe_setup(n=n, order=(4, 2))
        x, y = np.meshgrid(*g.coords, indexing="ij")
        u0 = swe_transform(1.0 + 0.05 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
                           0.1 + 0.0 * x, 0.1 * np.sin(2 * np.pi * x))
        del x, y
        digest = hashlib.sha256(u0).hexdigest()
        sc = Scenario(model=m, grid=g, ops=ops, mode="nonlinear", initial=u0,
                      dt=0.1 / n, t_final=0.2 / n)
        tracemalloc.reset_peak()
        _, final = march(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 33 * u0[0].nbytes, peak / u0[0].nbytes
    assert hashlib.sha256(u0).hexdigest() == digest and not np.shares_memory(final, u0)


@pytest.mark.parametrize("mode", ["nonlinear", "frozen", "new_linearised_coupled"])
def test_a_forced_march_from_rest_is_not_a_blow_up(mode):
    # growth is measured against at least the unit scale: from a zero state
    # the uniform forcing cos(t) drives the state (the mean, coupled) to sin(t)
    m, g, ops = burgers_setup(n=16, order=(2, 1))
    zero = np.zeros((1, 16))
    sc = Scenario(model=m, grid=g, ops=ops, mode=mode, initial=zero,
                  mean=None if mode == "nonlinear" else zero,
                  forcing=lambda t: np.full_like(zero, np.cos(t)),
                  dt=0.01, t_final=1.0, stride=10 ** 9)
    reports, final = march(sc)
    assert reports[-1].t == 1.0
    state = final[0] if mode == "new_linearised_coupled" else final
    assert np.max(np.abs(state - np.sin(1.0))) <= 1e-8


def test_losing_admissibility_raises():
    m = make_model("swe2d")
    g = make_grid(((0.0, 1.0), (0.0, 1.0)), (12, 12), periodic=(True, True))
    ops = build_operators(g, (2, 1))
    U0 = swe_transform(np.ones((12, 12)), np.zeros((12, 12)), np.zeros((12, 12)))
    F = np.zeros_like(U0)
    F[0] = -50.0
    sc = Scenario(model=m, grid=g, ops=ops, mode="nonlinear", initial=U0,
                  forcing=lambda t: F, dt=0.004, t_final=0.2, stride=10 ** 9)
    with pytest.raises(ValueError, match="depth"):
        march(sc)


def test_losing_admissibility_raises_in_a_coupled_march():
    # the forcing drains the mean's depth; the total state mean + pert is checked
    m = make_model("swe2d")
    g = make_grid(((0.0, 1.0), (0.0, 1.0)), (12, 12), periodic=(True, True))
    ops = build_operators(g, (2, 1))
    U0 = swe_transform(np.ones((12, 12)), np.zeros((12, 12)), np.zeros((12, 12)))
    F = np.zeros_like(U0)
    F[0] = -50.0
    sc = Scenario(model=m, grid=g, ops=ops, mode="new_linearised_coupled",
                  initial=np.zeros_like(U0), mean=U0, forcing=lambda t: F,
                  dt=0.004, t_final=0.2, stride=10 ** 9)
    with pytest.raises(ValueError, match="depth"):
        march(sc)


def test_a_frozen_march_is_odd_in_its_marched_state():
    # the frozen operator is linear in U and checks admissibility at V, where
    # it reads it, so a state of negative depth marches, and -U gives -U_N
    m, g, ops = swe_setup()
    rng = np.random.default_rng(5)
    V = sample_state(m, g.shape, rng)
    U = sample_state(m, g.shape, rng) - 0.9 * V
    assert U[0].min() < -1.0

    def final(initial):
        return march(Scenario(model=m, grid=g, ops=ops, mode="frozen", initial=initial,
                              mean=V, dt=1e-3, t_final=0.02, stride=10 ** 9))[1]

    assert np.array_equal(final(-U), -final(U))


def test_validate_scenario_rejects_bad_setups():
    m, g, ops = burgers_setup()
    u0 = np.zeros((1, 32))
    ok = dict(model=m, grid=g, ops=ops, mode="nonlinear", initial=u0,
              dt=0.01, t_final=0.1)
    validate_scenario(Scenario(**ok))
    with pytest.raises(ValueError, match="mode"):
        validate_scenario(Scenario(**{**ok, "mode": "implicit"}))
    with pytest.raises(ValueError):
        validate_scenario(Scenario(**{**ok, "dt": 0.0}))
    with pytest.raises(ValueError):
        validate_scenario(Scenario(**{**ok, "t_final": 0.001}))
    with pytest.raises(ValueError):
        validate_scenario(Scenario(**{**ok, "stride": 0}))
    with pytest.raises(ValueError):
        validate_scenario(Scenario(**{**ok, "initial": np.zeros((2, 32))}))
    with pytest.raises(ValueError, match="mean"):
        validate_scenario(Scenario(**{**ok, "mode": "frozen"}))
    with pytest.raises(ValueError, match="mean field does not match"):
        validate_scenario(Scenario(**{**ok, "mode": "frozen", "mean": np.zeros((1, 16))}))
    assert "nonlinear" in MODES and "dual" in MODES


def test_validate_scenario_refuses_a_grid_of_another_dimension_than_the_model():
    # without the check the burgers march raised IndexError in its CFL guard
    # and the swe2d march ran stage 1 before its first report refused it
    for kind, extents, shape in (("burgers1d", ((0.0, 1.0), (0.0, 1.0)), (9, 9)),
                                 ("swe2d", ((0.0, 1.0),), (16,))):
        m = make_model(kind)
        g = make_grid(extents, shape, periodic=(True,) * len(shape))
        U = sample_state(m, g.shape, np.random.default_rng(60))
        sc = Scenario(m, g, build_operators(g, (2, 1)), "nonlinear", U, 1e-3, 1e-2)
        message = f"^model '{kind}' is {m.dim}D but the grid is {g.dim}D$"
        with pytest.raises(ValueError, match=message):
            validate_scenario(sc)
        with pytest.raises(ValueError, match=message):
            march(sc)


def test_nonlinear_scenario_refuses_a_mean_it_would_not_read():
    m, g, ops = burgers_setup()
    u0 = (0.2 * np.sin(2 * np.pi * g.coords[0]))[None]
    sc = Scenario(model=m, grid=g, ops=ops, mode="nonlinear", initial=u0,
                  mean=np.ones_like(u0), dt=0.01, t_final=0.1)
    with pytest.raises(ValueError, match="'nonlinear' takes no mean field"):
        march(sc)


@pytest.mark.parametrize("field, value", [("dt", 0.0), ("dt", -0.01), ("t_final", 0.001),
                                          ("t_final", 0.105), ("stride", 0), ("cfl", -1.0),
                                          ("cfl", np.inf)])
def test_refused_march_settings_name_their_field(field, value):
    m, g, ops = burgers_setup()
    setup = dict(model=m, grid=g, ops=ops, mode="nonlinear", initial=np.zeros((1, 32)),
                 dt=0.01, t_final=0.1)
    sc = Scenario(**{**setup, field: value})
    with pytest.raises(ArgumentError) as info:
        validate_scenario(sc)
    assert info.value.arg == field


def test_singular_norm_models_are_refused_by_the_marcher():
    m = make_model("euler2d")
    g = make_grid(((0.0, 1.0), (0.0, 1.0)), (8, 8), periodic=(True, True))
    ops = build_operators(g, (2, 1))
    sc = Scenario(model=m, grid=g, ops=ops, mode="nonlinear",
                  initial=np.zeros((3, 8, 8)), dt=0.01, t_final=0.1)
    with pytest.raises(ArgumentError, match="singular") as info:
        validate_scenario(sc)
    assert info.value.arg == "mode"
