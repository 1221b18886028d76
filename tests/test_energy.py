"""Tests for energy, rate, and boundary-flux reporting."""

import numpy as np
import pytest

import skewform as sk
from skewform.boundary import make_sat_config
from skewform.energy import boundary_contraction, energy_report, total_energy
from skewform.models import make_model, norm_weight, sample_state, swe_transform, with_params
from skewform.sbp_core import build_operators, inner_product, make_grid, quadrature_weights
from skewform.verify import default_setup


def test_energy_has_no_half_factor():
    g = make_grid(((0.0, 1.0),), (17,))
    ops = build_operators(g, (4, 2))
    m = make_model("burgers1d")
    u = np.ones((1, 17))
    assert abs(total_energy(m, g, ops, u) - 1.0) <= 1e-14


@pytest.mark.parametrize("kind", ["burgers1d", "swe2d"])
def test_identity_norm_energy_equals_the_weighted_inner_product(kind):
    # P = I for these kinds, so total_energy builds no weight field; u 1.0 u
    # = u u, so the energy keeps every bit of the weighted form, and a grid
    # of the wrong dimension is still refused.
    m = make_model(kind)
    if kind == "burgers1d":
        g = make_grid(((0.0, 1.0),), (17,))
        wrong = make_grid(((0.0, 1.0), (0.0, 1.0)), (9, 9))
    else:
        g = make_grid(((0.0, 1.0), (0.0, 2.0)), (13, 16), periodic=(False, True))
        wrong = make_grid(((0.0, 1.0),), (17,))
    rng = np.random.default_rng(47)
    for order in ((2, 1), (4, 2)):
        ops = build_operators(g, order)
        for _ in range(5):
            U = sample_state(m, g.shape, rng)
            U[0, 1] = -0.0
            want = inner_product(g, ops, U, U, weight=norm_weight(m, g))
            assert np.float64(total_energy(m, g, ops, U)).tobytes() == \
                np.float64(want).tobytes()
    with pytest.raises(ValueError, match="grid is"):
        total_energy(m, wrong, build_operators(wrong, (2, 1)),
                     np.ones((m.n_comp,) + wrong.shape))


def test_euler_energy_is_a_seminorm_in_the_pressure():
    m = make_model("euler2d")
    g = make_grid(((0.0, 1.0), (0.0, 1.0)), (9, 9))
    ops = build_operators(g, (2, 1))
    rng = np.random.default_rng(41)
    U = rng.normal(size=(3, 9, 9))
    U2 = U.copy()
    U2[2] = 0.0
    assert total_energy(m, g, ops, U) == total_energy(m, g, ops, U2)


def test_cylindrical_energy_weights_by_the_radius():
    m = make_model("euler3d_cyl")
    g = make_grid(((0.3, 1.3), (0.0, 1.0), (0.0, 1.0)), (8, 8, 8),
                  periodic=(False, False, True), axis_names=m.axis_names)
    ops = build_operators(g, (2, 1))
    rng = np.random.default_rng(43)
    U = rng.normal(size=(4, 8, 8, 8))
    R = g.positions[0]
    w = quadrature_weights(ops)
    manual = float(np.sum(w * R * (U[0] ** 2 + U[1] ** 2 + U[2] ** 2)))
    assert abs(total_energy(m, g, ops, U) - manual) <= 1e-13 * (1 + abs(manual))


def test_burgers_boundary_flux_pinned():
    # linear profile from 0 to 2: the flux functional is -2 u^3/3 per face
    # with the outward sign, so -16/3 in total and no interior loss
    m = make_model("burgers1d")
    g = make_grid(((0.0, 1.0),), (33,))
    ops = build_operators(g, (4, 2))
    u = (2.0 * g.coords[0])[None]
    rep = energy_report(m, g, ops, u)
    assert abs(rep.boundary_flux - (-16.0 / 3.0)) <= 1e-12
    assert abs(rep.volume_residual) <= 1e-12
    assert abs(rep.rate - rep.boundary_flux) <= 1e-12
    assert sorted(rep.face_fluxes) == ["x_high", "x_low"]
    assert abs(sum(rep.face_fluxes.values()) - rep.boundary_flux) <= 1e-15
    assert abs(rep.face_fluxes["x_low"]) <= 1e-15
    assert rep.sat_contribution == 0.0


def test_volume_residual_vanishes_for_random_states():
    rng = np.random.default_rng(45)
    for kind in ("burgers1d", "euler2d", "euler3d_cyl", "swe2d"):
        m = sk.make_model(kind) if kind != "swe2d" else sk.make_model(
            "swe2d", alpha=0.4, beta=0.7, f0=0.7, f1=0.3)
        if kind == "burgers1d":
            g = make_grid(((0.0, 1.0),), (14,))
        elif kind == "euler2d":
            g = make_grid(((0.0, 1.0), (0.0, 1.0)), (9, 8))
        elif kind == "euler3d_cyl":
            g = make_grid(((0.3, 1.3), (0.0, 1.0), (0.0, 1.0)), (8, 8, 8),
                          periodic=(False, False, True), axis_names=m.axis_names)
        else:
            g = make_grid(((0.0, 1.0), (0.0, 1.0)), (8, 9), periodic=(False, True))
        for order in ((2, 1), (4, 2)):
            ops = build_operators(g, order)
            for trial in range(5):
                U = sample_state(m, g.shape, rng)
                rep = energy_report(m, g, ops, U)
                scale = 1.0 + abs(rep.rate) + abs(rep.boundary_flux)
                assert abs(rep.volume_residual) <= 1e-12 * scale, (kind, order)


def test_dual_report_flips_the_flux_sign():
    # at V = U the dual spatial part is the nonlinear one negated and its
    # flux sign is +2, so its whole report is the nonlinear one negated
    # exactly (a -0.0 against +0.0 aside), also for a batched group: the
    # energy suite checks the nonlinear identity only for that reason
    rng = np.random.default_rng(47)
    for kind in ("burgers1d", "euler2d", "euler3d_cyl", "swe2d"):
        for order in ((2, 1), (4, 2)):
            m, g, ops = default_setup(kind, order)
            for U in (sample_state(m, g.shape, rng),
                      np.stack([sample_state(m, g.shape, rng) for _ in range(3)], axis=1)):
                rp = energy_report(m, g, ops, U)
                rd = energy_report(m, g, ops, U, dual=True)
                at = (kind, order, U.ndim)
                for name in ("rate", "boundary_flux", "volume_residual"):
                    assert np.array_equal(getattr(rd, name), -getattr(rp, name)), (name, at)
                assert list(rd.face_fluxes) == list(rp.face_fluxes)
                for label, flux in rp.face_fluxes.items():
                    assert np.array_equal(rd.face_fluxes[label], -flux), (label, at)
                scale = 1.0 + np.abs(rd.rate) + np.abs(rd.boundary_flux)
                assert (np.abs(rd.volume_residual) <= 1e-12 * scale).all(), at


def test_zero_state_report_is_exactly_zero():
    m = make_model("swe2d")
    g = make_grid(((0.0, 1.0), (0.0, 1.0)), (8, 8))
    ops = build_operators(g, (2, 1))
    U = swe_transform(np.ones((8, 8)), np.zeros((8, 8)), np.zeros((8, 8)))
    # constant depth, no motion: E = integral of phi^2 and nothing moves
    rep = energy_report(m, g, ops, U)
    assert rep.volume_residual == 0.0
    assert rep.rate == 0.0
    assert abs(rep.energy - 1.0) <= 1e-13


def test_sat_contribution_enters_the_rate_identity():
    m = make_model("burgers1d")
    g = make_grid(((0.0, 1.0),), (33,))
    ops = build_operators(g, (4, 2))
    u = (1.0 + 0.3 * np.sin(2 * np.pi * g.coords[0]))[None]
    sat = make_sat_config(m, g, {"x_low": {"kind": "characteristic", "g": 0.0,
                                           "scale": 1.0}})
    rep = energy_report(m, g, ops, u, sat=sat)
    # u(0) = 1 > 0, so the left face is inflow and the penalty is active:
    # with homogeneous data its contribution cancels the inflow flux exactly
    assert rep.sat_contribution != 0.0
    left = rep.face_fluxes["x_low"] + rep.sat_contribution
    assert abs(left) <= 1e-13
    scale = 1.0 + abs(rep.rate) + abs(rep.boundary_flux) + abs(rep.sat_contribution)
    assert abs(rep.volume_residual) <= 1e-12 * scale
    assert rep.t == 0.0
    rep2 = energy_report(m, g, ops, u, sat=sat, t=1.5)
    assert rep2.t == 1.5
    # the default scale is 3: the penalty takes out three times the inflow
    # flux, so the homogeneous inflow face's rate is strictly negative
    default = make_sat_config(m, g, {"x_low": {"kind": "characteristic", "g": 0.0}})
    rep3 = energy_report(m, g, ops, u, sat=default)
    flux = rep3.face_fluxes["x_low"]
    assert flux > 0.0
    assert abs(rep3.sat_contribution + 3.0 * flux) <= 1e-13 * flux


def test_swe_boundary_contraction_pinned_and_alpha_free():
    m = make_model("swe2d")
    state = np.array([4.0, 2.0, 0.0])
    for alpha in np.linspace(0.0, 1.0, 7):
        got = boundary_contraction(with_params(m, alpha=alpha, beta=0.0), state, (1.0, 0.0))
        assert abs(got - 18.0) <= 1e-12, alpha


def test_euler_boundary_contraction_pinned():
    m = make_model("euler2d")
    got = boundary_contraction(m, np.array([1.0, 1.0, 1.0]), (1.0, 0.0))
    assert abs(got - 2.0) <= 1e-14


def test_linearised_contraction_depends_on_alpha():
    # the linearised quadratic form freezes the coefficients at the mean, and
    # there it does feel the splitting parameter
    m = make_model("swe2d")
    mean = np.array([1.0, 0.0, 0.0])
    pert = np.array([1.0, 1.0, 0.0])
    for alpha in (0.0, 0.5, 1.0):
        got = boundary_contraction(with_params(m, alpha=alpha, beta=0.0), pert, (1.0, 0.0),
                                   mean=mean)
        assert abs(got - (1.0 - alpha)) <= 1e-14, alpha


def test_cylindrical_contraction_needs_positions():
    m = make_model("euler3d_cyl")
    state = np.array([1.0, 0.5, 0.2, 0.3])
    got = boundary_contraction(m, state, (1.0, 0.0, 0.0), pos=(0.8, 0.0, 0.0))
    assert abs(got - 0.756) <= 1e-14
    with pytest.raises(ValueError):
        boundary_contraction(m, state, (1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="^normal has 2 components, model is 3D$"):
        boundary_contraction(m, state, (1.0, 0.0), pos=(0.8, 0.0, 0.0))
