"""Tests for boundary condition analysis and penalty terms."""

import numpy as np
import pytest

import skewform as sk
from skewform.boundary import (
    FaceClosure,
    analysis_csv_row,
    analysis_table,
    analyze_boundary,
    build_sat,
    make_sat_config,
    swe_normal_tangential,
    swe_rewritten_contraction,
)
from skewform.energy import boundary_contraction, energy_report
from skewform.models import (coeff_matrices, dense_matrix, make_model, sample_state,
                             swe_transform, with_params)
from skewform.sbp_core import build_operators, face_label, faces, make_grid
from skewform.spatial_op import skew_evaluator


def nonglancing_state(rng, sign):
    # build the state from polar data so the normal momentum component is
    # bounded away from zero
    phi = rng.uniform(0.5, 2.0)
    un = sign * rng.uniform(0.3, 1.5)
    ut = rng.uniform(-1.0, 1.0)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    normal = (np.cos(theta), np.sin(theta))
    U2 = un * normal[0] - ut * normal[1]
    U3 = un * normal[1] + ut * normal[0]
    return np.array([phi, U2, U3]), normal


def sampled_face_points(rng, trials):
    """(model, state, unit normal, pos) over sampled states and normals of
    every model kind, swe2d inflow and outflow at several alpha, beta."""
    for trial in range(trials):
        for kind in ("burgers1d", "euler2d", "euler3d_cyl"):
            m = make_model(kind)
            normal = rng.normal(size=m.dim)
            pos = (rng.uniform(0.3, 1.3), 0.0, 0.0) if kind == "euler3d_cyl" else None
            yield m, sample_state(m, (), rng), normal / np.linalg.norm(normal), pos
        U, normal = nonglancing_state(rng, sign=-1.0 if trial % 2 else 1.0)
        for alpha, beta in ((0.0, 0.0), (0.37, 0.82), (1.0, 1.0), (-0.5, 2.0)):
            yield with_params(make_model("swe2d"), alpha=alpha, beta=beta), U, normal, None


def test_linearised_inflow_pins_three_conditions():
    m = make_model("swe2d")
    a = analyze_boundary(with_params(m, alpha=1.0, beta=1.0), np.array([1.0, -1.0, 0.0]),
                         (1.0, 0.0), formulation="linearised")
    assert np.max(np.abs(a.eigenvalues - np.array([-1.0, -0.5, -0.5]))) <= 1e-12
    assert a.bc_count == 3
    assert a.n_negative == 3 and a.n_zero == 0 and a.n_positive == 0


def test_linearised_outflow_needs_no_conditions():
    m = make_model("swe2d")
    a = analyze_boundary(with_params(m, alpha=1.0, beta=1.0), np.array([1.0, 1.0, 0.0]),
                         (1.0, 0.0), formulation="linearised")
    assert a.bc_count == 0
    assert a.n_negative == 0


AXIS_NORMALS = ((-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0))


def flip_alphas(fr):
    # the 2x2 (depth, normal velocity) block of sym(n . A) at an axis face
    # is [[a u_n, (1 - a) sqrt(phi) / 2], [.., u_n / 2]]: its determinant
    # changes sign where 2 a Fr^2 = (1 - a)^2
    root = fr * np.sqrt(2.0 + fr * fr)
    return 1.0 + fr * fr - root, 1.0 + fr * fr + root


def linearised_axis_count(phi, un, ut, normal, s, other):
    # the splitting parameter of the face's axis is s (alpha on x faces,
    # beta on y faces); the other one and the tangential velocity ut should
    # play no part
    velocity = un * np.array(normal) + ut * np.array((-normal[1], normal[0]))
    U = np.array([phi, *(np.sqrt(phi) * velocity)])
    alpha, beta = (s, other) if normal[0] else (other, s)
    return analyze_boundary(make_model("swe2d", alpha=alpha, beta=beta), U, normal,
                            formulation="linearised").bc_count


def characteristic_count(phi, un):
    c = np.sqrt(phi)
    return sum(speed < 0.0 for speed in (un - c, un, un + c))


def test_linearised_axis_count_flips_at_the_closed_form_alphas():
    fr = np.array([0.2, 0.5, 0.9, 1.5])
    lo, hi = flip_alphas(fr)
    # the thresholds of the alpha scan at phi = 1, normal (-1, 0)
    assert np.max(np.abs(lo - [0.754343, 0.5, 0.301325, 0.157671])) <= 1e-6
    assert np.max(np.abs(hi - [1.325657, 2.0, 3.318675, 6.342329])) <= 1e-6
    for f, a_lo, a_hi in zip(fr, lo, hi):
        around = (a_lo - 1e-6, a_lo + 1e-6, a_hi - 1e-6, a_hi + 1e-6)
        for normal in AXIS_NORMALS:
            for phi, ut, other in ((1.0, 0.0, 0.5), (1.7, 0.3, -0.4)):
                inflow = [linearised_axis_count(phi, -f * np.sqrt(phi), ut, normal, a, other)
                          for a in around]
                outflow = [linearised_axis_count(phi, f * np.sqrt(phi), ut, normal, a, other)
                           for a in around]
                # 3 at inflow and 0 at outflow inside (lo, hi), 2 and 1 outside
                assert inflow == [2, 3, 3, 2], (f, normal, phi)
                assert outflow == [1, 0, 0, 1], (f, normal, phi)


def test_linearised_axis_count_is_the_characteristic_count_only_at_two_pm_sqrt3():
    # lo(Fr) falls and hi(Fr) rises through 2 -+ sqrt(3) at Fr = 1, so the
    # count is 3/0 (in/outflow) exactly when Fr > 1 for these two values only
    rng = np.random.default_rng(71)
    fr = np.concatenate([rng.uniform(0.01, 4.0, 120), [0.99, 0.999, 1.001, 1.01]])
    states = [(rng.uniform(0.2, 3.0), sign * f, rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 2.0))
              for f in fr for sign in (-1.0, 1.0)]
    for s in (2.0 - np.sqrt(3.0), 2.0 + np.sqrt(3.0)):
        for phi, f, ut, other in states:
            for normal in AXIS_NORMALS:
                un = f * np.sqrt(phi)
                assert (linearised_axis_count(phi, un, ut, normal, s, other)
                        == characteristic_count(phi, un)), (s, phi, f, normal)
    # a hundredth off 2 - sqrt(3) mismatches just below or just above Fr = 1
    for s in (2.0 - np.sqrt(3.0) - 0.01, 2.0 - np.sqrt(3.0) + 0.01):
        assert any(linearised_axis_count(1.0, sign * f, 0.0, (-1.0, 0.0), s, 0.5)
                   != characteristic_count(1.0, sign * f)
                   for f in (0.99, 1.01) for sign in (-1.0, 1.0)), s


def test_nonlinear_diagonal_representation_counts():
    m = make_model("swe2d")
    ain = analyze_boundary(m, np.array([1.0, -0.8, 0.3]), (1.0, 0.0),
                           formulation="nonlinear")
    # vn < 0 puts all three diagonal entries below zero
    assert ain.bc_count == 3
    aout = analyze_boundary(m, np.array([1.0, 0.8, 0.3]), (1.0, 0.0),
                            formulation="nonlinear")
    assert aout.bc_count == 0


def test_rewritten_form_counts_two_at_inflow():
    m = make_model("swe2d")
    ain = analyze_boundary(m, np.array([1.0, -1.0, 0.0]), (1.0, 0.0),
                           formulation="nonlinear_rewritten")
    assert ain.bc_count == 2
    # S = diag(-c, c, c) with c = 1/(2 U_n sqrt(U1)) = -0.5 here
    assert np.max(np.abs(np.sort(a := ain.eigenvalues) - np.array([-0.5, -0.5, 0.5]))) <= 1e-13
    aout = analyze_boundary(m, np.array([1.0, 1.0, 0.0]), (1.0, 0.0),
                            formulation="nonlinear_rewritten")
    assert aout.bc_count == 0


def test_glancing_flow_is_rejected():
    m = make_model("swe2d")
    with pytest.raises(ValueError, match="glancing"):
        analyze_boundary(m, np.array([1.0, 0.0, 0.5]), (1.0, 0.0),
                         formulation="nonlinear_rewritten")
    with pytest.raises(ValueError, match="glancing"):
        swe_rewritten_contraction(np.array([1.0, 0.0, 0.5]), (1.0, 0.0))
    # the other refusals of analyze_boundary: a normal of the wrong length,
    # the rewritten form off swe2d, and an unknown formulation
    with pytest.raises(ValueError, match="^normal has 1 components, model is 2D$"):
        analyze_boundary(m, np.array([1.0, -1.0, 0.0]), (1.0,))
    euler = make_model("euler2d")
    with pytest.raises(ValueError, match="^the rewritten formulation applies to swe2d only$"):
        analyze_boundary(euler, np.array([1.0, 1.0, 1.0]), (1.0, 0.0),
                         formulation="nonlinear_rewritten")
    with pytest.raises(ValueError, match="^formulation must be 'nonlinear', 'linearised', or"
                                         " 'nonlinear_rewritten'$"):
        analyze_boundary(m, np.array([1.0, -1.0, 0.0]), (1.0, 0.0), formulation="frozen")


@pytest.mark.parametrize("state, message", [
    ((-1.0, 0.5, 0.2), "^shallow water depth variable must exceed 1e-10, min is -1.0$"),
    ((float("nan"), 0.5, 0.2), "^shallow water depth variable must exceed 1e-10, min is nan$"),
    ((1e-12, 0.5, 0.2), "^shallow water depth variable must exceed 1e-10, min is 1e-12$"),
    ((1.0, float("inf"), 0.2), "^state contains non-finite entries$"),
], ids=["negative_depth", "nan_depth", "depth_below_floor", "infinite_momentum"])
def test_rewritten_contraction_refuses_an_inadmissible_state(state, message):
    # the public contraction refuses what analyze_boundary refuses, instead
    # of returning nan (or a value at a depth below the admissible floor)
    with pytest.raises(ValueError, match=message):
        swe_rewritten_contraction(np.array(state), (1.0, 0.0))


def test_every_face_contraction_refuses_a_normal_that_is_not_a_unit_vector():
    # one check holds the normal for the analysis and both contractions: the
    # rewritten one read (2, 0) as a longer normal (1.58 where (1, 0) gives
    # 0.5725), dropped the third component of (1, 0, 5) and indexed past (0,)
    swe = make_model("swe2d")
    U = np.array([1.0, 0.5, 0.2])
    assert abs(swe_rewritten_contraction(U, (1.0, 0.0)) - 0.5725) <= 1e-15
    lengths = "^normal must have unit length, got length"
    for contraction in (swe_rewritten_contraction,
                        lambda U, n: boundary_contraction(swe, U, n),
                        lambda U, n: analyze_boundary(swe, U, n).contraction):
        with pytest.raises(ValueError, match=lengths + " 2.0$"):
            contraction(U, (2.0, 0.0))
        for normal in ((1.0, 0.0, 5.0), (0.0,)):
            with pytest.raises(ValueError, match=f"^normal has {len(normal)} components,"
                                                 " model is 2D$"):
                contraction(U, normal)
    with pytest.raises(ValueError, match=lengths):
        boundary_contraction(make_model("burgers1d"), [0.5], (0.5,))


def test_analysis_reads_the_splitting_of_the_model_it_is_given():
    # the linearised count depends on alpha through the model alone
    U = np.array([1.0, -0.5, 0.0])
    for alpha in (0.0, 0.5, 1.0):
        m = make_model("swe2d", alpha=alpha, beta=0.25)
        a = analyze_boundary(m, U, (1.0, 0.0), formulation="linearised")
        assert (a.alpha, a.beta) == (alpha, 0.25)
        A, _ = sk.coeff_matrices(m, U)
        S = sk.dense_matrix(A[0], 3)
        assert np.array_equal(a.S, 0.5 * (S + S.T))


def test_euler_analysis_matches_a_direct_eigensolve():
    m = make_model("euler2d")
    state = np.array([1.0, 1.0, 1.0])
    a = analyze_boundary(m, state, (1.0, 0.0), formulation="linearised")
    want = np.linalg.eigvalsh(a.S)
    assert np.max(np.abs(a.eigenvalues - want)) <= 1e-12
    assert a.bc_count == a.n_negative == 1
    # every model and formulation reads its eigenvalues and count from its S;
    # only the rewritten formulation sets its own count, 0 at outflow
    for m, state, normal, pos in sampled_face_points(np.random.default_rng(57), 20):
        rewritten = ("nonlinear_rewritten",) if m.kind == "swe2d" else ()
        for formulation in ("nonlinear", "linearised") + rewritten:
            a = analyze_boundary(m, state, normal, formulation, pos=pos)
            assert a.eigenvalues.tobytes() == np.linalg.eigvalsh(a.S).tobytes()
            outflow = formulation in rewritten and swe_normal_tangential(state, normal)[0] > 0
            assert a.bc_count == (0 if outflow else a.n_negative)


def test_nonlinear_analysis_contraction_equals_the_boundary_contraction():
    # state . S state against u^T (n . A(u)) u through the coefficient
    # matrices, relative to the size of the summed terms: sampled
    # contractions near zero are cancellations (3.5e-12 relative to the value)
    for m, state, normal, pos in sampled_face_points(np.random.default_rng(58), 50):
        got = analyze_boundary(m, state, normal, pos=pos).contraction
        A, _ = coeff_matrices(m, state, pos)
        size = sum(abs(n_ax) * (np.abs(state) @ np.abs(dense_matrix(A_ax, m.n_comp))
                                @ np.abs(state)) for n_ax, A_ax in zip(normal, A))
        assert abs(got - boundary_contraction(m, state, normal, pos=pos)) <= 1e-13 * size


def test_rewritten_contraction_equals_the_plain_quadratic_form():
    # the rewritten normal form reproduces the boundary integrand for every
    # choice of the splitting parameters
    m = make_model("swe2d")
    rng = np.random.default_rng(53)
    for trial in range(100):
        U, normal = nonglancing_state(rng, sign=-1.0 if trial % 2 else 1.0)
        rew = swe_rewritten_contraction(U, normal)
        for alpha, beta in ((0.0, 0.0), (0.37, 0.82), (1.0, 1.0)):
            plain = boundary_contraction(with_params(m, alpha=alpha, beta=beta), U, normal)
            assert abs(rew - plain) <= 1e-13 * (1 + abs(plain)), trial


def test_normal_tangential_split_is_orthogonal():
    rng = np.random.default_rng(54)
    for trial in range(50):
        U, normal = nonglancing_state(rng, sign=1.0)
        an, at = swe_normal_tangential(U, normal)
        assert abs(an * an + at * at - (U[1] ** 2 + U[2] ** 2)) <= 1e-13
        assert abs(an - (normal[0] * U[1] + normal[1] * U[2])) <= 1e-15


def test_analysis_table_and_csv_row():
    m = make_model("swe2d")
    a = analyze_boundary(with_params(m, alpha=1.0, beta=1.0), np.array([1.0, -1.0, 0.0]),
                         (1.0, 0.0), formulation="linearised", face="x_low")
    text = analysis_table(a)
    assert "linearised" in text and "x_low" in text and "3" in text
    row = analysis_csv_row(a)
    assert row[0] == "x_low"
    assert row[1] == "linearised"
    assert row[-1] == 3
    assert ";" in row[4]


def test_sat_config_validation():
    mb = make_model("burgers1d")
    gb = make_grid(((0.0, 1.0),), (9,))
    with pytest.raises(ValueError, match="unknown closure"):
        make_sat_config(mb, gb, {"x_low": {"kind": "reflecting"}})
    with pytest.raises(ValueError, match="positive"):
        make_sat_config(mb, gb, {"x_low": {"kind": "characteristic", "scale": 0.0}})
    with pytest.raises(ValueError, match="finite"):
        make_sat_config(mb, gb, {"x_low": {"kind": "characteristic", "scale": np.inf}})
    with pytest.raises(ValueError, match="finite"):
        make_sat_config(mb, gb, {"x_low": {"kind": "characteristic", "g": np.inf}})
    m = make_model("swe2d")
    g = make_grid(((0.0, 1.0), (0.0, 1.0)), (8, 8), periodic=(False, True))
    with pytest.raises(ValueError, match="bad face label"):
        make_sat_config(m, g, {"z_low": {"kind": "swe_two_condition"}})
    # penalties cannot sit on a periodic axis
    with pytest.raises(ValueError):
        make_sat_config(m, g, {"y_low": {"kind": "swe_two_condition"}})
    # periodic closures must pair up and land on periodic axes
    with pytest.raises(ValueError):
        make_sat_config(m, g, {"y_low": {"kind": "periodic"}})
    with pytest.raises(ValueError):
        make_sat_config(m, g, {"x_low": {"kind": "periodic"},
                               "x_high": {"kind": "periodic"}})
    make_sat_config(m, g, {"y_low": {"kind": "periodic"},
                           "y_high": {"kind": "periodic"},
                           "x_low": {"kind": "swe_two_condition"}})


def test_sat_config_resolves_face_labels_of_the_grid():
    m = make_model("swe2d")
    g = make_grid(((0.0, 1.0), (0.0, 2.0)), (8, 6), periodic=(False, True))
    assert faces(g) == ((0, "low"), (0, "high"))
    entry = {"kind": "swe_two_condition", "g2": 1.0}
    closure = FaceClosure(kind="swe_two_condition", g2=1.0)
    for f in faces(g):
        assert make_sat_config(m, g, {face_label(g, f): entry}) == {f: closure}
    # y is periodic: no penalty sits on y_low; nonsense is no face at all
    with pytest.raises(ValueError, match="periodic"):
        make_sat_config(m, g, {"y_low": entry})
    with pytest.raises(ValueError, match="bad face label"):
        make_sat_config(m, g, {"nonsense": entry})
    # entry order is kept, and open or periodic faces are left out
    both = {"x_high": entry, "x_low": {"kind": "none"},
            "y_low": {"kind": "periodic"}, "y_high": {"kind": "periodic"}}
    assert list(make_sat_config(m, g, both)) == [(0, "high")]


def test_sat_config_refuses_options_the_closure_does_not_read():
    mb = make_model("burgers1d")
    gb = make_grid(((0.0, 1.0),), (9,))
    for bad in ({"kind": "characteristic", "g2": 1.0},
                {"kind": "characteristic", "g3": 0.5},
                {"kind": "none", "scale": 2.0},
                {"kind": "none", "g": 0.1}):
        with pytest.raises(ValueError, match="reads no"):
            make_sat_config(mb, gb, {"x_low": bad})
    ms = make_model("swe2d")
    gs = make_grid(((0.0, 1.0), (0.0, 1.0)), (8, 8), periodic=(False, True))
    with pytest.raises(ValueError, match="reads no g$"):
        make_sat_config(ms, gs, {"x_low": {"kind": "swe_two_condition", "g": 1.0}})
    with pytest.raises(ValueError, match="reads no scale"):
        make_sat_config(ms, gs, {"y_low": {"kind": "periodic", "scale": 2.0},
                                 "y_high": {"kind": "periodic"}})
    # the options each closure reads, and an entry naming itself by where
    make_sat_config(mb, gb, {"x_low": {"kind": "characteristic", "g": 0.2, "scale": 2.0}})
    make_sat_config(ms, gs, {"x_low": {"kind": "swe_two_condition", "g2": 1.0,
                                       "g3": 0.2, "scale": 2.0}})
    with pytest.raises(ValueError, match=r"^here x_high: none closure reads no g2"):
        make_sat_config(mb, gb, {"x_low": {"kind": "none"},
                                 "x_high": {"kind": "none", "g2": 1.0}},
                        where=lambda label: f"here {label}")


def test_characteristic_penalty_is_active_only_at_inflow():
    m = make_model("burgers1d")
    g = make_grid(((0.0, 1.0),), (17,))
    ops = build_operators(g, (2, 1))
    sat = make_sat_config(m, g, {"x_low": {"kind": "characteristic", "g": 0.25,
                                           "scale": 1.0}})
    u = np.full((1, 17), 0.9)
    forward, backward = skew_evaluator(m, g, ops, u), skew_evaluator(m, g, ops, -u)
    field = build_sat(forward, u, sat, False)
    # u(0) = 0.9 > 0 means u_n = -0.9 < 0 at the left face: active
    sigma = -0.9 / 3.0
    want = sigma * (0.9 - 0.25) / ops[0].P[0]
    assert abs(field[0, 0] - want) <= 1e-15
    assert not field[0, 1:].any()
    # outflow at the left face: inactive
    assert not build_sat(backward, -u, sat, False).any()
    assert build_sat(forward, u, None, False) is None
    # the face is picked by the operator's V, not by the state it acts on
    assert build_sat(forward, -u, sat, False)[0, 0] == sigma * (-0.9 - 0.25) / ops[0].P[0]
    # the dual's boundary matrix is -n V / 3: the primal's outflow face is
    # its inflow face, and the other way round
    assert not build_sat(forward, u, sat, True).any()
    dual = build_sat(backward, -u, sat, True)
    assert dual[0, 0] == sigma * (-0.9 - 0.25) / ops[0].P[0] and not dual[0, 1:].any()
    # the default scale is 3, the Jacobian's (_characteristic_penalty)
    default = make_sat_config(m, g, {"x_low": {"kind": "characteristic", "g": 0.25}})
    assert default[(0, "low")].scale == FaceClosure("characteristic").scale == 3.0
    assert abs(build_sat(forward, u, default, False)[0, 0] - 3.0 * want) <= 1e-15 * abs(3.0 * want)


@pytest.mark.parametrize("order", [(2, 1), (4, 2)])
def test_characteristic_closure_never_adds_energy_at_a_homogeneous_face(order):
    # flux plus penalty of a face closed with g = 0, over primal and dual
    # evaluations at V = U and at a frozen V != U, on states of both signs:
    # the penalty reads the boundary matrix of the operator it closes, so
    # the face rate is 2 u^2 S (scale - 1) at inflow (S < 0) and -2 u^2 S at
    # outflow, never positive
    m = make_model("burgers1d")
    g = make_grid(((0.0, 1.0),), (9,))
    ops = build_operators(g, order)
    rng = np.random.default_rng(0)
    U, V = rng.uniform(-1.0, 1.0, (2, 1, 200, 9))
    for label in ("x_low", "x_high"):
        for scale in (1.0, 2.0, 3.0):
            sat = make_sat_config(m, g, {label: {"kind": "characteristic", "scale": scale}})
            for coeff in (None, V):
                for dual in (False, True):
                    rep = energy_report(m, g, ops, U, coeff, dual, sat)
                    face, penalty = rep.face_fluxes[label], rep.sat_contribution
                    worst = np.max((face + penalty) / (np.abs(face) + np.abs(penalty)))
                    assert worst <= 1e-12, (label, scale, coeff is None, dual, worst)


def test_characteristic_closure_refuses_other_models():
    m = make_model("swe2d")
    g = make_grid(((0.0, 1.0), (0.0, 1.0)), (8, 8), periodic=(False, True))
    with pytest.raises(ValueError, match="burgers1d"):
        make_sat_config(m, g, {"x_low": {"kind": "characteristic"}})
    mb = make_model("burgers1d")
    gb = make_grid(((0.0, 1.0),), (9,))
    with pytest.raises(ValueError, match="swe2d"):
        make_sat_config(mb, gb, {"x_low": {"kind": "swe_two_condition"}})


def test_two_condition_face_rate_telescopes():
    # flux plus penalty contribution collapses to the two-condition bound
    # shape at every active node, primal and dual; the dual's boundary
    # matrix is the primal's negated, so x_low is its inflow face when the
    # flow is reversed
    m = make_model("swe2d", alpha=0.4, beta=0.7)
    g = make_grid(((0.0, 1.0), (0.0, 1.0)), (12, 10), periodic=(False, True))
    ops = build_operators(g, (4, 2))
    Y = np.meshgrid(g.coords[0], g.coords[1], indexing="ij")[1]
    phi = 1.0 + 0.05 * np.sin(2 * np.pi * Y)
    u = 0.6 + 0.1 * np.cos(2 * np.pi * Y)
    v = 0.2 * np.sin(2 * np.pi * Y) + 0.1
    g2, g3 = 1.3, 0.4
    sat = make_sat_config(m, g, {"x_low": {"kind": "swe_two_condition", "g2": g2, "g3": g3}})
    sat0 = make_sat_config(m, g, {"x_low": {"kind": "swe_two_condition"}})
    for dual in (False, True):
        U = swe_transform(phi, -u if dual else u, v)
        rep = energy_report(m, g, ops, U, dual=dual, sat=sat)
        face_rate = rep.face_fluxes["x_low"] + rep.sat_contribution
        Uf = U[:, 0, :]
        an, _ = swe_normal_tangential(Uf, (1.0 if dual else -1.0, 0.0))
        assert np.all(an < 0.0)
        manual = float(np.sum(ops[1].P * (-Uf[0] ** 4 + g2 ** 4 + g3 ** 4)
                              / (np.abs(an) * np.sqrt(Uf[0]))))
        assert abs(face_rate - manual) <= 1e-12 * (1 + abs(manual)), dual
        # homogeneous data makes the face strictly dissipative
        rep0 = energy_report(m, g, ops, U, dual=dual, sat=sat0)
        assert rep0.face_fluxes["x_low"] + rep0.sat_contribution < 0.0, dual


def test_two_condition_penalty_skips_outflow_nodes():
    m = make_model("swe2d")
    g = make_grid(((0.0, 1.0), (0.0, 1.0)), (8, 8), periodic=(False, True))
    ops = build_operators(g, (2, 1))
    # u < 0: the low-x face sees outflow (U_n = +|u| sqrt(phi) > 0)
    U = swe_transform(np.ones((8, 8)), -0.5 * np.ones((8, 8)), np.zeros((8, 8)))
    sat = make_sat_config(m, g, {"x_low": {"kind": "swe_two_condition", "g2": 1.0}})
    assert not build_sat(skew_evaluator(m, g, ops, U), U, sat, False).any()


def test_two_condition_penalty_checks_admissibility_on_its_face_only():
    # a frozen residual acts on U with coefficients at the admissible V, so
    # U may leave the admissible set away from the face the penalty reads
    m = make_model("swe2d")
    g = make_grid(((0.0, 1.0), (0.0, 1.0)), (9, 9), periodic=(False, True))
    ops = build_operators(g, (2, 1))
    V = swe_transform(np.ones((9, 9)), 0.5 * np.ones((9, 9)), np.zeros((9, 9)))
    sat = make_sat_config(m, g, {"x_low": {"kind": "swe_two_condition", "g2": 1.0}})
    U = V.copy()
    U[0, 4, 4] = -0.3
    plain = sk.eval_primal_residual(m, g, ops, U, V)
    closed = sk.eval_primal_residual(m, g, ops, U, V, sat=sat)
    assert np.array_equal(closed.spatial, plain.spatial)
    assert closed.sat[:, 0].any() and not closed.sat[:, 1:].any()
    # a bad node on the face layer is still refused
    U = V.copy()
    U[0, 0, 4] = -0.3
    with pytest.raises(ValueError, match="depth"):
        sk.eval_primal_residual(m, g, ops, U, V, sat=sat)


def test_splitting_overrides_refuse_other_models():
    burgers = make_model("burgers1d")
    euler = make_model("euler2d")
    state = np.array([1.0, 0.5, 0.2])
    with pytest.raises(ValueError, match="does not accept parameters"):
        boundary_contraction(with_params(burgers, alpha=0.3), [0.5], (1.0,))
    with pytest.raises(ValueError, match="does not accept parameters"):
        boundary_contraction(with_params(euler, beta=0.3), state, (1.0, 0.0))
    with pytest.raises(ValueError, match="does not accept parameters"):
        analyze_boundary(with_params(euler, alpha=0.3), state, (1.0, 0.0))
    with pytest.raises(ValueError, match="does not accept parameters"):
        analyze_boundary(with_params(burgers, beta=0.3), [0.5], (1.0,))
    # no override at all is fine for every model
    assert analyze_boundary(euler, state, (1.0, 0.0)).alpha is None
