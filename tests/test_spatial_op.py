"""Tests for the discrete spatial operator and its linearisations."""

import re

import numpy as np
import pytest

import skewform as sk
from skewform import spatial_op
from skewform.boundary import make_sat_config
from skewform.energy import report_from_residual
from skewform.models import MODEL_KINDS, coeff_matrices, make_model, sample_state
from skewform.sbp_core import (
    apply_derivative,
    boundary_quadrature,
    build_operators,
    face_label,
    face_layer,
    faces,
    inner_product,
    make_grid,
)
from skewform.spatial_op import (
    _standard_matrices,
    bilinear_face_functional,
    eval_dual_residual,
    eval_new_linearised_pair,
    eval_primal_residual,
    eval_remainder_H,
    matfield_apply,
    skew_evaluator,
    standard_evaluator,
)

from dense_probe import dense_operator, norm_weights, periodic_frozen_setup

ORDERS = [(2, 1), (4, 2)]


def small_setup(kind, order, seed):
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
    ops = build_operators(g, order)
    rng = np.random.default_rng(seed)
    return m, g, ops, rng


def test_frozen_coefficients_at_the_state_match_nonlinear_bitwise():
    for kind in ("burgers1d", "euler2d", "euler3d_cyl", "swe2d"):
        m, g, ops, rng = small_setup(kind, (4, 2), 21)
        U = sample_state(m, g.shape, rng)
        a = eval_primal_residual(m, g, ops, U)
        b = eval_primal_residual(m, g, ops, U, U)
        assert np.array_equal(a.spatial, b.spatial), kind
        assert np.array_equal(a.R, b.R), kind


def test_dual_spatial_part_is_the_bitwise_negation_of_the_primal():
    for kind in ("burgers1d", "euler2d", "euler3d_cyl", "swe2d"):
        for order in ORDERS:
            m, g, ops, rng = small_setup(kind, order, 23)
            U = sample_state(m, g.shape, rng)
            V = sample_state(m, g.shape, rng)
            rp = eval_primal_residual(m, g, ops, U, V)
            rd = eval_dual_residual(m, g, ops, U, V)
            assert np.array_equal(rd.spatial, -rp.spatial), (kind, order)


def test_dual_defaults_to_self_adjoint_coefficients():
    m, g, ops, rng = small_setup("burgers1d", (4, 2), 24)
    U = sample_state(m, g.shape, rng)
    a = eval_dual_residual(m, g, ops, U)
    b = eval_dual_residual(m, g, ops, U, U)
    assert np.array_equal(a.spatial, b.spatial)


def test_duality_gap_equals_the_face_functional():
    for kind in ("burgers1d", "euler2d", "euler3d_cyl", "swe2d"):
        for order in ORDERS:
            m, g, ops, rng = small_setup(kind, order, 25)
            for trial in range(10):
                U = sample_state(m, g.shape, rng)
                Phi = rng.normal(size=U.shape)
                V = sample_state(m, g.shape, rng)
                rp = eval_primal_residual(m, g, ops, U, V)
                rd = eval_dual_residual(m, g, ops, Phi, V)
                gap = inner_product(g, ops, Phi, rp.spatial) - inner_product(
                    g, ops, U, rd.spatial)
                bf = bilinear_face_functional(m, g, ops, U, Phi, V)
                scale = 1.0 + abs(gap) + abs(bf)
                assert abs(gap - bf) <= 1e-12 * scale, (kind, order, trial)


def test_face_functional_takes_nested_lists_like_the_residuals():
    # Every evaluator reads its states through np.asarray, so nested lists
    # give the bits of the arrays they hold.
    for kind in ("burgers1d", "swe2d"):
        m, g, ops, rng = small_setup(kind, (4, 2), 26)
        U, V = sample_state(m, g.shape, rng), sample_state(m, g.shape, rng)
        Phi = rng.normal(size=U.shape)
        want = bilinear_face_functional(m, g, ops, U, Phi, V)
        got = bilinear_face_functional(m, g, ops, U.tolist(), Phi.tolist(), V.tolist())
        assert got == want, kind
        assert np.array_equal(eval_primal_residual(m, g, ops, U.tolist(), V.tolist()).R,
                              eval_primal_residual(m, g, ops, U, V).R), kind


def test_face_functional_vanishes_on_fully_periodic_grids():
    m = sk.make_model("burgers1d")
    g = make_grid(((0.0, 1.0),), (16,), periodic=(True,))
    ops = build_operators(g, (4, 2))
    rng = np.random.default_rng(27)
    U = rng.normal(size=(1, 16))
    Phi = rng.normal(size=(1, 16))
    assert bilinear_face_functional(m, g, ops, U, Phi, U) == 0.0
    r = eval_primal_residual(m, g, ops, U)
    assert r.face_terms == {}


def test_face_terms_cover_exactly_the_nonperiodic_faces():
    m, g, ops, rng = small_setup("swe2d", (2, 1), 28)
    U = sample_state(m, g.shape, rng)
    r = eval_primal_residual(m, g, ops, U)
    assert sorted(r.face_terms) == ["x_high", "x_low"]


def test_new_linearised_pair_degenerates_bitwise_at_zero_perturbation():
    for kind in ("burgers1d", "swe2d"):
        m, g, ops, rng = small_setup(kind, (4, 2), 29)
        Ub = sample_state(m, g.shape, rng)
        rm, rp = eval_new_linearised_pair(m, g, ops, Ub, np.zeros_like(Ub))
        full = eval_primal_residual(m, g, ops, Ub)
        assert np.array_equal(rm.R, full.R), kind
        assert not rp.R.any(), kind


def test_new_linearised_pair_applies_its_forcing_to_the_mean_equation():
    m, g, ops, rng = small_setup("swe2d", (4, 2), 30)
    Ub = sample_state(m, g.shape, rng)
    Up = 0.1 * sample_state(m, g.shape, rng)
    F = rng.normal(size=Ub.shape)
    rm0, rp0 = eval_new_linearised_pair(m, g, ops, Ub, Up)
    rm, rp = eval_new_linearised_pair(m, g, ops, Ub, Up, forcing=F)
    assert np.array_equal(rm.R, rm0.R - F)
    assert np.array_equal(rp.R, rp0.R)


def test_residuals_record_the_flux_sign_of_their_energy_balance():
    m, g, ops, rng = small_setup("swe2d", (2, 1), 32)
    U, V = sample_state(m, g.shape, rng), sample_state(m, g.shape, rng)
    assert eval_primal_residual(m, g, ops, U, V).flux_sign == -2.0
    assert eval_dual_residual(m, g, ops, U, V).flux_sign == 2.0
    assert standard_evaluator(m, g, ops, V)(U).flux_sign == -2.0


def test_decomposition_closes_with_the_remainder():
    # total spatial operator at mean+pert = mean part + linearised part + H
    for kind in ("burgers1d", "euler2d", "euler3d_cyl", "swe2d"):
        for order in ORDERS:
            m, g, ops, rng = small_setup(kind, order, 31)
            for trial in range(5):
                Ub = sample_state(m, g.shape, rng)
                Up = 0.1 * sample_state(m, g.shape, rng)
                total = eval_primal_residual(m, g, ops, Ub + Up)
                rm, rp = eval_new_linearised_pair(m, g, ops, Ub, Up)
                H = eval_remainder_H(m, g, ops, Ub, Up)
                defect = total.spatial - (rm.spatial + rp.spatial + H)
                scale = 1.0 + np.max(np.abs(total.spatial))
                assert np.max(np.abs(defect)) <= 1e-12 * scale, (kind, order)


def test_remainder_is_exactly_quadratic_for_burgers():
    # halving the perturbation by a power of two scales H by exactly 1/4
    m, g, ops, rng = small_setup("burgers1d", (4, 2), 33)
    Ub = sample_state(m, g.shape, rng)
    Up = rng.normal(size=Ub.shape)
    H1 = eval_remainder_H(m, g, ops, Ub, Up)
    H2 = eval_remainder_H(m, g, ops, Ub, 0.5 * Up)
    assert np.array_equal(H2, 0.25 * H1)


def test_standard_linearised_burgers_matches_the_textbook_formula():
    m, g, ops, rng = small_setup("burgers1d", (4, 2), 35)
    mean = sample_state(m, g.shape, rng)
    up = rng.normal(size=mean.shape)
    r = standard_evaluator(m, g, ops, mean)(up)
    manual = mean * apply_derivative(ops[0], up, axis=0) + apply_derivative(
        ops[0], mean, axis=0) * up
    assert np.max(np.abs(r.spatial - manual)) <= 1e-13 * (1 + np.max(np.abs(manual)))


def test_forcing_is_subtracted_from_the_residual():
    m, g, ops, rng = small_setup("burgers1d", (2, 1), 37)
    U = sample_state(m, g.shape, rng)
    F = rng.normal(size=U.shape)
    r0 = eval_primal_residual(m, g, ops, U)
    r1 = eval_primal_residual(m, g, ops, U, forcing=F)
    assert np.array_equal(r1.R, r0.R - F)


def test_mode_objects_validate_their_inputs():
    m, g, ops, rng = small_setup("burgers1d", (2, 1), 38)
    U = sample_state(m, g.shape, rng)
    with pytest.raises(ValueError):
        eval_primal_residual(m, g, ops, U, np.ones((1, 3)))
    # a coefficient state of another shape is refused, naming both shapes,
    # where it would broadcast (periodic) or index past its end (bounded)
    evaluators = (eval_primal_residual, eval_dual_residual,
                  lambda m, g, ops, U, V: skew_evaluator(m, g, ops, V)(U),
                  lambda m, g, ops, U, V: standard_evaluator(m, g, ops, V)(U),
                  sk.energy_report, lambda *a: sk.energy_report(*a, dual=True),
                  lambda m, g, ops, U, V: bilinear_face_functional(m, g, ops, U, U, V))
    for periodic in (True, False):
        g = make_grid(((0.0, 1.0),), (32,), periodic=(periodic,))
        ops = build_operators(g, (2, 1))
        U = sample_state(m, g.shape, rng)
        for V in (np.ones((1, 1)), np.ones((1,))):
            shapes = re.escape(str(V.shape)) + ".*" + re.escape(str(U.shape))
            for evaluate in evaluators:
                with pytest.raises(ValueError, match=shapes):
                    evaluate(m, g, ops, U, V)
        # an operator's V without batch axes acts on a stack of states
        stack = np.stack([U, -U], axis=1)
        for build in (skew_evaluator, standard_evaluator):
            assert build(m, g, ops, U)(stack).R.shape == stack.shape


def test_an_operator_refuses_a_state_of_another_grid():
    # the acted-on state is checked as the coefficient state is, by name,
    # where numpy raised "non-broadcastable output operand" (or a face
    # functional paired layers of the wrong grid, and the remainder raised
    # numpy's "operands could not be broadcast" or apply_derivative's node
    # count message)
    m, g, ops, rng = small_setup("swe2d", (4, 2), 40)
    V = sample_state(m, g.shape, rng)
    for other in ((3, 8, 10), (3, 9, 8), (2, 8, 9), (3,)):
        W = np.ones(other)
        shapes = re.escape(str(other)) + r"; the grid takes \(3, 8, 9\)"
        for build in (skew_evaluator, standard_evaluator):
            with pytest.raises(ValueError, match="^state has shape " + shapes):
                build(m, g, ops, V)(W)
        with pytest.raises(ValueError, match=shapes):
            skew_evaluator(m, g, ops, V).face_functional(V, W)
        with pytest.raises(ValueError, match=shapes):
            bilinear_face_functional(m, g, ops, W, V, V)
        for states in ((W, V), (V, W)):
            with pytest.raises(ValueError, match="^state has shape " + shapes):
                eval_remainder_H(m, g, ops, *states)


def test_an_operator_refuses_sbp_operators_of_another_grid():
    # ops built for other node counts or periodicity broke the energy
    # balance silently: before this check, the report of V below with ops
    # periodic in y read volume_residual -1.02, and the burgers march below
    # reached |volume_residual| 4.1e-3
    m = make_model("swe2d", alpha=0.4, beta=0.7, f0=0.7, f1=0.3)
    g = make_grid(((0.0, 1.0), (0.0, 1.0)), (9, 13))
    V = sample_state(m, g.shape, np.random.default_rng(41))
    wrong = (build_operators(make_grid(((0.0, 1.0), (0.0, 1.0)), (9, 13),
                                       periodic=(False, True)), (4, 2)),
             build_operators(make_grid(((0.0, 1.0), (0.0, 1.0)), (13, 9)), (4, 2)),
             build_operators(make_grid(((0.0, 1.0),), (9,)), (4, 2)))
    for ops in wrong:
        built = tuple((op.n, op.periodic) for op in ops)
        message = "^" + re.escape(f"ops are built for (nodes, periodic) {built} per axis;"
                                  " the grid has ((9, False), (13, False))") + "$"
        for build in (skew_evaluator, standard_evaluator):
            with pytest.raises(ValueError, match=message):
                build(m, g, ops, V)
        with pytest.raises(ValueError, match=message):
            sk.energy_report(m, g, ops, V)
    burgers = make_model("burgers1d")
    g = make_grid(((0.0, 1.0),), (33,))
    periodic_ops = build_operators(make_grid(((0.0, 1.0),), (33,), periodic=(True,)), (4, 2))
    U = 0.5 + 0.3 * np.sin(2.0 * np.pi * g.positions[0])[None]
    sc = sk.Scenario(burgers, g, periodic_ops, "nonlinear", U, 0.004, 0.04)
    with pytest.raises(ValueError, match="^ops are built for"):
        sk.march(sc)


def _mismatched_discretisation(case):
    """(model, grid, ops, state, message) of a discretisation whose parts do
    not belong together, and the message that refuses it."""
    if case == "periodic_ops":
        m, g = make_model("burgers1d"), make_grid(((0.0, 1.0),), (33,))
        ops = build_operators(make_grid(((0.0, 1.0),), (33,), periodic=(True,)), (4, 2))
        message = ("ops are built for (nodes, periodic) ((33, True),) per axis;"
                   " the grid has ((33, False),)")
    elif case == "cylinder_through_the_axis":
        m = make_model("euler3d_cyl")
        g = make_grid(((-0.5, 0.5), (0.0, 1.0), (0.0, 1.0)), (8, 8, 8),
                      periodic=(False, False, True), axis_names=m.axis_names)
        ops, message = build_operators(g, (2, 1)), "cylindrical grids need r_min > 0"
    else:
        kind, extents, shape = {"1d_model_on_2d_grid": ("burgers1d", ((0.0, 1.0),) * 2, (9, 9)),
                                "2d_model_on_1d_grid": ("swe2d", ((0.0, 1.0),), (16,))}[case]
        m, g = make_model(kind), make_grid(extents, shape)
        ops = build_operators(g, (2, 1))
        message = f"model '{kind}' is {m.dim}D but the grid is {g.dim}D"
    U = sample_state(m, g.shape, np.random.default_rng(43))
    return m, g, ops, U, "^" + re.escape(message) + "$"


@pytest.mark.parametrize("evaluate", [
    skew_evaluator, standard_evaluator, eval_primal_residual, eval_dual_residual,
    lambda m, g, ops, U: eval_new_linearised_pair(m, g, ops, U, 0.5 * U),
    lambda m, g, ops, U: bilinear_face_functional(m, g, ops, U, U, U),
    lambda m, g, ops, U: eval_remainder_H(m, g, ops, U, 0.5 * U),
    sk.energy_report,
], ids=["skew_evaluator", "standard_evaluator", "eval_primal_residual", "eval_dual_residual",
        "eval_new_linearised_pair", "bilinear_face_functional", "eval_remainder_H",
        "energy_report"])
@pytest.mark.parametrize("case", ["periodic_ops", "1d_model_on_2d_grid", "2d_model_on_1d_grid",
                                  "cylinder_through_the_axis"])
def test_every_evaluator_refuses_a_discretisation_whose_parts_do_not_belong_together(
        evaluate, case):
    # each passes the one model-grid-ops check before any work: without it
    # eval_remainder_H took periodic ops on a bounded grid, swe2d evaluated
    # on a 1D grid, burgers on a 2D grid raised IndexError and a cylinder
    # through its axis evaluated
    m, g, ops, U, message = _mismatched_discretisation(case)
    with pytest.raises(ValueError, match=message):
        evaluate(m, g, ops, U)


def test_the_wrappers_act_with_an_unbatched_coefficient_state_on_a_stack():
    # the wrappers pass V to the builders, whose V without batch axes acts
    # on each state of a stack with the bits of its own evaluation
    m, g, ops, rng = small_setup("swe2d", (4, 2), 42)
    V, U, Phi = (sample_state(m, g.shape, rng) for _ in range(3))
    stack, duals = np.stack([U, 0.5 * U], axis=1), np.stack([Phi, -Phi], axis=1)
    for evaluate in (eval_primal_residual, eval_dual_residual):
        got = evaluate(m, g, ops, stack, V).R
        for k in range(2):
            assert got[:, k].tobytes() == evaluate(m, g, ops, stack[:, k], V).R.tobytes()
    got = bilinear_face_functional(m, g, ops, stack, duals, V)
    assert [float(v) for v in got] == [bilinear_face_functional(m, g, ops, stack[:, k],
                                                                duals[:, k], V)
                                       for k in range(2)]


def test_the_wrappers_refuse_a_stacked_coefficient_state_on_one_state():
    # an operator knows its coefficient state's batch shape, and refuses a
    # state whose batch axes do not take it before any kernel runs; numpy
    # met each of these with "non-broadcastable output operand with shape
    # (16,) doesn't match the broadcast shape (2,16)"
    m = make_model("burgers1d")
    g = make_grid(((0.0, 1.0),), (16,))
    ops = build_operators(g, (2, 1))
    U = np.linspace(0.1, 1.0, 16)[None]
    V = np.stack([U, 2 * U], axis=1)
    message = "^" + re.escape("state has shape (1, 16), whose batch axes () do not take"
                              " the coefficient state's batch axes (2,)") + "$"
    calls = (lambda: eval_primal_residual(m, g, ops, U, V),
             lambda: eval_dual_residual(m, g, ops, U, V),
             lambda: eval_new_linearised_pair(m, g, ops, U, V - U),
             lambda: bilinear_face_functional(m, g, ops, U, U, V),
             lambda: bilinear_face_functional(m, g, ops, V, U, V),
             lambda: eval_remainder_H(m, g, ops, V, U))
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    # a stack of V's batch shape, or of more axes that take it, is evaluated
    W = np.stack([np.stack([U, 3 * U], axis=1)] * 2, axis=1)
    got = eval_primal_residual(m, g, ops, W, V).R
    for k in range(2):
        assert got[:, 1, k].tobytes() == eval_primal_residual(m, g, ops, U * (1 + 2 * k),
                                                              V[:, k]).R.tobytes()
    with pytest.raises(ValueError, match=re.escape("batch axes (1,) do not take")):
        eval_primal_residual(m, g, ops, U[:, None], V)


def test_shape_mismatch_is_rejected():
    m, g, ops, rng = small_setup("swe2d", (2, 1), 39)
    with pytest.raises(ValueError):
        eval_primal_residual(m, g, ops, np.ones((2,) + g.shape))


@pytest.mark.parametrize("kind", ["burgers1d", "euler2d"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_residuals_refuse_non_finite_states(kind, bad):
    m, g, ops, rng = small_setup(kind, (4, 2), 23)
    good = sample_state(m, g.shape, rng)
    broken = good.copy()
    broken.flat[3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        eval_primal_residual(m, g, ops, broken)
    with pytest.raises(ValueError, match="non-finite"):
        eval_primal_residual(m, g, ops, good, broken)
    with pytest.raises(ValueError, match="non-finite"):
        eval_dual_residual(m, g, ops, broken)
    with pytest.raises(ValueError, match="non-finite"):
        eval_new_linearised_pair(m, g, ops, broken, 0.1 * good)
    with pytest.raises(ValueError, match="non-finite"):
        eval_new_linearised_pair(m, g, ops, good, broken)


def dense_matfield(M, W, transpose=False, stored=None):
    """Reference product over every entry of M, rows then columns, each row
    summed from +0.0.  With stored, an (n_comp, n_comp) mask of the entries
    a table holds, each row sums only those, from its first product, and a
    row that holds none is +0.0."""
    out = np.zeros_like(W)
    for a in range(W.shape[0]):
        started = stored is None
        for b in range(W.shape[0]):
            key = (b, a) if transpose else (a, b)
            if stored is not None and not stored[key]:
                continue
            if started:
                out[a] += M[key] * W[b]
            else:
                out[a] = M[key] * W[b]
                started = True
    return out


def signed_zeros(U, rng):
    """U with about a fifth of its entries 0.0 and a fifth -0.0."""
    U = U.copy()
    U[rng.random(U.shape) < 0.2] = 0.0
    U[rng.random(U.shape) < 0.2] = -0.0
    return U


def densify(M, n_comp, s):
    """An entry table as the dense (n_comp, n_comp, *s) array."""
    out = np.zeros((n_comp, n_comp) + s)
    for key, value in M.items():
        out[key] = value
    return out


def stored(M, n_comp):
    """The (n_comp, n_comp) mask of the entries an entry table holds."""
    mask = np.zeros((n_comp, n_comp), dtype=bool)
    for key in M:
        mask[key] = True
    return mask


def pattern_cases(kind, order, seed):
    """small_setup's model, plus for swe2d one whose pattern holds entries
    that are zero at every state: 1 - 3 alpha = 0 and f0 = f1 = 0."""
    m, g, ops, rng = small_setup(kind, order, seed)
    models = [m]
    if kind == "swe2d":
        models.append(make_model("swe2d", alpha=1 / 3, beta=1 / 3))
    return models, g, ops, rng


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_matfield_apply_on_the_pattern_matches_the_dense_loop_bitwise(kind):
    models, g, ops, rng = pattern_cases(kind, (4, 2), 43)
    for m in models:
        for trial in range(3):
            V = sample_state(m, g.shape, rng)
            first = 1 if kind == "swe2d" else 0  # the depth stays admissible
            V[first:] = signed_zeros(V[first:], rng)
            A, C = coeff_matrices(m, V, g.positions)
            W = signed_zeros(sample_state(m, g.shape, rng), rng)
            # a full random matrix: rows of three or four products, whose
            # sum depends on the order they are added in
            full = signed_zeros(rng.normal(size=(m.n_comp,) + W.shape), rng)
            full_table = {key: full[key] for key in np.ndindex(m.n_comp, m.n_comp)}
            # an accumulator holding +0.0 but no -0.0, as in spatial_op's sums
            X = rng.normal(size=W.shape)
            X[rng.random(X.shape) < 0.3] = 0.0
            for M in (*A, C, full_table):
                for transpose in (False, True):
                    dense = densify(M, m.n_comp, g.shape)
                    # a fresh field sums each row from its first product, so
                    # a zero may be -0.0; plus +0.0 it is the sum from +0.0
                    got = matfield_apply(M, W, transpose=transpose)
                    want = dense_matfield(dense, W, transpose, stored=stored(M, m.n_comp))
                    assert got.tobytes() == want.tobytes()
                    assert (got + 0.0).tobytes() == \
                        dense_matfield(dense, W, transpose).tobytes()
                    # each row's sum is added to out once: X + (p1 + p2),
                    # not (X + p1) + p2
                    out = X.copy()
                    assert matfield_apply(M, W, transpose, out) is out
                    assert out.tobytes() == (X + got).tobytes()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_residual_matches_the_dense_assembly_bitwise(kind):
    # spatial part and face terms against every entry of A and C, with
    # A S formed on the whole grid before its face layers are read
    models, g, ops, rng = pattern_cases(kind, (4, 2), 47)
    for m in models:
        V = sample_state(m, g.shape, rng)
        W = signed_zeros(sample_state(m, g.shape, rng), rng)
        A, C = coeff_matrices(m, V, g.positions)
        A = [densify(M, m.n_comp, g.shape) for M in A]
        C = densify(C, m.n_comp, g.shape)
        want = np.zeros_like(W)
        for ax in range(g.dim):
            want += apply_derivative(ops[ax], dense_matfield(A[ax], W), ax)
            want += dense_matfield(A[ax], apply_derivative(ops[ax], W, ax), True)
        want += dense_matfield(C, W)
        res = eval_primal_residual(m, g, ops, W, V)
        assert res.spatial.tobytes() == want.tobytes()
        for face in faces(g):
            AW = face_layer(g, dense_matfield(A[face[0]], W), face)
            bq = boundary_quadrature(g, ops, face_layer(g, W, face), AW, face)
            assert res.face_terms[face_label(g, face)] == bq


@pytest.mark.parametrize("kind", ["burgers1d", "swe2d"])
@pytest.mark.parametrize("order", ORDERS)
def test_standard_residual_matches_the_dense_assembly_bitwise(kind, order):
    # sum_ax M_ax D_ax W + N W against every entry of M and N, on a mean and
    # a state holding zeros of both signs
    m, g, ops, rng = small_setup(kind, order, 57)
    first = 1 if kind == "swe2d" else 0  # the depth stays admissible
    for trial in range(3):
        V = sample_state(m, g.shape, rng)
        V[first:] = signed_zeros(V[first:], rng)
        W = signed_zeros(sample_state(m, g.shape, rng), rng)
        M, N = _standard_matrices(m, g, ops, V)
        want = np.zeros_like(W)
        for ax in range(g.dim):
            want += dense_matfield(densify(M[ax], m.n_comp, g.shape),
                                   apply_derivative(ops[ax], W, ax))
        want += dense_matfield(densify(N, m.n_comp, g.shape), W)
        got = standard_evaluator(m, g, ops, V)(W).spatial
        assert got.tobytes() == want.tobytes()


def test_standard_transport_matrices_stay_on_the_swe_pattern():
    # the standard linearisation's tables are walked in key order, so their
    # keys are row-major; M_ax has the entries of the skew-form A_ax, for
    # burgers1d as for swe2d
    for kind in ("burgers1d", "swe2d"):
        m, g, ops, rng = small_setup(kind, (4, 2), 53)
        for trial in range(5):
            qbar = sample_state(m, g.shape, rng)
            M, N = _standard_matrices(m, g, ops, qbar)
            A, _ = coeff_matrices(m, sample_state(m, g.shape, rng), g.positions)
            assert len(M) == g.dim
            for table in (*M, N):
                assert list(table) == sorted(table)
            for ax in range(g.dim):
                written = {key for key, field in M[ax].items() if field.any()}
                assert written <= set(A[ax])
            if kind == "burgers1d":
                # M = mean and N = d_x mean: u_bar u'_x + u_bar_x u'
                assert np.array_equal(M[0][(0, 0)], qbar[0])
                assert np.array_equal(N[(0, 0)], apply_derivative(ops[0], qbar, 0)[0])


def test_swe_standard_linearisation_takes_its_mean_in_state_variables():
    # a uniform mean (phi, u, v) = (4, 1, 0.5) without Coriolis leaves the
    # transport terms M1 q'_x + M2 q'_y at the primitive mean; read as
    # primitive, its state form (4, 2, 1) would give other speeds
    m = make_model("swe2d")
    g = make_grid(((0.0, 1.0), (0.0, 1.0)), (9, 8), periodic=(False, True))
    ops = build_operators(g, (4, 2))
    rng = np.random.default_rng(55)
    q = rng.normal(size=(3,) + g.shape)
    phi, u, v = 4.0, 1.0, 0.5
    V = sk.swe_transform(*(np.array([phi, u, v])[:, None, None] * np.ones((3,) + g.shape)))
    r = standard_evaluator(m, g, ops, V)(q)
    qx, qy = (apply_derivative(ops[ax], q, ax) for ax in range(2))
    manual = np.stack([u * qx[0] + phi * qx[1] + v * qy[0] + phi * qy[2],
                       qx[0] + u * qx[1] + v * qy[1],
                       u * qx[2] + qy[0] + v * qy[2]])
    assert np.max(np.abs(r.spatial - manual)) <= 1e-13 * (1 + np.max(np.abs(manual)))


def test_standard_linearisation_refuses_the_models_it_does_not_cover():
    m, g, ops, rng = small_setup("euler2d", (2, 1), 54)
    U, V = sample_state(m, g.shape, rng), sample_state(m, g.shape, rng)
    with pytest.raises(ValueError, match="covers burgers1d and swe2d, not 'euler2d'"):
        standard_evaluator(m, g, ops, V)(U)



# Velocity components per kind, which take signed zeros in the batched test.
_VELOCITIES = {"burgers1d": (0,), "euler2d": (0, 1), "euler3d_cyl": (0, 1, 2),
               "swe2d": (1, 2)}
_BATCH_CLOSURES = {"burgers1d": {"x_low": {"kind": "characteristic", "g": 0.1},
                                 "x_high": {"kind": "characteristic"}},
                   "swe2d": {"x_low": {"kind": "swe_two_condition"},
                             "x_high": {"kind": "swe_two_condition"}}}
_BATCH_GRIDS = {"burgers1d": (((0.0, 1.0),), (14,)),
                "euler2d": (((0.0, 1.0), (0.0, 1.0)), (9, 8)),
                "euler3d_cyl": (((0.3, 1.3), (0.0, 1.0), (0.0, 1.0)), (8, 9, 8)),
                "swe2d": (((0.0, 1.0), (0.0, 1.0)), (8, 9))}


def _same_bits(per_trial, batched):
    """Each trial's value or field has the bits of its batch element."""
    batched = np.asarray(batched)
    for t, value in enumerate(per_trial):
        element = batched[:, t] if batched.ndim > 1 else batched[t]
        assert np.asarray(value, dtype=np.float64).tobytes() \
            == np.ascontiguousarray(element).tobytes(), t


def _same_residual(per_trial, batched):
    _same_bits([r.R for r in per_trial], batched.R)
    _same_bits([r.spatial for r in per_trial], batched.spatial)
    if batched.sat is not None:
        _same_bits([r.sat for r in per_trial], batched.sat)
    for label, value in batched.face_terms.items():
        _same_bits([r.face_terms[label] for r in per_trial], value)


@pytest.mark.parametrize("periodic", [False, True], ids=["bounded", "periodic"])
@pytest.mark.parametrize("order", ORDERS, ids=["21", "42"])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_a_stack_of_trials_gives_each_trials_bits(kind, order, periodic):
    m = make_model(kind) if kind != "swe2d" else make_model(
        "swe2d", alpha=0.4, beta=0.7, f0=0.7, f1=0.3)
    extents, shape = _BATCH_GRIDS[kind]
    g = make_grid(extents, shape, periodic=(periodic,) * len(shape),
                  axis_names=m.axis_names)
    ops = build_operators(g, order)
    rng = np.random.default_rng(61)
    draws = [[sample_state(m, g.shape, rng) for _ in range(5)] for _ in range(3)]
    vel = list(_VELOCITIES[kind])
    # signed zeros: trial 1 all -0.0 velocities, trial 3 +0.0 on one half
    # and -0.0 on the other
    draws[0][1][vel] = -0.0
    draws[0][3][vel] = 0.0
    draws[0][3][(vel,) + np.s_[..., : shape[-1] // 2]] = -0.0
    Us, Phis, Vs = draws
    U, Phi, V = (np.stack(trials, axis=1) for trials in draws)
    P = 0.1 * Phi

    closed = not periodic and kind in _BATCH_CLOSURES
    sat = make_sat_config(m, g, _BATCH_CLOSURES[kind]) if closed else None
    for coeff, per_V, closure in ((None, [None] * 5, None), (V, Vs, None),
                                  (None, [None] * 5, sat)):
        res = eval_primal_residual(m, g, ops, U, coeff, closure)
        per = [eval_primal_residual(m, g, ops, u, v, closure) for u, v in zip(Us, per_V)]
        _same_residual(per, res)
        rep = report_from_residual(res, 0.0)
        reps = [report_from_residual(r, 0.0) for r in per]
        for field in ("energy", "rate", "boundary_flux", "sat_contribution",
                      "volume_residual"):
            _same_bits([getattr(r, field) for r in reps], np.broadcast_to(
                getattr(rep, field), (5,)))
        for label, value in rep.face_fluxes.items():
            _same_bits([r.face_fluxes[label] for r in reps], value)
        res = eval_dual_residual(m, g, ops, Phi, coeff)
        _same_residual([eval_dual_residual(m, g, ops, p, v)
                        for p, v in zip(Phis, per_V)], res)

    pair = eval_new_linearised_pair(m, g, ops, U, P)
    pairs = [eval_new_linearised_pair(m, g, ops, u, 0.1 * p) for u, p in zip(Us, Phis)]
    for k in range(2):
        _same_residual([p[k] for p in pairs], pair[k])
    _same_bits([eval_remainder_H(m, g, ops, u, 0.1 * p) for u, p in zip(Us, Phis)],
               eval_remainder_H(m, g, ops, U, P))
    if kind in ("burgers1d", "swe2d"):
        _same_residual([standard_evaluator(m, g, ops, u)(0.1 * p)
                        for u, p in zip(Us, Phis)], standard_evaluator(m, g, ops, U)(P))
    _same_bits([bilinear_face_functional(m, g, ops, u, p, v)
                for u, p, v in zip(Us, Phis, Vs)],
               np.broadcast_to(bilinear_face_functional(m, g, ops, U, Phi, V), (5,)))
    _same_bits([inner_product(g, ops, u, p) for u, p in zip(Us, Phis)],
               inner_product(g, ops, U, Phi))
    W = np.abs(Vs[0])
    _same_bits([inner_product(g, ops, u, p, weight=W) for u, p in zip(Us, Phis)],
               inner_product(g, ops, U, Phi, weight=W))
    for face in faces(g):
        _same_bits([boundary_quadrature(g, ops, face_layer(g, u, face),
                                        face_layer(g, p, face), face)
                    for u, p in zip(Us, Phis)],
                   boundary_quadrature(g, ops, face_layer(g, U, face),
                                       face_layer(g, Phi, face), face))

    # a stack whose trailing axes are not the grid's is refused
    last = np.moveaxis(U, 1, -1)
    for evaluate in (lambda X: inner_product(g, ops, X, X),
                     lambda X: eval_primal_residual(m, g, ops, X),
                     lambda X: sk.energy_report(m, g, ops, X)):
        with pytest.raises(ValueError):
            evaluate(last)
    for face in faces(g) if g.dim > 1 else ():  # a 1D face has no trailing axes
        with pytest.raises(ValueError, match="face layers"):
            layer = face_layer(g, U, face)[..., None]
            boundary_quadrature(g, ops, layer, layer, face)


@pytest.mark.parametrize("order", ORDERS, ids=["21", "42"])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_face_functional_builds_its_tables_on_the_face_layers(kind, order, monkeypatch):
    # An operator makes one coeff_matrices call, on the full grid; its face
    # terms and face functional read the face layers of those tables and
    # build none.  Both keep the bits of full-grid tables whose products are
    # read at the faces, for a single state and a stack of two.
    m = make_model(kind) if kind != "swe2d" else make_model(
        "swe2d", alpha=0.4, beta=0.7, f0=0.7, f1=0.3)
    extents, shape = _BATCH_GRIDS[kind]
    g = make_grid(extents, shape, axis_names=m.axis_names)
    ops = build_operators(g, order)
    rng = np.random.default_rng(63)
    calls = []

    def recorded(model, V, pos=None):
        calls.append((V.shape, [p.shape for p in pos]))
        return coeff_matrices(model, V, pos)

    monkeypatch.setattr(spatial_op, "coeff_matrices", recorded)
    for batch in ((), (2,)):
        U, V = (sample_state(m, batch + shape, rng) for _ in range(2))
        Phi = rng.normal(size=U.shape)
        A, _ = coeff_matrices(m, V, g.positions)
        want, want_terms = 0.0, {}
        for face in faces(g):
            A_ax = densify(A[face[0]], m.n_comp, batch + shape)
            for X, Y in ((Phi, U), (U, Phi)):
                term = boundary_quadrature(g, ops, face_layer(g, X, face),
                                           face_layer(g, dense_matfield(A_ax, Y), face), face)
                want += term
            want_terms[face_label(g, face)] = term
        calls.clear()
        operator = skew_evaluator(m, g, ops, V)
        got = operator.face_functional(U, Phi)
        terms = operator.face_terms(U, Phi)
        assert calls == [(V.shape, [p.shape for p in g.positions])]
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert list(terms) == list(want_terms)
        for label, term in terms.items():
            assert np.asarray(term).tobytes() == np.asarray(want_terms[label]).tobytes()
        got = bilinear_face_functional(m, g, ops, U, Phi, V)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    # no faces, no face terms; an inadmissible V is refused on any node
    gp = make_grid(extents, shape, periodic=(True,) * g.dim, axis_names=m.axis_names)
    U, V = (sample_state(m, shape, rng) for _ in range(2))
    operator = skew_evaluator(m, gp, build_operators(gp, order), V)
    assert operator.face_functional(U, U) == 0.0 and operator.face_terms(U, U) == {}
    assert bilinear_face_functional(m, gp, build_operators(gp, order), U, U, V) == 0.0
    V[(0,) + (2,) * g.dim] = 0.0 if kind == "swe2d" else np.nan
    for grid in (g, gp):
        with pytest.raises(ValueError, match="depth|non-finite"):
            bilinear_face_functional(m, grid, build_operators(grid, order), U, U, V)


@pytest.mark.parametrize("kind", ["burgers1d", "swe2d"])
def test_periodic_frozen_operator_is_h_skew_and_its_dual_is_its_h_adjoint(kind):
    # the dense certificate of the semi-discrete claims: with no faces, HL is
    # skew, so d|u|_H^2/dt = 0 for every state, and the dual operator at the
    # same V is H^-1 L^T H
    m, g, ops, V = periodic_frozen_setup(kind)
    operator = skew_evaluator(m, g, ops, V)
    L = dense_operator(operator, m.n_comp, g)
    L_dual = dense_operator(lambda E: operator(E, dual=True), m.n_comp, g)
    # each column keeps the bits of its own evaluation
    unit = np.zeros(L.shape[0])
    unit[7] = 1.0
    assert np.array_equal(-operator(unit.reshape(V.shape)).R.ravel(), L[:, 7])
    h = norm_weights(ops, m.n_comp)
    HL = h[:, None] * L
    assert np.max(np.abs(HL + HL.T)) <= 1e-14 * np.max(np.abs(HL))
    adjoint = L.T * h[None, :] / h[:, None]
    assert np.max(np.abs(L_dual - adjoint)) <= 1e-13 * np.max(np.abs(L))


def test_bounded_frozen_characteristic_closure_is_dissipative_and_dual_consistent_at_scale_2():
    # A closure at a fixed V is linear in the state, so the dense probe is
    # exact.  The face rate is 2 u^2 S (scale - 1) where V flows in and
    # -2 u^2 S where it flows out, so sym(HL) has no positive eigenvalue at
    # any scale >= 1, primal or dual; at scale 2 the dual's closure is the
    # H-adjoint of the primal's.  V (seed 3) flows out of both faces, so
    # only the dual's penalty is active.
    m = make_model("burgers1d")
    g = make_grid(((0.0, 1.0),), (33,))
    ops = build_operators(g, (4, 2))
    operator = skew_evaluator(m, g, ops, sample_state(m, g.shape, np.random.default_rng(3)))
    h = norm_weights(ops, m.n_comp)
    for scale in (1.0, 2.0, 3.0):
        sat = make_sat_config(m, g, {face: {"kind": "characteristic", "scale": scale}
                                     for face in ("x_low", "x_high")})
        L, L_dual = (dense_operator(lambda E, dual=dual: operator(E, sat, dual=dual),
                                    m.n_comp, g) for dual in (False, True))
        for M in (L, L_dual):
            HM = h[:, None] * M
            assert np.linalg.eigvalsh(0.5 * (HM + HM.T))[-1] <= 1e-15, scale
        if scale == 2.0:
            adjoint = L.T * h[None, :] / h[:, None]
            assert np.max(np.abs(L_dual - adjoint)) <= 1e-12 * np.max(np.abs(L))
