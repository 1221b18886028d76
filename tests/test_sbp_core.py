"""Tests for the one-dimensional operators, grids, and quadratures."""

import numpy as np
import pytest
import sympy

from skewform.sbp_core import (
    apply_derivative,
    boundary_quadrature,
    build_operators,
    build_sbp_operator,
    face_label,
    faces,
    inner_product,
    make_grid,
    parse_face,
    position_arrays,
    quadrature_weights,
    state_zeros,
)

ORDERS = [(2, 1), (4, 2)]


def boundary_rows(order, n):
    width = 1 if order == (2, 1) else 4
    return list(range(width)) + list(range(n - width, n))


def test_second_order_closure_solves_the_defining_constraints():
    # Derive the boundary closure from scratch: unknown corner weight a in
    # P = h*diag(a, 1, ..., 1, a) and unknown corner entry b in the first row
    # of Q, with the interior rows fixed to the central stencil.  Exactness
    # for constants and for x at the corner pins both unknowns.
    n = 5
    h = sympy.Rational(1, 4)
    a, b = sympy.symbols("a b", positive=True)
    Q = sympy.zeros(n, n)
    Q[0, 0] = -sympy.Rational(1, 2)
    Q[0, 1] = b
    Q[n - 1, n - 1] = sympy.Rational(1, 2)
    Q[n - 1, n - 2] = -b
    for i in range(1, n - 1):
        Q[i, i - 1] = -sympy.Rational(1, 2)
        Q[i, i + 1] = sympy.Rational(1, 2)
    x = [i * h for i in range(n)]
    eqs = [
        sum(Q[0, j] for j in range(n)),              # constants at the corner
        sum(Q[0, j] * x[j] for j in range(n)) - h * a,  # linears at the corner
    ]
    sol = sympy.solve(eqs, [a, b], dict=True)
    assert len(sol) == 1
    assert sol[0][a] == sympy.Rational(1, 2)
    assert sol[0][b] == sympy.Rational(1, 2)

    # the solved operator satisfies Q + Q^T = B exactly
    Qs = Q.subs(sol[0])
    B = sympy.zeros(n, n)
    B[0, 0] = -1
    B[n - 1, n - 1] = 1
    assert (Qs + Qs.T - B).is_zero_matrix

    # and matches the built one entry for entry (all values are dyadic here)
    op = build_sbp_operator((2, 1), n, 0.25)
    assert np.array_equal(op.Q, np.array(Qs, dtype=float))
    assert np.array_equal(op.P, np.array([0.125, 0.25, 0.25, 0.25, 0.125]))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [8, 9, 33])
def test_q_plus_qt_is_the_boundary_matrix(order, n):
    op = build_sbp_operator(order, n, 1.0 / (n - 1))
    B = np.zeros((n, n))
    B[0, 0] = -1.0
    B[-1, -1] = 1.0
    assert np.array_equal(op.Q + op.Q.T, B)
    assert np.array_equal(op.B, np.diag(B))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [8, 21])
def test_periodic_q_is_antisymmetric(order, n):
    op = build_sbp_operator(order, n, 1.0 / n, periodic=True)
    assert np.array_equal(op.Q + op.Q.T, np.zeros((n, n)))
    assert np.array_equal(op.P, np.full(n, 1.0 / n))


def test_fourth_order_pinned_rows():
    op = build_sbp_operator((4, 2), 9, 1.0)
    p_expected = np.array(
        [17 / 48, 59 / 48, 43 / 48, 49 / 48, 1.0, 49 / 48, 43 / 48, 59 / 48, 17 / 48]
    )
    assert np.array_equal(op.P, p_expected)
    assert np.array_equal(op.Q[0, :6], np.array([-1 / 2, 59 / 96, -1 / 12, -1 / 32, 0, 0]))
    assert np.array_equal(op.Q[1, :6], np.array([-59 / 96, 0, 59 / 96, 0, 0, 0]))
    assert np.array_equal(op.Q[2, :6], np.array([1 / 12, -59 / 96, 0, 59 / 96, -1 / 12, 0]))
    assert np.array_equal(op.Q[3, :6], np.array([1 / 32, 0, -59 / 96, 0, 2 / 3, -1 / 12]))
    # mirror symmetry of the closure
    n = 9
    for i in range(n):
        for j in range(n):
            assert op.Q[n - 1 - i, n - 1 - j] == -op.Q[i, j]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("periodic", [False, True])
def test_derivative_annihilates_constants(order, periodic):
    n = 24
    h = 1.0 / n if periodic else 1.0 / (n - 1)
    op = build_sbp_operator(order, n, h, periodic=periodic)
    d1 = op.D @ np.ones(n)
    assert np.max(np.abs(d1)) <= 1e-13


@pytest.mark.parametrize("order", ORDERS)
def test_polynomial_exactness_split_by_row(order):
    n = 20
    op = build_sbp_operator(order, n, 1.0 / (n - 1))
    x = np.linspace(0.0, 1.0, n)
    interior_deg = order[0]
    closure_deg = order[1]
    closure = boundary_rows(order, n)
    interior = [i for i in range(n) if i not in closure]
    for k in range(interior_deg + 1):
        err = op.D @ x**k - (k * x ** (k - 1) if k else np.zeros(n))
        assert np.max(np.abs(err[interior])) <= 1e-12, f"interior rows, degree {k}"
        if k <= closure_deg:
            assert np.max(np.abs(err[closure])) <= 1e-12, f"closure rows, degree {k}"


@pytest.mark.parametrize("order", ORDERS)
def test_periodic_derivative_is_exact_on_resolved_waves(order):
    n = 64
    op = build_sbp_operator(order, n, 1.0 / n, periodic=True)
    x = np.arange(n) / n
    u = np.sin(2 * np.pi * x)
    du = op.D @ u
    # not exact, but the truncation error must shrink at the interior order
    op2 = build_sbp_operator(order, 2 * n, 0.5 / n, periodic=True)
    x2 = np.arange(2 * n) / (2 * n)
    du2 = op2.D @ np.sin(2 * np.pi * x2)
    e1 = np.max(np.abs(du - 2 * np.pi * np.cos(2 * np.pi * x)))
    e2 = np.max(np.abs(du2 - 2 * np.pi * np.cos(2 * np.pi * x2)))
    rate = np.log2(e1 / e2)
    assert abs(rate - order[0]) < 0.1


@pytest.mark.parametrize(
    "order, n, periodic",
    [((2, 1), 3, False), ((4, 2), 7, False), ((2, 1), 2, True), ((4, 2), 4, True)],
)
def test_too_few_nodes_is_rejected(order, n, periodic):
    with pytest.raises(ValueError, match="needs at least"):
        build_sbp_operator(order, n, 0.1, periodic=periodic)


def test_unsupported_order_is_rejected():
    with pytest.raises(ValueError, match="unsupported accuracy"):
        build_sbp_operator((3, 1), 12, 0.1)


def test_grid_spacing_conventions():
    g = make_grid(((0.0, 1.0), (0.0, 2.0)), (8, 6), periodic=(False, True))
    assert g.spacings[0] == 1.0 / 7.0
    assert g.spacings[1] == 2.0 / 6.0
    assert g.coords[0][0] == 0.0 and g.coords[0][-1] == 1.0
    # periodic axes drop the duplicate endpoint
    assert g.coords[1][-1] == pytest.approx(2.0 - 2.0 / 6.0)
    assert g.axis_names == ("x", "y")


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_grid(((1.0, 0.0),), (8,))
    with pytest.raises(ValueError):
        make_grid(((0.0, 1.0),), (8, 8))


def test_faces_and_labels_round_trip():
    g = make_grid(((0.0, 1.0), (0.0, 2.0)), (8, 6), periodic=(False, True))
    fs = faces(g)
    assert fs == ((0, "low"), (0, "high"))
    for f in fs:
        assert parse_face(g, face_label(g, f)) == f
    with pytest.raises(ValueError):
        parse_face(g, "y_low")
    with pytest.raises(ValueError):
        parse_face(g, "nonsense")


def test_quadrature_weights_sum_to_the_measure():
    g = make_grid(((0.0, 1.0), (0.0, 2.0), (0.0, 0.5)), (9, 10, 8),
                  periodic=(False, True, False))
    ops = build_operators(g, (2, 1))
    w = quadrature_weights(g, ops)
    assert w.shape == (9, 10, 8)
    assert abs(w.sum() - 1.0 * 2.0 * 0.5) <= 1e-13


def test_inner_product_of_x_with_itself():
    # The (4,2) norm integrates cubics exactly; the (2,1) norm is the
    # trapezoidal rule, whose error on x^2 is exactly h^2/6.
    n = 33
    g = make_grid(((0.0, 1.0),), (n,))
    x = g.coords[0][None]
    ops42 = build_operators(g, (4, 2))
    assert abs(inner_product(g, ops42, x, x) - 1.0 / 3.0) <= 1e-14
    ops21 = build_operators(g, (2, 1))
    h = 1.0 / (n - 1)
    assert abs(inner_product(g, ops21, x, x) - (1.0 / 3.0 + h * h / 6.0)) <= 1e-15


def test_inner_product_accepts_a_matrix_weight():
    g = make_grid(((0.0, 1.0),), (17,))
    ops = build_operators(g, (4, 2))
    u = np.ones((1, 17))
    w = 3.0 * np.ones((1, 1, 17))
    assert abs(inner_product(g, ops, u, u, weight=w) - 3.0) <= 1e-13
    # an off-diagonal weight couples components
    g2 = make_grid(((0.0, 1.0),), (17,))
    u2 = np.stack([np.ones(17), 2.0 * np.ones(17)])
    w2 = np.zeros((2, 2, 17))
    w2[0, 1] = w2[1, 0] = 1.0
    got = inner_product(g2, ops, u2, u2, weight=w2)
    assert abs(got - 4.0) <= 1e-13


def test_boundary_quadrature_signs_in_1d():
    g = make_grid(((0.0, 2.0),), (9,))
    ops = build_operators(g, (2, 1))
    rng = np.random.default_rng(7)
    u = rng.normal(size=(1, 9))
    v = rng.normal(size=(1, 9))
    hi = boundary_quadrature(g, ops, u, v, (0, "high"))
    lo = boundary_quadrature(g, ops, u, v, (0, "low"))
    assert hi == u[0, -1] * v[0, -1]
    assert lo == -u[0, 0] * v[0, 0]


def test_boundary_quadrature_uses_tangential_weights_in_2d():
    g = make_grid(((0.0, 1.0), (0.0, 1.0)), (9, 12), periodic=(False, True))
    ops = build_operators(g, (2, 1))
    rng = np.random.default_rng(8)
    u = rng.normal(size=(2, 9, 12))
    v = rng.normal(size=(2, 9, 12))
    got = boundary_quadrature(g, ops, u, v, (0, "high"))
    manual = 0.0
    for c in range(2):
        for j in range(12):
            manual += ops[1].P[j] * u[c, -1, j] * v[c, -1, j]
    assert abs(got - manual) <= 1e-13 * (1 + abs(manual))
    with pytest.raises(ValueError, match="periodic"):
        boundary_quadrature(g, ops, u, v, (1, "low"))


def test_sbp_property_transfers_to_the_quadrature():
    # integration by parts: <u, Dv> + <Du, v> equals the boundary terms
    rng = np.random.default_rng(11)
    for order in ORDERS:
        for trial in range(10):
            n = int(rng.integers(9, 30))
            g = make_grid(((0.0, 1.5),), (n,))
            ops = build_operators(g, order)
            u = rng.normal(size=(1, n))
            v = rng.normal(size=(1, n))
            du = apply_derivative(ops[0], u, axis=0)
            dv = apply_derivative(ops[0], v, axis=0)
            lhs = inner_product(g, ops, u, dv) + inner_product(g, ops, du, v)
            rhs = u[0, -1] * v[0, -1] - u[0, 0] * v[0, 0]
            assert abs(lhs - rhs) <= 1e-13 * (1 + abs(rhs))


@pytest.mark.parametrize("order", ORDERS)
def test_apply_derivative_matches_dense_matmul(order):
    rng = np.random.default_rng(13)
    for n in (12, 33, 80):
        op = build_sbp_operator(order, n, 1.0 / (n - 1))
        field = rng.normal(size=(3, n))
        got = apply_derivative(op, field, axis=0)
        want = field @ op.D.T
        assert np.max(np.abs(got - want)) <= 1e-12 * (1 + np.max(np.abs(want)))


def test_apply_derivative_along_each_axis_of_a_3d_field():
    g = make_grid(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), (9, 10, 11),
                  periodic=(False, True, False))
    ops = build_operators(g, (2, 1))
    rng = np.random.default_rng(17)
    f = rng.normal(size=(2, 9, 10, 11))
    for ax in range(3):
        got = apply_derivative(ops[ax], f, axis=ax)
        m = f.shape[1 + ax]
        rest = tuple(s for k, s in enumerate(f.shape) if k != 1 + ax)
        want = ops[ax].D @ np.moveaxis(f, 1 + ax, 0).reshape(m, -1)
        want = np.moveaxis(want.reshape((m,) + rest), 0, 1 + ax)
        assert np.max(np.abs(got - want)) <= 1e-12


def column_walk(D, v):
    """Reference apply: adds v_j times column j of D for j ascending."""
    out = np.zeros(v.shape)
    for j in range(D.shape[1]):
        out += np.multiply.outer(v[..., j], D[:, j])
    return out


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("n", [13, 64, 65, 257])
def test_apply_derivative_adds_columns_in_increasing_order(order, periodic, n):
    # The module's bit-for-bit contract: every row sums its products in
    # increasing column order, at small and large sizes, along each axis.
    op = build_sbp_operator(order, n, 1.0 / n, periodic=periodic)
    rng = np.random.default_rng(n)
    for ax, shape in enumerate([(3, n, 7), (3, 7, n)]):
        f = rng.normal(size=shape)
        got = apply_derivative(op, f, axis=ax)
        want = column_walk(op.D, np.moveaxis(f, 1 + ax, -1))
        want = np.moveaxis(want, -1, 1 + ax)
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == \
            np.ascontiguousarray(want).tobytes()


def test_apply_derivative_is_deterministic():
    op = build_sbp_operator((4, 2), 80, 1.0 / 79)
    rng = np.random.default_rng(19)
    f = rng.normal(size=(2, 80))
    a = apply_derivative(op, f, axis=0)
    b = apply_derivative(op, f, axis=0)
    assert np.array_equal(a, b)


def test_apply_derivative_rejects_a_bad_axis():
    op = build_sbp_operator((2, 1), 10, 0.1)
    with pytest.raises(ValueError):
        apply_derivative(op, np.zeros((1, 10)), axis=1)


def test_state_zeros_and_position_arrays():
    g = make_grid(((0.0, 1.0), (0.0, 2.0)), (5, 6))
    z = state_zeros(3, g)
    assert z.shape == (3, 5, 6)
    assert not z.any()
    X, Y = position_arrays(g)
    assert X.shape == (5, 6) and Y.shape == (5, 6)
    assert X[2, 0] == g.coords[0][2]
    assert Y[0, 3] == g.coords[1][3]
