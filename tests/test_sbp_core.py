"""Tests for the one-dimensional operators, grids, and quadratures."""

import itertools
import tracemalloc

import numpy as np
import pytest
import sympy

from skewform import sbp_core
from skewform.sbp_core import (
    ArgumentError,
    apply_derivative,
    boundary_quadrature,
    build_operators,
    build_sbp_operator,
    face_layer,
    inner_product,
    make_grid,
    quadrature_weights,
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
    for h in (0.0, -0.1):
        with pytest.raises(ValueError, match=f"^spacing must be positive, got {h}$"):
            build_sbp_operator((2, 1), 12, h)


def test_non_finite_grid_input_is_refused():
    # A non-finite end, or a span that overflows, has no finite length; a
    # finite extent with hi <= lo keeps its own reason.
    for lo, hi in ((0.0, np.inf), (np.nan, 1.0), (-np.inf, 0.0), (np.inf, np.inf),
                   (-1e308, 1e308)):
        with pytest.raises(ArgumentError, match="has no finite length$") as err:
            make_grid(((0.0, 1.0), (lo, hi)), (5, 5))
        assert err.value.arg == "extents" and str(err.value).startswith("axis y:")
    with pytest.raises(ArgumentError, match=r"^axis x: extent \[1.0, 0.0\] is empty$"):
        make_grid(((1.0, 0.0),), (5,))
    with pytest.raises(ValueError, match="^spacing must be finite, got inf$"):
        build_sbp_operator((2, 1), 5, np.inf)


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
    with pytest.raises(ValueError, match="^grids are 1 to 3 dimensional, got 4 axes$"):
        make_grid(((0.0, 1.0),) * 4, (8,) * 4)
    with pytest.raises(ValueError, match="^per-axis arguments disagree on dimension$"):
        make_grid(((0.0, 1.0),) * 2, (8, 8), periodic=(True,))
    with pytest.raises(ValueError, match="^per-axis arguments disagree on dimension$"):
        make_grid(((0.0, 1.0),) * 2, (8, 8), axis_names=("x", "y", "z"))


def test_quadrature_weights_sum_to_the_measure():
    g = make_grid(((0.0, 1.0), (0.0, 2.0), (0.0, 0.5)), (9, 10, 8),
                  periodic=(False, True, False))
    ops = build_operators(g, (2, 1))
    w = quadrature_weights(ops)
    assert w.shape == (9, 10, 8)
    assert abs(w.sum() - 1.0 * 2.0 * 0.5) <= 1e-13


def test_quadrature_weights_are_the_ones_product_bit_for_bit():
    # The weights of every axis subset that inner_product and
    # boundary_quadrature contract with, the empty one (a 1D grid's face)
    # included, equal the product of a ones array by each P in axis order.
    g = make_grid(((0.0, 1.0), (0.0, 2.0), (0.0, 0.5)), (9, 10, 8),
                  periodic=(False, True, False))
    for order in ORDERS:
        ops = build_operators(g, order)
        for k in range(len(ops) + 1):
            for subset in itertools.combinations(ops, k):
                want = np.ones(tuple(op.n for op in subset))
                for ax, op in enumerate(subset):
                    want = want * op.P.reshape((-1,) + (1,) * (k - 1 - ax))
                got = quadrature_weights(subset)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
    # a fresh array, not a view of an operator's weights
    got = quadrature_weights(ops[:1])
    got[0] = -1.0
    assert ops[0].P[0] > 0.0


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


def test_inner_product_accepts_a_component_weight():
    g = make_grid(((0.0, 1.0),), (17,))
    ops = build_operators(g, (4, 2))
    u = np.ones((1, 17))
    w = 3.0 * np.ones((1, 17))
    assert abs(inner_product(g, ops, u, u, weight=w) - 3.0) <= 1e-13
    # the weight is the per-node diagonal, one field per component
    u2 = np.stack([np.ones(17), 2.0 * np.ones(17)])
    w2 = np.stack([np.ones(17), 0.5 * np.ones(17)])
    assert abs(inner_product(g, ops, u2, u2, weight=w2) - 3.0) <= 1e-13
    with pytest.raises(ValueError, match="weight shape"):
        inner_product(g, ops, u2, u2, weight=np.ones((2, 2, 17)))
    with pytest.raises(ValueError, match=r"^mismatched state shapes \(1, 17\) and \(2, 17\)$"):
        inner_product(g, ops, u, u2)


def test_boundary_quadrature_signs_in_1d():
    g = make_grid(((0.0, 2.0),), (9,))
    ops = build_operators(g, (2, 1))
    rng = np.random.default_rng(7)
    u = rng.normal(size=(1, 9))
    v = rng.normal(size=(1, 9))
    hi = boundary_quadrature(g, ops, u[:, -1], v[:, -1], (0, "high"))
    lo = boundary_quadrature(g, ops, u[:, 0], v[:, 0], (0, "low"))
    assert hi == u[0, -1] * v[0, -1]
    assert lo == -u[0, 0] * v[0, 0]
    with pytest.raises(ValueError, match="^face side must be 'low' or 'high', got 'top'$"):
        boundary_quadrature(g, ops, u[:, 0], v[:, 0], (0, "top"))


def test_boundary_quadrature_uses_tangential_weights_in_2d():
    g = make_grid(((0.0, 1.0), (0.0, 1.0)), (9, 12), periodic=(False, True))
    ops = build_operators(g, (2, 1))
    rng = np.random.default_rng(8)
    u = rng.normal(size=(2, 9, 12))
    v = rng.normal(size=(2, 9, 12))
    got = boundary_quadrature(g, ops, face_layer(g, u, (0, "high")),
                              face_layer(g, v, (0, "high")), (0, "high"))
    manual = 0.0
    for c in range(2):
        for j in range(12):
            manual += ops[1].P[j] * u[c, -1, j] * v[c, -1, j]
    assert abs(got - manual) <= 1e-13 * (1 + abs(manual))
    with pytest.raises(ValueError, match="periodic"):
        boundary_quadrature(g, ops, u[:, :, 0], v[:, :, 0], (1, "low"))


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


# The fewest nodes each closure takes; bounded (4, 2) leaves no interior row.
SMALLEST = {((2, 1), False): 4, ((2, 1), True): 3,
            ((4, 2), False): 8, ((4, 2), True): 5}


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("n", ["min", 257])
def test_edge_rows_hold_fewer_than_8_nonzeros(order, periodic, n):
    # numpy sums a reduction of 8 or more terms pairwise, so the single
    # reduction over an edge block is in column order only below 8.
    if n == "min":
        n = SMALLEST[order, periodic]
    rows, cols, coefs = build_sbp_operator(order, n, 1.0 / n, periodic=periodic).edge
    assert cols.shape == coefs.shape and cols.shape[0] == len(rows)
    assert cols.shape[1] < 8


def test_an_edge_row_of_8_nonzeros_is_refused(monkeypatch):
    # A forged (2,1) closure whose first row has 8 nonzero entries.
    row = tuple(float(j + 1) for j in range(8))
    monkeypatch.setitem(sbp_core._Q_BLOCK, (2, 1), (row,))
    with pytest.raises(ValueError, match="edge rows of 8 nonzeros"):
        build_sbp_operator((2, 1), 20, 0.1)
    monkeypatch.setitem(sbp_core._Q_BLOCK, (2, 1), (row[:7],))
    assert build_sbp_operator((2, 1), 20, 0.1).edge[1].shape[1] == 7


def dense_closure(order, n, h, periodic):
    """Reference: Q and D = P^{-1} Q as n x n matrices, by the loop that
    wrote the stencil on every row and then the boundary blocks over it."""
    half = sbp_core._HALF_WIDTH[order]
    stencil = sbp_core._INTERIOR[order]
    Q = np.zeros((n, n))
    P = np.full(n, h)
    for i in range(n):
        for k in range(-half, half + 1):
            if periodic or 0 <= i + k < n:
                Q[i, (i + k) % n] = stencil[k + half]
    if not periodic:
        for i, row in enumerate(sbp_core._Q_BLOCK[order]):
            for j, val in enumerate(row):
                Q[i, j] = val
                Q[n - 1 - i, n - 1 - j] = -val
        for i, w in enumerate(sbp_core._P_BLOCK[order]):
            P[i] = w * h
            P[n - 1 - i] = w * h
    return Q, Q / P[:, None]


def plan_from_dense(D, lo):
    """Reference: the edge plan (rows, cols, coefs) read off a dense D."""
    n = D.shape[0]
    rows = np.r_[0:lo, n - lo:n]
    nonzero = [np.flatnonzero(D[i]).tolist() for i in rows]
    width = max(map(len, nonzero))
    pad = [width - len(c) for c in nonzero]
    cols = np.array([c + c[-1:] * p for c, p in zip(nonzero, pad)])
    coefs = np.array([D[i, c].tolist() + [0.0] * p for i, c, p in zip(rows, nonzero, pad)])
    return rows, cols, coefs


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("periodic", [False, True])
def test_plan_and_lazy_matrices_equal_the_dense_closure_bitwise(order, periodic):
    # The build reads each edge row off its own row of Q; the plan must be
    # the one read off the dense D, and Q and D, formed on first read, the
    # dense loop's matrices, bit for bit.
    for n in [*range(SMALLEST[order, periodic], 41), 65, 257]:
        h = 0.7 / n
        op = build_sbp_operator(order, n, h, periodic=periodic)
        Q, D = dense_closure(order, n, h, periodic)
        assert "Q" not in vars(op) and "D" not in vars(op)
        assert op.Q.tobytes() == Q.tobytes() and op.D.tobytes() == D.tobytes()
        assert op.D is op.D
        lo = op.interior[0]
        for got, want in zip(op.edge, plan_from_dense(D, lo)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        hi, terms = op.interior[1:]
        assert hi == n - lo
        for i in range(lo, hi):
            assert np.flatnonzero(D[i]).tolist() == [i + k for k, _ in terms]
            assert all(D[i, i + k] == c for k, c in terms)


@pytest.mark.parametrize("periodic", [False, True])
def test_a_large_operator_builds_in_linear_memory(periodic):
    # A dense n x n pair would take 2 x 134 MB at n = 4097.
    tracemalloc.start()
    try:
        op = build_sbp_operator((4, 2), 4097, 1.0 / 4096, periodic=periodic)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert op.edge[1].shape[0] == 2 * op.interior[0]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("n", ["min", 13, 64, 65, 257])
def test_apply_derivative_adds_columns_in_increasing_order(order, periodic, n):
    # The module's bit-for-bit contract: every row sums its products in
    # increasing column order, at small and large sizes, along each axis,
    # on contiguous fields and on views that are not.  Exact zeros of both
    # signs, scattered and filling a whole component, pin that skipping D's
    # zero entries changes no bit.  The interior runs are taken in pieces of
    # 16384 values: at n = 257 the run of each of the last five fields
    # holds four pieces and a remainder, and their boundaries fall inside a
    # line (16384 is no multiple of 97, 257 or 13).  No output is -0.0, not
    # even on fields of zeros only, which spatial_op's in-place sums rely on.
    # Changing the sign of every zero of the input, whole lines of zeros
    # included, changes no output bit, which lets spatial_op hand over
    # fluxes that hold -0.0.
    if n == "min":
        n = SMALLEST[order, periodic]
    op = build_sbp_operator(order, n, 1.0 / n, periodic=periodic)
    rng = np.random.default_rng(n)
    cases = [
        (1, np.full((2, 3, n, 2), -0.0)),
        (2, np.where(rng.random((3, 2, 5, n)) < 0.5, 0.0, -0.0)),
        (0, rng.normal(size=(3, n, 7))),
        (1, rng.normal(size=(3, 7, n))),
        (1, rng.normal(size=(2, 4, n, 3))),
        (0, rng.normal(size=(7, n, 3)).transpose(2, 1, 0)),
        (1, rng.normal(size=(4, 5, 2 * n))[1:, :, ::2]),
        (0, rng.normal(size=(3, n, 97))),
        (1, rng.normal(size=(3, 97, n))),
        (1, rng.normal(size=(2, 11, n, 13))),
        (0, rng.normal(size=(97, n, 3)).transpose(2, 1, 0)),
        (1, rng.normal(size=(4, 97, 2 * n))[1:, :, ::2]),
        # a 3D field along each axis, and a 2D field with a batch axis
        (0, rng.normal(size=(2, n, 4, 3))),
        (1, rng.normal(size=(2, 4, n, 3))),
        (2, rng.normal(size=(2, 4, 3, n))),
        (1, rng.normal(size=(3, 6, n, 5))),
        (2, rng.normal(size=(3, 6, 5, n))),
    ]
    for ax, f in cases:
        f[rng.random(f.shape) < 0.2] = 0.0
        f[rng.random(f.shape) < 0.2] = -0.0
        f[1] = -0.0
        np.moveaxis(f, 1 + ax, -1)[0, ..., 0, :] = 0.0  # a line of +0.0
        got = apply_derivative(op, f, axis=ax)
        flipped = np.where(f == 0.0, -f, f)
        assert (np.signbit(flipped) != np.signbit(f))[f == 0.0].all()
        assert apply_derivative(op, flipped, axis=ax).tobytes() == \
            np.ascontiguousarray(got).tobytes()
        want = column_walk(op.D, np.moveaxis(f, 1 + ax, -1))
        want = np.moveaxis(want, -1, 1 + ax)
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == \
            np.ascontiguousarray(want).tobytes()
        assert not np.signbit(got[got == 0.0]).any()


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("n", ["min", 13])
def test_apply_derivative_reads_only_the_nonzero_columns_of_each_row(order, periodic, n):
    # An inf in column j reaches exactly the rows whose D row has a nonzero
    # in column j; every other row keeps its bits.
    if n == "min":
        n = SMALLEST[order, periodic]
    op = build_sbp_operator(order, n, 1.0 / n, periodic=periodic)
    f = np.random.default_rng(n).normal(size=(2, 3, n))
    base = apply_derivative(op, f, axis=1)
    for j in range(n):
        g = f.copy()
        g[..., j] = np.inf
        with np.errstate(invalid="ignore"):
            got = apply_derivative(op, g, axis=1)
        hit = op.D[:, j] != 0.0
        assert np.all(~np.isfinite(got[..., hit]))
        assert got[..., ~hit].tobytes() == base[..., ~hit].tobytes()
    # Along an axis with nodes after it the flat interior runs cross from
    # line to line: an inf in column j of one line reaches the same rows of
    # that line only, and every other line keeps its bits.
    rng = np.random.default_rng(n + 1)
    for ax, f in ((0, rng.normal(size=(2, n, 3))), (1, rng.normal(size=(2, 3, n, 4)))):
        base = np.moveaxis(apply_derivative(op, f, axis=ax), 1 + ax, -1)
        for line in np.ndindex(base.shape[:-1]):
            others = np.ones(base.shape[:-1], dtype=bool)
            others[line] = False
            for j in range(n):
                g = f.copy()
                np.moveaxis(g, 1 + ax, -1)[line + (j,)] = np.inf
                with np.errstate(invalid="ignore"):
                    got = np.moveaxis(apply_derivative(op, g, axis=ax), 1 + ax, -1)
                hit = op.D[:, j] != 0.0
                assert np.all(~np.isfinite(got[line][hit]))
                assert got[line][~hit].tobytes() == base[line][~hit].tobytes()
                assert got[others].tobytes() == base[others].tobytes()


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
    # a negative axis would land on the component axis of a (4, 4) field
    op4 = build_sbp_operator((2, 1), 4, 0.25)
    with pytest.raises(ValueError):
        apply_derivative(op4, np.zeros((4, 4)), axis=-1)
    with pytest.raises(ValueError, match="^state fields carry a leading component axis$"):
        apply_derivative(op, np.zeros(10))
    with pytest.raises(ValueError, match="^axis 0 has 9 nodes, operator expects 10$"):
        apply_derivative(op, np.zeros((1, 9)))


def test_grid_positions():
    g = make_grid(((0.0, 1.0), (0.0, 2.0)), (5, 6))
    X, Y = g.positions
    assert X.shape == (5, 1) and Y.shape == (1, 6)
    X, Y = (np.broadcast_to(p, g.shape) for p in g.positions)
    assert X[2, 0] == g.coords[0][2]
    assert Y[0, 3] == g.coords[1][3]
    want = np.meshgrid(*g.coords, indexing="ij")
    assert all(np.broadcast_to(p, g.shape).tobytes() == w.tobytes()
               for p, w in zip(g.positions, want))


def test_grid_positions_are_read_only_views_of_the_coordinates():
    # No full-grid array: each axis's positions are its 1D coordinates,
    # of length 1 along every other axis (the sparse open mesh).
    g = make_grid(((0.0, 1.0), (0.0, 2.0), (1.0, 3.0)), (64, 32, 48),
                  periodic=(False, True, False))
    tracemalloc.start()
    try:
        pos = g.positions
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 64 * 32 * 48 / 16 and peak < 16 * sum(g.shape), peak
    for ax, p in enumerate(pos):
        assert p.shape == tuple(n if a == ax else 1 for a, n in enumerate(g.shape))
        assert not p.flags.writeable and not g.coords[ax].flags.writeable
        assert np.shares_memory(p, g.coords[ax])
    with pytest.raises(ValueError, match="read-only"):
        pos[0][0, 0, 0] = 1.0
    assert g.positions is pos
    # a face layer of the positions broadcast to the grid is a view too
    layer = face_layer(g, np.broadcast_to(pos[2], g.shape), (0, "high"))
    assert layer.strides == (0, 8) and np.shares_memory(layer, g.coords[2])
