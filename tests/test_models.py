"""Tests for the model coefficient matrices and state utilities."""

import tracemalloc

import numpy as np
import pytest

import skewform as sk
from skewform import cli
from skewform.models import (
    check_admissible,
    coeff_matrices,
    coeff_split,
    dense_matrix,
    has_invertible_norm,
    MODEL_PARAMS,
    make_model,
    norm_weight,
    sample_state,
    swe_inverse,
    swe_quasilinear,
    swe_transform,
    unit_normal,
    validate_grid,
    wavespeeds,
    with_params,
)
from skewform.sbp_core import make_grid

ALL_KINDS = ("burgers1d", "euler2d", "euler3d_cyl", "swe2d")


def matvec(M, w):
    return np.einsum("ij...,j...->i...", M, w)


def dense(entries, n_comp, s=()):
    """An entry table as the dense (n_comp, n_comp, *s) array."""
    M = np.zeros((n_comp, n_comp) + tuple(s))
    for key, value in entries.items():
        M[key] = value
    return M


def dense_coeffs(m, V, pos=None):
    """coeff_matrices densified: A as (dim, nc, nc, *s), C as (nc, nc, *s)."""
    A, C = coeff_matrices(m, V, pos)
    s = np.shape(V)[1:]
    return np.stack([dense(M, m.n_comp, s) for M in A]), dense(C, m.n_comp, s)


def test_make_model_rejects_unknown_kind_and_stray_params():
    with pytest.raises(ValueError, match="unknown model"):
        make_model("advection")
    with pytest.raises(ValueError, match="does not accept parameters"):
        make_model("burgers1d", alpha=0.5)
    m = make_model("swe2d", alpha=0.25, beta=0.75, f0=1.0, f1=0.5)
    assert (m.alpha, m.beta, m.f0, m.f1) == (0.25, 0.75, 1.0, 0.5)


def test_with_params_swaps_splitting_parameters():
    m = make_model("swe2d", alpha=0.25)
    m2 = with_params(m, alpha=0.5, f0=2.0)
    assert m2.alpha == 0.5 and m2.f0 == 2.0 and m2.beta == m.beta
    with pytest.raises(ValueError):
        with_params(make_model("burgers1d"), alpha=0.5)
    # None leaves a parameter as it is, on every model
    assert with_params(m, alpha=None, beta=None) == m
    m3 = with_params(m, alpha=None, beta=0.75)
    assert (m3.alpha, m3.beta) == (0.25, 0.75)
    burgers = make_model("burgers1d")
    assert with_params(burgers, alpha=None, beta=None) == burgers
    # parameters must be finite, when made and when swapped
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            make_model("swe2d", f0=bad)
        with pytest.raises(ValueError, match=r"\['beta'\] must be finite"):
            with_params(m, alpha=0.5, beta=bad)


def test_make_model_checks_its_parameters_through_with_params():
    # one list of parameter names feeds the spec, with_params and the
    # config schema; None leaves a default on every kind, as with_params does
    assert MODEL_PARAMS == ("alpha", "beta", "f0", "f1")
    assert cli._SCHEMA["model"] == {"kind", *MODEL_PARAMS}
    for kind in ALL_KINDS:
        assert make_model(kind, alpha=None, f1=None) == make_model(kind)
    for kind, name in (("swe2d", "gamma"), ("euler2d", "f0")):
        with pytest.raises(ValueError, match=f"^model '{kind}' does not accept parameters"
                                             rf" \['{name}'\]$"):
            make_model(kind, **{name: 0.0})


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_unit_normal_holds_the_dimension_and_the_length(kind):
    m = make_model(kind)
    normal = (0.6, 0.8, 0.0)[:m.dim] if m.dim > 1 else (-1,)
    assert unit_normal(m, np.array(normal)) == tuple(float(c) for c in normal)
    assert type(unit_normal(m, np.array(normal))[0]) is float
    # within 1e-6 of unit length is accepted as it is
    assert unit_normal(m, (1.0 + 9e-7,) + (0.0,) * (m.dim - 1))[0] == 1.0 + 9e-7
    with pytest.raises(ValueError, match=f"^normal has {m.dim + 1} components, model is"
                                         f" {m.dim}D$"):
        unit_normal(m, (1.0,) + (0.0,) * m.dim)
    for bad in (0.0, 2.0, 1.0 + 2e-6, np.nan):
        with pytest.raises(ValueError, match="^normal must have unit length, got length"):
            unit_normal(m, (bad,) + (0.0,) * (m.dim - 1))


def test_burgers_coefficient_is_a_third_of_the_state():
    m = make_model("burgers1d")
    V = np.array([[0.9, -0.3, 0.0]])
    A, C = dense_coeffs(m, V)
    assert A.shape == (1, 1, 1, 3)
    assert np.array_equal(A[0, 0, 0], V[0] / 3.0)
    assert not C.any()


def test_euler2d_pinned_coefficient():
    m = make_model("euler2d")
    V = np.ones((3, 1))
    A, C = dense_coeffs(m, V)
    assert np.array_equal(A[0][..., 0], 0.5 * np.array([[1, 0, 1], [0, 1, 0], [1, 0, 0]]))
    assert np.array_equal(A[1][..., 0], 0.5 * np.array([[1, 0, 0], [0, 1, 1], [0, 1, 0]]))
    assert not C.any()


def test_swe_pinned_coefficient_and_coriolis_skewness():
    m = make_model("swe2d", alpha=1.0, beta=0.0, f0=0.7, f1=0.3)
    V = np.zeros((3, 2, 2))
    V[0] = 1.0
    pos = make_grid(((0.0, 1.0), (0.0, 1.0)), (2, 2)).positions
    A, C = dense_coeffs(m, V, pos=pos)
    assert np.array_equal(A[0][..., 0, 0], np.array([[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    # C + C^T = 0 exactly, with f = f0 + f1*y entering the (1,2) block
    CT = np.swapaxes(C, 0, 1)
    assert np.array_equal(C + CT, np.zeros_like(C))
    assert np.array_equal(C[2, 1], np.broadcast_to(0.7 + 0.3 * pos[1], (2, 2)))


def test_swe_with_linear_coriolis_needs_positions():
    m = make_model("swe2d", f1=0.5)
    V = np.zeros((3, 2, 2))
    V[0] = 1.0
    with pytest.raises(ValueError, match="needs pos"):
        coeff_matrices(m, V)


def test_cylindrical_coefficients_scale_with_radius():
    m = make_model("euler3d_cyl")
    V = np.array([[1.0], [0.5], [0.2], [0.3]])
    pos = (np.array([0.8]), np.array([0.0]), np.array([0.0]))
    A, C = dense_coeffs(m, V, pos=pos)
    # radial block is r/2 times the constant-coefficient pattern
    r = 0.8
    expected = (r / 2.0) * np.array(
        [[1.0, 0, 0, 1], [0, 1.0, 0, 0], [0, 0, 1.0, 0], [1, 0, 0, 0]]
    )
    assert np.max(np.abs(A[0][..., 0] - expected)) <= 1e-15
    # zero-order term is skew
    CT = np.swapaxes(C, 0, 1)
    assert np.array_equal(C + CT, np.zeros_like(C))
    with pytest.raises(ValueError, match="needs pos"):
        coeff_matrices(m, V)


def test_cylindrical_norm_weight_carries_the_radius():
    m = make_model("euler3d_cyl")
    g = make_grid(((0.3, 1.3), (0.0, 1.0), (0.0, 1.0)), (4, 4, 4),
                  periodic=(False, False, True), axis_names=m.axis_names)
    W = norm_weight(m, g)
    R = np.broadcast_to(g.positions[0], g.shape)
    assert W.shape == (4, 4, 4, 4)
    for c in range(3):
        assert np.array_equal(W[c], R)
    assert not W[3].any()


def test_norm_weight_identity_and_seminorm():
    gb = make_grid(((0.0, 1.0),), (5,))
    Wb = norm_weight(make_model("burgers1d"), gb)
    assert np.array_equal(Wb[0], np.ones(5))
    ge = make_grid(((0.0, 1.0), (0.0, 1.0)), (4, 4))
    We = norm_weight(make_model("euler2d"), ge)
    assert np.array_equal(We[0], np.ones((4, 4)))
    assert np.array_equal(We[1], np.ones((4, 4)))
    assert not We[2].any()
    assert has_invertible_norm(make_model("burgers1d"))
    assert has_invertible_norm(make_model("swe2d"))
    assert not has_invertible_norm(make_model("euler2d"))
    assert not has_invertible_norm(make_model("euler3d_cyl"))


def test_square_root_transform_round_trip():
    rng = np.random.default_rng(3)
    for trial in range(20):
        phi = 0.5 + rng.uniform(0.0, 2.0, (6, 5))
        u = rng.normal(size=(6, 5))
        v = rng.normal(size=(6, 5))
        U = swe_transform(phi, u, v)
        assert np.array_equal(U[0], phi)
        phi2, u2, v2 = swe_inverse(U)
        assert np.max(np.abs(u2 - u)) <= 1e-14
        assert np.max(np.abs(v2 - v)) <= 1e-14
    with pytest.raises(ValueError):
        swe_transform(np.array([-1.0]), np.array([0.0]), np.array([0.0]))


def test_quasilinear_matrices_match_a_finite_difference_jacobian():
    # the target matrices must satisfy  J_flux(U) w + A_ax(U)^T w = Aq_ax(U) w
    # for every direction w and every choice of the splitting parameters,
    # where J_flux is the Jacobian of U -> A_ax(U) U.
    rng = np.random.default_rng(5)
    eps = 1e-6
    for alpha in (0.0, 0.37, 1.0):
        for beta in (0.0, 0.61, 1.0):
            m = make_model("swe2d", alpha=alpha, beta=beta)
            for trial in range(10):
                U = sample_state(m, (3,), rng)
                w = rng.normal(size=U.shape)
                Aq = [dense(M, 3, U.shape[1:]) for M in swe_quasilinear(U)]
                for ax in range(2):
                    def flux(state):
                        A, _ = dense_coeffs(m, state)
                        return matvec(A[ax], state)

                    jw = (flux(U + eps * w) - flux(U - eps * w)) / (2.0 * eps)
                    A, _ = dense_coeffs(m, U)
                    lhs = jw + matvec(np.swapaxes(A[ax], 0, 1), w)
                    rhs = matvec(Aq[ax], w)
                    assert np.max(np.abs(lhs - rhs)) <= 5e-8, (alpha, beta, ax)


def test_quasilinear_matrices_pinned_at_a_hand_checked_state():
    # U = (4, 6, 2): root = 2, u = 3, v = 1.  Entries worked out by hand from
    # the quasilinear form of the square-root variables.
    U = np.array([[4.0], [6.0], [2.0]])
    Aq1, Aq2 = (dense(M, 3, (1,)) for M in swe_quasilinear(U))
    want1 = np.array([[1.5, 2.0, 0.0], [0.875, 4.5, 0.0], [-0.375, 0.5, 3.0]])
    want2 = np.array([[0.5, 0.0, 2.0], [-0.375, 1.0, 1.5], [1.875, 0.0, 1.5]])
    assert np.max(np.abs(Aq1[..., 0] - want1)) <= 1e-15
    assert np.max(np.abs(Aq2[..., 0] - want2)) <= 1e-15


def test_coefficient_split_burgers_increment_is_analytic():
    m = make_model("burgers1d")
    rng = np.random.default_rng(9)
    Ub = rng.normal(size=(1, 7))
    Up = rng.normal(size=(1, 7))
    A_split, C_split = coeff_split(m, Ub, Up)
    A_prime, _ = dense_coeffs(m, Up)
    assert np.array_equal(np.stack([dense(M, 1, (7,)) for M in A_split]), A_prime)
    assert C_split == {}


def test_coefficient_split_is_exact_for_the_swe_total():
    # A(total) = A(mean) + increment must hold to roundoff
    m = make_model("swe2d", alpha=0.3, beta=0.8)
    rng = np.random.default_rng(10)
    Ub = sample_state(m, (4, 3), rng)
    Up = 0.05 * rng.normal(size=Ub.shape)
    A_split, _ = coeff_split(m, Ub, Up)
    A_prime = np.stack([dense(M, 3, (4, 3)) for M in A_split])
    A_bar, _ = dense_coeffs(m, Ub)
    A_tot, _ = dense_coeffs(m, Ub + Up)
    assert np.max(np.abs(A_bar + A_prime - A_tot)) <= 1e-13


def test_wavespeeds_burgers():
    m = make_model("burgers1d")
    s = wavespeeds(m, np.array([[0.9, -0.5]]))
    assert len(s) == 1
    assert abs(s[0] - 0.9) <= 1e-15
    with pytest.raises(ValueError, match="wave speeds"):
        wavespeeds(make_model("euler2d"), np.zeros((3, 4)))


def test_swe_wavespeeds_are_the_quasilinear_eigenvalue_radii():
    rng = np.random.default_rng(13)
    m = make_model("swe2d")
    for trial in range(20):
        U = sample_state(m, (5, 4), rng)
        calA, calB = (dense(M, 3, U.shape[1:]) for M in swe_quasilinear(U))
        speeds = wavespeeds(m, U)
        for ax, M in enumerate((calA, calB)):
            eig = np.linalg.eigvals(np.moveaxis(M.reshape(3, 3, -1), -1, 0))
            radius = float(np.max(np.abs(eig)))
            assert abs(speeds[ax] - radius) <= 1e-12 * radius


def test_swe_wavespeeds_do_not_depend_on_the_splitting():
    U = sample_state(make_model("swe2d"), (6, 5), np.random.default_rng(14))
    ref = wavespeeds(make_model("swe2d"), U)
    for a in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for b in (-2.0, -1.0, 0.0, 1.0, 2.0):
            assert wavespeeds(make_model("swe2d", alpha=a, beta=b), U) == ref


def test_admissibility_and_sampling():
    rng = np.random.default_rng(12)
    for kind in ALL_KINDS:
        m = make_model(kind)
        U = sample_state(m, (6,), rng)
        assert U.shape == (m.n_comp, 6)
        check_admissible(m, U)
    ms = make_model("swe2d")
    bad = np.zeros((3, 2))
    with pytest.raises(ValueError, match="depth"):
        check_admissible(ms, bad)
    for trial in range(50):
        U = sample_state(ms, (), rng)
        assert U[0] >= 0.5 and U[0] <= 2.0


def test_validate_grid_checks_dimension_and_cylindrical_radius():
    m2 = make_model("euler2d")
    g1 = make_grid(((0.0, 1.0),), (8,))
    with pytest.raises(ValueError):
        validate_grid(m2, g1)
    mc = make_model("euler3d_cyl")
    gneg = make_grid(((-0.1, 1.0), (0.0, 1.0), (0.0, 1.0)), (4, 4, 4),
                     axis_names=mc.axis_names)
    with pytest.raises(ValueError):
        validate_grid(mc, gneg)
    gok = make_grid(((0.3, 1.3), (0.0, 1.0), (0.0, 1.0)), (4, 4, 4),
                    periodic=(False, False, True), axis_names=mc.axis_names)
    validate_grid(mc, gok)


# The layout of each kind's tables, entries named (table, key) with table
# dim for C: the slots of the packed block, the entries that share one
# slot's view, the constant entries with their values, and the entries that
# depend on the coordinates only, with the axes along which they vary.
# swe2d is pinned with a linear Coriolis profile, a y-profile outside the
# block, and, as "swe2d_f0", with f1 = 0.
_SWE_SHARED = [[(0, (1, 1)), (0, (2, 2))], [(1, (1, 1)), (1, (2, 2))]]
_LAYOUTS = {
    "burgers1d": (1, [], {}, {}),
    "euler2d": (2, [[(0, (0, 0)), (0, (1, 1))], [(1, (0, 0)), (1, (1, 1))]],
                {(0, (0, 2)): 0.5, (0, (2, 0)): 0.5, (1, (1, 2)): 0.5, (1, (2, 1)): 0.5},
                {}),
    "euler3d_cyl": (6, [[(0, (0, 0)), (0, (1, 1)), (0, (2, 2))],
                        [(0, (0, 3)), (0, (3, 0)), (2, (2, 3)), (2, (3, 2))],
                        [(1, (0, 0)), (1, (1, 1)), (1, (2, 2))],
                        [(2, (0, 0)), (2, (1, 1)), (2, (2, 2))]],
                    {(1, (1, 3)): 0.5, (1, (3, 1)): 0.5, (3, (0, 3)): -0.5,
                     (3, (3, 0)): 0.5}, {}),
    "swe2d": (8, _SWE_SHARED, {}, {(2, (1, 2)): (1,), (2, (2, 1)): (1,)}),
    "swe2d_f0": (8, _SWE_SHARED, {(2, (1, 2)): -0.7, (2, (2, 1)): 0.7}, {}),
}


def layout_model(name):
    if name == "swe2d":
        return make_model("swe2d", alpha=0.4, beta=0.7, f0=0.7, f1=0.3)
    if name == "swe2d_f0":
        return make_model("swe2d", alpha=0.4, beta=0.7, f0=0.7)
    return make_model(name)


def table_layout(A, C):
    """(slot views, groups of entries sharing a view, constants, profiles)
    of tables on a grid, where only a constant is 0-d and a profile is a
    field of some length-1 axes, given as the axes it varies along."""
    views, constants, profiles = {}, {}, {}
    for t, M in enumerate((*A, C)):
        for key, field in M.items():
            assert isinstance(field, np.ndarray) and field.dtype == np.float64
            if field.ndim == 0:
                constants[t, key] = float(field)
            elif 1 in field.shape:
                profiles[t, key] = tuple(ax for ax, n in enumerate(field.shape) if n > 1)
            else:
                views.setdefault(id(field), (field, []))[1].append((t, key))
    shared = sorted(entries for _, entries in views.values() if len(entries) > 1)
    return [field for field, _ in views.values()], shared, constants, profiles


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_pattern_covers_every_coefficient_entry(kind):
    # The kernels walk the entry tables in key order, so the keys must be
    # row-major and the same at every state.  Each distinct field of the
    # state is one slot of a packed block, held as one view by every key
    # that repeats it, a constant entry is a 0-d float64, and swe2d's
    # Coriolis entries are y-profiles of the grid's sparse positions.
    for name in (kind, "swe2d_f0") if kind == "swe2d" else (kind,):
        m = layout_model(name)
        slots, want_shared, want_constants, want_profiles = _LAYOUTS[name]
        shape = (5,) * m.dim
        pos = make_grid(((0.3, 1.3),) + ((0.0, 1.0),) * (m.dim - 1), shape,
                        axis_names=m.axis_names).positions
        rng = np.random.default_rng(41)
        first = None
        for trial in range(20):
            A, C = coeff_matrices(m, sample_state(m, shape, rng), pos)
            assert len(A) == m.dim
            keys = [list(M) for M in (*A, C)]
            for table in keys:
                assert table == sorted(set(table))
            first = first or keys
            assert keys == first
            views, shared, constants, profiles = table_layout(A, C)
            block = views[0].base
            assert block.shape == (slots,) + shape
            assert all(v.base is block and v.shape == shape for v in views)
            # distinct views are distinct slots
            assert len({v.__array_interface__["data"][0] for v in views}) == slots
            assert shared == sorted(want_shared)
            assert constants == want_constants
            assert profiles == want_profiles


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_point_state_tables_match_the_grid_at_that_node(kind):
    # s = (): every field is 0-d, the point tables keep the grid tables'
    # shared views and constants, and each field and the dense matrices
    # equal the grid tables broadcast to the grid at the node, swe2d's
    # Coriolis y-profiles included.
    m = layout_model(kind)
    shape = (4,) * m.dim
    pos = make_grid(((0.3, 1.3),) + ((0.0, 1.0),) * (m.dim - 1), shape,
                    axis_names=m.axis_names).positions
    V = sample_state(m, shape, np.random.default_rng(42))
    node = (1,) * m.dim
    A, C = coeff_matrices(m, V, pos)
    Ap, Cp = coeff_matrices(m, V[(slice(None),) + node],
                            tuple(np.broadcast_to(p, shape)[node] for p in pos))
    constants = table_layout(A, C)[2]
    entries = {}
    for t, (M, Mp) in enumerate([*zip(A, Ap), (C, Cp)]):
        assert list(Mp) == list(M)
        for key, field in Mp.items():
            assert isinstance(field, np.ndarray) and field.shape == ()
            assert field.tobytes() == np.broadcast_to(M[key], shape)[node].tobytes()
            if (t, key) in constants:
                assert field.base is None and float(field) == constants[t, key]
            else:
                entries.setdefault(id(field), []).append((t, key))
        at_node = dense(M, m.n_comp, shape)[(Ellipsis,) + node]
        assert np.array_equal(dense_matrix(Mp, m.n_comp), at_node)
    assert sorted(e for e in entries.values() if len(e) > 1) == table_layout(A, C)[1]


# Reference: every entry as its own expression, evaluated apart from the
# packed block; the in-place tables must hold the same bits.
def reference_coefficients(model, V, pos):
    if model.kind == "burgers1d":
        return ({(0, 0): V[0] / 3.0},), {}
    if model.kind == "euler2d":
        u, v = V[0] / 2.0, V[1] / 2.0
        return ({(0, 0): u, (1, 1): u, (0, 2): 0.5, (2, 0): 0.5},
                {(0, 0): v, (1, 1): v, (1, 2): 0.5, (2, 1): 0.5}), {}
    if model.kind == "euler3d_cyl":
        hr = np.asarray(pos[0], dtype=np.float64) / 2.0
        u, v, w = hr * V[0], V[1] / 2.0, hr * V[2]
        A = ({(0, 0): u, (1, 1): u, (2, 2): u, (0, 3): hr, (3, 0): hr},
             {(0, 0): v, (1, 1): v, (2, 2): v, (1, 3): 0.5, (3, 1): 0.5},
             {(0, 0): w, (1, 1): w, (2, 2): w, (2, 3): hr, (3, 2): hr})
        return A, {(0, 1): -V[1], (1, 0): V[1], (0, 3): -0.5, (3, 0): 0.5}
    root = np.sqrt(V[0])
    a, b = model.alpha, model.beta
    ux, uy = V[1] / (2.0 * root), V[2] / (2.0 * root)
    A = ({(0, 0): a * V[1] / root, (0, 1): (1.0 - 3.0 * a) * root,
          (1, 0): 2.0 * a * root, (1, 1): ux, (2, 2): ux},
         {(0, 0): b * V[2] / root, (0, 2): (1.0 - 3.0 * b) * root,
          (2, 0): 2.0 * b * root, (1, 1): uy, (2, 2): uy})
    f = model.f0
    if model.f1 != 0.0:
        f = model.f0 + model.f1 * np.asarray(pos[1], dtype=np.float64)
    return A, {(1, 2): -f, (2, 1): f}


def reference_bytes(tables, s):
    """Each table as {key: bytes of its field broadcast to s}, keys sorted."""
    return [{key: np.broadcast_to(np.asarray(value, dtype=np.float64), s).tobytes()
             for key, value in sorted(table.items())} for table in tables]


def table_bytes(tables, s):
    """Each table as {key: bytes of its field broadcast to s}: a 0-d constant
    or a shared view reads as the filled field it stands for."""
    return [{key: np.broadcast_to(field, s).tobytes() for key, field in table.items()}
            for table in tables]


# Velocity-like components, which take signed zeros below.
_VELOCITIES = {"burgers1d": (0,), "euler2d": (0, 1), "euler3d_cyl": (0, 1, 2),
               "swe2d": (1, 2)}

_BIT_MODELS = [("burgers1d", {}), ("euler2d", {}), ("euler3d_cyl", {}),
               ("swe2d", {"alpha": 0.4, "beta": 0.7, "f0": 0.7}),
               ("swe2d", {"alpha": 0.4, "beta": 0.7, "f0": -0.2, "f1": 0.3})]
_BIT_IDS = [kind + ("_f1" if "f1" in params else "") for kind, params in _BIT_MODELS]


def bit_test_state(m, rng):
    """A grid, and on it a state whose velocities hold +0.0 and -0.0."""
    shape = {1: (11,), 2: (7, 6), 3: (5, 4, 3)}[m.dim]
    extents = ((0.3, 1.3),) + ((0.0, 1.0),) * (m.dim - 1)
    g = make_grid(extents, shape, axis_names=m.axis_names)
    V = sample_state(m, shape, rng)
    for c in _VELOCITIES[m.kind]:
        flat = V[c].reshape(-1)
        flat[::4] = -0.0
        flat[1::4] = 0.0
    return g, V


@pytest.mark.parametrize("kind, params", _BIT_MODELS, ids=_BIT_IDS)
def test_tables_keep_the_reference_bits(kind, params):
    m = make_model(kind, **params)
    g, V = bit_test_state(m, np.random.default_rng(43))
    pos = g.positions
    A, C = coeff_matrices(m, V, pos)
    A_ref, C_ref = reference_coefficients(m, V, pos)
    assert table_bytes((*A, C), g.shape) == reference_bytes((*A_ref, C_ref), g.shape)
    # 0-d point states, one of them at a signed zero of every velocity
    for node in ((0,) * m.dim, (1,) * m.dim, tuple(n - 1 for n in g.shape)):
        Vp = V[(slice(None),) + node]
        pos_p = tuple(np.broadcast_to(p, g.shape)[node] for p in pos)
        Ap, Cp = coeff_matrices(m, Vp, pos_p)
        A_ref, C_ref = reference_coefficients(m, Vp, pos_p)
        assert table_bytes((*Ap, Cp), ()) == reference_bytes((*A_ref, C_ref), ())


@pytest.mark.parametrize("kind, params", _BIT_MODELS, ids=_BIT_IDS)
def test_split_increments_keep_the_reference_bits(kind, params):
    # A' = A(mean + pert) - A(mean) per entry (burgers1d: A(pert)), as one
    # subtraction per entry of the reference tables
    m = make_model(kind, **params)
    rng = np.random.default_rng(44)
    g, Ub = bit_test_state(m, rng)
    _, Up = bit_test_state(m, rng)
    Up *= 0.05
    pos = g.positions
    A_split, C_split = coeff_split(m, Ub, Up, pos)
    if kind == "burgers1d":
        A_ref, C_ref = reference_coefficients(m, Up, pos)
    else:
        (A_bar, C_bar), (A_tot, C_tot) = (reference_coefficients(m, W, pos)
                                          for W in (Ub, Ub + Up))
        A_ref = tuple({key: tot[key] - bar[key] for key in tot}
                      for tot, bar in zip(A_tot, A_bar))
        C_ref = {key: C_tot[key] - C_bar[key] for key in C_tot}
    assert table_bytes((*A_split, C_split), g.shape) == \
        reference_bytes((*A_ref, C_ref), g.shape)
    # the increment of a constant or a coordinate profile is a 0-d exact zero
    if kind != "burgers1d":
        _, _, constants, profiles = table_layout(*coeff_matrices(m, Ub, pos))
        assert table_layout(A_split, C_split)[2] == \
            dict.fromkeys([*constants, *profiles], 0.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_coeff_matrices_peak_memory_is_its_block_and_little_more(kind):
    # Each distinct field is written straight into its slot of the block,
    # so one call holds at most its block of one slot per distinct field
    # plus 2.25 fields (swe2d holds the square root of the depth beside
    # it), on about 2^16 nodes.
    m = layout_model(kind)
    shape = {1: (1 << 16,), 2: (256, 256), 3: (16, 64, 64)}[m.dim]
    extents = ((0.3, 1.3),) + ((0.0, 1.0),) * (m.dim - 1)
    g = make_grid(extents, shape, axis_names=m.axis_names)
    pos = g.positions
    V = sample_state(m, shape, np.random.default_rng(45))
    field = V[0].nbytes
    tracemalloc.start()
    try:
        A, C = coeff_matrices(m, V, pos)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    slots = _LAYOUTS[kind][0]
    assert peak <= (slots + 2.25) * field, (peak / field, slots)
