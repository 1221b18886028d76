"""Tests for the built-in verification checks."""

import dataclasses
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from skewform import verify
from skewform.energy import boundary_contraction
from skewform.models import coeff_matrices, make_model, sample_state, with_params
from skewform.verify import (
    ansatz_defect,
    check_alpha_independence,
    check_csv_row,
    check_decomposition,
    check_duality,
    check_energy_identity,
    check_swe_ansatz,
    default_model,
    default_setup,
    format_check_line,
)


def test_energy_identity_check_passes_and_reports():
    rep = check_energy_identity(trials=5, seed=3)
    assert rep.passed
    assert rep.name == "energy_identity"
    assert rep.max_residual <= rep.tolerance
    assert rep.trials == 5 and rep.seed == 3
    assert isinstance(rep.worst, dict) and rep.worst


def test_duality_check_passes():
    rep = check_duality(trials=4, seed=5)
    assert rep.passed
    assert rep.max_residual <= 1e-12


def test_duality_check_evaluates_each_dual_residual_once(monkeypatch):
    # every dual evaluation, by any path, goes through an operator's call
    from skewform import spatial_op
    calls = []

    def counted(op, U, *args, _call=spatial_op.Operator.__call__, dual=False, **kwargs):
        if dual:
            calls.append(np.shape(U)[1])
        return _call(op, U, *args, dual=dual, **kwargs)
    monkeypatch.setattr(spatial_op.Operator, "__call__", counted)
    # two burgers1d states of 33 nodes per group: 3 trials run as 2 groups
    monkeypatch.setattr(verify, "_GROUP_VALUES", 2 * 33)
    rep = check_duality(kinds=("burgers1d",), trials=3, seed=2, orders=((2, 1),))
    assert rep.passed
    # per group: the dual at frozen coefficients V and at the dual state,
    # which the dual energy report reuses
    assert calls == [2, 2, 1, 1]


def test_duality_check_builds_one_operator_per_coefficient_state(monkeypatch):
    # per group exactly two table builds, one at V and one at Phi: the
    # operator at V also gives both face functionals.  9 trials make one
    # group per kind and order here.
    from skewform import spatial_op
    shapes = []
    build = spatial_op.coeff_matrices

    def recorded(model, V, pos=None):
        shapes.append(np.shape(V))
        return build(model, V, pos)
    monkeypatch.setattr(spatial_op, "coeff_matrices", recorded)
    rep = check_duality(kinds=("burgers1d", "euler2d"), trials=9, seed=0)
    assert rep.passed
    assert shapes == [(1, 9, 33)] * 2 * 2 + [(3, 9, 17, 17)] * 2 * 2


def test_decomposition_check_builds_one_operator_per_coefficient_state(monkeypatch):
    # per group exactly two table builds, one at the total state and one at
    # the mean: the mean equation's operator also gives the full residual.
    from skewform import spatial_op
    shapes = []
    build = spatial_op.coeff_matrices

    def recorded(model, V, pos=None):
        shapes.append(np.shape(V))
        return build(model, V, pos)
    monkeypatch.setattr(spatial_op, "coeff_matrices", recorded)
    rep = check_decomposition(kinds=("burgers1d", "euler2d"), trials=9, seed=0)
    assert rep.passed
    assert shapes == [(1, 9, 33)] * 2 * 2 + [(3, 9, 17, 17)] * 2 * 2


def test_a_nan_residual_is_the_worst_and_fails_the_check():
    nan = float("nan")
    rep = verify._finish("x", 1, 0, 1e-12, [(nan, {"at": 0}), (nan, {"at": 1})])
    assert math.isnan(rep.max_residual) and not rep.passed
    assert rep.worst == {"at": 0}
    mixed = [(1e-15, {"at": 0}), (nan, {"at": 1}), (5.0, {"at": 2}), (nan, {"at": 3})]
    rep = verify._finish("x", 1, 0, 1e-12, mixed)
    assert math.isnan(rep.max_residual) and not rep.passed
    assert rep.worst == {"at": 1}
    # finite residuals: the largest, ties keeping the earliest
    rep = verify._finish("x", 1, 0, 1e-12, [(1e-15, {"at": 0}), (2e-15, {"at": 1}),
                                             (2e-15, {"at": 2})])
    assert rep.max_residual == 2e-15 and rep.passed and rep.worst == {"at": 1}


def test_a_nan_in_one_trial_of_a_group_fails_the_sweep(monkeypatch):
    # the batched report of a group carries one trial's NaN to that trial
    report = verify.energy_report

    def one_nan(*args, **kwargs):
        rep = report(*args, **kwargs)
        vr = np.array(rep.volume_residual)
        vr[2] = np.nan
        return dataclasses.replace(rep, volume_residual=vr)

    monkeypatch.setattr(verify, "energy_report", one_nan)
    rep = check_energy_identity(kinds=("euler2d",), trials=5, seed=4, orders=((2, 1),))
    assert math.isnan(rep.max_residual) and not rep.passed
    model, grid, ops = default_setup("euler2d", (2, 1))
    U = verify.sample_state(model, grid.shape, np.random.default_rng((4, 0, 0, 2)))
    assert rep.worst == {"model": "euler2d", "order": "2,1", "mode": "nonlinear",
                         "grid": "17x17", "state_hash": verify._state_hash(U)}


@pytest.mark.parametrize("check, multiple", [(check_energy_identity, 12.0),
                                             (check_duality, 16.0),
                                             (check_decomposition, 17.0)],
                         ids=["energy", "duality", "decomposition"])
def test_a_batched_sweep_holds_its_group_budget(check, multiple):
    # the peak is set by the group's budget, not by the trial count: four
    # (4,2) groups peak at most at 11.1, 14.7 and 15.7 times the budget's
    # bytes (swe2d; euler3d_cyl 10.4, 13.8 and 13.2), and each bound is at
    # most 10% above.  With one block slot per coefficient entry the same
    # budget peaked at 13.3, 16.7 and 19.0 on euler3d_cyl.
    budget = 8 * verify._GROUP_VALUES
    for kind in ("euler2d", "euler3d_cyl", "swe2d"):
        model, grid, _ = default_setup(kind, (4, 2))
        group = verify._GROUP_VALUES // (model.n_comp * math.prod(grid.shape))
        check(kinds=(kind,), trials=1, orders=((4, 2),))  # first-call allocations
        tracemalloc.start()
        try:
            check(kinds=(kind,), trials=4 * group, orders=((4, 2),))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= multiple * budget, (kind, peak / budget)


def test_a_sweep_frees_each_trials_draws_before_its_group_runs(monkeypatch):
    refs = []

    def recorded(*args):
        state = sample_state(*args)
        refs.append(weakref.ref(state))
        return state

    monkeypatch.setattr(verify, "sample_state", recorded)
    drawn = []

    def one(model, grid, ops, states, meta):
        drawn.append(len(refs))
        assert all(ref() is None for ref in refs)
        return [[(0.0, meta)] * states[0].shape[1]]

    # euler2d groups of 18 trials, two draws each: 20 trials run as 18 + 2
    samples = verify._sweep(("euler2d",), ((2, 1),), 20, 0, 0, 2, one)
    assert drawn == [36, 40] and len(samples) == 20


def test_ansatz_check_passes():
    rep = check_swe_ansatz(levels=(12, 24, 48), seed=1)
    assert rep.passed
    with pytest.raises(ValueError, match="^need at least two refinement levels$"):
        check_swe_ansatz(levels=(16,))


def test_alpha_independence_check_passes():
    rep = check_alpha_independence(trials=25, seed=7)
    assert rep.passed
    assert rep.max_residual <= 1e-13


def test_the_split_sweep_gives_every_pairings_contraction_bitwise():
    # one coefficient build per sweep value s, at alpha = beta = s, serves
    # every (alpha, beta) pairing; velocities of +0.0 and -0.0 and normals
    # with a zero or -0.0 component reach the sign of zero
    base = make_model("swe2d")
    sweep = verify._PARAM_SWEEP
    rng = np.random.default_rng(28)
    for trial in range(210):
        U = sample_state(base, (), rng)
        if trial % 5 == 1:
            U[1:] = 0.0
        elif trial % 5 == 2:
            U[1:] = -0.0
        elif trial % 5 == 3:
            U[rng.integers(1, 3)] = rng.choice((0.0, -0.0))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        normal = ((1.0, 0.0), (-0.0, -1.0), (float(np.cos(theta)), float(np.sin(theta))))[
            trial % 3]
        got = verify.split_sweep(base, U, normal)
        want = [boundary_contraction(with_params(base, alpha=a, beta=b), U, normal)
                for a in sweep for b in sweep]
        assert np.array(got).tobytes() == np.array(want).tobytes(), trial


def test_each_axis_table_reads_only_its_own_splitting_parameter():
    # on a desk grid, A_1 is the same for every beta and A_2 for every alpha
    model, grid, _ = default_setup("swe2d", (4, 2))
    V = sample_state(model, grid.shape, np.random.default_rng(29))
    sweep = verify._PARAM_SWEEP

    def tables(a, b):
        return coeff_matrices(with_params(model, alpha=a, beta=b), V, grid.positions)[0]

    same = {s: tables(s, s) for s in sweep}
    for a in sweep:
        for b in sweep:
            A = tables(a, b)
            for ax, s in ((0, a), (1, b)):
                assert list(A[ax]) == list(same[s][ax])
                for key, field in A[ax].items():
                    assert field.tobytes() == same[s][ax][key].tobytes(), (a, b, ax, key)


def test_decomposition_check_passes():
    rep = check_decomposition(trials=5, seed=9)
    assert rep.passed


def test_checks_are_bitwise_deterministic():
    a = check_energy_identity(kinds=("burgers1d", "swe2d"), trials=6, seed=11)
    b = check_energy_identity(kinds=("burgers1d", "swe2d"), trials=6, seed=11)
    assert a.max_residual == b.max_residual
    assert a.worst == b.worst
    c = check_energy_identity(kinds=("burgers1d", "swe2d"), trials=6, seed=12)
    assert c.max_residual != a.max_residual or c.worst != a.worst


def test_ansatz_defect_shrinks_under_refinement():
    from skewform.models import swe_transform
    from skewform.sbp_core import build_operators, make_grid

    m = default_model("swe2d")
    defects = []
    for n in (16, 32, 64):
        g = make_grid(((0.0, 1.0), (0.0, 1.0)), (n, n), periodic=(True, True))
        ops = build_operators(g, (4, 2))
        X, Y = np.meshgrid(g.coords[0], g.coords[1], indexing="ij")
        phi = 1.0 + 0.3 * np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)
        U = swe_transform(phi, np.cos(2 * np.pi * X), np.sin(2 * np.pi * Y))
        defects.append(ansatz_defect(m, g, ops, U))
    order = np.log2(defects[-2] / defects[-1])
    assert order > 4.0 - 0.3


def test_report_formatting():
    rep = check_alpha_independence(trials=5, seed=15)
    line = format_check_line(rep)
    assert "alpha" in line and ("PASS" in line or "FAIL" in line)
    assert "PASS" in line
    row = check_csv_row(rep)
    assert row[0] == "alpha_independence"
    assert len(row) == len(check_csv_row(check_duality(trials=2, seed=1)))


def test_default_setup_round_trip():
    m, g, ops = default_setup("euler3d_cyl", (2, 1))
    assert m.kind == "euler3d_cyl"
    assert g.shape == (9, 9, 9)
    assert len(ops) == 3


def test_checks_reject_unknown_kinds():
    with pytest.raises(ValueError, match="unknown model"):
        check_energy_identity(kinds=("advection",), trials=1, seed=0)


@pytest.mark.parametrize("name, call", [
    ("energy_identity", lambda: check_energy_identity(trials=0)),
    ("duality", lambda: check_duality(kinds=())),
    ("decomposition", lambda: check_decomposition(orders=())),
    ("alpha_independence", lambda: check_alpha_independence(trials=0)),
    ("swe_ansatz", lambda: check_swe_ansatz(orders=())),
], ids=["energy_no_trials", "duality_no_kinds", "decomposition_no_orders",
        "alpha_no_trials", "ansatz_no_orders"])
def test_a_check_without_samples_is_refused(name, call):
    # a suite that drew nothing has shown nothing: no vacuous pass
    with pytest.raises(ValueError, match=f"check '{name}' drew no samples"):
        call()


@pytest.mark.parametrize("seed", [0, 1])
def test_no_case_of_a_sampled_suite_repeats_another_trial_for_trial(monkeypatch, seed):
    # Two cases of one model kind and order whose residuals agree on every
    # trial check one thing twice, and the second can never be the worst.
    # A case that is 0 on every trial is true by construction, unless it is
    # one of the pass/fail encodings (quadratic_exact, quadratic_slope),
    # which may agree with each other.
    captured = {}
    finish = verify._finish

    def capture(name, trials, seed, tolerance, samples):
        captured[name] = samples
        return finish(name, trials, seed, tolerance, samples)

    monkeypatch.setattr(verify, "_finish", capture)
    check_energy_identity(trials=3, seed=seed)
    check_duality(trials=3, seed=seed)
    check_decomposition(trials=3, seed=seed)
    check_alpha_independence(trials=3, seed=seed)
    assert len(captured) == 4
    for name, samples in captured.items():
        cases = {}
        for residual, meta in samples:
            group = (meta.get("model"), meta.get("order"))
            case = meta.get("case", meta.get("mode"))
            cases.setdefault(group, {}).setdefault(case, []).append(residual)
        for group, by_case in cases.items():
            for case, residuals in by_case.items():
                if not any(residuals):
                    assert case in ("quadratic_exact", "quadratic_slope"), (name, group, case)
            for a, b in itertools.combinations(by_case, 2):
                if by_case[a] == by_case[b]:
                    assert not any(by_case[a]), (name, group, a, b)
