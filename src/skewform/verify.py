"""Seeded batch checks of the structural identities.

Every check draws reproducible random states (one generator per trial,
keyed by seed and trial index), evaluates an identity whose exact value is
known independently of the discretisation under test, and reports the
worst normalised residual.  Tolerances are relative: each check defines a
scale of the form 1 + (magnitudes of the computed terms) so a residual of
1e-12*scale means the identity holds to rounding.

The sweeps stack the trials of one model kind and order into groups and
evaluate each group as one batched state; every trial's residual has the
bits of its own evaluation.

Order-of-accuracy checks encode "observed order >= required" as the
residual (required - observed), with tolerance zero.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .energy import (axis_contractions, boundary_contraction, energy_report,
                     report_from_residual)
from .models import (
    MODEL_KINDS,
    coeff_matrices,
    make_model,
    sample_state,
    swe_quasilinear,
    swe_transform,
    unit_normal,
    with_params,
)
from .sbp_core import (
    apply_derivative,
    build_operators,
    inner_product,
    make_grid,
)
from .spatial_op import (
    eval_new_linearised_pair,
    eval_remainder_H,
    matfield_apply,
    skew_evaluator,
)

ORDERS = ((2, 1), (4, 2))

# Values per stacked state of a sweep group, as _CHUNK bounds the pieces of
# an apply; a group holds as many trials as fit, at least one.  Traced, four
# groups of one kind peak at 7-16 times the 128 KiB of such a state, and a
# whole 50-trial suite at 1.7-2.2 MiB, near the ansatz suite's 1.8 MiB at
# 64^2, so the peak resident memory of verify all does not rise.  That
# rests on the coefficient tables' one block slot per distinct field and on
# each trial's draws being freed once stacked: with one slot per entry,
# this budget raised the peak by 0.5 MB.
_GROUP_VALUES = 16384

# Desk-scale default grids per model kind: (extents, shape).
_DESK_GRIDS = {
    "burgers1d": (((0.0, 1.0),), (33,)),
    "euler2d": (((0.0, 1.0), (0.0, 1.0)), (17, 17)),
    "euler3d_cyl": (((0.3, 1.3), (0.0, 1.0), (0.0, 1.0)), (9, 9, 9)),
    "swe2d": (((0.0, 1.0), (0.0, 1.0)), (17, 17)),
}


def default_model(kind: str):
    """The model instance the checks run: swe2d gets Coriolis and a
    nontrivial splitting so the skew zero-order terms are exercised."""
    if kind == "swe2d":
        return make_model("swe2d", alpha=0.4, beta=0.7, f0=0.7, f1=0.3)
    return make_model(kind)


def default_setup(kind: str, order):
    if kind not in _DESK_GRIDS:
        raise ValueError(f"unknown model '{kind}'; try one of {MODEL_KINDS}")
    extents, shape = _DESK_GRIDS[kind]
    model = default_model(kind)
    grid = make_grid(extents, shape, axis_names=model.axis_names)
    return model, grid, build_operators(grid, order)


@dataclass(frozen=True, eq=False)
class CheckReport:
    """Outcome of one batch check; passed iff max_residual <= tolerance."""

    name: str
    trials: int
    seed: int
    max_residual: float
    tolerance: float
    passed: bool
    worst: dict


def _state_hash(U: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(U).tobytes()).hexdigest()[:16]


def _hashes(U: np.ndarray) -> list[str]:
    """_state_hash of each trial of a stacked state (trials on axis 1)."""
    return [_state_hash(U[:, t]) for t in range(U.shape[1])]


def _sup(X: np.ndarray) -> np.ndarray:
    """max |X| of each trial of a stacked field (trials on axis 1)."""
    return np.abs(X).max(axis=(0, *range(2, X.ndim)))


def _cases(residuals, metas, **extra) -> list:
    """One case's (residual, meta) samples, one per trial."""
    return [(r, dict(meta, **extra)) for r, meta in zip(residuals, metas)]


def _sweep(kinds, orders, trials: int, seed: int, salt: int, draws: int, one) -> list:
    """Concatenated (residual, meta) samples over every kind, order and
    trial, in that nesting order, each trial's cases in the order one lists
    them.

    Each trial draws `draws` states in turn from its own generator keyed by
    (seed, salt + kind index, order index, trial).  The trials of a kind and
    order run in groups of at most _GROUP_VALUES values per state:
    one(model, grid, ops, states, meta) gets the group's states stacked as
    (n_comp, group, *grid), one array per draw, and meta with the model and
    order entries, and returns a list of cases, each a list of (residual,
    meta) samples in trial order.
    """
    samples = []
    for mi, kind in enumerate(kinds):
        for oi, order in enumerate(orders):
            model, grid, ops = default_setup(kind, order)
            meta = {"model": kind, "order": f"{order[0]},{order[1]}"}
            group = max(1, _GROUP_VALUES // (model.n_comp * math.prod(grid.shape)))
            for first in range(0, trials, group):
                # The states live only as long as the call that reads them.
                cases = one(model, grid, ops,
                            _draw(model, grid, draws, (seed, salt + mi, oi),
                                  range(first, min(first + group, trials))), meta)
                samples.extend(sample for trial in zip(*cases) for sample in trial)
    return samples


def _draw(model, grid, draws: int, key: tuple, trials) -> list:
    """The group's states, one (n_comp, group, *grid) array per draw; each
    trial's draws are freed once stacked."""
    drawn = []
    for trial in trials:
        rng = np.random.default_rng((*key, trial))
        drawn.append([sample_state(model, grid.shape, rng) for _ in range(draws)])
    return [np.stack(trial_states, axis=1) for trial_states in zip(*drawn)]


def _finish(name, trials, seed, tolerance, samples) -> CheckReport:
    """Aggregates (residual, meta) samples; ties keep the earliest, and the
    first NaN residual is the worst and fails the check.  A check that drew
    no sample has shown nothing and raises ValueError."""
    if not samples:
        raise ValueError(f"check '{name}' drew no samples; it needs at least"
                         " one trial, model kind and operator order")
    max_residual = -np.inf
    worst = {}
    for residual, meta in samples:
        if np.isnan(residual):
            max_residual, worst = residual, meta
            break
        if residual > max_residual:
            max_residual = residual
            worst = meta
    return CheckReport(
        name=name,
        trials=trials,
        seed=seed,
        max_residual=float(max_residual),
        tolerance=tolerance,
        passed=bool(max_residual <= tolerance),
        worst=worst,
    )


def check_energy_identity(kinds=MODEL_KINDS, trials: int = 100,
                          seed: int = 0, orders=ORDERS) -> CheckReport:
    """volume_residual <= 1e-12*scale for random admissible states, all
    models, both operator orders, nonlinear and frozen coefficients.  The
    V = U dual's identity is the nonlinear one negated exactly; the duality
    suite's dual_energy case checks the dual identity at V = Phi."""

    def one(model, grid, ops, states, meta):
        U, V_frozen = states
        shape = "x".join(map(str, grid.shape))
        hashes = _hashes(U)
        out = []
        for mode_kind, V in (("nonlinear", None), ("frozen", V_frozen)):
            rep = energy_report(model, grid, ops, U, V)
            scale = 1.0 + abs(rep.rate) + abs(rep.boundary_flux) \
                + abs(rep.sat_contribution)
            out.append([(r, dict(meta, mode=mode_kind, grid=shape, state_hash=h))
                        for r, h in zip(abs(rep.volume_residual) / scale, hashes)])
        return out

    samples = _sweep(kinds, orders, trials, seed, 0, 2, one)
    return _finish("energy_identity", trials, seed, 1e-12, samples)


def check_duality(kinds=MODEL_KINDS, trials: int = 50,
                  seed: int = 0, orders=ORDERS) -> CheckReport:
    """Three cases: bilinear_frozen (the bilinear boundary identity at a
    frozen V), bilinear_diagonal (its Phi = U energy identity) and
    dual_energy (the dual energy identity at V = Phi)."""

    def one(model, grid, ops, states, meta):
        U, Phi, V = states
        shape = "x".join(map(str, grid.shape))
        metas = [dict(meta, grid=shape, state_hash=h) for h in _hashes(U)]
        out = []

        # Bilinear identity at frozen coefficients V (C terms cancel
        # pairwise; Coriolis included for swe2d): one operator at V gives the
        # primal at U, the dual at Phi and both face functionals.  Only the
        # spatial parts are kept, so the group's tables at V go with it.
        at_V = skew_evaluator(model, grid, ops, V)
        primal, dual = at_V(U).spatial, at_V(Phi, dual=True).spatial
        rhs, rhs_e = at_V.face_functional(U, Phi), at_V.face_functional(U, U)
        del at_V
        lhs = inner_product(grid, ops, Phi, primal) - inner_product(grid, ops, U, dual)
        scale = 1.0 + abs(lhs) + abs(rhs)
        out.append(_cases(abs(lhs - rhs) / scale, metas, case="bilinear_frozen"))

        # Specialisation Phi = U halves to the energy identity.
        lhs_e = 2.0 * inner_product(grid, ops, U, primal)
        scale_e = 1.0 + abs(lhs_e) + abs(rhs_e)
        out.append(_cases(abs(lhs_e - rhs_e) / scale_e, metas, case="bilinear_diagonal"))

        # Dual energy identity: the dual volume residual at V = Phi vanishes.
        rep = report_from_residual(skew_evaluator(model, grid, ops, Phi)(Phi, dual=True), 0.0)
        scale_d = 1.0 + abs(rep.rate) + abs(rep.boundary_flux)
        out.append(_cases(abs(rep.volume_residual) / scale_d, metas, case="dual_energy"))
        return out

    samples = _sweep(kinds, orders, trials, seed, 17, 3, one)
    return _finish("duality", trials, seed, 1e-12, samples)


def ansatz_defect(model, grid, ops, U) -> float:
    """sup norm of (A_j U)_xj + A_j^T U_xj - calA_j U_xj over both axes."""
    A, _ = coeff_matrices(model, U, pos=grid.positions)
    cal = swe_quasilinear(U)
    worst = 0.0
    for ax in range(2):
        DU = apply_derivative(ops[ax], U, axis=ax)
        flux = apply_derivative(ops[ax], matfield_apply(A[ax], U), axis=ax)
        skew = matfield_apply(A[ax], DU, transpose=True)
        quasi = matfield_apply(cal[ax], DU)
        worst = max(worst, float(np.max(np.abs(flux + skew - quasi))))
    return worst


def check_swe_ansatz(levels=(16, 32, 64), seed: int = 0,
                     orders=ORDERS) -> CheckReport:
    """The quasilinear target matrices close the ansatz identity: the
    discrete defect converges at the interior order for every alpha, beta.

    Manufactured periodic fields, so the whole grid runs at interior
    accuracy and the observed order on the finest pair must reach
    p - 0.2.
    """
    if len(levels) < 2:
        raise ValueError("need at least two refinement levels")
    extents = ((0.0, 1.0), (0.0, 1.0))
    params = (0.0, 0.5, 1.0)
    samples = []
    combos = 0
    for order in orders:
        p = order[0]
        for alpha in params:
            for beta in params:
                model = make_model("swe2d", alpha=alpha, beta=beta)
                defects = []
                for n in levels:
                    grid = make_grid(extents, (n, n), periodic=(True, True),
                                     axis_names=model.axis_names)
                    ops = build_operators(grid, order)
                    x, y = grid.positions
                    phi = 1.0 + 0.3 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
                    u = np.cos(2 * np.pi * x)
                    v = np.sin(2 * np.pi * y)
                    defects.append(ansatz_defect(model, grid, ops,
                                                  swe_transform(phi, u, v)))
                observed = np.log2(defects[-2] / defects[-1])
                combos += 1
                samples.append((
                    (p - 0.2) - observed,
                    {"model": "swe2d", "order": f"{order[0]},{order[1]}",
                     "alpha": alpha, "beta": beta,
                     "observed_order": round(float(observed), 3),
                     "finest_defect": float(defects[-1])},
                ))
    return _finish("swe_ansatz", combos, seed, 0.0, samples)


# The alpha/beta sweep of the parameter-independence check.
_PARAM_SWEEP = (-2.0, -1.0, 0.0, 1.0, 2.0)


def split_sweep(model, state, normal) -> list:
    """boundary_contraction(with_params(model, alpha=a, beta=b), state,
    normal) of a 2D swe2d point state for a, b in _PARAM_SWEEP, alpha outer
    and beta inner, bit for bit.  A_1 reads alpha only and A_2 beta only, so
    one coefficient build per sweep value s, at alpha = beta = s, gives both
    axis terms: 5 builds for the 25 values."""
    n0, n1 = unit_normal(model, normal)
    q = [axis_contractions(with_params(model, alpha=s, beta=s), state)
         for s in _PARAM_SWEEP]
    return [(0.0 + n0 * qa[0]) + n1 * qb[1] for qa in q for qb in q]


def check_alpha_independence(trials: int = 100, seed: int = 0) -> CheckReport:
    """Nonlinear face contractions are splitting-independent; linearised
    ones are not (witnessed on a fixed nondegenerate mean/perturbation)."""
    base = make_model("swe2d")

    def one(trial):
        rng = np.random.default_rng((seed, 29, trial))
        U = sample_state(base, (), rng)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        normal = (float(np.cos(theta)), float(np.sin(theta)))
        values = split_sweep(base, U, normal)
        top = max(abs(v) for v in values)
        spread = (max(values) - min(values)) / (1.0 + top)
        return spread, {"model": "swe2d", "state_hash": _state_hash(U),
                        "normal": f"{normal[0]:.4f},{normal[1]:.4f}",
                        "case": "nonlinear_spread"}

    samples = [one(trial) for trial in range(trials)]

    # Linearised witness: mean (1,0,0), perturbation (1,1,0), x normal.
    # The contraction is (1-3a) + 2a = 1 - a, so alpha 0 and 1 differ by 1.
    mean = np.array([1.0, 0.0, 0.0])
    pert = np.array([1.0, 1.0, 0.0])
    c0, c1 = (boundary_contraction(with_params(base, alpha=a), pert, (1.0, 0.0), mean=mean)
              for a in (0.0, 1.0))
    wscale = 1.0 + abs(c0) + abs(c1)
    if abs(c0 - c1) < 1e-6 * wscale:
        samples.append((np.inf, {"case": "linearised_witness",
                                 "c_alpha0": c0, "c_alpha1": c1}))
    return _finish("alpha_independence", trials, seed, 1e-13, samples)


def check_decomposition(kinds=MODEL_KINDS, trials: int = 50,
                        seed: int = 0, orders=ORDERS) -> CheckReport:
    """full = mean-eq + pert-eq + remainder to 1e-12*scale; the remainder
    is exactly quadratic for burgers1d (linear coefficients, power-of-two
    scaling) and near-quadratic in an epsilon sweep for swe2d."""

    def one(model, grid, ops, states, meta):
        U_bar, U_prime = states
        U_prime *= 0.1  # in place: the unscaled draw is not kept
        metas = [dict(meta, state_hash=h) for h in _hashes(U_bar)]
        out = []

        res_mean, res_pert = eval_new_linearised_pair(model, grid, ops, U_bar, U_prime)
        mean, pert = res_mean.spatial, res_pert.spatial
        del res_pert  # before the full residual, so the suite's peak memory does not rise
        # The mean equation's operator, called at the total state: the full residual.
        full = res_mean.op(U_bar + U_prime).spatial
        del res_mean
        H = eval_remainder_H(model, grid, ops, U_bar, U_prime)
        defect = _sup(full - mean - pert - H)
        scale = 1.0 + _sup(full) + _sup(mean) + _sup(pert) + _sup(H)
        out.append(_cases(defect / scale, metas, case="decomposition"))

        if model.kind == "burgers1d":
            eps = 2.0 ** -3
            h1 = _sup(H)
            h2 = _sup(eval_remainder_H(model, grid, ops, U_bar, eps * U_prime))
            ratios = [float(r) for r in h2 / (eps * eps * h1)]
            out.append([(abs(ratio - 1.0), dict(m, case="quadratic_exact", ratio=repr(ratio)))
                        for ratio, m in zip(ratios, metas)])
        if model.kind == "swe2d" and ops[0].order == (4, 2):
            exps = (-2, -6)
            hs = [_sup(eval_remainder_H(model, grid, ops, U_bar, (2.0 ** e) * U_prime))
                  for e in exps]
            slopes = [np.log2(float(h0) / float(h1)) / (exps[0] - exps[1])
                      for h0, h1 in zip(*hs)]
            out.append([(0.0 if 1.9 <= slope <= 2.1 else np.inf,
                         dict(m, case="quadratic_slope", slope=round(float(slope), 4)))
                        for slope, m in zip(slopes, metas)])
        return out

    samples = _sweep(kinds, orders, trials, seed, 31, 2, one)
    return _finish("decomposition", trials, seed, 1e-12, samples)


CHECKS = {
    "energy": check_energy_identity,
    "duality": check_duality,
    "ansatz": check_swe_ansatz,
    "alpha": check_alpha_independence,
    "decomposition": check_decomposition,
}


def format_check_line(report: CheckReport) -> str:
    status = "PASS" if report.passed else "FAIL"
    return (
        f"{report.name:<22s} {status}  max residual {report.max_residual:.3e}"
        f"  tolerance {report.tolerance:.1e}  ({report.trials} trials, seed"
        f" {report.seed})"
    )


CHECK_CSV_HEADER = ("name", "trials", "seed", "max_residual", "tolerance",
                    "passed", "worst")


def check_csv_row(report: CheckReport) -> tuple:
    worst = ";".join(f"{k}={v}" for k, v in report.worst.items())
    return (report.name, report.trials, report.seed, repr(report.max_residual),
            repr(report.tolerance), int(report.passed), worst)
