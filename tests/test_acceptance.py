"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every test computes its result first, prints a single summary line, then
asserts, so the line is visible for failures as well as passes (run with
-rA or -s to see the lines for passing tests).
"""

import time

import numpy as np

import skewform as sk
from skewform.boundary import (
    analyze_boundary,
    make_sat_config,
    swe_normal_tangential,
    swe_rewritten_contraction,
)
from skewform.energy import boundary_contraction, energy_report, report_from_residual
from skewform.models import make_model, swe_transform, with_params
from skewform.sbp_core import build_operators, build_sbp_operator, make_grid
from skewform.spatial_op import (
    eval_dual_residual,
    eval_primal_residual,
    eval_remainder_H,
    standard_evaluator,
)
from skewform.timeint import Scenario, march
from skewform.verify import (
    check_alpha_independence,
    check_decomposition,
    check_duality,
    check_energy_identity,
)

ORDERS = ((2, 1), (4, 2))


def report(n, label, ok, detail):
    word = "PASS" if ok else "FAIL"
    print(f"[criterion {n}] {label}: {word} ({detail})")
    assert ok, f"criterion {n}: {label}: {detail}"


def test_criterion_1_energy_conservation_all_models():
    t0 = time.monotonic()
    rep = check_energy_identity(trials=100, seed=0)
    elapsed = time.monotonic() - t0
    ok = rep.passed and elapsed < 30.0
    report(1, "energy conservation, 4 models x 2 orders x 100 states",
           ok, f"max residual {rep.max_residual:.3e} vs 1e-12, {elapsed:.1f} s")


def test_criterion_2_sbp_structure():
    t0 = time.monotonic()
    worst_qqt = 0.0
    worst_const = 0.0
    worst_poly = 0.0
    for order in ORDERS:
        for n, periodic in ((33, False), (24, True)):
            h = 1.0 / (n if periodic else n - 1)
            op = build_sbp_operator(order, n, h, periodic=periodic)
            B = np.zeros((n, n))
            if not periodic:
                B[0, 0] = -1.0
                B[-1, -1] = 1.0
            worst_qqt = max(worst_qqt, float(np.max(np.abs(op.Q + op.Q.T - B))))
            worst_const = max(worst_const, float(np.max(np.abs(op.D @ np.ones(n)))))
        # polynomial exactness on the bounded operator: interior rows at the
        # interior order, closure rows at the closure order
        n = 33
        op = build_sbp_operator(order, n, 1.0 / (n - 1))
        x = np.linspace(0.0, 1.0, n)
        width = 1 if order == (2, 1) else 4
        closure = list(range(width)) + list(range(n - width, n))
        interior = [i for i in range(n) if i not in closure]
        for k in range(1, order[0] + 1):
            err = op.D @ x**k - k * x ** (k - 1)
            worst_poly = max(worst_poly, float(np.max(np.abs(err[interior]))))
            if k <= order[1]:
                worst_poly = max(worst_poly, float(np.max(np.abs(err[closure]))))
    elapsed = time.monotonic() - t0
    ok = worst_qqt <= 1e-15 and worst_const <= 1e-13 and worst_poly <= 1e-12 \
        and elapsed < 1.0
    report(2, "SBP structure (Q+Q^T=B, constants, polynomial exactness)",
           ok, f"Q+Q^T {worst_qqt:.1e}, D1 {worst_const:.1e}, "
               f"poly {worst_poly:.1e}, {elapsed:.2f} s")


def test_criterion_3_linearisation_contradiction_resolved():
    t0 = time.monotonic()
    rng = np.random.default_rng((2026, 3))
    K = 3
    a = rng.uniform(-0.3, 0.3, K)
    b = rng.uniform(-0.3, 0.3, K)

    def uprime(x):
        w = np.zeros_like(x)
        for k in range(K):
            w += a[k] * np.sin(2 * np.pi * (k + 1) * x) + b[k] * np.cos(
                2 * np.pi * (k + 1) * x)
        return w

    # reference for the limiting rate: a fine rectangle rule, which is exact
    # for trigonometric polynomials, applied to -mean_x * (u')^2
    nf = 4096
    xf = np.arange(nf) / nf
    ref = -float(np.sum(2 * np.pi * np.cos(2 * np.pi * xf) * uprime(xf) ** 2)) / nf

    m = make_model("burgers1d")
    ok = True
    details = []
    for order in ORDERS:
        errs = []
        for n in (48, 96, 192):
            g = make_grid(((0.0, 1.0),), (n,), periodic=(True,))
            ops = build_operators(g, order)
            x = g.coords[0]
            mean = np.sin(2 * np.pi * x)[None]
            up = uprime(x)[None]
            res_std = standard_evaluator(m, g, ops, mean)(up)
            rep_std = report_from_residual(res_std, 0.0)
            errs.append(abs(rep_std.volume_residual - ref))
            rep_new = energy_report(m, g, ops, up, mean)
            scale = 1.0 + abs(rep_new.rate) + abs(rep_new.boundary_flux)
            if abs(rep_new.volume_residual) > 1e-12 * scale:
                ok = False
                details.append(f"new-form residual {rep_new.volume_residual:.1e} at n={n}")
        p = order[0]
        o1 = float(np.log2(errs[0] / errs[1]))
        o2 = float(np.log2(errs[1] / errs[2]))
        if abs(o1 - p) > 0.3 or abs(o2 - p) > 0.3:
            ok = False
        details.append(f"order {order}: observed {o1:.2f}, {o2:.2f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 20.0
    report(3, "standard linearisation leaks at the quadrature rate, new form conserves",
           ok, "; ".join(details) + f", limit {ref:.4f}, {elapsed:.1f} s")


def test_criterion_4_decomposition_identity():
    t0 = time.monotonic()
    rep = check_decomposition(trials=50, seed=0)
    # quadratic remainder under power-of-two scaling, checked directly
    m = make_model("burgers1d")
    g = make_grid(((0.0, 1.0),), (33,))
    ops = build_operators(g, (4, 2))
    rng = np.random.default_rng(40)
    Ub = rng.normal(size=(1, 33))
    Up = rng.normal(size=(1, 33))
    eps = 2.0 ** -3
    H1 = eval_remainder_H(m, g, ops, Ub, Up)
    He = eval_remainder_H(m, g, ops, Ub, eps * Up)
    ratio = float(np.max(np.abs(He)) / (eps * eps * np.max(np.abs(H1))))
    elapsed = time.monotonic() - t0
    ok = rep.passed and abs(ratio - 1.0) <= 1e-12 and elapsed < 20.0
    report(4, "splitting closes: full = mean + linearised + quadratic remainder",
           ok, f"max defect {rep.max_residual:.3e}, scaling ratio {ratio!r}, "
               f"{elapsed:.1f} s")


def test_criterion_5_duality_and_self_adjointness():
    t0 = time.monotonic()
    rep = check_duality(trials=50, seed=0)
    # exact self-adjointness at the representative desk setups
    worst = 0.0
    for kind in ("burgers1d", "euler2d", "euler3d_cyl", "swe2d"):
        from skewform.verify import default_setup
        m, g, ops = default_setup(kind, (4, 2))
        rng = np.random.default_rng(41)
        from skewform.models import sample_state
        Phi = sample_state(m, g.shape, rng)
        rp = eval_primal_residual(m, g, ops, Phi, Phi)
        rd = eval_dual_residual(m, g, ops, Phi)
        worst = max(worst, float(np.max(np.abs(rd.spatial + rp.spatial))))
    elapsed = time.monotonic() - t0
    ok = rep.passed and worst == 0.0 and elapsed < 20.0
    report(5, "boundary duality identity and exact self-adjointness",
           ok, f"max duality residual {rep.max_residual:.3e}, "
               f"self-adjoint defect {worst!r}, {elapsed:.1f} s")


def test_criterion_6_parameter_independent_contraction():
    t0 = time.monotonic()
    rep = check_alpha_independence(trials=100, seed=0)
    elapsed = time.monotonic() - t0
    ok = rep.passed
    report(6, "contraction independent of the splitting parameters",
           ok, f"relative spread {rep.max_residual:.3e} vs 1e-13, "
               f"linearised witness exercised, {elapsed:.1f} s")


def test_criterion_7_boundary_condition_counting():
    t0 = time.monotonic()
    m = make_model("swe2d")
    inflow = np.array([1.0, -1.0, 0.0])
    outflow = np.array([1.0, 1.0, 0.0])
    normal = (1.0, 0.0)
    m11 = with_params(m, alpha=1.0, beta=1.0)
    lin_in = analyze_boundary(m11, inflow, normal, formulation="linearised")
    lin_out = analyze_boundary(m11, outflow, normal, formulation="linearised")
    rew_in = analyze_boundary(m, inflow, normal, formulation="nonlinear_rewritten")
    rew_out = analyze_boundary(m, outflow, normal, formulation="nonlinear_rewritten")
    counts_ok = (lin_in.bc_count, lin_out.bc_count, rew_in.bc_count,
                 rew_out.bc_count) == (3, 0, 2, 0)
    # scalar equality of the rewritten quadratic form with the plain one
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(100):
        phi = rng.uniform(0.5, 2.0)
        un = (1.0 if trial % 2 else -1.0) * rng.uniform(0.3, 1.5)
        ut = rng.uniform(-1.0, 1.0)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        nrm = (np.cos(theta), np.sin(theta))
        U = np.array([phi, un * nrm[0] - ut * nrm[1], un * nrm[1] + ut * nrm[0]])
        plain = boundary_contraction(
            with_params(m, alpha=rng.uniform(0, 1), beta=rng.uniform(0, 1)), U, nrm)
        rew = swe_rewritten_contraction(U, nrm)
        worst = max(worst, abs(rew - plain) / (1.0 + abs(plain)))
    elapsed = time.monotonic() - t0
    ok = counts_ok and worst <= 1e-13
    report(7, "boundary condition counts 3/0 linearised, 2/0 rewritten",
           ok, f"counts ({lin_in.bc_count},{lin_out.bc_count},"
               f"{rew_in.bc_count},{rew_out.bc_count}), scalar equality "
               f"{worst:.3e} vs 1e-13, {elapsed:.1f} s")


def marched_drift(model, grid, ops, U0, dt, t_final):
    sc = Scenario(model=model, grid=grid, ops=ops, mode="nonlinear",
                  initial=U0, dt=dt, t_final=t_final, stride=1)
    reps, _ = march(sc)
    worst = 0.0
    for r in reps:
        scale = 1.0 + abs(r.rate) + abs(r.boundary_flux) + abs(r.sat_contribution)
        worst = max(worst, abs(r.volume_residual) / scale)
    return abs(reps[-1].energy - reps[0].energy), worst


def test_criterion_8_conservative_time_marching():
    t0 = time.monotonic()
    mb = make_model("burgers1d")
    gb = make_grid(((0.0, 1.0),), (48,), periodic=(True,))
    opsb = build_operators(gb, (4, 2))
    u0 = (0.5 * np.sin(2 * np.pi * gb.coords[0]) + 0.1)[None]
    d1, w1 = marched_drift(mb, gb, opsb, u0, 4e-3, 0.2)
    d2, w2 = marched_drift(mb, gb, opsb, u0, 2e-3, 0.2)
    ratio_b = d1 / d2

    ms = make_model("swe2d", alpha=0.4, beta=0.7, f0=0.5)
    gs = make_grid(((0.0, 1.0), (0.0, 1.0)), (24, 24), periodic=(True, True))
    opss = build_operators(gs, (4, 2))
    X, Y = np.meshgrid(gs.coords[0], gs.coords[1], indexing="ij")
    U0 = swe_transform(1.0 + 0.2 * np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y),
                       0.4 * np.cos(2 * np.pi * X), 0.3 * np.sin(2 * np.pi * Y))
    d3, w3 = marched_drift(ms, gs, opss, U0, 2e-3, 0.2)
    d4, w4 = marched_drift(ms, gs, opss, U0, 1e-3, 0.2)
    ratio_s = d3 / d4
    worst_vr = max(w1, w2, w3, w4)
    elapsed = time.monotonic() - t0
    ok = worst_vr <= 1e-12 and 12.0 <= ratio_b <= 20.0 and 12.0 <= ratio_s <= 20.0
    report(8, "marching conserves per step; drift falls at fourth order",
           ok, f"worst residual {worst_vr:.3e} vs 1e-12, drift ratios "
               f"{ratio_b:.2f} (burgers), {ratio_s:.2f} (swe) in [12,20], "
               f"{elapsed:.1f} s")


def test_criterion_9_dissipative_penalties():
    t0 = time.monotonic()
    # characteristic inflow with homogeneous data: no energy enters
    mb = make_model("burgers1d")
    gb = make_grid(((0.0, 1.0),), (33,))
    opsb = build_operators(gb, (4, 2))
    u0 = (1.0 + 0.3 * np.sin(2 * np.pi * gb.coords[0]))[None]
    sat = make_sat_config(mb, gb, {
        "x_low": {"kind": "characteristic", "g": 0.0},
        "x_high": {"kind": "characteristic", "g": 0.0},
    })
    sc = Scenario(model=mb, grid=gb, ops=opsb, mode="nonlinear", initial=u0,
                  dt=2e-3, t_final=0.1, stride=1, sat=sat)
    reps, _ = march(sc)
    worst_rate = -np.inf
    for r in reps:
        scale = 1.0 + abs(r.rate) + abs(r.boundary_flux) + abs(r.sat_contribution)
        worst_rate = max(worst_rate, r.rate / scale)
    char_ok = worst_rate <= 1e-12

    # two-condition inflow on manufactured non-glancing states: the face
    # rate telescopes to the data-bound shape and is dissipative for
    # homogeneous data, up to 1e-10 slack
    ms = make_model("swe2d", alpha=0.4, beta=0.7)
    gs = make_grid(((0.0, 1.0), (0.0, 1.0)), (12, 10), periodic=(False, True))
    opss = build_operators(gs, (4, 2))
    rng = np.random.default_rng(43)
    worst_hom = -np.inf
    worst_gap = 0.0
    for trial in range(25):
        Y = np.meshgrid(gs.coords[0], gs.coords[1], indexing="ij")[1]
        phi = 1.0 + rng.uniform(-0.05, 0.05) * np.sin(2 * np.pi * Y)
        u = rng.uniform(0.3, 0.8) + 0.1 * np.cos(2 * np.pi * Y)
        v = rng.uniform(-0.3, 0.3) * np.sin(2 * np.pi * Y)
        U = swe_transform(phi, u, v)
        sat0 = make_sat_config(ms, gs, {"x_low": {"kind": "swe_two_condition"}})
        rep0 = energy_report(ms, gs, opss, U, sat=sat0)
        face0 = rep0.face_fluxes["x_low"] + rep0.sat_contribution
        scale0 = 1.0 + abs(rep0.rate) + abs(rep0.boundary_flux) + abs(
            rep0.sat_contribution)
        worst_hom = max(worst_hom, face0 / scale0)
        g2 = rng.uniform(1.2, 1.6)
        g3 = rng.uniform(0.0, 0.5)
        satg = make_sat_config(ms, gs, {"x_low": {
            "kind": "swe_two_condition", "g2": g2, "g3": g3}})
        repg = energy_report(ms, gs, opss, U, sat=satg)
        faceg = repg.face_fluxes["x_low"] + repg.sat_contribution
        Uf = U[:, 0, :]
        an, _ = swe_normal_tangential(Uf, (-1.0, 0.0))
        bound = float(np.sum(opss[1].P * (-Uf[0] ** 4 + g2 ** 4 + g3 ** 4)
                             / (np.abs(an) * np.sqrt(Uf[0]))))
        scaleg = 1.0 + abs(repg.rate) + abs(repg.boundary_flux) + abs(
            repg.sat_contribution)
        worst_gap = max(worst_gap, abs(faceg - bound) / scaleg)
    two_ok = worst_hom <= 1e-10 and worst_gap <= 1e-10
    elapsed = time.monotonic() - t0
    ok = char_ok and two_ok
    report(9, "penalties admit no spurious inflow energy",
           ok, f"characteristic worst rate {worst_rate:.3e} vs 1e-12, "
               f"homogeneous face rate {worst_hom:.3e} and bound gap "
               f"{worst_gap:.3e} vs 1e-10, {elapsed:.1f} s")
