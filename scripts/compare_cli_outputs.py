"""Byte-compare the skewform CLI of two source trees.

    python3 scripts/compare_cli_outputs.py PARENT_SRC CHANGE_SRC [--work DIR]

PARENT_SRC and CHANGE_SRC are checkouts (or their src/ directories).  A case
is one command line of `python -m skewform.cli` and the configs written into
its working directory before it runs: `run` on each bundled scenario of
either tree, then one case per row of CASES, whose comment says what the
case checks and, after "By design:", how it differs against older trees.

Each case runs once per tree, with that tree on PYTHONPATH, from a fresh
working directory at the same relative path under DIR (a temporary
directory by default), so printed paths agree.  A DIR that already holds
`parent/` or `change/` is refused before any case runs, and nothing in it
is deleted.  Every case writes its files into `out/` of that directory.
A case differs when its exit code, stdout, stderr, the set of files it
wrote or the bytes of any of them differ.  Each difference is printed;
the exit code is 0 when every case matched and 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

STRIDE_TYPO_CFG = """\
[model]
kind = burgers1d

[grid]
extents = 0,1
shape = 64
periodic = true

[scheme]
order = 4,2
mode = nonlinear
dt = 0.005
t_final = 0.5
stride = ten

[initial]
family = trig
comp0 = 0.0 0.1 sin:1
"""

# The standard linearisation of swe2d next to the coupled split: an
# admissible mean (depth >= 0.9) and dt well inside the CFL limit.
SWE_STANDARD_VS_NEW_CFG = """\
[model]
kind = swe2d
alpha = 0.4
beta = 0.7
f0 = 0.5
f1 = 0.3

[grid]
extents = 0,1 / 0,1
shape = 17 / 17
periodic = false / true

[scheme]
order = 4,2
mode = standard_vs_new
dt = 0.002
t_final = 0.04
stride = 5
cfl = 0.2

[coefficient]
family = trig
comp0 = 1.0 0.1 sin:1 cos:1
comp1 = 0.2 0.1 cos:1 one
comp2 = -0.1 0.1 one sin:1

[perturbation]
family = trig
comp0 = 0.0 0.01 cos:1 sin:1
comp1 = 0.0 0.01 sin:2 one
comp2 = 0.0 0.01 one cos:1

[output]
prefix = swe_standard_vs_new
"""

# A closure the swe2d standard linearisation refuses: it marches a primitive
# perturbation, and the closures are written for transformed variables.
SWE_STANDARD_SAT_CFG = SWE_STANDARD_VS_NEW_CFG + """
[sat]
x_low = swe_two_condition g2=1.0 g3=0.2
"""

# A bounded burgers config with inflow at both faces (u = 0.5 cos(2 pi x)
# on [0, 0.5]), each face closed by a characteristic penalty.
BURGERS_CHARACTERISTIC_CFG = """\
[model]
kind = burgers1d

[grid]
extents = 0,0.5
shape = 33
periodic = false

[scheme]
order = 4,2
mode = nonlinear
dt = 0.002
t_final = 0.1
stride = 5

[initial]
family = trig
comp0 = 0.0 0.5 cos:1

[sat]
x_low = characteristic g=0.1
x_high = characteristic g=-0.2 scale=2.0

[output]
prefix = burgers_characteristic
"""

# The two-condition closure with active inflow on a (4,2) grid.  The data
# g2, g3 differ from the inflow state.
SWE_TWO_CONDITION_42_CFG = """\
[model]
kind = swe2d
alpha = 0.5
beta = 0.8

[grid]
extents = 0,1 / 0,1
shape = 17 / 17
periodic = false / true

[scheme]
order = 4,2
mode = nonlinear
dt = 0.002
t_final = 0.06
stride = 5
cfl = 0.3

[initial]
family = trig
variables = primitive
comp0 = 1.0 0.05 sin:1 cos:1
comp1 = 0.8 0.1 one cos:1
comp2 = 0.1 0.05 cos:1 sin:1

[sat]
x_low = swe_two_condition g2=1.3 g3=0.2 scale=1.5
x_high = none

[output]
prefix = swe_two_condition_42
"""

# The two-condition march on a 129 x 129 grid, bounded in x, for 5 steps.
SWE_BOUNDED_129_CFG = SWE_TWO_CONDITION_42_CFG.replace(
    "shape = 17 / 17", "shape = 129 / 129").replace(
    "dt = 0.002\nt_final = 0.06", "dt = 0.001\nt_final = 0.005").replace(
    "prefix = swe_two_condition_42", "prefix = swe_bounded_129")

# The fewest nodes of a bounded (4,2) grid: every row of D is a boundary
# row.  An inflow penalty at x_low keeps the march bounded.
BURGERS_BOUNDED_8_CFG = """\
[model]
kind = burgers1d

[grid]
extents = 0,1
shape = 8
periodic = false

[scheme]
order = 4,2
mode = nonlinear
dt = 0.005
t_final = 0.2
stride = 5

[initial]
family = trig
comp0 = 0.5 0.1 sin:1

[sat]
x_low = characteristic g=0.5
x_high = none

[output]
prefix = burgers_bounded_8
"""

# The fewest nodes of a periodic (4,2) grid: one interior row, four wrap rows.
BURGERS_PERIODIC_5_CFG = """\
[model]
kind = burgers1d

[grid]
extents = 0,1
shape = 5
periodic = true

[scheme]
order = 4,2
mode = nonlinear
dt = 0.005
t_final = 0.2
stride = 5

[initial]
family = trig
comp0 = 0.0 0.1 sin:1

[output]
prefix = burgers_periodic_5
"""

# A nonlinear swe2d march bounded in both axes on a non-square grid, so the
# apply along y crosses the boundary rows of a multi-line field; every face
# is left open.
SWE_BOUNDED_17X13_CFG = """\
[model]
kind = swe2d
alpha = 0.5
beta = 0.8

[grid]
extents = 0,1 / 0,0.75
shape = 17 / 13
periodic = false / false

[scheme]
order = 4,2
mode = nonlinear
dt = 0.002
t_final = 0.04
stride = 5
cfl = 0.3

[initial]
family = trig
variables = primitive
comp0 = 1.0 0.05 sin:1 cos:1
comp1 = 0.3 0.1 one cos:1
comp2 = 0.1 0.05 cos:1 sin:1

[sat]
x_low = none
x_high = none
y_low = none
y_high = none

[output]
prefix = swe_bounded_17x13
"""

# A bounded (4,2) burgers grid with inflow at x_low closed by a characteristic
# penalty, for the march modes no other case runs alone; burgers_mode_cfg
# adds the field sections a case's mode reads.
BURGERS_MODES_CFG = """\
[model]
kind = burgers1d

[grid]
extents = 0,1
shape = 33
periodic = false

[scheme]
order = 4,2
mode = {mode}
dt = 0.004
t_final = 0.1
stride = 5

[sat]
x_low = characteristic g=1.0
x_high = none

[output]
prefix = burgers_{mode}
"""

BURGERS_FIELDS = {
    "initial": "family = trig\ncomp0 = 1.0 0.1 sin:1\n",
    "coefficient": "family = trig\ncomp0 = 1.0 0.2 cos:1\n",
    "perturbation": "family = trig\ncomp0 = 0.0 0.01 sin:2\n",
}


def burgers_mode_cfg(mode, *sections):
    return BURGERS_MODES_CFG.format(mode=mode) + "".join(
        f"\n[{section}]\n{BURGERS_FIELDS[section]}" for section in sections)


BURGERS_COUPLED_CFG = burgers_mode_cfg("new_linearised_coupled", "initial", "perturbation")

# The swe2d standard linearisation on a grid periodic in both axes, which
# convergence can refine (the SAT-free faces it takes are all periodic).
SWE_STANDARD_PERIODIC_CFG = SWE_STANDARD_VS_NEW_CFG.replace(
    "mode = standard_vs_new", "mode = standard_linearised").replace(
    "periodic = false / true", "periodic = true / true")

# A frozen swe2d march whose marched state has negative depth (down to
# -0.5) about an admissible primitive coefficient field: the frozen operator
# is linear in the marched state and reads admissibility at the coefficient.
SWE_FROZEN_DRY_CFG = """\
[model]
kind = swe2d
alpha = 0.3
beta = 0.6
f0 = 0.5
f1 = 0.4

[grid]
extents = 0,1 / 0,1
shape = 17 / 17
periodic = true / true

[scheme]
order = 4,2
mode = frozen
dt = 0.002
t_final = 0.02
stride = 5

[coefficient]
family = trig
variables = primitive
comp0 = 1.0 0.2 sin:1 cos:1
comp1 = 0.3 0.1 cos:1 one
comp2 = -0.2 0.1 one sin:1

[initial]
family = trig
comp0 = 0.0 0.5 sin:1 cos:1
comp1 = 0.0 0.1 cos:1 one
comp2 = 0.0 0.1 one sin:1

[output]
prefix = swe_frozen_dry
"""

# The dual march of the same swe2d coefficient state and initial field.
SWE_DUAL_MEAN_CFG = SWE_FROZEN_DRY_CFG.replace("mode = frozen", "mode = dual").replace(
    "prefix = swe_frozen_dry", "prefix = swe_dual_mean")

# The periodic burgers march of the stride typo case with a valid stride, the
# base of the march-setting refusals.
BURGERS_NONLINEAR_CFG = STRIDE_TYPO_CFG.replace("stride = ten", "stride = 5")

# The burgers standard_vs_new comparison on 2600 periodic nodes, two blocks
# of the final-state writer and a partial one, for four steps.
BURGERS_STANDARD_VS_NEW_2600_CFG = """\
[model]
kind = burgers1d

[grid]
extents = 0,1
shape = 2600
periodic = true

[scheme]
order = 4,2
mode = standard_vs_new
dt = 0.00005
t_final = 0.0002
stride = 2

[coefficient]
family = trig
comp0 = 0.0 1.0 sin:1

[perturbation]
family = trig
comp0 = 0.0 0.01 cos:1

[output]
prefix = burgers_standard_vs_new_2600
"""

# A march of the incompressible euler model, whose norm matrix is singular.
EULER2D_MARCH_CFG = """\
[model]
kind = euler2d

[grid]
extents = 0,1 / 0,1
shape = 9 / 9

[scheme]
order = 2,1
mode = nonlinear
dt = 0.01
t_final = 0.1

[initial]
family = constant
comp0 = 1.0
comp1 = 0.0
comp2 = 0.0
"""

# An identity run on a bounded grid with a [sat] entry identity never reads.
IDENTITY_SAT_CFG = """\
[model]
kind = burgers1d

[grid]
extents = 0,1
shape = 16
periodic = false

[scheme]
order = 2,1
mode = identity

[identity]
trials = 2

[sat]
x_low = bogus g=1
"""


def _cyl_identity(mode: str) -> str:
    """An euler3d_cyl identity run of three trials in the given [identity]
    mode, on an annulus periodic in z."""
    return f"""\
[model]
kind = euler3d_cyl

[grid]
extents = 0.3,1.3 / 0,1 / 0,1
shape = 9 / 9 / 9
periodic = false / false / true

[scheme]
order = 4,2
mode = identity

[identity]
trials = 3
seed = 2
mode = {mode}
"""


def _run(name: str, text: str) -> tuple:
    """The row of a case that runs the config text, written as name.cfg."""
    return ["run", "--config", f"{name}.cfg"], {f"{name}.cfg": text}


def _burgers_x_low(entry: str) -> str:
    """BURGERS_CHARACTERISTIC_CFG with entry as its x_low closure."""
    return BURGERS_CHARACTERISTIC_CFG.replace("x_low = characteristic g=0.1",
                                              f"x_low = {entry}")


# The cases after the bundled scenarios, in the order they run: each row is
# a command line and the configs written into the case's directory first.
# A refuse_ case checks the bytes of a refusal path.
CASES = {
    "verify_all": (["verify", "all", "--seed", "3", "--trials", "7"], {}),
    # One trial: each sweep group holds one state.
    "verify_all_one_trial": (["verify", "all", "--seed", "5", "--trials", "1"], {}),
    # A multiple of no group size (496, 18 and 5 trials of a burgers1d,
    # euler2d or swe2d, and euler3d_cyl state): 249 = 13*18 + 15 = 49*5 + 4,
    # so every kind's last group is partial.
    "verify_all_partial_groups": (["verify", "all", "--seed", "1", "--trials", "249"], {}),
    # One full euler2d and swe2d group, and three full euler3d_cyl groups
    # before a partial one.
    "verify_all_full_groups": (["verify", "all", "--seed", "4", "--trials", "18"], {}),
    # verify all at its default trial count, seeds 0-9: every suite's
    # checks.csv and printed residuals over ten seeds.
    **{f"verify_all_seed_{k}": (["verify", "all", "--seed", str(k)], {}) for k in range(10)},
    "convergence_burgers_periodic": (["convergence", "--config", "burgers_periodic",
                                      "--levels", "24,48,96"], {}),
    "convergence_swe_coriolis_periodic": (["convergence", "--config", "swe_coriolis_periodic",
                                           "--levels", "16,32,64"], {}),
    "boundary_swe2d_rewritten": (["analyze-boundary", "--model", "swe2d",
                                  "--state", "4,2,0", "--normal=-1,0",
                                  "--formulation", "nonlinear_rewritten"], {}),
    "boundary_swe2d_linearised": (["analyze-boundary", "--model", "swe2d",
                                   "--state", "1,-1,0", "--normal", "1,0",
                                   "--formulation", "linearised", "--alpha", "0.3"], {}),
    "boundary_euler2d": (["analyze-boundary", "--model", "euler2d",
                          "--state", "1,0.5,1", "--normal", "1,0"], {}),
    # A state with a zero eigenvalue, whose printed digits would otherwise
    # show the eigensolver's rounding.
    "boundary_euler2d_zero_eigenvalue": (["analyze-boundary", "--model", "euler2d",
                                          "--state", "0,0,1", "--normal", "0.6,0.8",
                                          "--formulation", "linearised"], {}),
    "boundary_euler3d_cyl": (["analyze-boundary", "--model", "euler3d_cyl",
                              "--state", "1,0,0,1", "--normal", "1,0,0",
                              "--radius", "0.8"], {}),
    # A swe2d standard_vs_new march bounded in x with a linear Coriolis
    # profile, which no bundled scenario marches.  By design: a tree from
    # before the swe2d standard run took primitive variables (its mean
    # swe_inverse(mean), its perturbation swe_inverse(mean + pert) -
    # swe_inverse(mean)) reads the transformed fields as primitive ones in
    # the `_standard` files, and a tree from before the standard scenario
    # named its primitive columns heads `_standard_final.txt` with `U1 U2 U3`
    # where this one writes `phi u v`.
    "run_swe_standard_vs_new": _run("swe_standard_vs_new", SWE_STANDARD_VS_NEW_CFG),
    "refuse_stride_typo": _run("stride_typo", STRIDE_TYPO_CFG),
    "refuse_alpha_nan": (["analyze-boundary", "--model", "swe2d",
                          "--state", "1,0.5,0", "--normal", "1,0",
                          "--alpha", "nan", "--formulation", "linearised"], {}),
    # A two-condition closure on x_low of the standard_vs_new config.  By
    # design: a tree from before this refusal marches and fails with exit 1.
    "refuse_swe_standard_sat": _run("swe_standard_sat", SWE_STANDARD_SAT_CFG),
    # No bundled scenario marches the characteristic closure.  By design: a
    # tree from before the characteristic default scale became 3 penalises
    # x_low, which sets no scale, at scale 1 (x_high sets 2.0), so its files
    # and stdout differ.  A tree from before the closure read its operator's
    # face table forms sigma as (scale * u_n) / 3, not scale * (n * (u / 3)):
    # the final state differs in the last bit, by 3.5e-18.
    "run_burgers_characteristic": _run("burgers_characteristic",
                                       BURGERS_CHARACTERISTIC_CFG),
    # A swe2d closure on burgers.  By design: a tree from before
    # make_sat_config checked closures against the model marches it and
    # fails with exit 1.
    "refuse_sat_model_mismatch": _run("sat_model_mismatch",
                                      _burgers_x_low("swe_two_condition g2=1.0")),
    # An option the closure does not read.  By design: the same older tree
    # marches it with exit 0.
    "refuse_sat_unread_option": _run("sat_unread_option",
                                     _burgers_x_low("characteristic g2=0.1")),
    # The boundary weight 17h/48 of a (4,2) grid is no power of two, so a
    # reordered division by it shows in the bytes; the bundled
    # swe_inflow_twocond weighs h/2 = 1/32, by which such a division is exact.
    "run_swe_two_condition_42": _run("swe_two_condition_42", SWE_TWO_CONDITION_42_CFG),
    # Two unread options of the default value.  By design: a tree from
    # before make_sat_config took the options an entry writes tells an
    # unread option by its value only, and marches both with exit 0.
    "refuse_sat_unread_zero": _run("sat_unread_zero", _burgers_x_low("characteristic g2=0")),
    "refuse_sat_unread_default_scale": _run("sat_unread_default_scale",
                                            _burgers_x_low("none scale=1.0")),
    # The fewest nodes each closure takes: 8 bounded, where no row is left to
    # the interior stencil, and 5 periodic.  By design: a tree from before the
    # characteristic default scale became 3 penalises the bounded case's
    # x_low at scale 1.  A tree from before the closure read its operator's
    # face table forms sigma as (scale * u_n) / 3: only the rate and
    # volume_residual columns differ, at rounding (3.5e-18).
    "run_burgers_bounded_8": _run("burgers_bounded_8", BURGERS_BOUNDED_8_CFG),
    "run_burgers_periodic_5": _run("burgers_periodic_5", BURGERS_PERIODIC_5_CFG),
    # The one march of a multi-line field bounded along its last axis: the
    # burgers marches have one line and the other swe2d cases are periodic
    # in y.
    "run_swe_bounded_17x13": _run("swe_bounded_17x13", SWE_BOUNDED_17X13_CFG),
    # Each march mode no other case runs alone: frozen, dual with a
    # [coefficient] and without one, coupled and standard; then convergence
    # on the coupled config.  By design: a tree from before the
    # characteristic default scale became 3 penalises x_low (no scale set) at
    # scale 1, so every case here but the standard one differs.  A tree from
    # before the closure read its operator's face table picks the penalised
    # faces and sigma from the marched state, so every case here differs;
    # each row says how.
    # By design: the closure now reads V where the older tree read U; the
    # final state differs by 5.3e-4 and E by up to 1.1e-3.
    "run_burgers_frozen": _run("burgers_frozen",
                               burgers_mode_cfg("frozen", "initial", "coefficient")),
    # By design: the older tree penalised the primal's inflow face x_low,
    # which is the dual's outflow face, whatever the dual; that defect is
    # mended, so x_low's data g = 1.0 go unread and the dual's inflow face
    # x_high stays open (none).  The final states differ by 2.1e-2 (dual)
    # and 3.1e-2 (dual_self), E by up to 3.5e-2 and 6.8e-2.  So the dual
    # row pins an inert entry: E grows 1.0050 -> 1.0053 by t = 0.1.
    "run_burgers_dual": _run("burgers_dual", burgers_mode_cfg("dual", "initial", "coefficient")),
    "run_burgers_dual_self": _run("burgers_dual_self", burgers_mode_cfg("dual", "initial")),
    # The dual with a closure that acts: x_high, its inflow face at V, is
    # closed with g = 1.0 and x_low is open; E goes 1.0050 -> 1.0016.
    "run_burgers_dual_inflow": _run("burgers_dual_inflow", burgers_mode_cfg(
        "dual", "initial", "coefficient").replace(
        "x_low = characteristic g=1.0\nx_high = none",
        "x_low = none\nx_high = characteristic g=1.0")),
    # By design: the mean equation's closure reads V = mean + pert where the
    # older tree read the mean; the final mean differs by 3.2e-5, the
    # perturbation by 1.7e-7 and the reported E by up to 4.3e-9.
    "run_burgers_coupled": _run("burgers_coupled", BURGERS_COUPLED_CFG),
    # By design: the older tree's penalty read the perturbation's own sign
    # and never switched on; the standard operator's M/2 table at the mean
    # (> 0) turns its x_low penalty on, which pulls the perturbation to
    # g = 1.0: E at t = 0.1 is 0.112, where the older tree gave 5.85e-5,
    # and the final state differs by 1.11.  So this row pins a forced
    # transient: g = 1.0 is a total-state value given to a perturbation of
    # amplitude 0.01.
    "run_burgers_standard": _run("burgers_standard", burgers_mode_cfg(
        "standard_linearised", "coefficient", "perturbation")),
    # The standard linearisation with homogeneous inflow data, the closure
    # of a linearised problem: E goes 5.00e-5 -> 4.49e-5.
    "run_burgers_standard_homogeneous": _run("burgers_standard_homogeneous", burgers_mode_cfg(
        "standard_linearised", "coefficient", "perturbation").replace(
        "characteristic g=1.0", "characteristic g=0.0")),
    # By design: as run_burgers_coupled; the errors move in the fourth digit
    # (1.7921e-3 -> 1.7914e-3 and 8.3234e-4 -> 8.3253e-4) and the printed
    # order 1.106 is unchanged.
    "convergence_burgers_coupled": (["convergence", "--config", "burgers_coupled.cfg",
                                     "--levels", "17,33,65"],
                                    {"burgers_coupled.cfg": BURGERS_COUPLED_CFG}),
    # By design: a tree from before the scheme modes were one table says
    # `frozen mode needs a [coefficient] section` where this one says
    # `missing required section [coefficient]`, as coupled and standard
    # configs do.
    "refuse_frozen_without_coefficient": _run("burgers_frozen",
                                              burgers_mode_cfg("frozen", "initial")),
    # A [sat] that an identity run does not read.  By design: a tree from
    # before this refusal ignores the [sat] and exits 0.
    "refuse_identity_sat": _run("identity_sat", IDENTITY_SAT_CFG),
    # By design: a tree from before empty sections were refused exits 0 and
    # writes `run.csv`.
    "refuse_identity_empty_sat": _run("identity_empty_sat",
                                      IDENTITY_SAT_CFG.replace("x_low = bogus g=1\n", "")),
    # An [identity] that a nonlinear run does not read.  By design: a tree
    # from before this refusal ignores it and exits 0.
    "refuse_nonlinear_identity": _run("nonlinear_identity",
                                      BURGERS_NONLINEAR_CFG + "\n[identity]\ntrials = -5\n"),
    # By design: a tree from before this refusal ignores the --radius and
    # exits 0.
    "refuse_swe2d_radius": (["analyze-boundary", "--model", "swe2d", "--state", "1,0.5,0",
                             "--normal", "1,0", "--radius", "-3"], {}),
    # By design: a tree from before this refusal fails inside numpy with a
    # message that does not name --seed.
    "refuse_verify_seed_negative": (["verify", "energy", "--seed", "-1", "--trials", "2"], {}),
    "convergence_swe_standard_periodic": (
        ["convergence", "--config", "swe_standard_periodic.cfg", "--levels", "16,32,64"],
        {"swe_standard_periodic.cfg": SWE_STANDARD_PERIODIC_CFG}),
    # Eleven refusals that cite where the refused value came from: the march
    # settings, the euler2d march, the convergence mode, the [grid] values,
    # a grid below the 8 nodes of (4,2) in run and in --levels, and a
    # primitive [coefficient] whose depth reaches 0.  By design: a tree from
    # before they did prints `<cfg>:` without a line for the march settings,
    # the euler2d march, the convergence mode and the [grid] values (whose
    # axis-count message also named [grid] where this one names the key),
    # and `error:` without the file for the grid below the operators'
    # minimum and the primitive depth, or without naming --levels.
    "refuse_cfl_negative": _run("cfl_negative", BURGERS_NONLINEAR_CFG.replace(
        "stride = 5", "stride = 5\ncfl = -1")),
    "refuse_dt_zero": _run("dt_zero", BURGERS_NONLINEAR_CFG.replace("dt = 0.005", "dt = 0")),
    "refuse_t_final_not_whole_steps": _run("t_final_steps", BURGERS_NONLINEAR_CFG.replace(
        "t_final = 0.5", "t_final = 0.5025")),
    "refuse_euler2d_march": _run("euler2d_march", EULER2D_MARCH_CFG),
    "refuse_convergence_standard_vs_new": (
        ["convergence", "--config", "swe_standard_vs_new.cfg", "--levels", "17,33,65"],
        {"swe_standard_vs_new.cfg": SWE_STANDARD_VS_NEW_CFG}),
    "refuse_extents_empty": _run("extents_empty", BURGERS_NONLINEAR_CFG.replace(
        "extents = 0,1", "extents = 1,0")),
    "refuse_shape_one": _run("shape_one", BURGERS_NONLINEAR_CFG.replace(
        "shape = 64", "shape = 1")),
    "refuse_grid_axes": _run("grid_axes", BURGERS_NONLINEAR_CFG.replace(
        "extents = 0,1", "extents = 0,1 / 0,1")),
    "refuse_shape_below_order": _run("shape_below_order", BURGERS_BOUNDED_8_CFG.replace(
        "shape = 8", "shape = 6")),
    "refuse_levels_below_order": (["convergence", "--config", "burgers_bounded_8.cfg",
                                   "--levels", "5,9,17"],
                                  {"burgers_bounded_8.cfg": BURGERS_BOUNDED_8_CFG}),
    "refuse_primitive_dry": _run("primitive_dry", SWE_STANDARD_VS_NEW_CFG.replace(
        "family = trig\ncomp0 = 1.0 0.1 sin:1 cos:1",
        "family = trig\nvariables = primitive\ncomp0 = 0.0 0.1 sin:1 cos:1")),
    # Four refusals that cite the header of the section at fault: the
    # [initial] without a family, the [scheme] without dt, the
    # [perturbation] without comp2, and a mean + perturbation of negative
    # depth.  By design: a tree from before they did prints `<cfg>:` without
    # a line, for the missing dt and comp2 in words of its own (`[scheme]
    # requires 'dt' for marching modes`, `[perturbation] is missing 'comp2'
    # for model ...`).
    "refuse_missing_family": _run("missing_family", BURGERS_NONLINEAR_CFG.replace(
        "family = trig\n", "")),
    "refuse_missing_dt": _run("nodt", BURGERS_NONLINEAR_CFG.replace("dt = 0.005\n", "")),
    "refuse_missing_comp": _run("nocomp", SWE_STANDARD_VS_NEW_CFG.replace(
        "comp2 = 0.0 0.01 one cos:1\n", "")),
    "refuse_standard_past_depth_floor": _run("standard_dry", SWE_STANDARD_VS_NEW_CFG.replace(
        "comp0 = 0.0 0.01 cos:1 sin:1", "comp0 = -2.0 0.01 cos:1 sin:1")),
    # Each derivative apply takes its interior run in several of sbp_core's
    # pieces, whose boundaries fall inside a line (the benchmark's 257 x 257
    # march is periodic).
    "run_swe_bounded_129": _run("swe_bounded_129", SWE_BOUNDED_129_CFG),
    # The final-state writer's 1D index prefixes and its block edges end to
    # end: the standard run's final state and the coupled run's `_mean` and
    # `_pert` states each span two whole blocks and a partial one; the
    # other multi-block case, run_swe_bounded_129, is 2D.
    "run_burgers_standard_vs_new_2600": _run("burgers_standard_vs_new_2600",
                                             BURGERS_STANDARD_VS_NEW_2600_CFG),
    # A marched state of negative depth about an admissible coefficient
    # state.  By design: a tree from before a frozen march checked
    # admissibility only at its coefficient state refuses it after the first
    # step, exiting 1 with `min is -0.4986...`, where this one marches it and
    # exits 0.
    "run_swe_frozen_dry": _run("swe_frozen_dry", SWE_FROZEN_DRY_CFG),
    # The one swe2d dual march with a fixed coefficient state.
    "run_swe_dual_mean": _run("swe_dual_mean", SWE_DUAL_MEAN_CFG),
    # euler3d_cyl identity runs at a fixed coefficient state and as the dual,
    # which no bundled scenario runs: the radius enters the coefficient tables
    # and the norm weight through the grid's positions.
    **{f"run_cyl_identity_{mode}": _run(f"cyl_identity_{mode}", _cyl_identity(mode))
       for mode in ("frozen", "dual")},
}


def package_root(path: str) -> Path:
    """The directory that holds the skewform package."""
    root = Path(path).resolve()
    if (root / "src" / "skewform").is_dir():
        root = root / "src"
    if not (root / "skewform").is_dir():
        raise SystemExit(f"no skewform package under {path}")
    return root


def cases(roots) -> dict:
    """Every case as {name: (command line, written configs)}: `run` on the
    bundled scenarios of both trees, then CASES."""
    names = set()
    for root in roots:
        names.update(p.stem for p in (root / "skewform" / "scenarios").glob("*.cfg"))
    out = {f"run_{name}": (["run", "--config", name], {}) for name in sorted(names)}
    out.update(CASES)
    return out


def run_case(root: Path, argv, cwd: Path, written: dict) -> dict:
    cwd.mkdir(parents=True)
    for name, text in written.items():
        (cwd / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(root))
    proc = subprocess.run([sys.executable, "-m", "skewform.cli", *argv,
                           "--out-dir", "out"],
                          cwd=cwd, env=env, capture_output=True)
    files = {str(p.relative_to(cwd)): p.read_bytes()
             for p in sorted(cwd.rglob("*")) if p.is_file()}
    return {"exit code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "files": files}


def differences(a: dict, b: dict) -> list[str]:
    found = [f"{key} differs" for key in ("exit code", "stdout", "stderr")
             if a[key] != b[key]]
    for name in sorted(set(a["files"]) | set(b["files"])):
        if name not in a["files"] or name not in b["files"]:
            found.append(f"{name} written by one tree only")
        elif a["files"][name] != b["files"][name]:
            found.append(f"{name} differs")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--work", default=None,
                        help="directory for the working directories (default:"
                             " a temporary one, removed afterwards)")
    args = parser.parse_args(argv)
    roots = {"parent": package_root(args.parent), "change": package_root(args.change)}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work or tmp)
        for tree in roots:
            if (work / tree).exists():
                raise SystemExit(f"{work / tree} already exists; give --work a new directory")
        matrix = cases(roots.values())
        bad = 0
        for case, (cli_args, written) in matrix.items():
            got = {tree: run_case(root, cli_args, work / tree / case, written)
                   for tree, root in roots.items()}
            found = differences(got["parent"], got["change"])
            print(f"{case}: {'differs' if found else 'identical'}"
                  f" (exit {got['change']['exit code']})")
            for line in found:
                print(f"    {line}")
            bad += bool(found)
    print(f"{bad} of {len(matrix)} cases differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
