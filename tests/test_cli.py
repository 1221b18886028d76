"""Tests for the command line interface."""

import csv
import io
import itertools
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout, redirect_stderr
from pathlib import Path

import numpy as np
import pytest

import skewform
from skewform import cli
from skewform.cli import ConfigError, bundled_scenarios, main, parse_config_text
from skewform.models import make_model, swe_inverse, swe_transform
from skewform.sbp_core import make_grid

BURGERS_CFG = """
[model]
kind = burgers1d

[grid]
extents = 0,1
shape = 48
periodic = true

[scheme]
order = 4,2
mode = nonlinear
dt = 0.004
t_final = 0.1
stride = 5

[initial]
family = trig
comp0 = 0.0 0.1 sin:1

[output]
prefix = smoke
"""


def run_main(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_parse_config_happy_path():
    cfg = parse_config_text(BURGERS_CFG, "inline")
    assert cfg["model"]["kind"][0] == "burgers1d"
    assert cfg["grid"]["shape"][0] == "48"
    # line numbers ride along for error reporting
    assert cfg["model"]["kind"][1] == 3


def test_parse_config_rejects_unknown_section_with_line_number():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("[model]\nkind = burgers1d\n\n[misc]\nx = 1\n", "bad.cfg")
    assert "bad.cfg:4" in str(exc.value)
    assert "misc" in str(exc.value)


def test_parse_config_rejects_unknown_key_with_line_number():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("[model]\nkind = burgers1d\nflavour = hot\n", "bad.cfg")
    assert "bad.cfg:3" in str(exc.value)


def test_parse_config_rejects_duplicates_and_orphans():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("[model]\nkind = a\nkind = b\n", "x.cfg")
    with pytest.raises(ConfigError) as exc:
        parse_config_text("kind = burgers1d\n", "x.cfg")
    assert "x.cfg:1" in str(exc.value)
    with pytest.raises(ConfigError):
        parse_config_text("[model]\nthis line has no equals sign\n", "x.cfg")


def test_run_writes_the_documented_csv_schema(tmp_path):
    cfg = tmp_path / "smoke.cfg"
    cfg.write_text(BURGERS_CFG)
    code, out, _ = run_main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "smoke.csv")
    # fully periodic grid: no flux columns
    assert header == ["t", "E", "rate", "boundary_flux", "volume_residual"]
    assert len(rows) == 6  # emitted at steps 0, 5, 10, 15, 20, 25
    for row in rows:
        scale = 1.0 + abs(float(row[2])) + abs(float(row[3]))
        assert abs(float(row[4])) <= 1e-12 * scale
    assert (tmp_path / "smoke_final.txt").exists()
    assert "smoke" in out


def test_run_is_bitwise_deterministic(tmp_path):
    cfg = tmp_path / "smoke.cfg"
    cfg.write_text(BURGERS_CFG)
    a = tmp_path / "a"
    b = tmp_path / "b"
    for target in (a, b):
        code, _, _ = run_main(["run", "--config", str(cfg), "--out", str(target)])
        assert code == 0
    assert (a / "smoke.csv").read_bytes() == (b / "smoke.csv").read_bytes()
    assert (a / "smoke_final.txt").read_bytes() == (b / "smoke_final.txt").read_bytes()


def test_run_accepts_bundled_scenario_names(tmp_path):
    assert "burgers_periodic" in bundled_scenarios()
    code, out, _ = run_main(["run", "--config", "euler2d_identity",
                             "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "euler2d_identity.csv")
    assert header[:5] == ["t", "E", "rate", "boundary_flux", "volume_residual"]
    assert header[5:] == ["flux_x_low", "flux_x_high", "flux_y_low", "flux_y_high"]
    assert len(rows) == 50
    assert [row[0] for row in rows[:3]] == ["0.0", "1.0", "2.0"]


def test_run_missing_config_exits_2_without_output(tmp_path):
    out_dir = tmp_path / "never"
    code, _, err = run_main(["run", "--config", str(tmp_path / "ghost.cfg"),
                             "--out", str(out_dir)])
    assert code == 2
    assert not out_dir.exists()
    assert "config error" in err or "config error" in _


def test_run_bad_value_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BURGERS_CFG.replace("dt = 0.004", "dt = soon"))
    code, _, err = run_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert not (tmp_path / "o").exists()


def test_run_march_failure_exits_1_without_partial_output(tmp_path):
    cfg = tmp_path / "cfl.cfg"
    cfg.write_text(BURGERS_CFG.replace("dt = 0.004", "dt = 0.5")
                   .replace("t_final = 0.1", "t_final = 1.0"))
    code, out, err = run_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert not (tmp_path / "o").exists()
    assert "CFL" in out + err


def test_standard_vs_new_writes_both_runs(tmp_path):
    code, out, _ = run_main(["run", "--config", "burgers_standard_vs_new",
                             "--out", str(tmp_path)])
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "burgers_standard_vs_new_standard.csv" in names
    assert "burgers_standard_vs_new_new.csv" in names
    assert "burgers_standard_vs_new_new_mean_final.txt" in names
    assert "burgers_standard_vs_new_new_pert_final.txt" in names
    _, rows_std = read_csv(tmp_path / "burgers_standard_vs_new_standard.csv")
    _, rows_new = read_csv(tmp_path / "burgers_standard_vs_new_new.csv")
    worst_std = max(abs(float(r[4])) for r in rows_std)
    worst_new = max(abs(float(r[4])) for r in rows_new)
    assert worst_std > 1e-6
    assert worst_new <= 1e-13


def test_final_state_file_round_trips(tmp_path):
    cfg = tmp_path / "smoke.cfg"
    cfg.write_text(BURGERS_CFG)
    code, _, _ = run_main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "smoke_final.txt").read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    assert any("burgers1d" in ln for ln in header)
    assert header[-1].endswith("columns: i_x u")
    assert len(data) == 48
    first = data[0].split()
    assert first[0] == "0"
    float(first[1])


def reference_final_state(target, model, grid, state):
    """The final-state writer as it was first written: one join of str per
    node.  Kept as the reference for the bytes of the block writer."""
    idx_cols = " ".join(f"i_{name}" for name in grid.axis_names)
    with open(target, "w") as fh:
        fh.write("# skewform final state\n")
        fh.write(f"# model: {model.kind}\n")
        for ax in range(grid.dim):
            lo, hi = grid.extents[ax]
            fh.write(
                f"# axis {grid.axis_names[ax]}: [{lo!r}, {hi!r}]"
                f" n={grid.shape[ax]} periodic={str(grid.periodic[ax]).lower()}\n"
            )
        fh.write(f"# layout: one node per line, C order; columns: {idx_cols} "
                 + " ".join(model.components) + "\n")
        columns = np.asarray(state, dtype=np.float64).reshape(model.n_comp, -1).tolist()
        nodes = zip(itertools.product(*map(range, grid.shape)), zip(*columns))
        fh.writelines(" ".join(map(str, index + values)) + "\n" for index, values in nodes)


# Values whose text is easy to get wrong: signed zero, infinities, nan, the
# least subnormal and exponents near the ends of the double range.
AWKWARD = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                    1.2345678901234567e300, -9.87654321e-300, 1e-310, 0.1, 1.0 / 3.0])


# Grids of several blocks, one of them a whole number of blocks.
SEVERAL_BLOCKS = [
    ("burgers1d", (3 * cli._STATE_BLOCK + 7,)),
    ("swe2d", (97, 131)),
    ("euler2d", (3 * cli._STATE_BLOCK // 64, 64)),
    ("euler3d_cyl", (17, 23, 29)),
]


@pytest.mark.parametrize("kind, shape", SEVERAL_BLOCKS + [
    ("euler3d_cyl", (5, 7, 9)),  # fewer nodes than one block
    ("swe2d", (cli._STATE_BLOCK // 32, 32)),  # exactly one block
])
def test_final_state_writer_keeps_the_bytes_of_one_join_per_node(tmp_path, kind, shape):
    model = make_model(kind)
    dim = len(shape)
    grid = make_grid(((0.0, 1.0),) * dim, shape, periodic=(True,) + (False,) * (dim - 1))
    if (kind, shape) in SEVERAL_BLOCKS:
        assert math.prod(shape) > 2 * cli._STATE_BLOCK
    else:
        assert math.prod(shape) <= cli._STATE_BLOCK
    rng = np.random.default_rng(7)
    state = rng.standard_normal((model.n_comp,) + shape) * 10.0 ** rng.integers(
        -300, 301, (model.n_comp,) + shape)
    flat = state.reshape(-1)
    flat[:AWKWARD.size] = AWKWARD
    flat[-AWKWARD.size:] = AWKWARD
    flat[rng.choice(flat.size, 200, replace=False)] = np.resize(AWKWARD, 200)
    cli.write_final_state(tmp_path / "got.txt", model, grid, state)
    reference_final_state(tmp_path / "want.txt", model, grid, state)
    got = (tmp_path / "got.txt").read_bytes()
    assert got == (tmp_path / "want.txt").read_bytes()
    assert got.count(b"\n") == 3 + dim + math.prod(shape)


def test_final_state_writer_holds_a_block_not_the_grid(tmp_path):
    # the writer's traced peak on a 257 x 257 swe2d state: 0.65 MiB with one
    # % format per node in blocks of 4096, 0.32 MiB column-wise in blocks of
    # 1024; the state's text alone is about 3.6 MiB, so a writer that joins
    # the whole grid at once fails
    model = make_model("swe2d")
    grid = make_grid(((0.0, 1.0),) * 2, (257, 257), periodic=(True, True))
    state = 1.0 + 0.1 * np.random.default_rng(11).standard_normal((3, 257, 257))
    tracemalloc.start()
    try:
        cli.write_final_state(tmp_path / "state.txt", model, grid, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, peak / (1 << 20)


@pytest.mark.parametrize("shape", [(3, 10), (3, 9, 14), (3, 13, 9), (2, 9, 13), (3, 1, 9, 13)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_final_state_writer_refuses_a_state_of_another_shape(tmp_path, shape):
    # each of these wrote without an error: (3, 10) ten data lines, (3, 9, 14)
    # 117 lines that dropped nine nodes' values, and (3, 13, 9) a 13 x 9
    # array under the 9 x 13 grid's indices
    model = make_model("swe2d")
    grid = make_grid(((0.0, 1.0),) * 2, (9, 13))
    target = tmp_path / "state.txt"
    with pytest.raises(ValueError, match=re.escape(
            f"final state has shape {shape}; the grid takes (3, 9, 13)")):
        cli.write_final_state(target, model, grid, np.ones(shape))
    assert not target.exists()


INFLOW_65_CFG = """
[model]
kind = swe2d
alpha = 0.3329
beta = 0.6942
f0 = 0.7457
f1 = 0.2184

[grid]
extents = 0,1 / 0,1
shape = 65 / 65
periodic = false / true

[scheme]
order = 4,2
mode = nonlinear
dt = 0.001
t_final = {t_final}
stride = 1

[initial]
family = trig
variables = primitive
comp0 = 1.1374 0.0604 cos:1 cos:3
comp1 = 0.8367 0.0198 sin:1 sin:2
comp2 = 0.1715 0.0074 cos:1 cos:1

[sat]
x_low = swe_two_condition g2=1.4456606934844705 g3=0.40399273814017994 scale=1.0
x_high = none

[output]
prefix = inflow
"""

# Runs one CLI job in this fresh process and prints the minor page faults
# the job took, the imports before it not counted.
FAULTS_CHILD = """\
import resource, sys
from skewform.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def job_minor_faults(tmp_path, steps):
    cfg = tmp_path / f"inflow_{steps}.cfg"
    cfg.write_text(INFLOW_65_CFG.format(t_final=repr(steps * 0.001)))
    out = tmp_path / f"out_{steps}"
    src = str(Path(skewform.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", FAULTS_CHILD, "run", "--config", str(cfg),
                           "--out-dir", str(out)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
    code, faults = map(int, proc.stdout.splitlines()[-1].split())
    assert code == 0
    return faults


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the mmap and trim thresholds are glibc's")
def test_march_steps_reuse_the_heap_instead_of_faulting_in_pages(tmp_path):
    # A march frees and regrows its fields every step.  With glibc's heap
    # primed by cli.main, the extra steps of a longer march take its pages
    # from the kept heap, not from the kernel.
    short, long = (job_minor_faults(tmp_path, steps) for steps in (20, 60))
    assert (long - short) / 40 < 5, (short, long)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv, files", [
    (["run", "--config", "burgers_periodic"],
     ["burgers_periodic.csv", "burgers_periodic_final.txt"]),
    (["verify", "alpha", "--trials", "2"], ["checks.csv"]),
], ids=["run", "verify"])
def test_a_closed_stdout_exits_1_after_writing_every_file(tmp_path, argv, files,
                                                          unbuffered):
    # the reader of stdout is gone before the job prints its first line; an
    # unbuffered stdout fails at that print, a buffered one at its flush
    src = str(Path(skewform.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "skewform.cli", *argv,
                               "--out-dir", "out"], cwd=tmp_path, env=env, stdout=write,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == files
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr
    assert proc.returncode == 1


def test_verify_subcommand_exit_codes(tmp_path):
    code, out, _ = run_main(["verify", "alpha", "--trials", "5", "--seed", "2"])
    assert code == 0
    assert "PASS" in out
    assert "1/1 suites passed" in out
    with pytest.raises(SystemExit) as exc:
        run_main(["verify", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_refuses_fewer_than_one_trial(tmp_path, trials):
    # no trial would check any identity, so a PASS would be vacuous
    code, out, err = run_main(["verify", "energy", "--trials", trials,
                               "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert out == ""
    assert "--trials must be at least 1" in err
    assert not (tmp_path / "o").exists()


def test_verify_refuses_a_negative_seed(tmp_path):
    # numpy would refuse it too, but without naming the option
    code, out, err = run_main(["verify", "energy", "--seed", "-1",
                               "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert out == ""
    assert "--seed must be at least 0, got -1" in err
    assert not (tmp_path / "o").exists()


def test_verify_writes_the_checks_csv(tmp_path):
    code, out, _ = run_main(["verify", "duality", "--trials", "3",
                             "--out-dir", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "checks.csv")
    assert header[0] == "name"
    assert len(rows) == 1
    assert rows[0][0] == "duality"


def test_analyze_boundary_table_and_csv(tmp_path):
    code, out, _ = run_main([
        "analyze-boundary", "--model", "swe2d", "--state", "1,-1,0",
        "--normal", "1,0", "--alpha", "1", "--beta", "1",
        "--formulation", "linearised", "--out-dir", str(tmp_path)])
    assert code == 0
    assert "3" in out
    header, rows = read_csv(tmp_path / "boundary.csv")
    assert header == ["face", "formulation", "alpha", "beta", "eigenvalues", "count"]
    assert rows[0][-1] == "3"


def test_analyze_boundary_takes_a_negative_normal_in_the_equals_form():
    # the README example: a leading minus needs --normal=..., or argparse
    # reads the value as an option
    code, out, _ = run_main([
        "analyze-boundary", "--model", "swe2d", "--state", "4,2,0",
        "--normal=-1,0", "--formulation", "nonlinear_rewritten"])
    assert code == 0
    assert "bc count       2" in out


def test_analyze_boundary_prints_a_zero_eigenvalue_as_zero():
    # the middle eigenvalue is zero up to rounding; the table prints what
    # the signature counts
    code, out, _ = run_main([
        "analyze-boundary", "--model", "euler2d", "--state", "0,0,1",
        "--normal", "0.6,0.8", "--formulation", "linearised"])
    assert code == 0
    assert "eigenvalues    -0.5, 0, 0.5\n" in out
    assert "1 zero" in out


def test_analyze_boundary_glancing_exits_2():
    code, out, err = run_main([
        "analyze-boundary", "--model", "swe2d", "--state", "1,0,0.5",
        "--normal", "1,0", "--formulation", "nonlinear_rewritten"])
    assert code == 2


@pytest.mark.parametrize("argv, option", [
    (["--model", "swe2d", "--state", "1,0.5,0", "--normal", "1,0",
      "--formulation", "linearised", "--alpha", "nan"], "alpha"),
    (["--model", "swe2d", "--state", "1,0.5,0", "--normal", "1,0",
      "--beta", "inf"], "beta"),
    (["--model", "swe2d", "--state", "1,0.5,0", "--normal", "inf,0"], "--normal"),
    (["--model", "swe2d", "--state", "1,half,0", "--normal", "1,0"], "--state"),
    (["--model", "euler3d_cyl", "--state", "1,0,0,1", "--normal", "1,0,0",
      "--radius", "0"], "--radius"),
    (["--model", "euler3d_cyl", "--state", "1,0,0,1", "--normal", "1,0,0",
      "--radius=-1"], "--radius"),
    (["--model", "euler3d_cyl", "--state", "1,0,0,1", "--normal", "1,0,0",
      "--radius", "nan"], "--radius"),
    (["--model", "swe2d", "--state", "1,0.5,0", "--normal", "1,0",
      "--radius", "-3"], "--radius applies to euler3d_cyl face states only"),
    (["--model", "swe2d", "--state", "1,0.5,0", "--normal", "0,0"],
     "unit length, got length 0.0"),
    (["--model", "swe2d", "--state", "1,0.5,0", "--normal", "1,1"],
     "unit length, got length 1.4142135623730951"),
], ids=["alpha_nan", "beta_inf", "normal_inf", "state_typo", "radius_zero",
        "radius_negative", "radius_nan", "radius_other_model", "normal_zero",
        "normal_not_unit"])
def test_analyze_boundary_refuses_bad_numbers(tmp_path, argv, option):
    out_dir = tmp_path / "o"
    code, out, err = run_main(["analyze-boundary", *argv, "--out-dir", str(out_dir)])
    assert code == 2
    assert out == ""
    assert option in err
    assert not out_dir.exists()


def test_analyze_boundary_cylindrical_needs_radius():
    code, _, err = run_main([
        "analyze-boundary", "--model", "euler3d_cyl", "--state", "1,0.5,0.2,0.3",
        "--normal", "1,0,0"])
    assert code == 2
    code2, out, _ = run_main([
        "analyze-boundary", "--model", "euler3d_cyl", "--state", "1,0.5,0.2,0.3",
        "--normal", "1,0,0", "--radius", "0.8"])
    assert code2 == 0


def test_convergence_needs_three_levels(tmp_path):
    code, _, err = run_main(["convergence", "--config", "burgers_periodic",
                             "--levels", "16,32", "--out", str(tmp_path)])
    assert code == 2
    code, out, err = run_main(["convergence", "--config", "burgers_periodic",
                               "--levels", "24,x,96"])
    assert code == 2
    assert out == ""
    assert "--levels must be an integer, got 'x'" in err


def test_convergence_reports_the_design_order(tmp_path):
    code, out, _ = run_main(["convergence", "--config", "burgers_periodic",
                             "--levels", "24,48,96", "--out", str(tmp_path)])
    assert code == 0
    assert "order" in out
    # the printed observed order for the finest pair sits near four
    lines = [ln for ln in out.splitlines() if "->" in ln and "order" in ln]
    assert lines
    last = float(lines[-1].rsplit("order", 1)[1].strip())
    assert 3.0 <= last <= 4.6


def test_a_convergence_march_failing_at_one_level_exits_1_without_output(
        tmp_path, monkeypatch):
    # the first two levels march; the last one fails, and no partial
    # convergence.csv is written
    real_march = cli.march

    def failing_at_96(sc):
        if sc.grid.shape == (96,):
            raise RuntimeError("blow-up at t=0.05")
        return real_march(sc)

    monkeypatch.setattr(cli, "march", failing_at_96)
    code, out, err = run_main(["convergence", "--config", "burgers_periodic",
                               "--levels", "24,48,96", "--out", str(tmp_path / "o")])
    assert code == 1
    assert out == ""
    assert "run failed at level 96: blow-up at t=0.05" in err
    assert not (tmp_path / "o").exists()


def test_convergence_refuses_unnested_levels_before_marching(monkeypatch):
    def no_march(sc):
        raise AssertionError("convergence marched before checking the levels")

    monkeypatch.setattr(cli, "march", no_march)
    code, out, err = run_main(["convergence", "--config", "burgers_periodic",
                               "--levels", "24,40,96"])
    assert code == 2
    assert out == ""
    assert "not nested" in err


def test_bounded_convergence_levels_end_at_t_final(tmp_path, monkeypatch):
    steps = []
    real_march = cli.march

    def recording_march(sc):
        steps.append(sc.t_final / sc.dt)
        return real_march(sc)

    monkeypatch.setattr(cli, "march", recording_march)
    cfg = tmp_path / "bounded.cfg"
    cfg.write_text(BURGERS_CFG.replace("periodic = true", "periodic = false")
                   .replace("t_final = 0.1", "t_final = 0.02")
                   + "\n[sat]\nx_low = characteristic\n"
                   "x_high = characteristic\n")
    code, out, err = run_main(["convergence", "--config", str(cfg),
                               "--levels", "17,33,65"])
    assert code == 0, err
    assert len(steps) == 3
    for s in steps:
        assert abs(s - round(s)) <= 1e-9 * s


def with_sat(closure):
    """BURGERS_CFG on a bounded grid with the x_low closure on line 25."""
    return (lambda text: text.replace("periodic = true", "periodic = false")
            + f"\n[sat]\nx_low = {closure}\nx_high = characteristic\n")


def identity_with(extra):
    """BURGERS_CFG as an identity run that reads all it holds (prefix on
    line 18), with extra appended."""
    return (lambda text: text.replace("mode = nonlinear\ndt = 0.004\nt_final = 0.1"
                                      "\nstride = 5", "mode = identity")
            .replace("[initial]\nfamily = trig\ncomp0 = 0.0 0.1 sin:1",
                     "[identity]\ntrials = 2") + extra)


@pytest.mark.parametrize("edit, line", [
    # frozen mode without a [coefficient] section
    (lambda text: text.replace("mode = nonlinear", "mode = frozen"), None),
    # a required key missing from its section cites the section's header
    (lambda text: text.replace("family = trig\n", ""), 17),
    (lambda text: text.replace("dt = 0.004\n", ""), 10),
    (lambda text: text.replace("comp0 = 0.0 0.1 sin:1\n", ""), 17),
    # t_final shorter than one step
    (lambda text: text.replace("t_final = 0.1", "t_final = 0.001"), 14),
    # non-finite scheme values
    (lambda text: text.replace("t_final = 0.1", "t_final = nan"), None),
    (lambda text: text.replace("t_final = 0.1", "t_final = inf"), None),
    (lambda text: text.replace("stride = 5", "stride = 5\ncfl = inf"), None),
    # 25.5 steps: the march would stop half a step short of t_final
    (lambda text: text.replace("t_final = 0.1", "t_final = 0.102"), 14),
    # t_final / dt overflows to inf
    (lambda text: text.replace("dt = 0.004", "dt = 1e-310"), 14),
    # march settings out of range cite their own line
    (lambda text: text.replace("stride = 5", "stride = 5\ncfl = -1"), 16),
    (lambda text: text.replace("dt = 0.004", "dt = 0"), 13),
    # grid and field values refused past parsing keep their line too: an
    # empty extent, too few nodes, entries for another number of axes and
    # primitive variables on burgers
    (lambda text: text.replace("extents = 0,1", "extents = 1,0"), 6),
    (lambda text: text.replace("shape = 48", "shape = 1"), 7),
    (lambda text: text.replace("extents = 0,1", "extents = 0,1 / 0,1"), 6),
    (lambda text: text.replace("shape = 48", "shape = 48 / 48"), 7),
    (lambda text: text.replace("periodic = true", "periodic = true / true"), 8),
    (lambda text: text.replace("comp0 = 0.0 0.1", "variables = primitive\ncomp0 = 0.0 0.1"),
     19),
    # every number the config holds is a finite float or an integer,
    # refused at its own line
    (lambda text: text.replace("kind = burgers1d", "kind = swe2d\nalpha = nan"), 4),
    (lambda text: text.replace("kind = burgers1d", "kind = swe2d\nf0 = inf"), 4),
    (lambda text: text.replace("extents = 0,1", "extents = 0,one"), 6),
    (lambda text: text.replace("extents = 0,1", "extents = 0,inf"), 6),
    (lambda text: text.replace("shape = 48", "shape = forty"), 7),
    (lambda text: text.replace("order = 4,2", "order = 4,x"), 11),
    (lambda text: text.replace("stride = 5", "stride = ten"), 15),
    (lambda text: text.replace("stride = 5", "stride = 2.5"), 15),
    (lambda text: text.replace("sin:1", "sin:one"), 19),
    (lambda text: text.replace("comp0 = 0.0 0.1", "comp0 = nan 0.1"), 19),
    (lambda text: text.replace("comp0 = 0.0 0.1", "comp0 = 0.0 inf"), 19),
    (lambda text: text.replace("family = trig\ncomp0 = 0.0 0.1 sin:1",
                               "family = constant\ncomp0 = inf"), 19),
    (with_sat("characteristic g=zero"), 25),
    (with_sat("swe_two_condition g2=1.0 g3=zero"), 25),
    (with_sat("characteristic scale=inf"), 25),
    # closures checked against the model and grid: a closure of another
    # model, options the closure does not read, an unknown kind, and a
    # periodic closure on the bounded axis
    (with_sat("swe_two_condition g2=1.0"), 25),
    (with_sat("characteristic g2=1.0"), 25),
    (with_sat("none scale=2"), 25),
    (with_sat("charactristic"), 25),
    (with_sat("periodic"), 25),
    # an option the closure does not read is refused whatever its value,
    # and so is an unknown option name, a token without '=' and a name
    # given twice
    (with_sat("characteristic g2=0"), 25),
    (with_sat("none scale=1.0"), 25),
    (with_sat("characteristic foo=1"), 25),
    (with_sat("characteristic g"), 25),
    (with_sat("characteristic g=0.1 g=0.2"), 25),
    (with_sat("characteristic kind=1"), 25),
    # values that parse but are out of range keep their line too
    (lambda text: text.replace("order = 4,2", "order = 3,1"), 11),
    (lambda text: text.replace("stride = 5", "stride = 0"), 15),
    # input the mode never reads: the march keys and [sat] under identity,
    # also when empty (refused at its header),
    # [coefficient] and [identity] under nonlinear, [coefficient] under a
    # coupled run alone and [initial] under standard
    (lambda text: text.replace("mode = nonlinear", "mode = identity")
     .replace("dt = 0.004", "dt = banana"), 13),
    (identity_with("\n[sat]\nx_low = bogus g=1\n"), 21),
    (identity_with("\n[sat]\n"), 20),
    (lambda text: text + "\n[coefficient]\nfamily = bogus\ncomp0 = 1.0\n", 25),
    (lambda text: text + "\n[identity]\ntrials = -5\n", 25),
    (lambda text: text.replace("mode = nonlinear", "mode = new_linearised_coupled")
     + "\n[perturbation]\nfamily = trig\ncomp0 = 0.0 0.01 sin:1\n"
     "\n[coefficient]\nfamily = constant\ncomp0 = 1.0\n", 29),
    (lambda text: text.replace("mode = nonlinear", "mode = standard_linearised")
     + "\n[coefficient]\nfamily = constant\ncomp0 = 1.0\n"
     "\n[perturbation]\nfamily = trig\ncomp0 = 0.0 0.01 sin:1\n", 18),
    # malformed sections and values, each refused at its own line
    (lambda text: text + "\n[output]\nprefix = again\n", 24),
    (lambda text: text.replace("kind = burgers1d", "kind = burgers2d"), 3),
    (lambda text: text.replace("extents = 0,1", "extents = 0,1,2"), 6),
    (lambda text: text.replace("periodic = true", "periodic = yes"), 8),
    (lambda text: text.replace("comp0 = 0.0 0.1", "variables = conserved\ncomp0 = 0.0 0.1"),
     19),
    (lambda text: text.replace("sin:1", "sin:1 sin:1"), 19),
    (lambda text: text.replace("sin:1", "tan:1"), 19),
    (lambda text: text.replace("family = trig", "family = bogus"), 18),
    (with_sat(""), 25),
    (lambda text: text.replace("order = 4,2", "order = 4"), 11),
    (lambda text: text.replace("mode = nonlinear", "mode = backwards"), 12),
], ids=["frozen_without_coefficient", "missing_family", "missing_dt", "missing_comp",
        "t_final_below_dt", "t_final_nan",
        "t_final_inf", "cfl_inf", "t_final_not_whole_steps", "steps_overflow",
        "cfl_negative", "dt_zero", "extents_empty", "shape_one", "extents_two_axes",
        "shape_two_axes", "periodic_two_axes", "primitive_burgers",
        "alpha_nan", "f0_inf", "extents_typo", "extents_inf", "shape_typo",
        "order_typo", "stride_typo", "stride_fraction", "wavenumber_typo",
        "trig_offset_nan", "trig_amp_inf", "constant_inf", "sat_g_typo",
        "sat_g3_typo", "sat_scale_inf", "sat_model_mismatch", "sat_unread_g2",
        "sat_unread_scale", "sat_unknown_kind", "sat_periodic_on_bounded_axis",
        "sat_unread_g2_zero", "sat_unread_scale_default", "sat_unknown_option",
        "sat_option_without_value", "sat_option_twice", "sat_kind_as_option",
        "order_unsupported", "stride_zero", "identity_dt_unread",
        "identity_sat_unread", "identity_empty_sat_unread",
        "nonlinear_coefficient_unread",
        "nonlinear_identity_unread", "coupled_coefficient_unread",
        "standard_initial_unread", "section_twice", "model_kind_unknown",
        "extent_three_bounds", "periodic_not_bool", "variables_unknown",
        "trig_token_count", "trig_axis_factor_unknown", "family_unknown",
        "sat_empty_closure", "order_one_integer", "mode_unknown"])
def test_malformed_scenarios_exit_2_in_run_and_convergence(tmp_path, edit, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(edit(BURGERS_CFG))
    out_dir = tmp_path / "o"
    code, out, err = run_main(["run", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 2
    assert "config error" in err
    assert out == ""
    assert not out_dir.exists()
    if line is not None:
        assert f"{cfg}:{line}: " in err
    # convergence builds and validates every level before it marches any
    code, out, err = run_main(["convergence", "--config", str(cfg),
                               "--levels", "24,48,96", "--out", str(out_dir)])
    assert code == 2
    assert "config error" in err and "run failed" not in err
    assert out == ""
    assert not out_dir.exists()
    if line is not None:
        assert f"{cfg}:{line}: " in err


@pytest.mark.parametrize("edit", [
    lambda text: text.replace("mode = nonlinear", "mode = standard_vs_new")
    .replace("[initial]", "[perturbation]") + "\n[coefficient]\nfamily = constant\ncomp0 = 1.0\n",
    identity_with(""),
], ids=["standard_vs_new", "identity"])
def test_convergence_refuses_a_mode_of_other_than_one_run_at_its_line(tmp_path, edit):
    cfg = tmp_path / "two.cfg"
    cfg.write_text(edit(BURGERS_CFG))
    code, out, err = run_main(["convergence", "--config", str(cfg), "--levels", "24,48,96"])
    assert code == 2
    assert err == (f"config error: {cfg}:12: convergence studies need a single marching"
                   " mode\n")
    assert out == ""


def test_marching_a_singular_norm_model_is_refused_at_the_mode_line(tmp_path):
    cfg = tmp_path / "euler.cfg"
    cfg.write_text(IDENTITY_CFG.replace("mode = identity", "mode = nonlinear\ndt = 0.01\n"
                                        "t_final = 0.1")
                   .replace("[identity]\ntrials = 3\nseed = 0\nmode = nonlinear",
                            "[initial]\nfamily = constant\ncomp0 = 1.0\ncomp1 = 0.0\n"
                            "comp2 = 0.0"))
    for command in (["run"], ["convergence", "--levels", "9,17,33"]):
        code, out, err = run_main([*command, "--config", str(cfg),
                                   "--out", str(tmp_path / "o")])
        assert code == 2, command
        assert f"config error: {cfg}:11: model 'euler2d' has a singular norm matrix" in err
        assert out == "" and not (tmp_path / "o").exists()


def test_a_grid_below_the_operators_minimum_is_refused_at_its_source(tmp_path):
    # (4,2) needs 8 nodes on a bounded axis: the config's shape under run,
    # and the --levels under convergence, which marches its own grids
    cfg = tmp_path / "small.cfg"
    cfg.write_text(BURGERS_CFG.replace("periodic = true", "periodic = false")
                   .replace("shape = 48", "shape = 6"))
    out_dir = tmp_path / "o"
    code, out, err = run_main(["run", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 2
    assert err == f"config error: {cfg}:7: [grid] order (4, 2) needs at least 8 nodes, got 6\n"
    for levels, message in (("5,9,17", "order (4, 2) needs at least 8 nodes, got 5"),
                            ("1,1,1", "axis x: need at least 2 nodes")):
        code, out, err = run_main(["convergence", "--config", str(cfg), "--levels", levels,
                                   "--out", str(out_dir)])
        assert code == 2, levels
        assert err == f"error: --levels: {message}\n"
    assert out == "" and not out_dir.exists()


def test_primitive_depth_at_the_floor_is_refused_at_its_line(tmp_path):
    cfg = tmp_path / "dry.cfg"
    cfg.write_text(SWE_STANDARD_CFG.replace("swe_two_condition g2=1.0 g3=0.2", "none")
                   .replace("family = trig\ncomp0 = 1.0 0.1 sin:1 cos:1",
                            "family = trig\nvariables = primitive\ncomp0 = 0.0 0.1 sin:1 cos:1"))
    out_dir = tmp_path / "o"
    for command in (["run"], ["convergence", "--levels", "17,33,65"]):
        code, out, err = run_main([*command, "--config", str(cfg), "--out", str(out_dir)])
        assert code == 2, command
        assert err == (f"config error: {cfg}:19: [coefficient] phi must be positive for the"
                       " square-root transform\n")
        assert out == "" and not out_dir.exists()


def test_unknown_closure_option_is_refused_by_the_closure(tmp_path):
    cfg = tmp_path / "foo.cfg"
    cfg.write_text(with_sat("characteristic foo=1")(BURGERS_CFG))
    code, out, err = run_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"{cfg}:25: [sat] 'x_low': characteristic closure reads no foo" in err
    assert out == ""


def test_lone_periodic_closure_is_refused_at_its_own_line(tmp_path):
    # on the periodic grid of BURGERS_CFG, x_high alone is periodic
    text = BURGERS_CFG + "\n[sat]\nx_high = periodic\n"
    cfg = tmp_path / "lone.cfg"
    cfg.write_text(text)
    line = len(text.splitlines())
    for command in (["run"], ["convergence", "--levels", "24,48,96"]):
        code, out, err = run_main([*command, "--config", str(cfg),
                                   "--out", str(tmp_path / "o")])
        assert code == 2, command
        assert f"{cfg}:{line}: [sat] 'x_high'" in err and "both faces" in err
        assert out == ""
        assert not (tmp_path / "o").exists()
    # both faces periodic is the same as no entry
    cfg.write_text(text + "x_low = periodic\n")
    code, out, err = run_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 0, err


# The README's per-mode table: the sections each mode reads besides
# [model], [grid], [scheme] and [output].
MODE_READS = {
    "identity": ["identity"],
    "nonlinear": ["initial", "sat"],
    "frozen": ["initial", "coefficient", "sat"],
    "dual": ["initial", "coefficient", "sat"],
    "new_linearised_coupled": ["initial", "perturbation", "sat"],
    "standard_linearised": ["coefficient", "perturbation", "sat"],
    "standard_vs_new": ["coefficient", "perturbation", "sat"],
}

SECTION_TEXT = {
    "initial": "family = trig\ncomp0 = 0.5 0.1 sin:1\n",
    "coefficient": "family = constant\ncomp0 = 0.5\n",
    "perturbation": "family = trig\ncomp0 = 0.0 0.01 sin:1\n",
    "sat": "x_low = periodic\nx_high = periodic\n",
    "identity": "trials = 2\n",
}


def mode_config(mode, sections):
    march = "" if mode == "identity" else "dt = 0.004\nt_final = 0.02\n"
    return ("[model]\nkind = burgers1d\n\n[grid]\nextents = 0,1\nshape = 32\n"
            f"periodic = true\n\n[scheme]\norder = 4,2\nmode = {mode}\n{march}"
            "\n[output]\nprefix = p\n"
            + "".join(f"\n[{section}]\n{SECTION_TEXT[section]}" for section in sections))


@pytest.mark.parametrize("mode", MODE_READS)
def test_each_mode_reads_exactly_the_sections_of_its_table_row(tmp_path, mode):
    cfg = tmp_path / "mode.cfg"
    refused = tmp_path / "refused"
    reads = MODE_READS[mode]
    cfg.write_text(mode_config(mode, reads))
    code, out, err = run_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 0, err
    # any other section is refused at its first key
    for section in sorted(set(SECTION_TEXT) - set(reads)):
        text = mode_config(mode, reads + [section])
        cfg.write_text(text)
        line = len(text.splitlines()) - SECTION_TEXT[section].count("\n") + 1
        key = SECTION_TEXT[section].partition(" =")[0]
        code, out, err = run_main(["run", "--config", str(cfg), "--out", str(refused)])
        assert code == 2, section
        assert f"{cfg}:{line}: '{key}' in [{section}] is not read by mode '{mode}'" in err
        assert out == "" and not refused.exists()
    # every field it reads is required but the dual run's [coefficient]
    for section in sorted(set(reads) - {"sat", "identity"}):
        cfg.write_text(mode_config(mode, [s for s in reads if s != section]))
        if (mode, section) == ("dual", "coefficient"):
            assert run_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])[0] == 0
            continue
        code, out, err = run_main(["run", "--config", str(cfg), "--out", str(refused)])
        assert code == 2, section
        assert f"config error: {cfg}: missing required section [{section}]\n" == err
        assert out == "" and not refused.exists()


SWE_STANDARD_CFG = """
[model]
kind = swe2d

[grid]
extents = 0,1 / 0,1
shape = 17 / 17
periodic = false / true

[scheme]
order = 2,1
mode = standard_linearised
dt = 0.002
t_final = 0.01

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

[sat]
x_low = swe_two_condition g2=1.0 g3=0.2
x_high = none
"""


@pytest.mark.parametrize("mode", ["standard_linearised", "standard_vs_new"])
def test_swe_standard_linearisation_refuses_a_sat_closure(tmp_path, monkeypatch, mode):
    # the closures are written for transformed variables, and this mode
    # marches a primitive perturbation
    def no_march(sc):
        raise AssertionError("marched before refusing the closure")

    monkeypatch.setattr(cli, "march", no_march)
    cfg = tmp_path / "std.cfg"
    cfg.write_text(SWE_STANDARD_CFG.replace("mode = standard_linearised", f"mode = {mode}"))
    out_dir = tmp_path / "o"
    commands = [["run"]]
    if mode == "standard_linearised":
        commands.append(["convergence", "--levels", "17,33,65"])
    for command in commands:
        code, out, err = run_main([*command, "--config", str(cfg), "--out", str(out_dir)])
        assert code == 2, command
        assert "config error" in err and "x_low" in err and "none or periodic" in err
        assert out == ""
        assert not out_dir.exists()


def test_swe_standard_and_coupled_runs_linearise_about_one_mean(tmp_path, monkeypatch):
    # both runs take the configured transformed mean; the standard run marches
    # the perturbation taken to primitive (phi, u, v) about it, so the two
    # t = 0 energies measure different variables
    scenarios = []
    real_march = cli.march

    def recording_march(sc):
        scenarios.append(sc)
        return real_march(sc)

    monkeypatch.setattr(cli, "march", recording_march)
    path = tmp_path / "std.cfg"
    path.write_text(SWE_STANDARD_CFG.replace("mode = standard_linearised",
                                             "mode = standard_vs_new")
                    .replace("swe_two_condition g2=1.0 g3=0.2", "none"))
    code, out, err = run_main(["run", "--config", str(path), "--out", str(tmp_path)])
    assert code == 0, err
    e0 = {run: read_csv(tmp_path / f"run_{run}.csv")[1][0][1] for run in ("standard", "new")}
    assert e0["standard"] != e0["new"]
    standard, coupled = scenarios
    assert (standard.mode, coupled.mode) == ("standard_linearised", "new_linearised_coupled")
    assert np.array_equal(standard.mean, coupled.mean)
    primitive_total = np.stack(swe_inverse(standard.mean)) + standard.initial
    assert np.allclose(swe_transform(*primitive_total), coupled.mean + coupled.initial,
                       rtol=1e-15, atol=0.0)


def test_swe_standard_run_refuses_a_perturbation_past_the_depth_floor(tmp_path):
    # mean + perturbation has no primitive form when its depth is negative
    cfg = tmp_path / "std.cfg"
    cfg.write_text(SWE_STANDARD_CFG.replace("swe_two_condition g2=1.0 g3=0.2", "none")
                   .replace("comp0 = 0.0 0.01 cos:1 sin:1", "comp0 = -2.0 0.01 cos:1 sin:1"))
    out_dir = tmp_path / "o"
    code, out, err = run_main(["run", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 2
    # cited at the header of the mean's section, [coefficient]
    assert f"config error: {cfg}:16: primitive mean" in err and "depth" in err
    assert out == ""
    assert not out_dir.exists()


def test_swe_standard_linearisation_marches_with_open_faces(tmp_path):
    cfg = tmp_path / "std.cfg"
    cfg.write_text(SWE_STANDARD_CFG.replace("swe_two_condition g2=1.0 g3=0.2", "none"))
    code, out, err = run_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 0, err


def test_swe_standard_final_state_names_its_primitive_columns(tmp_path):
    # the standard run marches a primitive (phi, u, v) perturbation; the
    # coupled run next to it marches transformed variables
    cfg = tmp_path / "std.cfg"
    cfg.write_text(SWE_STANDARD_CFG.replace("mode = standard_linearised", "mode = standard_vs_new")
                   .replace("swe_two_condition g2=1.0 g3=0.2", "none"))
    code, out, err = run_main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0, err
    columns = {name: (tmp_path / f"run_{name}_final.txt").read_text().splitlines()[4]
               for name in ("standard", "new_mean", "new_pert")}
    assert columns["standard"].endswith("columns: i_x i_y phi u v")
    assert columns["new_mean"].endswith("columns: i_x i_y U1 U2 U3")
    assert columns["new_pert"].endswith("columns: i_x i_y U1 U2 U3")


def _block(lines, header):
    """The lines after header up to the next line without indent."""
    rest = lines[lines.index(header) + 1:]
    return list(itertools.takewhile(lambda line: line.startswith("  "), rest))


@pytest.mark.parametrize("mode", ["nonlinear", "standard_linearised"])
def test_swe_convergence_prints_the_ansatz_defect_and_the_standard_volume_residual(
        tmp_path, mode):
    # the swe2d blocks of convergence: the ansatz defect of the initial or
    # mean field, which converges at the interior order as `verify ansatz`
    # demands (p - 0.2 on the finest pair), and a standard run's t = 0
    # volume residual on each level
    if mode == "nonlinear":
        scenario = Path(skewform.__file__).with_name("scenarios") / "swe_coriolis_periodic.cfg"
        text, p = scenario.read_text().replace("t_final = 0.2", "t_final = 0.02"), 4
    else:
        text = (SWE_STANDARD_CFG.split("[sat]")[0]
                .replace("periodic = false / true", "periodic = true / true")
                .replace("t_final = 0.01", "t_final = 0.008"))
        p = 2
    cfg = tmp_path / "swe.cfg"
    cfg.write_text(text)
    code, out, err = run_main(["convergence", "--config", str(cfg), "--levels", "8,16,32"])
    assert code == 0, err
    lines = out.splitlines()
    defects = _block(lines, "quasilinear ansatz defect on the initial/mean field:")
    assert [line.split()[0] for line in defects] == ["n=8", "n=16", "n=32"]
    assert "order" not in defects[0]
    assert float(defects[-1].rsplit("order", 1)[1]) >= p - 0.2
    header = ("standard-linearisation volume residual (t = 0), converging to its"
              " continuum quadrature limit:")
    if mode == "nonlinear":
        assert header not in lines
        return
    residuals = _block(lines, header)
    assert [line.split()[0] for line in residuals] == ["n=8", "n=16", "n=32"]
    assert all(float(line.split()[2]) != 0.0 for line in residuals)
    assert ["order" in line for line in residuals] == [False, False, True]


IDENTITY_CFG = """
[model]
kind = euler2d

[grid]
extents = 0,1 / 0,1
shape = 9 / 9

[scheme]
order = 2,1
mode = identity

[identity]
trials = 3
seed = 0
mode = nonlinear
"""


@pytest.mark.parametrize("old, new, line", [
    ("trials = 3", "trials = 0", 14),
    ("trials = 3", "trials = -4", 14),
    ("trials = 3", "trials = three", 14),
    ("seed = 0", "seed = -1", 15),
    ("seed = 0", "seed = 0.5", 15),
    ("mode = nonlinear", "mode = bogus", 16),
], ids=["trials_zero", "trials_negative", "trials_typo", "seed_negative",
        "seed_fraction", "mode_unknown"])
def test_identity_values_are_refused_before_any_output(tmp_path, old, new, line):
    cfg = tmp_path / "identity.cfg"
    cfg.write_text(IDENTITY_CFG.replace(old, new))
    out_dir = tmp_path / "o"
    code, out, err = run_main(["run", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 2
    assert out == ""
    assert f"config error: {cfg}:{line}: " in err
    assert not out_dir.exists()
