"""Tests for the command line interface."""

import csv
import io
import os
from contextlib import redirect_stdout, redirect_stderr

import numpy as np
import pytest

from skewform import cli
from skewform.cli import ConfigError, bundled_scenarios, main, parse_config_text

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
    assert len(data) == 48
    first = data[0].split()
    assert first[0] == "0"
    float(first[1])


def test_verify_subcommand_exit_codes(tmp_path):
    code, out, _ = run_main(["verify", "alpha", "--trials", "5", "--seed", "2"])
    assert code == 0
    assert "PASS" in out
    assert "1/1 suites passed" in out
    with pytest.raises(SystemExit) as exc:
        run_main(["verify", "nonsense"])
    assert exc.value.code == 2


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


def test_analyze_boundary_glancing_exits_2():
    code, out, err = run_main([
        "analyze-boundary", "--model", "swe2d", "--state", "1,0,0.5",
        "--normal", "1,0", "--formulation", "nonlinear_rewritten"])
    assert code == 2


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


def test_convergence_refuses_unnested_levels_before_marching(monkeypatch):
    def no_march(sc):
        raise AssertionError("convergence marched before checking the levels")

    monkeypatch.setattr(cli, "march", no_march)
    code, out, err = run_main(["convergence", "--config", "burgers_periodic",
                               "--levels", "24,40,96"])
    assert code == 2
    assert out == ""
    assert "not nested" in err


@pytest.mark.parametrize("edit", [
    # frozen mode without a [coefficient] section
    lambda text: text.replace("mode = nonlinear", "mode = frozen"),
    # t_final shorter than one step
    lambda text: text.replace("t_final = 0.1", "t_final = 0.001"),
], ids=["frozen_without_coefficient", "t_final_below_dt"])
def test_malformed_scenarios_exit_2_in_run_and_convergence(tmp_path, edit):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(edit(BURGERS_CFG))
    out_dir = tmp_path / "o"
    code, out, err = run_main(["run", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 2
    assert "config error" in err
    assert not out_dir.exists()
    # convergence builds and validates every level before it marches any
    code, out, err = run_main(["convergence", "--config", str(cfg),
                               "--levels", "24,48,96", "--out", str(out_dir)])
    assert code == 2
    assert "config error" in err and "run failed" not in err
    assert out == ""
    assert not out_dir.exists()
