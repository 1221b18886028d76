"""Smoke test of the benchmark hooks.

perfbench/child.py installs its timers by rebinding package functions by
name, so a refactor that renames or moves one of them breaks the benchmark.
These runs catch that before the benchmark does.  The test only reads
perfbench/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"


def run_child(mode, result, cli_args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(CHILD), mode, str(result), "--", *cli_args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


def test_trace_hooks_wrap_every_layer(tmp_path):
    result = run_child("trace", tmp_path / "trace.json",
                       ["verify", "alpha", "--trials", "2"], tmp_path)
    assert result["code"] == 0
    assert result["layers"]["verify.check_alpha_independence"][0] == 1


def test_light_hooks_time_the_march(tmp_path):
    result = run_child("light", tmp_path / "light.json",
                       ["run", "--config", "burgers_periodic",
                        "--out-dir", str(tmp_path / "out")], tmp_path)
    assert result["code"] == 0
    assert len(result["events"]["march"]) == 1
    assert len(result["events"]["steps"]) == 100


def test_trace_hooks_count_the_work_of_each_apply(tmp_path):
    # a march applies D, so the trace reaches ApplyWork, which reads op.D
    result = run_child("trace", tmp_path / "trace.json",
                       ["run", "--config", "burgers_periodic",
                        "--out-dir", str(tmp_path / "out")], tmp_path)
    assert result["code"] == 0
    assert result["layers"]["sbp_core.apply_derivative"][0] > 0
    flop, nbytes = result["work"]["sbp_core.apply_derivative"]
    assert flop > 0 and nbytes > 0
