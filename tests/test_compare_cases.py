"""Checks of the case table of scripts/compare_cli_outputs.py."""

import importlib.util
from pathlib import Path

import pytest

from skewform.cli import bundled_scenarios

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_cli_outputs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("compare_cli_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_cases() -> dict:
    return load_script().CASES


def test_each_case_writes_exactly_the_config_it_reads():
    # a config that a row forgets to write makes both trees refuse it alike,
    # and the case reads "identical"; a written file that no row reads
    # checks nothing
    scenarios = bundled_scenarios()
    for name, (argv, written) in load_cases().items():
        read = {argv[argv.index("--config") + 1]} if "--config" in argv else set()
        assert set(written) <= read, name
        for config in read - set(written):
            assert config in scenarios, name


@pytest.mark.parametrize("tree", ["parent", "change"])
def test_a_work_dir_from_an_earlier_run_is_refused_before_any_case(tmp_path, monkeypatch, tree):
    # a second run into the same --work DIR would meet the first run's case
    # directories; it must stop with the name, and leave them as they are
    script = load_script()

    def run_case(*args):
        raise AssertionError("a case ran")
    monkeypatch.setattr(script, "run_case", run_case)
    earlier = tmp_path / tree / "run_burgers_periodic" / "out" / "run.csv"
    earlier.parent.mkdir(parents=True)
    earlier.write_text("kept")
    src = str(Path(__file__).resolve().parents[1] / "src")
    with pytest.raises(SystemExit) as stop:
        script.main([src, src, "--work", str(tmp_path)])
    assert str(stop.value) == f"{tmp_path / tree} already exists; give --work a new directory"
    assert earlier.read_text() == "kept"
