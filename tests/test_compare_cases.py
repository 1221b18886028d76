"""Checks of the case table of scripts/compare_cli_outputs.py."""

import importlib.util
from pathlib import Path

from skewform.cli import bundled_scenarios

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_cli_outputs.py"


def load_cases() -> dict:
    spec = importlib.util.spec_from_file_location("compare_cli_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CASES


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
