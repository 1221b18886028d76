"""numpy is the package's only runtime dependency."""

import ast
import sys
from pathlib import Path

import skewform

SOURCES = sorted(Path(skewform.__file__).parent.glob("*.py"))


def test_the_package_imports_only_the_standard_library_and_numpy():
    assert len(SOURCES) > 1
    foreign = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert foreign == []
