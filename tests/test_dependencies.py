"""numpy is the package's only runtime dependency, and no module imports
another's private names."""

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


def test_no_module_imports_a_private_name_of_another():
    # a name with a leading underscore belongs to its module; another module
    # that needs it should get it public
    private = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [(path.name, node.module, alias.name) for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []
