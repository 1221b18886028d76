"""numpy is the package's only runtime dependency, no module imports
another's private names, and a march does not load OpenSSL."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import skewform
from skewform import verify

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


# Runs in a fresh interpreter: a run job must leave hashlib (and with it
# OpenSSL's libcrypto, 3.6 MB resident) unloaded; verify loads it when it
# first hashes a worst state.
HASHLIB_PROBE = """\
import json, sys, tempfile
from skewform import cli
HASHING = ("_hashlib", "hashlib", "_ssl")
with tempfile.TemporaryDirectory() as tmp:
    assert cli.main(["run", "--config", "burgers_periodic", "--out-dir", tmp]) == 0
after_run = sorted(m for m in HASHING if m in sys.modules)
assert cli.main(["verify", "energy", "--trials", "1"]) == 0
print(json.dumps([after_run, sorted(m for m in HASHING if m in sys.modules)]))
"""


def test_a_run_job_does_not_load_hashlib_and_verify_does():
    proc = subprocess.run([sys.executable, "-c", HASHLIB_PROBE], capture_output=True,
                          text=True, cwd=Path(skewform.__file__).parents[1])
    assert proc.returncode == 0, proc.stderr
    after_run, after_verify = json.loads(proc.stdout.strip().splitlines()[-1])
    assert after_run == []
    assert "_hashlib" in after_verify


def test_the_state_hash_is_the_sha256_prefix_of_the_contiguous_bytes():
    U = np.arange(6.0).reshape(3, 2)
    assert verify._state_hash(U) == "84a6e8b7afdd286a"
    assert verify._state_hash(U.T) == "e22d6e563d0c73c7"
