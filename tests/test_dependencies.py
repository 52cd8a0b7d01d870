"""The runtime imports only the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import intersets

PACKAGE = Path(intersets.__file__).resolve().parent


def _imported_roots(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            # relative imports stay inside the package
            yield "intersets" if node.level else node.module.partition(".")[0]


def test_package_imports_only_stdlib():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        foreign = {
            root
            for root in _imported_roots(tree)
            if root != "intersets" and root not in sys.stdlib_module_names
        }
        assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_fresh_import_leaves_numpy_out():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = "import sys, intersets; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
