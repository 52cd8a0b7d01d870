"""The runtime imports only the standard library."""

import ast
import json
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


_DEFERRED = {
    "continuum": (
        "OpenTheoremReport",
        "RationalPerturbFamily",
        "RationalTheoremReport",
        "verify_open_theorem",
        "verify_rational_theorem",
    ),
    "lattices": (
        "Box",
        "LatticeTheoremReport",
        "MinNormCheck",
        "NormTailFamily",
        "lattice_hfold_sum",
        "min_norm_inequality",
        "verify_lattice_theorem",
    ),
    "scenarios": ("ScenarioOptions", "ScenarioResult", "run_scenario", "scenario_ids"),
}

_LAYER_PROBE = """
import importlib, json, sys
import intersets
from intersets import cli

deferred = json.loads(sys.argv[1])
loaded = sorted(m for m in deferred if "intersets." + m in sys.modules)
listed = set(dir(intersets))
# each layer module is an attribute of the package before any import of it
modules = all(getattr(intersets, m) is sys.modules["intersets." + m] for m in deferred)
same = all(
    getattr(intersets, name) is getattr(importlib.import_module("intersets." + m), name)
    for m, names in deferred.items()
    for name in names
)
try:
    intersets.no_such_name
    unknown = "no error"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "loaded": loaded,
    "listed": all(n in listed for names in deferred.values() for n in names),
    "modules": modules,
    "same": same,
    "unknown": unknown,
}))
"""


def test_fresh_import_leaves_the_scenario_layer_out():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", _LAYER_PROBE, json.dumps(_DEFERRED)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout) == {
        "loaded": [],
        "listed": True,
        "modules": True,
        "same": True,
        "unknown": "module 'intersets' has no attribute 'no_such_name'",
    }
