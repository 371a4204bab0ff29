"""Source hygiene checks on the maglab package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "maglab"


def _unused_imports(source):
    """Names bound by the module's imports that the module never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_detected():
    source = "import math\nimport os.path\nfrom a import b as c, d\nd()\nos.path.join()\n"
    assert _unused_imports(source) == [(1, "math"), (3, "c")]


def test_no_unused_imports_in_package():
    # __init__.py imports only to re-export, so it is not scanned
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in _unused_imports(path.read_text())
    ]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_startup_loads_only_scipy_lapack_wrappers():
    # every maglab process pays for its imports: metric loads scipy's compiled
    # LAPACK wrappers alone, not the scipy.linalg package and its array-API layer
    banned = ("scipy.linalg", "scipy._lib._array_api", "scipy.spatial", "scipy.special")
    probe = (
        "import sys, maglab, maglab.cli; "
        f"print(sorted(m for m in {banned!r} if m in sys.modules), 'scipy.linalg._flapack' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.strip() == "[] True"
