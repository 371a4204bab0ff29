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


def _private_definitions(source):
    """Module-level private functions, classes and constants, name -> line."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        defined.update((name, node.lineno) for name in targets if name.startswith("_") and not name.startswith("__"))
    return defined


def _referenced_names(source):
    """Names the module reads, as bare names, attributes or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unreferenced_privates(sources):
    """(module, line, name) of each module-level private name no module references."""
    used = set().union(*map(_referenced_names, sources.values()))
    return sorted(
        (module, line, name)
        for module, source in sources.items()
        for name, line in _private_definitions(source).items()
        if name not in used
    )


def test_unreferenced_privates_detected():
    a = "def _used():\n    pass\ndef _orphan():\n    pass\nclass _Gone:\n    pass\n_LIMIT = 3\n_KEPT: int = _used()\n"
    b = "import a\nfrom a import _LIMIT\na._Gone()\n"
    assert _unreferenced_privates({"a": a}) == [("a", 3, "_orphan"), ("a", 5, "_Gone"), ("a", 7, "_LIMIT"), ("a", 8, "_KEPT")]
    assert _unreferenced_privates({"a": a, "b": b}) == [("a", 3, "_orphan"), ("a", 8, "_KEPT")]


def test_no_unreferenced_privates_in_package():
    # a private helper whose last caller went must go with it; references
    # from the tests do not count
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    orphans = [f"{module}:{line}: {name}" for module, line, name in _unreferenced_privates(sources)]
    assert not orphans, "unreferenced private names: " + ", ".join(orphans)


def _numpy_products(source):
    """(line, form) of each ``@``, ``@=``, ``dot`` or ``matmul`` in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in ("dot", "matmul"):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_numpy_products_detected():
    source = "a = b @ c\na @= b\nnp.dot(a, b)\nnp.matmul(a, b)\na.dot(b)\n# a @ b\nf(b.T, x)\n"
    assert _numpy_products(source) == [(1, "@"), (2, "@"), (3, "dot"), (4, "matmul"), (5, "dot")]


def test_metric_has_no_numpy_products():
    # numpy and scipy each bring their own OpenBLAS and thread pool; one numpy
    # product on Z leaves numpy's threads spinning against scipy's Cholesky
    # factor, so every product in metric goes through scipy's dgemv
    found = [f"metric.py:{line}: {form}" for line, form in _numpy_products((PACKAGE / "metric.py").read_text())]
    assert not found, "numpy products: " + ", ".join(found)


def test_startup_loads_only_scipy_lapack_wrappers():
    # every maglab process pays for its imports: metric loads scipy's compiled
    # LAPACK wrappers alone, not the scipy.linalg package and its array-API
    # layer, nor its BLAS wrappers, which the first product on Z loads; and no
    # exact ball N/D or its trace rows are built at import
    banned = ("scipy.linalg", "scipy._lib._array_api", "scipy.linalg._fblas", "scipy.spatial", "scipy.special")
    lazy = ("_ball_trace_polys", "_exact_ball_rational")
    probe = (
        "import sys, maglab, maglab.cli; "
        f"print(sorted(m for m in {banned!r} if m in sys.modules), 'scipy.linalg._flapack' in sys.modules, "
        f"[getattr(maglab.radial, f).cache_info().currsize for f in {lazy!r}])"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.strip() == "[] True [0, 0]"
