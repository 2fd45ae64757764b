"""Source guards on the package: every module imports only what it uses, and
the bound chains reach the band geometry through public calls only."""

import ast
from pathlib import Path

import qii
from qii import applications

PACKAGE = Path(qii.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _unused_imports(tree):
    """Names bound by the module's imports that no expression reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in used)


def test_modules_import_only_names_they_use():
    # __init__.py imports to re-export; every other module should need
    # each name it binds, so no import is kept only to be patched from outside
    unused = {path.name: _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
              for path in MODULES if path.name != "__init__.py"}
    assert {name: found for name, found in unused.items() if found} == {}


def test_no_lint_suppressions():
    marked = [f"{path.name}:{i}" for path in MODULES
              for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
              if "noqa" in line]
    assert marked == []


def test_only_loops_calls_min_resolution():
    # the Fourier shape rule (M >= 2, k >= 0, n >= min_resolution(k)) has one
    # owner, loops.check_fourier_shape; every other module calls that instead
    calls = {path.name: [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                         if isinstance(node, ast.Call) and "min_resolution" in
                         (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
             for path in MODULES if path.name != "loops.py"}
    assert {name: lines for name, lines in calls.items() if lines} == {}


def test_applications_binds_no_band_geometry_private():
    # models.band_geometry owns the stacked stencil rows and the two-band closed
    # forms, geometry.loop_distance / loop_berry_phase the overlap pass
    private = {"_gated_bloch", "_spinors", "_metric", "_BAND_INDEX", "_scalars"}
    assert private & set(vars(applications)) == set()
    assert "._overlaps" not in (PACKAGE / "applications.py").read_text(encoding="utf-8")
