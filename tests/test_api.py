"""Guards on the package as a whole: every module imports only what it uses,
the bound chains reach the band geometry through public calls only, no test
masks a warning, and each input rule raises its typed error."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import qii
from qii import applications
from qii.errors import (BadResolution, DimensionMismatch, OutOfRange,
                        WrongDimension, ZeroVector)
from qii.geometry import Chart, Loop, _as_cvector, projector, qgt_at
from qii.inequalities import plane_check, sphere_check
from qii.loops import bloch_circle, perturb_circle, refine, split_self_intersections
from qii.models import ModelSpec, bloch_table

PACKAGE = Path(qii.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


def test_no_test_ignores_a_warning():
    # pytest.ini turns every warning into an error; a per-test ignore filter
    # once hid an overflow in load_loop
    ignoring = re.compile(r"filterwarnings\(\s*[\"']ignore")
    masked = [f"{path.name}:{i}" for path in TESTS
              for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
              if ignoring.search(line)]
    assert masked == []


def _circle_map(lam):
    return np.array([np.cos(lam[0] / 2), np.sin(lam[0] / 2) * np.exp(1j * lam[1])])


@pytest.mark.parametrize("call, error, message", [
    (lambda: Loop(np.ones(4, dtype=complex)), WrongDimension, "must be 2-D"),
    (lambda: Chart(_circle_map, 2, step=0.0), ValueError, "step must be positive"),
    (lambda: Chart(_circle_map, 2, step=-1e-4), ValueError, "step must be positive"),
    (lambda: _as_cvector(np.eye(2)), DimensionMismatch, "1-D vector"),
    (lambda: projector([1.0, 1.0]), ZeroVector, "normalized state"),
    (lambda: qgt_at(Chart(_circle_map, 2), [0.3]), WrongDimension, "expects 2 parameters"),
    (lambda: plane_check(-1.0, 1.0), OutOfRange, "nonnegative"),
    (lambda: plane_check(1.0, -1.0), OutOfRange, "nonnegative"),
    (lambda: sphere_check(1.0, 1.0, 0.0), OutOfRange, "radius must be positive"),
    (lambda: sphere_check(-1.0, 1.0, 1.0), OutOfRange, "nonnegative"),
    (lambda: sphere_check(1.0, -1.0, 1.0), OutOfRange, "nonnegative"),
    (lambda: perturb_circle(1.0, -0.1, 2, 64), OutOfRange, "eps >= 0 and mode >= 1"),
    (lambda: perturb_circle(1.0, 0.1, 0, 64), OutOfRange, "eps >= 0 and mode >= 1"),
    (lambda: refine(bloch_circle(1.0, 16), 1), BadResolution, "factor must be >= 2"),
    (lambda: split_self_intersections(bloch_circle(1.0, 16), 0.0), OutOfRange,
     "tolerance must be positive"),
    (lambda: split_self_intersections(bloch_circle(1.0, 16), -1e-7), OutOfRange,
     "tolerance must be positive"),
    (lambda: ModelSpec("nope"), OutOfRange, "unknown model kind 'nope'"),
    (lambda: bloch_table([0.0, 1.0], np.ones((2, 2))), WrongDimension, "(n, 3) Bloch vectors"),
    (lambda: bloch_table([[0.0, 1.0]], np.ones((2, 3))), WrongDimension,
     "(n, 3) Bloch vectors"),
], ids=["loop-1d", "chart-step-0", "chart-step-neg", "cvector-2d", "projector-unnormalized",
        "qgt-parameter-count", "plane-perimeter", "plane-area", "sphere-radius",
        "sphere-perimeter", "sphere-area", "perturb-eps", "perturb-mode", "refine-factor-1",
        "split-tol-0", "split-tol-neg", "model-kind", "table-vectors", "table-k-2d"])
def test_input_rules_raise_their_typed_errors(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
