"""Import hygiene of the package, checked with the standard library's ``ast``.

A deletion that leaves an unused import behind, in the package or in its
tests, or a public name that no longer resolves, fails here instead of
surviving as dead surface.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import starclone

PACKAGE = Path(starclone.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that nothing else in the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # the root of a dotted use (np.linalg) is a Name node too
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_a_dead_import():
    assert unused_imports("import math\nfrom .hilbert import StateVector\nmath.pi\n") == [
        "StateVector (line 2)"
    ]


def test_public_names_unique_and_resolvable():
    names = starclone.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(starclone, name)] == []


def test_cli_import_leaves_out_scipy_optimize():
    # only optimize's refinement needs scipy.optimize; it is imported on first use
    code = "import sys, starclone.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, cwd=PACKAGE.parent)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
