"""The benchmark harness keeps working against the current library.

``perfbench/checks.py`` and ``perfbench/tracing.py`` import and wrap names
from ``starclone``; if one is renamed, every benchmark pass crashes before
it prints a result.  The harness self-test runs real commands through the
CLI and its checkers, so it fails first.
"""

import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_bindings_resolve(monkeypatch):
    # a binding that no longer resolves turns its traced metrics into null
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # as passrun.py sees it
    tracing = importlib.import_module("tracing")
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracing.BINDINGS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.BINDINGS
    assert not missing, missing
