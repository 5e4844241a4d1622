"""Tools outside the package: the traced benchmark and the verification script.

The traced benchmark wraps engine functions by name; a rename must fail here, not silently there.
"""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"


def test_traced_functions_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    names = set()
    for name, owner, attr, _timed, _on_result in traced_cli.TRACED:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"
        names.add((owner.__name__, attr))
    for expected in [("WeylGroup", "conjugate_sweep"), ("WeylGroup", "mul"),
                     ("weyl_dl.indres", "induction_counts"), ("weyl_dl.chars", "_split_eigenvectors")]:
        assert expected in names


def test_run_verification_script_passes(tmp_path):
    """scripts/run_verification.py runs the roster through build_group and run_type_checks."""
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_verification.py"), "--cache-dir", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1].endswith(", 0 failing checks")
    assert [line.split()[0] for line in lines[1:-1]] == [
        "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "G2", "F4",
    ]
