"""Tools outside the package: the traced benchmark and the benchmark runner.

The traced benchmark wraps engine functions by name; a rename must fail here, not silently there.
The runner checks every report it produces; a report change it rejects must fail here first.
"""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACED_CLI = PERFBENCH / "traced_cli.py"


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


@pytest.mark.parametrize("workload", ["tables_cold", "dl_warm", "verify_warm", "beyond_roster"])
def test_benchmark_smoke_run_is_correct(workload):
    """One smoke pass on A2 (results go to the ignored .perfbench_runs/): every output checked, none failed."""
    proc = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--smoke"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stderr
