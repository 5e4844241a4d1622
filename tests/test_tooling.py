"""Tools outside the package: the traced benchmark and the benchmark runner.

The traced benchmark wraps engine functions by name; a rename must fail here, not silently there.
The runner checks every report it produces; a report change it rejects must fail here first.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weyl_dl import build_weyl_group, parabolic
from weyl_dl.dl import subsets

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


@pytest.mark.parametrize("type_label, rank, frobenius, mackey", [("A", 3, 8, 176), ("G", 2, 4, 44)])
def test_traced_verify_runs_every_check(tmp_path, type_label, rank, frobenius, mackey):
    """verify T n on a fresh cache, traced: Frobenius on every W_I, Mackey on every (I, J, chi), DL once."""
    trace = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, str(TRACED_CLI), str(trace), "verify", type_label, str(rank),
                           "--cache-dir", str(tmp_path / "cache")], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(trace.read_text())["calls"]
    W = build_weyl_group(type_label, rank)
    irreducibles = sum(parabolic(W, I).n_classes for I in subsets(rank))  # |Irr(W_I)| = its class count
    assert calls["indres.frobenius_check"] == 2 ** rank == frobenius
    assert calls["indres.mackey_check"] == 2 ** rank * irreducibles == mackey
    for name in ("dl.verify_sign_twist", "dl.verify_involution", "dl.dl_inverse_matrix"):
        assert calls[name] == 1, name


def test_traced_cold_table_counts_lazily_imported_calls(tmp_path):
    """cli imports chars inside its functions; the tracer still counts the calls through it."""
    trace = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, str(TRACED_CLI), str(trace), "table", "A", "3",
                           "--cache-dir", str(tmp_path / "cache")], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(trace.read_text())
    calls = result["calls"]
    assert calls["chars.character_table"] == 1
    assert calls["ratlinalg.nullspace"] == 15
    assert calls["cli.load_or_compute_table"] == 1
    assert result["counters"]["cli.cache.misses"] == 1


def test_every_public_name_resolves():
    """Each name in weyl_dl.__all__ resolves in a fresh interpreter; a rename fails here, not at its first caller."""
    code = (
        "import weyl_dl\n"
        "for name in weyl_dl.__all__:\n"
        "    getattr(weyl_dl, name)\n"
        "print(len(weyl_dl.__all__))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src")}
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
