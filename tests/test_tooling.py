"""Tools outside the package: the traced benchmark and the benchmark runner.

The traced benchmark wraps engine functions by name; a rename must fail here, not silently there.
The runner checks every report it produces; a report change it rejects must fail here first.
The package itself must not validate with assert, which python -O strips.
Every error class of the package is raised somewhere and maps to its documented exit code.
"""
import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weyl_dl import build_weyl_group, cli, errors, parabolic
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
    assert calls["ratlinalg.nullspace"] == 6
    assert calls["cli.load_or_compute_table"] == 1
    assert result["counters"]["cli.cache.misses"] == 1


def test_traced_warm_dl_assembles_one_operator(tmp_path):
    """dl F 4 on a filled cache, traced: DL reads the induction counts and never induces or restricts.

    dl runs its three rows of cli.ROWS and no other: no Frobenius or Mackey check, and no full suite.
    """
    trace = tmp_path / "trace.json"
    cache = str(tmp_path / "cache")
    env = {**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for _ in range(2):  # the first run fills the cache
        proc = subprocess.run([sys.executable, str(TRACED_CLI), str(trace), "dl", "F", "4", "--cache-dir", cache],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
    result = json.loads(trace.read_text())
    calls = result["calls"]
    assert result["counters"]["cli.cache.hits"] == 1
    assert calls["dl.dl_matrix"] >= 1
    assert calls["indres.induction_counts"] >= 1
    assert calls.get("indres.induce", 0) == calls.get("indres.restrict", 0) == 0
    for name in ("cli.run_type_checks", "indres.frobenius_check", "indres.mackey_check"):
        assert calls.get(name, 0) == 0, name
    for name in ("dl.verify_sign_twist", "dl.verify_involution", "dl.dl_inverse_matrix"):
        assert calls[name] == 1, name


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


def test_no_assert_in_the_package():
    """Input checks raise the package's own errors: python -O strips every assert statement."""
    package = PERFBENCH.parent / "src" / "weyl_dl"
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(package.rglob("*.py")) and found == []


def test_every_import_in_the_package_is_read():
    """An imported name that its module never reads is dead code; a deliberate one is marked # noqa: F401."""
    package = PERFBENCH.parent / "src" / "weyl_dl"
    unread = []
    for path in sorted(package.rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unread.append(f"{path.relative_to(package)}:{node.lineno} {name}")
    assert sorted(package.rglob("*.py")) and unread == []


# the exit code of each error class, as the cli module docstring documents it
EXIT_CODES = {"InvalidType": 2, "GroupMismatch": 2, "NotVirtual": 2, "SizeLimit": 3,
              "InternalError": 4, "IrrationalityError": 4}


def test_every_error_class_is_raised_and_maps_to_its_exit_code(tmp_path, capsys, monkeypatch):
    """A class nothing raises is dead code; a class without a code would escape main as a traceback."""
    package = PERFBENCH.parent / "src" / "weyl_dl"
    raised = {
        node.exc.func.id
        for path in sorted(package.rglob("*.py")) if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name)
    }
    classes = {name: value for name, value in vars(errors).items()
               if isinstance(value, type) and value.__module__ == errors.__name__}
    assert sorted(classes) == sorted(EXIT_CODES)
    assert sorted(set(classes) - raised) == []
    for name, error in classes.items():
        def command(*args, error=error):
            raise error("refused")

        monkeypatch.setattr(cli, "cmd_table", command)
        code = EXIT_CODES[name]
        assert cli.main(["table", "A", "2", "--cache-dir", str(tmp_path)]) == code, name
        prefix = "error: internal: " if code == 4 else "error: "
        assert capsys.readouterr() == ("", prefix + "refused\n"), name
