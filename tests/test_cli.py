import copy
import gc
import io
import json
import os
import subprocess
import sys
import weakref
from contextlib import redirect_stdout
from math import factorial
from pathlib import Path

import pytest

import weyl_dl
from weyl_dl import (
    ConjugacyClasses, InternalError, InvalidType, IrrationalityError, chars, cli, dl, indres, rootsys,
)
from weyl_dl.cli import (
    Config,
    cache_path,
    cache_payload,
    load_cache_entry,
    main,
    save_cache_entry,
)


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


@pytest.fixture
def cache_dir(tmp_path):
    return tmp_path / "cache"


def test_table_text(cache_dir):
    code, out = run_cli(["table", "A", "2", "--cache-dir", str(cache_dir)])
    assert code == 0
    assert "|W| = 6" in out
    assert "(2,1)" in out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(lines) == 4  # header + 3 rows


def test_table_a1(cache_dir):
    code, out = run_cli(["table", "A", "1", "--cache-dir", str(cache_dir)])
    assert code == 0
    assert "(1,1)" in out


def test_table_json_schema(cache_dir):
    code, out = run_cli(["table", "B", "2", "--format", "json", "--cache-dir", str(cache_dir)])
    assert code == 0
    payload = json.loads(out)
    for key in ("cartan", "classes", "irreducibles", "checks"):
        assert isinstance(payload[key], list)
    assert payload["cartan"][0] == ["2", "-1"]
    assert all(isinstance(v, str) for row in payload["cartan"] for v in row)
    assert payload["classes"][0] == {"word": "e", "size": "1"}
    degrees = sorted(item["degree"] for item in payload["irreducibles"])
    assert degrees == ["1", "1", "1", "1", "2"]
    assert all(isinstance(v, str) for item in payload["irreducibles"] for v in item["values"])


def test_table_csv(cache_dir):
    code, out = run_cli(["table", "A", "2", "--format", "csv", "--cache-dir", str(cache_dir)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "label,degree,e,s1,s2*s1"
    assert '"(1,1,1)",1,1,-1,1' in lines


def test_invalid_type_exits_2(cache_dir):
    code, _ = run_cli(["table", "E", "8", "--cache-dir", str(cache_dir)])
    assert code == 2
    code, _ = run_cli(["verify", "D", "3", "--cache-dir", str(cache_dir)])
    assert code == 2


def test_size_limit_exits_3(cache_dir):
    code, _ = run_cli(["table", "F", "4", "--max-order", "100", "--cache-dir", str(cache_dir)])
    assert code == 3


def test_root_count_limit_exits_3(cache_dir, capsys):
    code, _ = run_cli(["table", "A", "200", "--cache-dir", str(cache_dir)])
    assert code == 3
    assert "A200 has 40200 roots" in capsys.readouterr().err


def test_group_order_limit_exits_3_before_enumerating(cache_dir, capsys, monkeypatch):
    built = []
    original = rootsys.build_root_system

    def build_root_system(cartan, *args, **kwargs):
        built.append(cartan.label)
        return original(cartan, *args, **kwargs)

    monkeypatch.setattr(rootsys, "build_root_system", build_root_system)
    code, _ = run_cli(["table", "A", "9", "--cache-dir", str(cache_dir)])
    assert code == 3
    assert "A9 has order 3628800, more than the limit of 2000000" in capsys.readouterr().err
    # A99 has 9900 roots, under the root limit; its order is 100!
    code, _ = run_cli(["table", "A", "99", "--cache-dir", str(cache_dir)])
    assert code == 3
    assert f"A99 has order {factorial(100)}, more than the limit of 2000000" in capsys.readouterr().err
    assert built == []


def test_huge_rank_exits_3_before_any_matrix(cache_dir, capsys, monkeypatch):
    def no_matrix(n):
        raise AssertionError("a Cartan matrix was built")

    monkeypatch.setattr(rootsys, "_chain", no_matrix)
    code, out = run_cli(["table", "A", "1000000", "--cache-dir", str(cache_dir)])
    assert (code, out) == (3, "")
    assert "A1000000 has 1000001000000 roots" in capsys.readouterr().err
    for type_label, rank in (("B", "1"), ("X", "5")):
        code, _ = run_cli(["table", type_label, rank, "--cache-dir", str(cache_dir)])
        assert code == 2
        assert f"unsupported type {type_label}{rank}" in capsys.readouterr().err


def _refuse_to_build(monkeypatch, *names):
    for name in names:
        def refuse(W, name=name):
            raise AssertionError(f"WeylGroup.{name} was built")

        monkeypatch.setattr(rootsys.WeylGroup, name, property(refuse))


def test_warm_table_never_builds_root_permutations(cache_dir, monkeypatch):
    assert run_cli(["table", "A", "6", "--cache-dir", str(cache_dir)])[0] == 0
    _refuse_to_build(monkeypatch, "root_actions")
    code, out = run_cli(["table", "A", "6", "--cache-dir", str(cache_dir)])
    assert code == 0
    assert "|W| = 5040" in out


def test_dl_text(cache_dir):
    code, out = run_cli(["dl", "A", "2", "--cache-dir", str(cache_dir)])
    assert code == 0
    assert "(3) <-> (1,1,1)" in out
    assert "(2,1) fixed" in out
    assert "springer convention" in out


def test_dl_a1_single_swap(cache_dir):
    code, out = run_cli(["dl", "A", "1", "--cache-dir", str(cache_dir)])
    assert code == 0
    assert "(2) <-> (1,1)" in out


def test_dl_g2_pairing_rows(cache_dir):
    code, out = run_cli(["dl", "G", "2", "--format", "json", "--cache-dir", str(cache_dir)])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["irreducibles"]) == 6
    assert all(c["passed"] for c in payload["checks"])


def test_verify_single(cache_dir):
    code, out = run_cli(["verify", "A", "2", "--cache-dir", str(cache_dir)])
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_json(cache_dir):
    code, out = run_cli(["verify", "B", "2", "--format", "json", "--cache-dir", str(cache_dir)])
    assert code == 0
    payload = json.loads(out)
    assert all(c["passed"] for c in payload["checks"])


def test_output_deterministic(cache_dir):
    first = run_cli(["table", "B", "3", "--cache-dir", str(cache_dir)])
    second = run_cli(["table", "B", "3", "--cache-dir", str(cache_dir)])
    assert first == second


def test_cache_populated_and_used(cache_dir):
    cfg = Config(cache_dir=cache_dir)
    path = cache_path(cfg, "A", 3)
    assert not path.exists()
    run_cli(["table", "A", "3", "--cache-dir", str(cache_dir)])
    assert path.exists()
    before = path.read_bytes()
    code, out = run_cli(["table", "A", "3", "--cache-dir", str(cache_dir)])
    assert code == 0
    assert path.read_bytes() == before
    # no stray temp files from the atomic write
    assert list(cache_dir.glob("*.tmp")) == []


def test_cache_roundtrip(cache_dir, tables):
    W, _, table = tables("A", 2)
    payload = cache_payload(W, table)
    assert payload["values"] == [["1", "1", "1"], ["1", "-1", "1"], ["2", "0", "-1"]]
    assert payload["labels"] == [["3"], ["1", "1", "1"], ["2", "1"]]
    cfg = Config(cache_dir=cache_dir)
    path = cache_path(cfg, "A", 2)
    save_cache_entry(path, payload)
    rows = [[1, 1, 1], [1, -1, 1], [2, 0, -1]]
    assert load_cache_entry(path, "A", 2) == (payload, rows)
    # fingerprint mismatch is a miss, never partial reuse
    assert load_cache_entry(path, "A", 3) is None


def test_corrupted_cache_recovers(cache_dir, capsys):
    run_cli(["table", "A", "2", "--cache-dir", str(cache_dir)])
    cfg = Config(cache_dir=cache_dir)
    path = cache_path(cfg, "A", 2)
    path.write_text("{not json")
    code, out = run_cli(["table", "A", "2", "--cache-dir", str(cache_dir)])
    assert code == 0
    assert "(2,1)" in out
    err = capsys.readouterr().err
    assert "corrupted" in err


def test_deeply_nested_cache_recovers(tmp_path, capsys):
    code, fresh = run_cli(["table", "A", "2", "--cache-dir", str(tmp_path / "fresh")])
    assert code == 0
    cache_dir = tmp_path / "cache"
    path = cache_path(Config(cache_dir=cache_dir), "A", 2)
    path.parent.mkdir(parents=True)
    path.write_text("[" * 200_000)
    capsys.readouterr()
    code, out = run_cli(["table", "A", "2", "--cache-dir", str(cache_dir)])
    assert (code, out) == (0, fresh)
    assert "ignoring corrupted" in capsys.readouterr().err


def _set_first_value(payload):
    payload["values"][0][0] = "7"  # breaks orthogonality


def _set_degrees(payload):
    payload["degrees"] = ["1", "1", "1", "7", "9"]


def _reverse_rows(payload):
    payload["values"].reverse()
    payload["degrees"].reverse()


def _reverse_labels(payload):
    payload["labels"].reverse()


def _negate_trivial_row(payload):
    payload["values"][0] = [str(-int(v)) for v in payload["values"][0]]
    payload["degrees"][0] = "-1"


def _negate_column(payload):
    """Both orthogonality relations, the degrees and the canonical order survive this."""
    rows = [[int(v) for v in row] for row in payload["values"]]
    rows = [[-v if c == 1 else v for c, v in enumerate(row)] for row in rows]
    rows.sort(key=lambda row: (row[0], [-v for v in row]))
    payload["values"] = [[str(v) for v in row] for row in rows]


@pytest.mark.parametrize("command, type_label, rank, tamper", [
    ("table", "A", "2", _set_first_value),
    ("table", "B", "2", _set_degrees),
    ("dl", "B", "2", _reverse_rows),
    ("dl", "A", "2", _reverse_labels),
    ("table", "B", "2", _negate_trivial_row),
    ("table", "G", "2", _negate_column),
], ids=["values", "degrees", "row-order", "labels", "negated-row", "negated-column"])
def test_tampered_cache_values_recomputed(tmp_path, capsys, command, type_label, rank, tamper):
    args = [command, type_label, rank, "--cache-dir"]
    code, fresh = run_cli(args + [str(tmp_path / "fresh")])
    assert code == 0
    cache_dir = tmp_path / "cache"
    run_cli(["table", type_label, rank, "--cache-dir", str(cache_dir)])
    path = cache_path(Config(cache_dir=cache_dir), type_label, int(rank))
    payload = json.loads(path.read_text())
    tamper(payload)
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    code, out = run_cli(args + [str(cache_dir)])
    assert code == 0
    assert out == fresh
    assert "inconsistent" in capsys.readouterr().err


def _rank_as_number(payload):
    payload["rank"] = int(payload["rank"])


def _size_as_number(payload):
    payload["class_sizes"][1] = int(payload["class_sizes"][1])


def _extra_key(payload):
    payload["note"] = "1"


def _padded_value(payload):
    payload["values"][0][0] = " 1"


@pytest.mark.parametrize("tamper", [
    _rank_as_number, _size_as_number, _extra_key, _padded_value, _reverse_labels,
], ids=["rank-number", "size-number", "extra-key", "padded-value", "labels"])
def test_cache_file_not_as_written_is_rewritten(tmp_path, capsys, monkeypatch, tamper):
    """A file whose rows certify but which is not the file the engine writes is no hit.

    The table is made from those rows, without a new split, and the file is rewritten.
    """
    fresh_dir, cache_dir = tmp_path / "fresh", tmp_path / "cache"
    code, fresh = run_cli(["table", "A", "3", "--cache-dir", str(fresh_dir)])
    assert code == 0
    written = cache_path(Config(cache_dir=fresh_dir), "A", 3).read_bytes()
    path = cache_path(Config(cache_dir=cache_dir), "A", 3)
    path.parent.mkdir()
    payload = json.loads(written)
    tamper(payload)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def no_split(*args):
        raise AssertionError("the table was split again")

    monkeypatch.setattr(chars, "_split_eigenvectors", no_split)
    capsys.readouterr()
    assert run_cli(["table", "A", "3", "--cache-dir", str(cache_dir)]) == (0, fresh)
    assert "inconsistent" in capsys.readouterr().err
    assert path.read_bytes() == written


def test_warm_table_is_the_table_of_the_group(cache_dir, monkeypatch):
    """A hit caches the loaded table on W, so character_table(W) returns that very object."""
    assert run_cli(["table", "A", "3", "--cache-dir", str(cache_dir)])[0] == 0
    load = cli.load_or_compute_table
    loaded = []

    def recorded(cfg, W):
        table, hit = load(cfg, W)
        loaded.append((W, table, hit))
        return table, hit

    monkeypatch.setattr(cli, "load_or_compute_table", recorded)
    assert run_cli(["table", "A", "3", "--cache-dir", str(cache_dir)])[0] == 0
    [(W, table, hit)] = loaded
    assert hit
    assert chars.character_table(W) is table


def test_loaded_table_holds_the_classes_of_the_group(cache_dir, capsys):
    """A miss, a hit and an inconsistent file each give a table on conjugacy_classes(W) itself."""
    cfg = Config(cache_dir=cache_dir)

    def load():
        W = rootsys.build_weyl_group("B", 3)
        table, hit = cli.load_or_compute_table(cfg, W)
        assert table.classes is weyl_dl.conjugacy_classes(W)
        return hit

    assert not load()  # a miss writes the file
    assert load()
    path = cache_path(cfg, "B", 3)
    payload = json.loads(path.read_text())
    payload["values"].reverse()  # rows out of canonical order
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert not load()
    assert "inconsistent" in capsys.readouterr().err


def test_config_validation():
    with pytest.raises(InvalidType):
        Config(max_group_order=1)
    with pytest.raises(InvalidType):
        Config(output_format="yaml")


@pytest.mark.parametrize("limit", [2.5, "3", True, None], ids=repr)
def test_config_refuses_a_group_order_limit_that_is_no_int(limit):
    with pytest.raises(InvalidType, match=f"max_group_order must be an int, got {limit!r}"):
        Config(max_group_order=limit)


def test_group_order_at_the_limit_is_accepted(cache_dir):
    """--max-order N admits a group of order exactly N: A3 has order 24."""
    code, out = run_cli(["table", "A", "3", "--max-order", "24", "--cache-dir", str(cache_dir)])
    assert code == 0
    assert out.startswith("# A3: |W| = 24, 5 classes\n")


@pytest.mark.parametrize("targets, err", [
    (["A"], "error: verify expects 'TYPE RANK' or 'all'\n"),
    (["A", "x"], "error: rank must be an integer, got 'x'\n"),
    (["A", "2", "3"], "error: verify expects 'TYPE RANK' or 'all'\n"),
], ids=["A", "A-x", "A-2-3"])
def test_verify_bad_target(cache_dir, capsys, targets, err):
    code, out = run_cli(["verify", *targets, "--cache-dir", str(cache_dir)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == err


def test_verify_all_takes_no_further_arguments(cache_dir, capsys):
    code, out = run_cli(["verify", "all", "extra", "--cache-dir", str(cache_dir)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: verify all takes no further arguments\n"


def test_warm_verify_splits_nothing(cache_dir, monkeypatch):
    """W's table comes from the cache, and the parabolic rows run on class indicators: no table is split."""
    assert run_cli(["verify", "B", "3", "--cache-dir", str(cache_dir)])[0] == 0
    split = chars._split_eigenvectors
    orders = []

    def counted(W, classes, p):
        orders.append(classes.order)
        return split(W, classes, p)

    monkeypatch.setattr(chars, "_split_eigenvectors", counted)
    assert run_cli(["verify", "B", "3", "--cache-dir", str(cache_dir)])[0] == 0
    assert orders == []


def test_unwritable_cache_dir_still_prints_table(tmp_path, capsys):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("a file where the cache directory should be")
    code, out = run_cli(["table", "A", "2", "--cache-dir", str(not_a_dir)])
    assert code == 0
    assert "(2,1)" in out
    assert "cannot write cache file" in capsys.readouterr().err
    assert not_a_dir.read_text() == "a file where the cache directory should be"


def test_cache_path_that_is_a_directory_recomputes(cache_dir, capsys):
    cache_path(Config(cache_dir=cache_dir), "A", 2).mkdir(parents=True)
    code, out = run_cli(["dl", "A", "2", "--cache-dir", str(cache_dir)])
    assert code == 0
    assert "(3) <-> (1,1,1)" in out
    err = capsys.readouterr().err
    assert "unreadable" in err
    assert "cannot write cache file" in err


def test_cache_file_name_too_long_recomputes(tmp_path, capsys):
    cache_dir = tmp_path / ("x" * 300)  # longer than a file name may be
    code, out = run_cli(["table", "A", "2", "--cache-dir", str(cache_dir)])
    assert code == 0
    assert "(2,1)" in out
    err = capsys.readouterr().err
    assert "unreadable" in err
    assert "cannot write cache file" in err


@pytest.mark.parametrize("error", [IrrationalityError("degree^2 = 3/2 is not a perfect square"),
                                   InternalError("class sizes do not sum to the order")])
def test_internal_error_exits_4(cache_dir, capsys, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(chars, "character_table", broken)
    code, out = run_cli(["table", "A", "2", "--cache-dir", str(cache_dir)])
    assert code == 4
    assert out == ""
    assert capsys.readouterr().err == f"error: internal: {error}\n"


def test_sign_twist_inconsistency_exits_4(cache_dir, capsys, monkeypatch):
    """A sign twist that is no row of the table is an engine fault: one stderr line, exit 4."""
    monkeypatch.setattr(dl, "sign", lambda W, classes: chars.ClassFunction(
        classes.group_id, (2,) * classes.n_classes))
    code, out = run_cli(["dl", "A", "2", "--cache-dir", str(cache_dir)])
    assert (code, out) == (4, "")
    assert capsys.readouterr().err == (
        "error: internal: sign tensor irreducible #0 is not a row of the table\n")


@pytest.mark.parametrize("command", ["dl", "verify"])
def test_dl_assembly_fault_exits_4(cache_dir, capsys, monkeypatch, command):
    """One induction count of the trivial subgroup raised by 1 in DL's assembly is an engine fault, not bad input."""
    counts = dl.induction_counts

    def one_too_many(G, H):
        triples = counts(G, H)
        if H.order != 1:
            return triples
        (r, c, n), *rest = triples
        return ((r, c, n + 1), *rest)

    monkeypatch.setattr(dl, "induction_counts", one_too_many)
    code, out = run_cli([command, "B", "3", "--cache-dir", str(cache_dir)])
    assert (code, out) == (4, "")
    assert capsys.readouterr().err == (
        "error: internal: DL image of irreducible #0 on B3 is not virtual: "
        "pairing 1/48 with an irreducible is not an integer\n")


@pytest.mark.parametrize("type_label, rank", [("A", 3), ("B", 3), ("G", 2), ("F", 4)])
def test_each_row_runs_alone(cache_dir, type_label, rank):
    """Every row the gates admit gives, run alone on a fresh group, the row of the full suite."""
    names = [name for name, *_ in cli.ROWS]
    assert len(set(names)) == len(names) and set(cli.DL_ROWS) <= set(names)
    cfg = Config(cache_dir=cache_dir)
    full = cli.run_type_checks(*cli._load_type(cfg, type_label, rank))
    assert [c.name for c in full] == [name for name in names if name in {c.name for c in full}]
    for row in full:
        assert cli._checks(*cli._load_type(cfg, type_label, rank), (row.name,)) == [row], row.name


@pytest.fixture(scope="module")
def warm_f4_cache(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    assert run_cli(["table", "F", "4", "--cache-dir", str(cache)])[0] == 0
    return cache


def test_seed_has_no_effect(tmp_path):
    """--seed is accepted for compatibility; the split mod p uses no random numbers."""
    for args in (["table", "F", "4", "--format", "json"], ["verify", "G", "2"]):
        runs = {run_cli(args + ["--seed", seed, "--cache-dir", str(tmp_path / seed)])
                for seed in ("0", "7")}
        assert len(runs) == 1
        assert runs.pop()[0] == 0


@pytest.mark.parametrize("argv, warm", [
    (["dl", "F", "4"], True),
    (["table", "F", "4"], True),
    (["table", "B", "4"], False),
    (["verify", "G", "2"], False),
], ids=["dl", "table", "cold-table-B4", "cold-verify-G2"])
def test_warm_command_does_not_import_numpy(warm_f4_cache, tmp_path, argv, warm):
    """With numpy made unimportable, warm commands and cold splits still succeed."""
    cache = warm_f4_cache if warm else tmp_path / "cache"
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "from weyl_dl.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main({argv + ['--cache-dir', str(cache)]!r})\n"
        "print(rc, sys.modules['numpy'])\n"
    )
    src = Path(weyl_dl.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 None\n"


HEAVY_MODULES = ("dataclasses", "inspect", "hashlib", "fractions", "decimal")


def test_startup_imports_stay_light(warm_f4_cache):
    """import weyl_dl.cli and a warm dl load no heavy module; the lazy imports still work."""
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        f"heavy = {HEAVY_MODULES!r}\n"
        "from weyl_dl.cli import main\n"
        "print(sorted(m for m in heavy if m in set(sys.modules) - before))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main(['dl', 'F', '4', '--cache-dir', {str(warm_f4_cache)!r}])\n"
        "print(rc, sorted(m for m in heavy if m in set(sys.modules) - before))\n"
        "from fractions import Fraction\n"
        "from weyl_dl import build_weyl_group\n"
        "from weyl_dl.chars import exact_quotient\n"
        "from weyl_dl.grp import subgroup_classes\n"
        "print(exact_quotient(1, 2) == Fraction(1, 2))\n"
        "W = build_weyl_group('B', 3)\n"
        "print(subgroup_classes(W, [0, W.longest_element]).group_id)\n"
    )
    src = Path(weyl_dl.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    # the identifier is the one earlier releases gave this subgroup
    assert proc.stdout == "[]\n0 []\nTrue\nB3/sub-377474a7eb\n"


@pytest.fixture(scope="module")
def warm_b3_cache(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    assert run_cli(["table", "B", "3", "--cache-dir", str(cache)])[0] == 0
    return cache


def test_warm_verify_imports_stay_light(warm_b3_cache):
    """A warm verify, Mackey's checks included, loads no heavy module, hashlib included."""
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        f"heavy = {HEAVY_MODULES!r}\n"
        "from weyl_dl.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main(['verify', 'B', '3', '--cache-dir', {str(warm_b3_cache)!r}])\n"
        "print(rc, sorted(m for m in heavy if m in set(sys.modules) - before))\n"
    )
    src = Path(weyl_dl.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"


def _engine_modules(argv, cache, *, around_enumeration=False):
    """main(argv) in a fresh interpreter: its exit code and the weyl_dl modules it loaded.

    With around_enumeration, the modules are listed at entry to and at exit
    from each rootsys.enumerate_group call, and then at the end.
    """
    spy = (
        "from weyl_dl import rootsys\n"
        "enumerate_group, seen = rootsys.enumerate_group, []\n"
        "def spy(*args, **kwargs):\n"
        "    seen.append(loaded())\n"
        "    W = enumerate_group(*args, **kwargs)\n"
        "    seen.append(loaded())\n"
        "    return W\n"
        "rootsys.enumerate_group = spy\n"
    )
    code = (
        "import contextlib, io, json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'weyl_dl')\n"
        + (spy if around_enumeration else "seen = None\n") +
        "from weyl_dl.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        f"        rc = main({argv + ['--cache-dir', str(cache)]!r})\n"
        "    except SystemExit as exc:\n"
        "        rc = exc.code\n"
        "print(json.dumps([rc, loaded() if seen is None else seen + [loaded()]]))\n"
    )
    src = Path(weyl_dl.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


@pytest.mark.parametrize("argv, rc", [(["--help"], 0), (["table", "A", "x"], 2)])
def test_help_and_usage_errors_load_no_engine_module(tmp_path, argv, rc):
    assert _engine_modules(argv, tmp_path) == (rc, ["weyl_dl", "weyl_dl.cli", "weyl_dl.errors"])


def test_warm_table_loads_neither_dl_nor_indres(warm_f4_cache):
    rc, modules = _engine_modules(["table", "F", "4"], warm_f4_cache)
    assert rc == 0
    assert {"weyl_dl.chars", "weyl_dl.grp", "weyl_dl.rootsys"} <= set(modules)
    assert not {"weyl_dl.dl", "weyl_dl.indres"} & set(modules)


@pytest.mark.parametrize("argv", [["table", "A", "6"], ["dl", "A", "5"], ["verify", "G", "2"]])
def test_commands_import_before_enumerating(tmp_path, argv):
    """Every module a command runs is loaded before its group is enumerated (README "Start-up")."""
    rc, (entry, exit_, end) = _engine_modules(argv, tmp_path, around_enumeration=True)
    assert rc == 0
    assert entry == exit_ == end


def test_warm_verify_builds_only_parabolics(warm_b3_cache, monkeypatch):
    """Mackey's intersections are parabolics W_K, so verify caches no explicit subgroup on W."""
    built = []
    build_weyl_group = rootsys.build_weyl_group

    def build_and_keep(*args, **kwargs):
        built.append(build_weyl_group(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(rootsys, "build_weyl_group", build_and_keep)
    assert run_cli(["verify", "B", "3", "--cache-dir", str(warm_b3_cache)])[0] == 0
    (W,) = built
    keys = {key[0] for key in W.cache if isinstance(key, tuple)}
    assert {"parabolic", "double_cosets", "mackey_operator"} <= keys
    assert "subgroup_classes" not in keys
    subgroups = [v for v in W.cache.values() if isinstance(v, ConjugacyClasses)]
    assert all(H.generators is not None for H in subgroups)


@pytest.mark.parametrize("command", ["table", "dl"])
def test_closed_stdout_keeps_exit_code(warm_f4_cache, command):
    """A reader that takes one line and closes the pipe gets no traceback and exit code 0."""
    src = Path(weyl_dl.__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "weyl_dl.cli", command, "F", "4", "--format", "json",
         "--cache-dir", str(warm_f4_cache)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    try:
        import fcntl

        # a one-page pipe makes the command's output outgrow it, so the write is
        # still in progress when the pipe is closed
        fcntl.fcntl(proc.stdout.fileno(), fcntl.F_SETPIPE_SZ, 4096)
    except (ImportError, AttributeError, OSError):
        pass
    assert proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert stderr == b""


def _tamper_mackey(monkeypatch):
    operator = indres.mackey_operator

    def tampered(W, PJ, PI):
        (r, c, n), *rest = operator(W, PJ, PI)
        return ((r, c, n + PJ.order), *rest)

    monkeypatch.setattr(indres, "mackey_operator", tampered)


def _tamper_frobenius(monkeypatch):
    """The identity class of each W_I, as frobenius_check reads it, has size 2; Mackey reads the true size."""
    check = indres.frobenius_check

    def tampered(table_G, H):
        H, sizes = copy.copy(H), list(H.sizes)
        sizes[H.identity_class] = 2
        H.sizes = tuple(sizes)
        return check(table_G, H)

    monkeypatch.setattr(indres, "frobenius_check", tampered)


@pytest.mark.parametrize("tamper, row", [(_tamper_mackey, "mackey-decomposition"),
                                         (_tamper_frobenius, "frobenius-reciprocity")])
def test_verify_reports_a_failing_check(cache_dir, monkeypatch, tamper, row):
    """A batched check that sees wrong data fails its own row, and verify exits 1.

    verify all reports the row under each target, A3 among them, and no other row.
    """
    tamper(monkeypatch)
    for targets in (["A", "3"], ["all"]):
        code, out = run_cli(["verify", *targets, "--format", "json", "--cache-dir", str(cache_dir)])
        assert code == 1
        failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
        assert {c["name"] for c in failed} == {row}
        [a3] = [c for c in failed if c.get("target", "A3") == "A3"]
        assert "coset sum" in a3["detail"] or "<ind 1_c, psi>" in a3["detail"]


def _swap_first_two_dl_images(monkeypatch):
    assemble = dl._alternating_matrix

    def swapped(W, table):
        first, second, *rest = assemble(W, table)
        return (second, first, *rest)

    monkeypatch.setattr(dl, "_alternating_matrix", swapped)


def _failing_rows(command, cache_dir):
    """Exit code, then the failing (name, detail) pairs of the json report and the failing csv lines."""
    code, out = run_cli([*command, "--format", "json", "--cache-dir", str(cache_dir)])
    failed = [(c["name"], c.get("detail", "")) for c in json.loads(out)["checks"] if not c["passed"]]
    csv_code, csv = run_cli([*command, "--format", "csv", "--cache-dir", str(cache_dir)])
    assert csv_code == code
    return code, failed, [line for line in csv.splitlines() if ",FAILED," in line or ",false," in line]


def test_dl_reports_a_wrong_dl_matrix(cache_dir, monkeypatch):
    """Two swapped DL images break the sign twist and the involution of B2, and nothing else."""
    _swap_first_two_dl_images(monkeypatch)
    twist = "irreducible #0: DL image (0, 0, 1, 0, 0) != sign-tensor image (0, 0, 0, 1, 0)"
    square = "column #0: DL^2 image is (0, 1, 0, 0, 0)"
    assert _failing_rows(["dl", "B", "2"], cache_dir) == (
        1, [("sign-twist", twist), ("involution", square)],
        [f'sign-twist,FAILED,"{twist}"', f'involution,FAILED,"{square}"'],
    )


def test_verify_reports_a_wrong_dl_matrix(cache_dir, monkeypatch):
    """In A3 the swap exchanges the images of a transposed pair: only the sign twist fails."""
    _swap_first_two_dl_images(monkeypatch)
    twist = "irreducible #0: DL image (1, 0, 0, 0, 0) != sign-tensor image (0, 1, 0, 0, 0)"
    assert _failing_rows(["verify", "A", "3"], cache_dir) == (
        1, [("sign-twist", twist)], [f'sign-twist,false,"{twist}"'],
    )


def test_verify_reports_a_wrong_induction_into_a_parabolic(cache_dir, monkeypatch):
    """An induction into a proper parabolic that is off by one fails induction-transitivity alone.

    Frobenius induces into W (order 24), and DL's assembly reads induction counts, not induce.
    """
    induce = indres.induce

    def perturbed(f, H, G):
        out = induce(f, H, G)
        if G.order < 24:  # a proper parabolic of A3
            return out._replace(values=(out.values[0] + 1, *out.values[1:]))
        return out

    monkeypatch.setattr(indres, "induce", perturbed)
    assert _failing_rows(["verify", "A", "3"], cache_dir) == (
        1, [("induction-transitivity", "")], ["induction-transitivity,false,"],
    )


def test_verify_reports_a_repeated_root_action(cache_dir, monkeypatch):
    """s1 given the action of s2: an element of the same length, so faithful-action fails alone."""
    root_actions = rootsys.WeylGroup.root_actions.func

    def repeated(W):
        actions = root_actions(W)
        return (actions[0], actions[2], *actions[2:])

    monkeypatch.setattr(rootsys.WeylGroup, "root_actions", property(repeated))
    assert _failing_rows(["verify", "A", "3"], cache_dir) == (
        1, [("faithful-action", "")], ["faithful-action,false,"],
    )


def test_cache_file_of_another_central_rank_is_a_silent_miss(tmp_path, capsys):
    """The file format's central rank is 0; a file with "1" is recomputed and rewritten, without a warning."""
    code, fresh = run_cli(["table", "G", "2", "--cache-dir", str(tmp_path / "fresh")])
    assert code == 0
    cache_dir = tmp_path / "cache"
    run_cli(["table", "G", "2", "--cache-dir", str(cache_dir)])
    path = cache_dir / "G2z0.v1.json"
    written = path.read_text()
    assert '"central_rank": "0"' in written
    path.write_text(written.replace('"central_rank": "0"', '"central_rank": "1"'))
    capsys.readouterr()
    code, out = run_cli(["table", "G", "2", "--cache-dir", str(cache_dir)])
    assert (code, out, capsys.readouterr().err) == (0, fresh, "")
    assert path.read_text() == written


def test_verify_all_counts_the_ledger_target(cache_dir, monkeypatch):
    """A failing ledger row alone makes verify all exit 1."""
    monkeypatch.setattr(cli, "global_parity_checks",
                        lambda: [cli.CheckItem("shift-parity-ledger-sweep", False)])
    code, out = run_cli(["verify", "all", "--format", "json", "--cache-dir", str(cache_dir)])
    assert code == 1
    failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
    assert [(c["target"], c["name"]) for c in failed] == [("ledger", "shift-parity-ledger-sweep")]


def test_verify_all_leaves_no_group_alive(cache_dir, monkeypatch):
    """Every per-pair cache lives on its W: after verify all, no W of the run is still reachable."""
    build = rootsys.build_weyl_group
    groups = []

    def recorded(*args, **kwargs):
        W = build(*args, **kwargs)
        groups.append(weakref.ref(W))
        return W

    monkeypatch.setattr(rootsys, "build_weyl_group", recorded)
    assert run_cli(["verify", "all", "--cache-dir", str(cache_dir)])[0] == 0
    gc.collect()
    assert len(groups) == len(cli.ROSTER)
    assert [ref() for ref in groups] == [None] * len(cli.ROSTER)


def test_verify_all_holds_one_type_at_a_time(cache_dir, monkeypatch):
    """While verify all builds a type's group, at most one earlier type is still alive.

    A type is alive while its group, its classes or its table is reachable; a
    loop that kept every table would count 0, 1, 2, ... here.
    """
    build, load = rootsys.build_weyl_group, cli.load_or_compute_table
    refs = []  # per type: weak references to its group, classes and table
    alive = []

    def recorded_build(*args, **kwargs):
        gc.collect()
        alive.append(sum(any(ref() is not None for ref in type_refs) for type_refs in refs))
        W = build(*args, **kwargs)
        refs.append([weakref.ref(W)])
        return W

    def recorded_load(cfg, W):
        table, hit = load(cfg, W)
        refs[-1] += [weakref.ref(table.classes), weakref.ref(table)]
        return table, hit

    monkeypatch.setattr(rootsys, "build_weyl_group", recorded_build)
    monkeypatch.setattr(cli, "load_or_compute_table", recorded_load)
    assert run_cli(["verify", "all", "--cache-dir", str(cache_dir)])[0] == 0
    assert [len(type_refs) for type_refs in refs] == [3] * len(cli.ROSTER)
    assert max(alive) <= 1, alive


def test_parabolic_class_maps_hold_members_only(cache_dir, monkeypatch):
    """After dl A 5, each cached proper parabolic maps its members, and only them, to classes."""
    build = rootsys.build_weyl_group
    groups = []

    def recorded(*args, **kwargs):
        groups.append(build(*args, **kwargs))
        return groups[-1]

    monkeypatch.setattr(rootsys, "build_weyl_group", recorded)
    assert run_cli(["dl", "A", "5", "--cache-dir", str(cache_dir)])[0] == 0
    [W] = groups
    parabolics = [P for key, P in W.cache.items() if key[0] == "parabolic"]
    assert len(parabolics) == 2 ** 5 - 1
    assert all(len(P.class_index) == P.order < W.order for P in parabolics)


def test_cache_write_loads_no_tempfile(tmp_path):
    """A cold table writes its cache file without tempfile or the random it loads; mode 0600.

    Run with -S, since an interpreter's site hooks may load tempfile themselves.
    shutil is not asked about: argparse's help formatter loads it in every command.
    """
    cache = tmp_path / "cache"
    code = (
        "import contextlib, io, sys\n"
        "from weyl_dl.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main(['table', 'A', '2', '--cache-dir', {str(cache)!r}])\n"
        "print(rc, sorted(m for m in ('tempfile', 'random') if m in sys.modules))\n"
    )
    src = Path(weyl_dl.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"
    assert [(p.name, p.stat().st_mode & 0o777) for p in cache.iterdir()] == [("A2z0.v1.json", 0o600)]
