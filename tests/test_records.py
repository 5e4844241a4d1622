"""The engine's immutable records: read-only fields, value equality, no arithmetic."""
from pathlib import Path

import pytest

from weyl_dl import InvalidType, build_weyl_group
from weyl_dl.chars import ClassFunction, VirtualCharacter
from weyl_dl.cli import CheckItem, Config
from weyl_dl.dl import ShiftLedger


def records():
    W = build_weyl_group("A", 2)
    f = ClassFunction("A2", (1, 1, 1))
    return [
        f,
        VirtualCharacter("A2", (1, 0, 0)),
        W.cartan,
        W.rootsystem,
        Config(),
        CheckItem("name", True),
        ShiftLedger(0, 2),
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_fields_are_read_only(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("cls", [ClassFunction, VirtualCharacter])
def test_value_records_compare_and_hash_by_group_and_values(cls):
    a, b = cls("A2", (1, -1, 1)), cls("A2", (1, -1, 1))
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(("A2", (1, -1, 1)))
    assert len({a, b}) == 1
    assert a != cls("B2", (1, -1, 1))
    assert a != cls("A2", (1, -1, 2))
    # a record never equals a plain tuple or a record of the other class
    assert a != ("A2", (1, -1, 1)) and ("A2", (1, -1, 1)) != a
    assert ClassFunction("A2", (1,)) != VirtualCharacter("A2", (1,))


@pytest.mark.parametrize("expr", [
    "2 * f", "v * 2", "2 * v",
    # records carry no arithmetic: combine their values
    "f + f", "f - f", "f * f", "v + v", "v - v", "-v",
    # an operand that is no record of the same class is refused, not read as one
    "f * 2", "f + (1, 2)", "f - 3", "f + v", "v + 1", "v - 1", "v + f",
    "(1, 2) + f", "(1, 2) + v",
])
def test_no_tuple_repetition(expr):
    f = ClassFunction("A2", (1, 1, 1))
    v = VirtualCharacter("A2", (1, 0, 0))
    with pytest.raises(TypeError):
        eval(expr)


def test_validated_records_check_replace_too():
    W = build_weyl_group("B", 2)
    with pytest.raises(InvalidType, match="the matrix given is not the Cartan matrix of B2"):
        W.cartan._replace(cartan_matrix=((2, -5), (-5, 2)))
    with pytest.raises(InvalidType, match="max_group_order"):
        Config()._replace(max_group_order=1)
    for cache_dir in ("x", None):
        with pytest.raises(InvalidType, match="cache_dir must be a Path"):
            Config(cache_dir=cache_dir)
        with pytest.raises(InvalidType, match="cache_dir must be a Path"):
            Config()._replace(cache_dir=cache_dir)
    assert Config(output_format="json")._replace(cache_dir=Path("x")).cache_dir == Path("x")


def test_validation_survives_optimize(run_optimized):
    code = (
        "from weyl_dl import InvalidType\n"
        "from weyl_dl.cli import Config\n"
        "from weyl_dl.rootsys import CartanDatum\n"
        "for make in (lambda: CartanDatum('X', 2, ((2, -5), (-5, 2))),\n"
        "             lambda: Config(max_group_order=1),\n"
        "             lambda: Config(output_format='xml'),\n"
        "             lambda: Config(cache_dir='x'), lambda: Config(cache_dir=None),\n"
        "             lambda: Config()._replace(cache_dir='x'),\n"
        "             lambda: Config()._replace(cache_dir=None)):\n"
        "    try:\n"
        "        make()\n"
        "        print('accepted')\n"
        "    except InvalidType:\n"
        "        print('InvalidType')\n"
    )
    assert run_optimized(code) == "InvalidType\n" * 7
