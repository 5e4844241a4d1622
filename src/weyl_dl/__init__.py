"""Exact Weyl-group engine: root systems, character tables, parabolic
induction/restriction, and the Deligne-Lusztig involution on virtual characters.

The public names are imported on first use (PEP 562), so a command compiles
only the modules it runs; `from weyl_dl import X` works for every name below.
"""
import sys

_EXPORTS = {
    "chars": (
        "CharacterTable", "ClassFunction", "VirtualCharacter", "character_table", "decompose",
        "inner_product", "realize", "reflection", "sign", "tensor", "trivial", "unit",
    ),
    "dl": (
        "ShiftLedger", "dl_operator", "springer_table", "verify_involution", "verify_sign_twist",
    ),
    "errors": ("GroupMismatch", "InternalError", "InvalidType", "IrrationalityError", "NotVirtual", "SizeLimit"),
    "grp": ("ConjugacyClasses", "conjugacy_classes", "double_cosets", "parabolic", "subgroup_classes"),
    "indres": ("frobenius_check", "induce", "mackey_check", "restrict"),
    "rootsys": (
        "CartanDatum", "RootSystem", "WeylGroup", "build_cartan", "build_root_system",
        "build_weyl_group", "enumerate_group", "fundamental_degrees",
    ),
}
_MODULES = (*_EXPORTS, "ratlinalg", "symchars")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted((*_HOME, *_MODULES))


def __getattr__(name: str):
    module = _HOME.get(name, name)
    if module not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, is the path -X importtime reports
    __import__(f"{__name__}.{module}")
    found = sys.modules[f"{__name__}.{module}"]
    return found if module == name else getattr(found, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
