"""Exact Weyl-group engine: root systems, character tables, parabolic
induction/restriction, and the Deligne-Lusztig involution on virtual characters."""

from .chars import (
    CharacterTable,
    ClassFunction,
    VirtualCharacter,
    character_table,
    decompose,
    inner_product,
    realize,
    reflection,
    regular,
    sign,
    tensor,
    trivial,
    unit,
)
from .dl import (
    ShiftLedger,
    dl_inverse_operator,
    dl_operator,
    springer_table,
    verify_involution,
    verify_sign_twist,
)
from .errors import (
    GroupMismatch,
    InternalError,
    InvalidType,
    IrrationalityError,
    NonFinite,
    NotVirtual,
    SizeLimit,
)
from .grp import (
    ConjugacyClasses,
    conjugacy_classes,
    double_cosets,
    parabolic,
    subgroup_classes,
)
from .indres import (
    frobenius_check,
    induce,
    mackey_check,
    restrict,
)
from .rootsys import (
    CartanDatum,
    RootSystem,
    WeylGroup,
    build_cartan,
    build_root_system,
    build_weyl_group,
    enumerate_group,
    fundamental_degrees,
)

__all__ = [name for name in dir() if not name.startswith("_")]
