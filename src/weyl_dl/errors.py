"""Exception types shared across the package, and the default bound that SizeLimit enforces."""


class InvalidType(Exception):
    """A refused input: a type, rank or Cartan matrix, an index, a Config field or order limit,
    a verify target, members that are no subgroup, partitions of unequal size, or a ledger layer."""


class SizeLimit(Exception):
    """A group over its order limit, or a root system over MAX_ROOTS roots or over
    the 256 roots a search key holds; raised before the group is enumerated."""


DEFAULT_MAX_ORDER = 2_000_000


class InternalError(Exception):
    """An internal consistency check failed; signals a bug, not bad input."""


class IrrationalityError(InternalError):
    """Exact character computation left the rationals; signals an internal bug."""


class NotVirtual(Exception):
    """Class function is not an integer combination of irreducible characters."""


class GroupMismatch(Exception):
    """Operands are bound to different groups."""
