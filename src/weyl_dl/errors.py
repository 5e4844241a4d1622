"""Exception types shared across the package, and the default bound that SizeLimit enforces."""


class InvalidType(Exception):
    """Unsupported or malformed Cartan type request."""


class SizeLimit(Exception):
    """Group enumeration exceeded the configured maximum order."""


DEFAULT_MAX_ORDER = 2_000_000


class InternalError(Exception):
    """An internal consistency check failed; signals a bug, not bad input."""


class IrrationalityError(InternalError):
    """Exact character computation left the rationals; signals an internal bug."""


class NotVirtual(Exception):
    """Class function is not an integer combination of irreducible characters."""


class GroupMismatch(Exception):
    """Operands are bound to different groups."""
