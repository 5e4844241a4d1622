"""Exception types shared across the package."""


class InvalidType(Exception):
    """Unsupported or malformed Cartan type request."""


class NonFinite(Exception):
    """Reflection closure did not terminate within the configured bound."""


class SizeLimit(Exception):
    """Group enumeration exceeded the configured maximum order."""


class InternalError(Exception):
    """An internal consistency check failed; signals a bug, not bad input."""


class IrrationalityError(InternalError):
    """Exact character computation left the rationals; signals an internal bug."""


class NotVirtual(Exception):
    """Class function is not an integer combination of irreducible characters."""


class GroupMismatch(Exception):
    """Operands are bound to different groups."""
