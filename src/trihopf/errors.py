"""Exception types shared across the library."""


class HopfError(Exception):
    """Base class for all trihopf errors."""


class DivisionByZero(HopfError, ZeroDivisionError):
    """Inversion of a zero scalar."""


class ShapeError(HopfError, ValueError):
    """Dimension or shape mismatch between operands."""


class NotInvertible(HopfError):
    """Element has no two-sided inverse in its algebra."""


class GroupError(HopfError, ValueError):
    """Malformed Cayley table or group datum."""


class NotAbelian(HopfError):
    """Operation requires an abelian (sub)group."""


class BicharacterError(HopfError, ValueError):
    """Value table is not bimultiplicative or is malformed."""


class TwistError(HopfError):
    """Element fails the twist axioms."""


class NotQuasitriangular(HopfError):
    """Tensor fails a quasitriangularity requirement."""


class InvalidDrinfeldElement(HopfError):
    """Element is not group-like of order at most 2."""


class SeptupleInvariantViolation(HopfError):
    """Septuple datum violates one of its invariants."""


class UnsupportedStratum(HopfError):
    """Construction parameters outside the implemented range."""


class OrderNotFound(HopfError):
    """Order search exceeded its bound."""
