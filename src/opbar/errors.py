"""Shared exception types."""


class BoundsError(ValueError):
    """An argument is outside the configured range (arity, vertex count...)."""


class ParseError(ValueError):
    """A structure file is malformed; message carries the line number."""


class ValidationError(ValueError):
    """A structural invariant or algebraic axiom failed to hold."""


class InternalConsistencyError(AssertionError):
    """A certified internal property (chain map, d^2 = 0) failed; a bug."""


def require_int(value, name):
    """Raise ValidationError, naming the value, unless it is an int (a bool
    is not)."""
    if value.__class__ is not int:
        raise ValidationError(f"{name} {value!r} is not an int")
