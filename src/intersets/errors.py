"""Shared exception types.

InputError and its subclasses signal bad user input (CLI exit code 2),
CapError signals a configured resource cap was hit (exit code 3), and
InvariantError signals that an internal consistency check failed (exit
code 4).
"""


class InputError(ValueError):
    """Invalid user-supplied value: set description, family parameters, CLI args."""


class ConstructionError(InputError):
    """Family parameters violate a construction constraint."""


class DomainError(InputError):
    """Operation applied outside its domain (e.g. a product set through zero)."""


class ParseError(InputError):
    """Malformed input document or inline set expression."""


class CapError(RuntimeError):
    """A configured size cap was exceeded."""


class InvariantError(RuntimeError):
    """An internal consistency check failed, so no verdict can be trusted."""


class NoClosedForm(RuntimeError):
    """Closed-form rewriting failed and no fallback window was provided."""
