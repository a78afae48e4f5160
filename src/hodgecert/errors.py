"""The certifier's two error families, one class per CLI exit code.

ParameterError covers rejected inputs and operations applied outside their
stated domain (exit code 1); InternalInvariantError covers conditions the
underlying theorems guarantee, so raising one always indicates a bug (exit
code 2).  The message names the check that failed and the point it failed
at.  Test-support code that needs its own errors (tests/lie_combinatorics.py)
subclasses one of the two families.
"""

__all__ = ["InternalInvariantError", "ParameterError"]


class ParameterError(ValueError):
    """Input rejected, or an operation invoked outside its domain."""


class InternalInvariantError(RuntimeError):
    """A theorem-guaranteed condition failed; this is a bug, not bad input."""
