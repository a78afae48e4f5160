"""Exception hierarchy for the certifier.

Two families matter to callers: ParameterError covers rejected inputs and
operations applied outside their stated domain (CLI exit code 1), while
InternalInvariantError covers conditions the underlying theorems guarantee,
so raising one always indicates a bug (CLI exit code 2).  Every class here
is raised by the package; test-support code that needs its own errors
(tests/lie_combinatorics.py) subclasses one of the two families.
"""

__all__ = [
    "BoundExceededError",
    "DegreeNotAboveQError",
    "DegreeTooSmallError",
    "DividesDegreeError",
    "ExponentTooSmallError",
    "HyperellipticExcludedError",
    "InternalContradictionError",
    "InternalInvariantError",
    "NotPrimeError",
    "OracleDisagreementError",
    "ParameterError",
    "PreconditionViolatedError",
    "ProductHypothesisFailedError",
]


class ParameterError(ValueError):
    """Input rejected, or an operation invoked outside its domain."""


class NotPrimeError(ParameterError):
    """p failed the primality check."""


class DividesDegreeError(ParameterError):
    """p divides the degree n."""


class DegreeTooSmallError(ParameterError):
    """n < 4."""


class ExponentTooSmallError(ParameterError):
    """r < 1."""


class BoundExceededError(ParameterError):
    """An int of magnitude above 2^40, or a q above the exhaustive oracle's bound."""


class HyperellipticExcludedError(ParameterError):
    """q = 2 is representable but outside the certification scope."""


class DegreeNotAboveQError(ParameterError):
    """The multiplicity system requires n > q."""


class PreconditionViolatedError(ParameterError):
    """A constructive witness operation was called where it does not apply."""


class ProductHypothesisFailedError(ParameterError):
    """Product certification needs p odd, p coprime to n(n-1), and n > q."""


class InternalInvariantError(RuntimeError):
    """A theorem-guaranteed condition failed; this is a bug, not bad input."""


class InternalContradictionError(InternalInvariantError):
    """Results the theory ties together disagree, e.g. both Bezout candidates failed."""


class OracleDisagreementError(InternalInvariantError):
    """Constructive path and exhaustive oracle disagree at some grid point."""
