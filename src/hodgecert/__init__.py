"""hodgecert: exact integer arithmetic certifier for Hodge groups of the
new part of superelliptic jacobians y^q = f(x), q = p^r.

The library decides when the Hodge group is the full unitary group of the
CM Hermitian form, producing coprimality witnesses and byte-reproducible
certificates with complete dimension ledgers.

Each module's __all__ is its public API; the package re-exports them all.
"""

from . import cm_type, errors, hodge_report, params, scanner, witness
from ._version import __version__
from .cm_type import *  # noqa: F403
from .errors import *  # noqa: F403
from .hodge_report import *  # noqa: F403
from .params import *  # noqa: F403
from .scanner import *  # noqa: F403
from .witness import *  # noqa: F403

__all__ = [
    "__version__",
    *cm_type.__all__,
    *errors.__all__,
    *hodge_report.__all__,
    *params.__all__,
    *scanner.__all__,
    *witness.__all__,
]
