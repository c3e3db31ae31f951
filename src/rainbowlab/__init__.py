"""Spread hypergraphs, rainbow Hamilton powers, and threshold experiments.

The package splits into a generic layer (hypergraphs with spread and
intersection-profile diagnostics), a family layer (k-th powers of Hamilton
cycles with exhaustive bound audits), and an experimental layer (rainbow
moment checks, the two-round fragment process, and seeded threshold grids
with an exact backtracking search).

Each module's ``__all__`` is its public surface; the package re-exports them.
"""

from . import errors, fragments, hampow, hypergraph, rainbow, seeding, threshold
from .errors import *
from .fragments import *
from .hampow import *
from .hypergraph import *
from .rainbow import *
from .seeding import *
from .threshold import *

__version__ = "0.1.0"

_MODULES = (errors, hypergraph, hampow, rainbow, fragments, seeding, threshold)
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
