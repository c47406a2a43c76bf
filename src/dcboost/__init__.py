"""Difference-of-convex solvers with boosted line searches.

The package splits an objective phi = f1 - f2 (both smooth convex) and
iterates the classical convex-subproblem scheme, optionally boosting each
iterate by a line search along the subproblem displacement.  It ships a
sparse exponential-flux objective family over reaction networks, a
damped-Newton inner solver, convergence-rate and inequality-audit tools,
and a matched-target benchmark harness; ``dcboost`` on the command line
fronts all of it.
"""

from . import analysis, biochem, exceptions, harness, inner, problem, solver
from .analysis import *
from .biochem import *
from .exceptions import *
from .harness import *
from .inner import *
from .problem import *
from .solver import *

__version__ = "0.1.0"

# each public name is declared once, in its own module's __all__
__all__ = (*analysis.__all__, *biochem.__all__, *exceptions.__all__, *harness.__all__,
           *inner.__all__, *problem.__all__, *solver.__all__, "__version__")
