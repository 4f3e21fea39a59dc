"""Electric-network view of random walks on finite connected graphs.

Exact effective resistances, hitting/commute/return times, the Kirchhoff
index, closed forms for single-edge removal, a walk-regularity
certificate, and a seeded Monte Carlo engine that re-derives every exact
quantity by simulation.

Each public name is declared once, in its module's ``__all__``; the
package re-exports every module's list.
"""

# This relies on each submodule having an ``__all__``; the star imports
# also bind the submodules themselves as attributes of the package.
from .edgelist import *
from .errors import *
from .generators import *
from .montecarlo import *
from .network import *
from .perturbation import *
from .solver import *
from .walk_regular import *

__version__ = "0.1.0"

__all__ = []
__all__ += network.__all__
__all__ += generators.__all__
__all__ += solver.__all__
__all__ += perturbation.__all__
__all__ += walk_regular.__all__
__all__ += montecarlo.__all__
__all__ += edgelist.__all__
__all__ += errors.__all__
