"""Disorder-averaged two-photon coincidence rates behind diffusive random media.

Computes the normalized same-mode coincidence rate R(tau) for entangled,
symmetrized, Fock and coherent light transmitted through a random medium
with Gaussian transmission statistics, by closed form, by direct
quadrature, and by a Monte Carlo random-transmission oracle.
"""

__version__ = "0.1.0"

# each module's __all__ is its share of the package's public names
from .correlation import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .rates import *  # noqa: F401,F403
from .states import *  # noqa: F401,F403
