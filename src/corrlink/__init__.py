"""Distributed correlation estimation under a communication budget.

Two simulated parties share correlated Gaussian (or heavier-tailed) samples;
one sends a few carefully chosen bits, the other turns them into unbiased
correlation estimates. The package provides the protocols themselves with
bit-exact accounting, the closed-form variance and information theory for
each, and a reproducible Monte Carlo harness that checks one against the
other.
"""

# Each module's __all__ is its public API; the package republishes all of them.
from . import analysis, errors, estimators, harness, linalg, protocol, sources, statmath
from .analysis import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .protocol import *  # noqa: F401,F403
from .sources import *  # noqa: F401,F403
from .statmath import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, statmath, linalg, sources, protocol, estimators, analysis, harness)
    for name in module.__all__
]
