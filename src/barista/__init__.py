"""Bid arrivals in hard-close online auctions.

A nonhomogeneous Poisson process whose intensity is a power law in the time
remaining, glued from up to three stages: a decaying early rush, a calm
middle, and the final sniping surge.  The package evaluates the process
exactly, samples it exactly, estimates it four ways, selects among the nested
one/two/three-stage families, and ships the goodness-of-fit and bidder-level
simulation tools used to study it.

Every name in a submodule's __all__ is importable from the package itself.
"""

__version__ = "0.1.0"

from . import dataio, diagnostics, estimate, process, sample, selection, simulate
from .dataio import *
from .diagnostics import *
from .estimate import *
from .process import *
from .sample import *
from .selection import *
from .simulate import *

_MODULES = (process, sample, simulate, estimate, selection, diagnostics, dataio)

__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
