"""Robust frequency-regulation bidding for electricity storage.

The library answers three questions for a storage operator who must
guarantee delivery of regulation power against every deviation signal
within an activation budget: how much baseline power to buy for a given
bid, how large a bid stays deliverable, and which bid maximizes profit.
A simulation oracle checks the closed forms pathwise, and small fitting
helpers estimate the model inputs from raw frequency and price series.

Each library module's ``__all__`` lists its public names; the package
re-exports them all.
"""

from . import distributions, econ, errors, feasible, ingest, purchase, simulate, solver
from .distributions import *
from .econ import *
from .errors import *
from .feasible import *
from .ingest import *
from .purchase import *
from .simulate import *
from .solver import *

__version__ = "0.1.0"

__all__ = ["__version__", *distributions.__all__, *purchase.__all__, *feasible.__all__,
           *solver.__all__, *econ.__all__, *simulate.__all__, *ingest.__all__, *errors.__all__]
