"""Spin-star quantum cloning by free evolution.

A library plus CLI that simulates the XXZ spin-star network, evaluates
phase-covariant and universal cloning fidelities through independent
analytic and dense-evolution routes, and reproduces the optimal parameter
sets and the constrained XX-model search table.
"""

__version__ = "0.1.0"

from . import cloning, dynamics, errors, hilbert, optimizer, star_model, verify
from .cloning import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .errors import *  # noqa: F403
from .hilbert import *  # noqa: F403
from .optimizer import *  # noqa: F403
from .star_model import *  # noqa: F403
from .verify import *  # noqa: F403

__all__ = ["__version__", *hilbert.__all__, *star_model.__all__, *dynamics.__all__,
           *cloning.__all__, *optimizer.__all__, *verify.__all__, *errors.__all__]
