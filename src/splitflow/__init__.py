"""Accelerated forward-backward and Douglas-Rachford splitting dynamics.

Composite problems and their prox oracles live in :mod:`splitflow.problems`,
the FB/DR envelopes in :mod:`splitflow.envelopes`, the continuous flows and
discrete baselines in :mod:`splitflow.dynamics`, Lyapunov and rate
certification in :mod:`splitflow.analysis`, and benchmark generation plus
the CLI in :mod:`splitflow.harness` / :mod:`splitflow.cli`. The package
re-exports every module's ``__all__``.
"""

from .analysis import *
from .dynamics import *
from .envelopes import *
from .exceptions import *
from .harness import *
from .problems import *

__version__ = "0.1.0"
