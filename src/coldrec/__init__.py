"""Regret-minimization toolkit for cold-start recommendation.

Contextual-bandit policies (including the adapted LinUCB with frozen
per-arm design matrices), rating-matrix imputation strategies, and an
offline replay evaluator that accumulates cumulative regret over public
rating corpora or synthetic linear environments.

The package re-exports each library module's ``__all__``, the one list of
its public names; the command-line runner stays in ``coldrec.cli``.
"""

from . import data, impute, linalg, policies, replay, synthetic
from .data import *  # noqa: F401,F403
from .impute import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .policies import *  # noqa: F401,F403
from .replay import *  # noqa: F401,F403
from .synthetic import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = []
__all__ += data.__all__
__all__ += impute.__all__
__all__ += linalg.__all__
__all__ += policies.__all__
__all__ += replay.__all__
__all__ += synthetic.__all__
