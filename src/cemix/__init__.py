"""Mixture importance sampling with cross-entropy/EM parameter selection.

The package root carries the names of the README's library example; the
rest lives in the submodules (cemix.models, cemix.experiments, ...).
"""

from .engine import CeConfig, run_ce
from .estimate import is_estimate, plain_mc_estimate
from .initialization import init_approx
from .rng import RngStream

__all__ = ["CeConfig", "RngStream", "init_approx", "is_estimate", "plain_mc_estimate", "run_ce"]
