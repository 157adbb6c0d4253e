"""Cross-entropy updates and the outer iteration loop.

The single-component update is the payoff-and-likelihood-weighted sample
mean; the mixture update additionally weights each sample by its EM
posterior, giving closed-form weight and mean updates per component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateUpdate
from .mixture import (
    DEFAULT_WEIGHT_FLOOR,
    MixtureParam,
    SampleBatch,
    log_mixture_density,
    sample_mixture,
)
from .rng import RngStream


@dataclass
class PilotConfig:
    """Pilot sample size N, shared by the CE iterations and the rarity stages."""

    pilot_size: int = 10000


@dataclass
class CeConfig(PilotConfig):
    iterations: int = 5
    weight_floor: float = DEFAULT_WEIGHT_FLOOR

    def __post_init__(self):
        if min(self.pilot_size, self.iterations) < 1:
            raise ConfigError("need pilot_size >= 1 and iterations >= 1")
        if not 0.0 <= self.weight_floor < 1.0:
            raise ConfigError(f"weight_floor must lie in [0, 1), got {self.weight_floor}")


@dataclass
class IterationRecord:
    iteration: int
    theta: MixtureParam
    objective: float
    positive_payoffs: int


def mixture_update(batch: SampleBatch, payoff, theta_prev: MixtureParam,
                   weight_floor: float = DEFAULT_WEIGHT_FLOOR) -> MixtureParam:
    """Closed-form mixture update from one weighted pilot batch and its payoffs.

    With wp = posteriors * V*lr, the new weights are the column sums of wp
    over the total V*lr mass and the new means are wp.T @ x over those
    column sums.  A component whose posterior-weighted mass vanishes keeps
    its previous mean; the weight floor keeps its weight alive.  Pass
    weight_floor=0 to get the raw EM-ascent update (weights may then hit
    zero, which the MixtureParam constructor rejects, so a tiny positive
    floor is applied in that case only where needed).
    """
    payoff = np.asarray(payoff, dtype=float)
    n = batch.x.shape[0]
    if not (payoff.shape == (n,) == batch.lr.shape and batch.posteriors.shape[0] == n):
        raise ValueError("inconsistent pilot batch and payoff lengths")
    if np.any(payoff < 0):
        raise ValueError("payoffs must be nonnegative")
    # an lr that underflows to 0 under a far tilt is a zero weight
    if not np.all(np.isfinite(batch.lr) & (batch.lr >= 0)):
        raise DegenerateUpdate("likelihood ratios must be finite and nonnegative")
    w = payoff * batch.lr
    denom = w.sum()
    if not (np.isfinite(denom) and denom > 0):
        raise DegenerateUpdate(f"payoff-weighted mass is {denom}, not finite and positive")
    wp = batch.posteriors * w[:, None]
    mass = wp.sum(axis=0)
    live = mass > 0
    means = np.array(theta_prev.means, copy=True)
    means[live] = (wp.T @ batch.x)[live] / mass[live, None]
    weights = np.maximum(mass / denom, max(weight_floor, 1e-300))
    return MixtureParam(weights / weights.sum(), means)


def surrogate_objective(batch: SampleBatch, payoff: np.ndarray, theta: MixtureParam) -> float:
    """Sampled CE objective (1/N) sum_k V*lr * log h_theta(X_k)."""
    active = payoff > 0
    if not np.any(active):
        return 0.0
    vals = payoff[active] * batch.lr[active] * log_mixture_density(theta, batch.x[active])
    return float(vals.sum()) / batch.x.shape[0]


def run_ce(model, theta0: MixtureParam, cfg: CeConfig, stream: RngStream):
    """Fixed-count CE iterations: sample pilot, evaluate, update.

    Returns (theta_final, trace).  DegenerateUpdate is re-raised with the
    failing iteration index attached; it signals an inadequate
    initialization.
    """
    theta = theta0
    trace = []
    for it in range(1, cfg.iterations + 1):
        batch = sample_mixture(theta, cfg.pilot_size,
                               stream.child(phase="pilot", iteration=it))
        payoff = model.payoff(batch.x)
        try:
            theta = mixture_update(batch, payoff, theta, cfg.weight_floor)
        except DegenerateUpdate as exc:
            raise DegenerateUpdate(str(exc), iteration=it) from exc
        trace.append(IterationRecord(
            iteration=it,
            theta=theta,
            objective=surrogate_objective(batch, payoff, theta),
            positive_payoffs=int(np.count_nonzero(payoff > 0)),
        ))
    return theta, trace
