"""Initial mixture construction: random perturbation, the staged
rarity-parameter scheme, and analytical approximation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import evaluate_pilot, mixture_update
from .errors import ApproxUnavailable, ConfigError, StagnantRarity
from .mixture import MixtureParam, sample_mixture
from .rng import RngStream


@dataclass
class RarityConfig:
    """Stage parameters for the rarity-parameter initializer.

    rho should be small but keep the per-component sample threshold
    n0 = floor(N * rho / m) in the hundreds.
    """

    rho: float = 0.05
    pilot_size: int = 10000
    max_stages: int = 50
    adapt_weights: bool = False
    min_weight: float = 0.05  # only used when adapt_weights is on

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ConfigError("rho must lie in (0, 1)")

    def n0(self, m: int) -> int:
        n0 = int(self.pilot_size * self.rho / m)
        if n0 < 1:
            raise ConfigError("pilot too small: floor(N*rho/m) must be >= 1")
        return n0


@dataclass
class RarityStageRecord:
    stage: int
    delta: np.ndarray
    theta: MixtureParam
    samples_in_set: np.ndarray  # per-component counts at the new delta
    clamped: np.ndarray         # per-component: delta held by the monotone clamp


def init_perturbation(m: int, base, scale: float, stream: RngStream,
                      dim: int = None) -> MixtureParam:
    """Equal weights 1/m with means base + uniform(-scale, scale)^d noise.

    Perturbations are redrawn until all means are pairwise distinct;
    identical initial tilts would stay identical through every update.
    """
    base = np.atleast_1d(np.asarray(base, dtype=float))
    if dim is not None and base.size == 1:
        base = np.full(dim, base[0])
    if m > 1 and scale <= 0:
        raise ConfigError("m > 1 needs scale > 0 to keep initial tilts distinct")
    gen = stream.generator()
    for _ in range(100):
        eps = gen.uniform(-scale, scale, size=(m, base.size)) if scale > 0 \
            else np.zeros((m, base.size))
        means = base[None, :] + eps
        if _pairwise_distinct(means):
            return MixtureParam.uniform(means)
    raise ConfigError("could not draw pairwise-distinct perturbations")


def _pairwise_distinct(means: np.ndarray) -> bool:
    m = means.shape[0]
    for i in range(m):
        for j in range(i + 1, m):
            if np.array_equal(means[i], means[j]):
                return False
    return True


def init_approx(model) -> MixtureParam:
    """Equal-weight mixture from the model's analytical tilt map."""
    if not getattr(model, "supports_approx", False):
        raise ApproxUnavailable(f"{model.name} has no approximation initializer")
    return MixtureParam.uniform(model.approx_tilts())


def init_rarity_ce(model, cfg: RarityConfig, theta_start: MixtureParam,
                   stream: RngStream):
    """Staged cross-entropy over the model's rarity embedding.

    Repeats {sample pilot; grow delta to the largest value still reached by
    n0 samples per component; update means with the delta-scaled payoff}
    until delta >= 1 componentwise.  Weights stay fixed at 1/m unless
    cfg.adapt_weights is set.  Returns (theta, stage trace); the terminal
    theta is the starting parameter for the main CE run.  Stage s draws its
    pilot from the init stream at iteration stream.iteration + s, so the
    stages occupy iterations [stream.iteration, stream.iteration +
    cfg.max_stages) and leave every lower iteration to the caller.
    """
    if not getattr(model, "supports_rarity", False):
        raise ApproxUnavailable(f"{model.name} has no rarity embedding")
    m = theta_start.m
    theta = MixtureParam.uniform(theta_start.means)  # enforce weights 1/m
    n0 = cfg.n0(m)
    delta = np.zeros(m)
    trace = []
    for stage in range(cfg.max_stages):
        batch = sample_mixture(theta, cfg.pilot_size,
                               stream.child(phase="init", iteration=stream.iteration + stage))
        new_delta = model.rarity_delta(batch.x, n0, delta)
        clamped = (new_delta == delta) & (stage > 0)
        ev = evaluate_pilot(lambda x: model.rarity_payoff(new_delta, x), theta, batch)
        counts = model.rarity_membership(new_delta, batch.x).sum(axis=0)
        updated = mixture_update(ev, theta, weight_floor=cfg.min_weight / m)
        if cfg.adapt_weights:
            weights = np.maximum(updated.weights, cfg.min_weight)
            weights /= weights.sum()
            theta = MixtureParam(weights, updated.means)
        else:
            theta = MixtureParam.uniform(updated.means)
        delta = new_delta
        trace.append(RarityStageRecord(
            stage=stage + 1, delta=delta.copy(), theta=theta,
            samples_in_set=counts, clamped=clamped))
        if np.all(delta >= 1.0):
            return theta, trace
    raise StagnantRarity(
        f"rarity parameters {delta} did not reach 1 in {cfg.max_stages} stages")
