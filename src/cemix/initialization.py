"""Initial mixture construction: random perturbation, the staged
rarity-parameter scheme, and analytical approximation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import PilotConfig, mixture_update
from .errors import ApproxUnavailable, ConfigError, EmbeddingUnavailable, StagnantRarity
from .mixture import MixtureParam, min_tilt_distance, sample_mixture
from .models import require_init
from .rng import RngStream


@dataclass(kw_only=True)
class RarityConfig(PilotConfig):
    """Stage parameters for the rarity-parameter initializer.

    rho should be small but keep the per-component sample threshold
    n0 = floor(N * rho / m) in the hundreds.
    """

    rho: float = 0.05
    max_stages: int = 50

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0 and self.max_stages >= 1):
            raise ConfigError(f"need rho in (0, 1) and max_stages >= 1, got "
                              f"rho={self.rho}, max_stages={self.max_stages}")

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
    """Equal weights 1/m with means base + uniform(-scale, scale)^d noise, the
    noise from words [0, m*d) of the stream.

    Identical initial tilts would stay identical through every update, so
    means that are not pairwise distinct raise ConfigError.
    """
    base = np.atleast_1d(np.asarray(base, dtype=float))
    if dim is not None and base.size == 1:
        base = np.full(dim, base[0])
    if m > 1 and scale <= 0:
        raise ConfigError("m > 1 needs scale > 0 to keep initial tilts distinct")
    u = np.empty((m, base.size))
    stream._fill(u.reshape(-1), 0)
    means = base + (-scale + 2 * scale * u)
    if not min_tilt_distance(means) > 0:  # also a NaN from an overflowed mean
        raise ConfigError("perturbed means are not pairwise distinct")
    return MixtureParam.uniform(means)


def init_approx(model) -> MixtureParam:
    """Equal-weight mixture from the model's analytical tilt map."""
    require_init(model, "approx", ApproxUnavailable)
    return MixtureParam.uniform(model.approx_tilts())


def rarity_delta(levels, n0: int, prev) -> np.ndarray:
    """Per column of the (n, k) rarity levels, the largest delta that at
    least n0 samples reach (the n0-th largest level), never below prev."""
    reached = np.partition(np.asarray(levels, dtype=float), -n0, axis=0)[-n0]
    return np.maximum(reached, np.asarray(prev, dtype=float))


def init_rarity_ce(model, cfg: RarityConfig, theta_start: MixtureParam,
                   stream: RngStream):
    """Staged cross-entropy over the model's rarity embedding.

    Repeats {sample pilot; grow delta to the largest value still reached by
    n0 samples per component; update means with the delta-scaled payoff}
    until delta >= 1 componentwise.  A sample is in a component's set when
    its rarity level (model.rarity_levels) reaches that component's delta.
    Weights stay fixed at 1/m.  Returns (theta, stage trace); the terminal
    theta is the starting parameter for the main CE run.  Stage s draws its
    pilot from the init stream at iteration stream.iteration + s, so the
    stages occupy iterations [stream.iteration, stream.iteration +
    cfg.max_stages) and leave every lower iteration to the caller.
    """
    require_init(model, "rarity_ce", EmbeddingUnavailable)
    m = theta_start.m
    theta = MixtureParam.uniform(theta_start.means)  # enforce weights 1/m
    n0 = cfg.n0(m)
    delta = np.zeros(m)
    trace = []
    for stage in range(cfg.max_stages):
        batch = sample_mixture(theta, cfg.pilot_size,
                               stream.child(phase="init", iteration=stream.iteration + stage))
        levels = model.rarity_levels(batch.x)
        if levels.shape[1] != m:
            raise ConfigError(f"rarity_ce needs one component per rarity level: "
                              f"{levels.shape[1]}, got {m}")
        new_delta = rarity_delta(levels, n0, delta)
        clamped = (new_delta == delta) & (stage > 0)
        counts = (levels >= new_delta).sum(axis=0)
        payoff = model.rarity_payoff(new_delta, batch.x)
        theta = MixtureParam.uniform(mixture_update(batch, payoff, theta).means)
        delta = new_delta
        trace.append(RarityStageRecord(
            stage=stage + 1, delta=delta.copy(), theta=theta,
            samples_in_set=counts, clamped=clamped))
        if np.all(delta >= 1.0):
            return theta, trace
    raise StagnantRarity(
        f"rarity parameters {delta} did not reach 1 in {cfg.max_stages} stages")
