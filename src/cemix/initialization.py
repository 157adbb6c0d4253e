"""Initial mixture construction: random perturbation, the staged
rarity-parameter scheme, and analytical approximation.  initial_mixture
resolves the init: section to one of them and lays out their init streams."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import PilotConfig, _block_sums, _pilot_pass, _update, _weights
from .errors import ApproxUnavailable, ConfigError, EmbeddingUnavailable, StagnantRarity
from .mixture import DEFAULT_WEIGHT_FLOOR, MixtureParam, min_tilt_distance
from .rng import RngStream


def require_init(model, method: str, error=ConfigError):
    """Raise error unless the model (class or instance) lists method in its
    inits."""
    if method not in getattr(model, "inits", ()):
        raise error(f"{model.name} does not support init method {method!r}")


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


@dataclass(kw_only=True)
class InitConfig(RarityConfig):
    """The init: section; rarity_ce reads the RarityConfig fields."""

    method: str
    means: np.ndarray | None = None  # starting tilts; drawn when None
    m: int | None = None             # drawn component count; None: the model's
    base: np.ndarray = 0.0
    scale: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        if np.ndim(self.means) > 2:
            raise ConfigError("init means must have one row per component")
        if self.m is not None and self.m < 1:
            raise ConfigError(f"init m must be >= 1, got {self.m}")
        if self.scale < 0:
            raise ConfigError(f"init scale must be >= 0, got {self.scale}")


@dataclass
class RarityStageRecord:
    stage: int
    delta: np.ndarray
    theta: MixtureParam
    samples_in_set: np.ndarray  # per-component counts at the new delta
    clamped: np.ndarray         # per component: delta held, by the monotone clamp or the cap


def uniform_start(means, what: str) -> MixtureParam:
    """Equal weights 1/m over the means, which must be finite and pairwise distinct, or
    ConfigError: identical initial tilts would stay identical through every update."""
    # an overflowed mean is inf, and the distance of two is NaN
    if not (np.all(np.isfinite(means)) and min_tilt_distance(means) > 0):
        raise ConfigError(f"{what} are not finite and pairwise distinct")
    return MixtureParam.uniform(means)


def init_perturbation(m: int, base, scale: float, stream: RngStream,
                      dim: int = None) -> MixtureParam:
    """The uniform_start over means base + uniform(-scale, scale)^d noise, the
    noise from words [0, m*d) of the stream."""
    base = np.atleast_1d(np.asarray(base, dtype=float))
    if dim is not None and base.size == 1:
        base = np.full(dim, base[0])
    if m > 1 and scale <= 0:
        raise ConfigError("m > 1 needs scale > 0 to keep initial tilts distinct")
    u = np.empty((m, base.size))
    stream._fill(u.reshape(-1), 0)
    return uniform_start(base + (-scale + 2 * scale * u), "perturbed means")


def init_approx(model) -> MixtureParam:
    """Equal-weight mixture from the model's analytical tilt map, which must be finite."""
    require_init(model, "approx", ApproxUnavailable)
    with np.errstate(all="ignore"):  # an overflow on the way is a non-finite tilt
        tilts = model.approx_tilts()
    if not np.all(np.isfinite(tilts)):
        raise ConfigError(f"approx init: the {model.name} tilts are not finite")
    return MixtureParam.uniform(tilts)


def rarity_delta(levels, n0: int, prev) -> np.ndarray:
    """Per column of the (n, k) rarity levels, the largest delta that at
    least n0 samples reach (the n0-th largest level), never below prev."""
    reached = np.partition(np.asarray(levels, dtype=float), -n0, axis=0)[-n0]
    return np.maximum(reached, np.asarray(prev, dtype=float))


def init_rarity_ce(model, cfg: RarityConfig, theta_start: MixtureParam,
                   stream: RngStream):
    """Staged cross-entropy over the model's rarity embedding.

    Repeats {sample pilot; grow delta to the largest value still reached by n0 samples
    per component, capped at 1; move each component's mean to the delta-scaled-payoff
    weighted mean over its own set} until delta = 1.  Row k is in component j's set when its
    rarity level j (model.rarity_levels) reaches delta_j; each stage decides this once, for
    the counts, the rows it keeps of model.rarity_payoff and the update's 0/1 posteriors.
    The cap is the CE level rule gamma_t = min(gamma, rho-quantile) in delta space (de Boer,
    Kroese, Mannor & Rubinstein, "A tutorial on the cross-entropy method", 2005).  Weights
    stay 1/m.  Returns (theta, stage trace); the terminal theta starts the main CE run.
    Stage s draws its pilot at init iteration stream.iteration + s.
    """
    require_init(model, "rarity_ce", EmbeddingUnavailable)
    m = theta_start.m
    theta = MixtureParam.uniform(theta_start.means)  # enforce weights 1/m
    n0 = cfg.n0(m)
    delta = np.zeros(m)
    trace = []
    for stage in range(cfg.max_stages):
        blocks = _pilot_pass(theta, cfg.pilot_size,
                             stream.child(phase="init", iteration=stream.iteration + stage),
                             lambda *block: block)
        levels = [model.rarity_levels(x) for x, _, _ in blocks]
        if levels[0].shape[1] != m:
            raise ConfigError(f"rarity_ce needs one component per rarity level: "
                              f"{levels[0].shape[1]}, got {m}")
        new_delta = np.minimum(rarity_delta(np.concatenate(levels), n0, delta), 1.0)
        clamped = (new_delta == delta) & (stage > 0)
        in_set = [level >= new_delta for level in levels]  # (rows, m) per block
        counts = sum(member.sum(axis=0) for member in in_set)
        sums = []
        for (x, lr, _), member in zip(blocks, in_set):
            payoff = model.rarity_payoff(new_delta, x)
            with np.errstate(invalid="ignore"):  # an inf payoff off every set: a NaN mass
                payoff = payoff * member.any(axis=1)
            sums.append(_block_sums(x, _weights(payoff, lr), member.T))
        theta = MixtureParam.uniform(_update(sums, theta, DEFAULT_WEIGHT_FLOOR).means)
        delta = new_delta
        trace.append(RarityStageRecord(
            stage=stage + 1, delta=delta.copy(), theta=theta,
            samples_in_set=counts, clamped=clamped))
        if np.all(delta >= 1.0):
            return theta, trace
    raise StagnantRarity(
        f"rarity parameters {delta} did not reach 1 in {cfg.max_stages} stages")


def initial_mixture(model, init: InitConfig, stream: RngStream):
    """(theta0, stage count) of the configured init.  Drawn means take their noise from
    init iteration 0 of the stream, and rarity stages draw from init iteration 1 on."""
    if init.method == "approx":
        return init_approx(model), 0
    if init.means is not None:
        start = uniform_start(init.means, "init means")
    else:
        start = init_perturbation(init.m or model.default_components, init.base, init.scale,
                                  stream.child(phase="init", iteration=0), dim=model.dim)
    if init.method == "perturbation":
        return start, 0
    theta, trace = init_rarity_ce(model, init, start, stream.child(phase="init", iteration=1))
    return theta, len(trace)
