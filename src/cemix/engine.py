"""Cross-entropy updates and the outer iteration loop.

The single-component update is the payoff-and-likelihood-weighted sample
mean; the mixture update additionally weights each sample by its EM
posterior, giving closed-form weight and mean updates per component.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateUpdate, DimensionMismatch
from .estimate import chunk_moments, merge_moments
from .mixture import (DEFAULT_WEIGHT_FLOOR, LOG_2PI, MixtureParam, SampleBatch, _draw_rows,
                      log_mixture_density)
from .numerics import _PRODUCT_MADDS, _block_rows, _blocks, _map
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
    theta: MixtureParam  # the update that the iteration's pilot gave
    objective: float     # the CE objective of the theta that drew the pilot, on that pilot
    positive_payoffs: int
    moments: tuple       # (count, mean, M2) of the pilot's V*lr: its own IS estimate

    @property
    def ess(self) -> float:
        """Effective sample size (sum w)^2 / sum w^2 of the pilot's w = V*lr (Kong 1992)."""
        n, mean, m2 = self.moments
        return (n * mean) ** 2 / (m2 + n * mean * mean)


def _check_lr(lr):
    """Raise DegenerateUpdate unless every likelihood ratio is finite and nonnegative; an
    lr that underflows to 0 under a far tilt is a zero weight."""
    if not np.all(np.isfinite(lr) & (lr >= 0)):
        raise DegenerateUpdate("likelihood ratios must be finite and nonnegative")


def _weights(payoff, lr):
    """w = V*lr of nonnegative payoffs; an inf V by an lr that underflowed to 0 is a NaN mass."""
    if np.any(payoff < 0):
        raise ValueError("payoffs must be nonnegative")
    with np.errstate(invalid="ignore"):
        return payoff * lr


def _block_sums(x, w, post):
    """One block's update sums from its weights w and (m, k) posteriors: with wp = post * w,
    C-ordered for any post layout, w.sum(), wp.sum(axis=1) and wp @ x over row slices of at
    most _PRODUCT_MADDS."""
    wp = np.multiply(post, w, order="C")
    wx = np.zeros((len(wp), x.shape[1]))
    for rows in _blocks(len(x), _PRODUCT_MADDS // wx.size):
        wx += wp[:, rows] @ x[rows]
    return w.sum(), wp.sum(axis=1), wx


def _update(parts, theta_prev: MixtureParam, weight_floor: float) -> MixtureParam:
    """The mixture update from the blocks' _block_sums, added in block order."""
    denom, mass, wx = (sum(part[k] for part in parts) for k in range(3))
    if not (np.isfinite(denom) and denom > 0):
        raise DegenerateUpdate(f"payoff-weighted mass is {denom}, not finite and positive")
    live = mass > 0
    means = np.array(theta_prev.means, copy=True)
    means[live] = wx[live] / mass[live, None]
    weights = np.maximum(mass / denom, max(weight_floor, 1e-300))
    return MixtureParam(weights / weights.sum(), means)


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
    w = _weights(payoff, batch.lr)  # a negative payoff before a bad likelihood ratio
    _check_lr(batch.lr)
    return _update([_block_sums(batch.x, w, batch.posteriors.T)], theta_prev, weight_floor)


def surrogate_objective(batch: SampleBatch, payoff: np.ndarray, theta: MixtureParam) -> float:
    """Sampled CE objective (1/N) sum_k V*lr * log h_theta(X_k), over the rows with V > 0."""
    active = payoff > 0
    return float((payoff[active] * batch.lr[active]
                  * log_mixture_density(theta, batch.x[active])).sum()) / batch.x.shape[0]


def _pilot_pass(theta: MixtureParam, n: int, stream: RngStream, price) -> list:
    """[price(x, lr, post) of each block of sample_mixture(theta, n, stream)]: one pool map
    over blocks of _block_rows(d, 2^15) rows, drawn with (m, rows) posteriors.  A block whose
    lr is not finite raises unpriced; price runs on the pool: it calls private code."""
    def draw(rows):
        k = rows.stop - rows.start
        x, lr, post = np.empty((k, theta.dim)), np.empty(k), np.empty((theta.m, k))
        _draw_rows(theta, n, stream, rows.start, x, lr, post)
        _check_lr(lr)  # rows that far out may overflow the payoff: not priced
        return price(x, lr, post)

    return _map(draw, _blocks(n, _block_rows(theta.dim, 2 ** 15)))


def _pilot(model, theta: MixtureParam, n: int, stream: RngStream, weight_floor: float):
    """One fused CE iteration: (new theta, objective under theta, positive-payoff count,
    moments of V*lr), the values of sample_mixture(theta, n, stream), model.payoff,
    mixture_update and surrogate_objective under theta, with no (n, m) posterior array.
    Each block of one _pilot_pass gives its _block_sums, its objective sum, log h = log
    phi_d - log lr under the drawing theta, and last its chunk_moments, from one w = V*lr."""
    def price(x, lr, post):
        payoff = model._payoff(x)
        w = _weights(payoff, lr)
        kept = w > 0  # lr > 0 there: its log is finite
        log_h = (-0.5 * np.einsum("nd,nd->n", x, x)[kept] - 0.5 * x.shape[1] * LOG_2PI
                 - np.log(lr[kept]))
        parts = (int(np.count_nonzero(payoff > 0)), float((w[kept] * log_h).sum()),
                 _block_sums(x, w, post))
        with np.errstate(over="ignore", invalid="ignore"):  # checked once pooled; overwrites w
            return parts + (chunk_moments(w),)

    positive, objective, sums, moments = zip(*_pilot_pass(theta, n, stream, price))
    return (_update(sums, theta, weight_floor), sum(objective) / n, sum(positive),
            functools.reduce(merge_moments, moments, (0, 0.0, 0.0)))


def run_ce(model, theta0: MixtureParam, cfg: CeConfig, stream: RngStream):
    """Fixed-count CE iterations, each one fused _pilot (one pool map): sample, price, update.

    Returns (theta_final, trace).  DegenerateUpdate is re-raised with the
    failing iteration index attached; it signals an inadequate
    initialization.
    """
    if model.dim != theta0.dim:
        raise DimensionMismatch(f"model dimension {model.dim}, mixture {theta0.dim}")
    theta, trace = theta0, []
    for it in range(1, cfg.iterations + 1):
        try:  # _pilot returns the record's fields after the iteration, in order
            trace.append(IterationRecord(it, *_pilot(model, theta, cfg.pilot_size,
                                                     stream.child(phase="pilot", iteration=it),
                                                     cfg.weight_floor)))
        except DegenerateUpdate as exc:
            raise DegenerateUpdate(str(exc), iteration=it) from exc
        theta = trace[-1].theta
    return theta, trace
