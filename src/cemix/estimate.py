"""Final-stage importance-sampling estimation and summary statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch
from .mixture import MixtureParam, _draw_rows
from .numerics import _block_rows, _blocks, _submit
from .rng import RngStream

# a single likelihood ratio carrying more than this share of the total sum
# marks a deceptive, under-covered run
LR_CONCENTRATION_SHARE = 0.10

# rows per chunk of is_estimate; every result depends on it
_CHUNK = 200_000


@dataclass
class EstimateReport:
    estimate: float
    std_error: float
    relative_error: float
    n: int
    min_lr: float
    max_lr: float
    plain_variance: float  # per-sample variance of V under N(0, I_d)
    lr_concentrated: bool = False

    @property
    def var_ratio(self) -> float:
        """Per-sample variance of plain MC over that of this estimator; inf at zero."""
        variance = self.std_error * self.std_error * self.n
        return self.plain_variance / variance if variance > 0 else math.inf


def chunk_moments(vals: np.ndarray):
    """(count, mean, M2) of one chunk of values, M2 being the sum of squared
    deviations from the mean (two-pass, no temporary); overwrites vals with them."""
    mean = float(vals.mean())
    vals -= mean
    return vals.size, mean, float(np.sum(np.square(vals, out=vals)))


def merge_moments(a, b):
    """Pairwise merge of two (count, mean, M2) moments (Chan, Golub and
    LeVeque); accurate down to zero variance.  The empty moments
    (0, 0.0, 0.0) merge as an identity."""
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    m2 = m2_a + (m2_b + delta * delta * (n_a * n_b / n))
    return n, mean_a + delta * (n_b / n), m2


def is_estimate(model, theta: MixtureParam, n: int, stream: RngStream) -> EstimateReport:
    """Mean and standard error of V(X) * lr(X) over n draws from the mixture,
    and the plain-MC variance E[V^2 lr] - mean^2 of V from the same draws.

    Chunk k takes the c rows of sample_mixture(theta, c, stream with counter
    offset k), c = _CHUNK but for a shorter last chunk.  Each row block of a
    chunk is drawn and weighted by _draw_rows and priced by model._payoff on
    the thread pool, with no (c, d) array; a block writes its lr into its rows
    of slot k % 2, a c-vector allocated once per call, multiplies them by V in
    place and returns its lr range and its sum of V^2 lr.  Chunk k + 1 goes to
    the pool before the main thread adds chunk k's block sums, in block order,
    takes its largest V lr and merges its chunk_moments, in chunk order, so chunk
    k + 2 finds its slot reduced.  Payoffs so large that a moment, or the variance
    ratio at a nonzero SE, is not finite raise ConfigError.
    """
    if n < 2:
        raise ValueError("need n >= 2 for a standard error")
    if model.dim != theta.dim:
        raise DimensionMismatch(f"model dimension {model.dim}, mixture {theta.dim}")
    chunks = -(-n // _CHUNK)
    slots = [np.empty(min(n, _CHUNK)) for _ in range(min(2, chunks))]
    def submit(k):  # (vals, block futures) of chunk k
        c = min(_CHUNK, n - k * _CHUNK)
        sub = stream.child(counter=stream.counter + k)
        vals = slots[k % 2][:c]
        def block(rows):  # ((lr min, lr max), sum of V^2 lr) of the rows
            x, w = np.empty((rows.stop - rows.start, theta.dim)), vals[rows]
            _draw_rows(theta, c, sub, rows.start, x, w)
            ends = w.min(), w.max()
            payoff = model._payoff(x)
            with np.errstate(over="ignore", invalid="ignore"):  # checked once summed
                w *= payoff
                return ends, float(np.multiply(payoff, w, out=payoff).sum())
        return vals, _submit(block, _blocks(c, _block_rows(theta.dim)))

    moments, max_val, sum_sq, lr_ends = (0, 0.0, 0.0), 0.0, 0.0, []
    ahead = submit(0)
    for k in range(1, chunks + 1):
        vals, futures = ahead
        ahead = submit(k) if k < chunks else None
        for future in futures:
            ends, block_sq = future.result()
            lr_ends += ends
            sum_sq += block_sq
        with np.errstate(over="ignore", invalid="ignore"):
            max_val = max(max_val, float(vals.max()))
            moments = merge_moments(moments, chunk_moments(vals))
    _, est, m2 = moments
    if not math.isfinite(est + m2 + sum_sq):
        raise ConfigError("payoffs out of range: a moment of the estimate is not finite")
    se = math.sqrt(m2 / (n - 1) / n)
    report = EstimateReport(
        estimate=est,
        std_error=se,
        relative_error=se / est if est > 0 else math.inf,
        n=n,
        min_lr=float(np.min(lr_ends)),  # each block's lr min and max
        max_lr=float(np.max(lr_ends)),
        plain_variance=max(sum_sq / n - est * est, 0.0) * (n / (n - 1)),
        lr_concentrated=est > 0 and max_val > LR_CONCENTRATION_SHARE * est * n,
    )
    if se > 0 and not math.isfinite(report.var_ratio):  # a ratio past the doubles
        raise ConfigError("payoffs out of range: the variance ratio is not finite")
    return report


def plain_mc_estimate(model, n: int, stream: RngStream) -> EstimateReport:
    """Plain Monte Carlo under N(0, I_d); the identity tilt of is_estimate."""
    return is_estimate(model, MixtureParam.single(np.zeros(model.dim)), n, stream)
