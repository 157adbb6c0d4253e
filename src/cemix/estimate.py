"""Final-stage importance-sampling estimation and summary statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, UnequalSampleSize
from .mixture import MixtureParam, _draw_rows
from .numerics import _block_rows, _for_blocks
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
    lr_concentrated: bool = False

    @property
    def per_sample_variance(self) -> float:
        return self.std_error ** 2 * self.n


def chunk_moments(vals: np.ndarray):
    """(count, mean, M2) of one chunk of values, M2 being the sum of
    squared deviations from the mean (two-pass)."""
    mean = float(vals.mean())
    return vals.size, mean, float(np.sum((vals - mean) ** 2))


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
    """Mean and standard error of V(X) * lr(X) over n draws from the mixture.

    Chunk k takes the c rows of sample_mixture(theta, c, stream with counter
    offset k), c = _CHUNK but for a shorter last chunk.  Each row block of a
    chunk is drawn and weighted by _draw_rows and priced by model._payoff on
    the thread pool, with no (c, d) array.  The chunks' chunk_moments are
    merged in chunk order by merge_moments.
    """
    if n < 2:
        raise ValueError("need n >= 2 for a standard error")
    if model.dim != theta.dim:
        raise DimensionMismatch(f"model dimension {model.dim}, mixture {theta.dim}")
    moments = (0, 0.0, 0.0)
    min_lr, max_lr, max_val = np.inf, -np.inf, 0.0
    for k, start in enumerate(range(0, n, _CHUNK)):
        c = min(_CHUNK, n - start)
        sub = stream.child(counter=stream.counter + k)
        lr, vals = np.empty(c), np.empty(c)
        def block(lo, hi):
            x = np.empty((hi - lo, theta.dim))
            _draw_rows(theta, c, sub, lo, x, lr[lo:hi])
            np.multiply(model._payoff(x), lr[lo:hi], out=vals[lo:hi])
        _for_blocks(block, c, _block_rows(theta.dim))
        moments = merge_moments(moments, chunk_moments(vals))
        min_lr = min(min_lr, float(lr.min()))
        max_lr = max(max_lr, float(lr.max()))
        max_val = max(max_val, float(vals.max()))
    _, est, m2 = moments
    se = math.sqrt(m2 / (n - 1) / n)
    return EstimateReport(
        estimate=est,
        std_error=se,
        relative_error=se / est if est > 0 else math.inf,
        n=n,
        min_lr=min_lr,
        max_lr=max_lr,
        lr_concentrated=est > 0 and max_val > LR_CONCENTRATION_SHARE * est * n,
    )


def plain_mc_estimate(model, n: int, stream: RngStream) -> EstimateReport:
    """Plain Monte Carlo under N(0, I_d); the identity tilt of is_estimate."""
    return is_estimate(model, MixtureParam.single(np.zeros(model.dim)), n, stream)


def variance_ratio(plain: EstimateReport, ce: EstimateReport) -> float:
    """Per-sample variance of plain MC over that of the IS estimator."""
    if plain.n != ce.n:
        raise UnequalSampleSize(f"{plain.n} vs {ce.n} samples")
    if ce.per_sample_variance == 0.0:
        return math.inf
    return plain.per_sample_variance / ce.per_sample_variance
