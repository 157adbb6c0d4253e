"""Gaussian mean-shift tilt mixtures.

The sampling family is h(x) = sum_j w_j * phi_d(x - alpha_j), where phi_d
is the standard d-dimensional normal density.  All density work is done in
the log domain; raw densities underflow already for moderate path
dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DimensionMismatch
from .numerics import _block_rows, _for_blocks, _step
from .rng import RngStream

LOG_2PI = float(np.log(2.0 * np.pi))

# updated weights below this are clamped and the vector renormalized, so no
# component ever becomes unrecoverable
DEFAULT_WEIGHT_FLOOR = 1e-4


@dataclass
class MixtureParam:
    """Weights and component mean shifts of a tilt mixture."""

    weights: np.ndarray  # (m,)
    means: np.ndarray    # (m, d)

    def __post_init__(self):
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        if self.weights.ndim != 1 or self.means.ndim != 2:
            raise ValueError("weights must be (m,), means must be (m, d)")
        if self.means.shape[0] != self.weights.size:
            raise DimensionMismatch(
                f"{self.weights.size} weights vs {self.means.shape[0]} components")
        if np.any(self.weights <= 0) or not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be strictly positive and finite")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {self.weights.sum()}, not 1")
        if not np.all(np.isfinite(self.means)):
            raise ValueError("means must be finite")

    @property
    def m(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @classmethod
    def single(cls, alpha) -> "MixtureParam":
        """One-component mixture (plain exponential tilt)."""
        return cls(np.array([1.0]), np.atleast_2d(np.asarray(alpha, dtype=float)))

    @classmethod
    def uniform(cls, means) -> "MixtureParam":
        """Mixture with equal weights 1/m over the given means."""
        means = np.atleast_2d(np.asarray(means, dtype=float))
        m = means.shape[0]
        return cls(np.full(m, 1.0 / m), means)


def min_tilt_distance(means) -> float:
    """Smallest Euclidean distance between two rows of an (m, d) tilt array;
    inf for a single row."""
    means = np.atleast_2d(np.asarray(means, dtype=float))
    i, j = np.triu_indices(means.shape[0], k=1)
    return float(np.linalg.norm(means[i] - means[j], axis=1).min(initial=np.inf))


@dataclass
class SampleBatch:
    """Draws from a mixture with their weights under it."""

    x: np.ndarray           # (n, d); perfbench's tracer reads sample_mixture(...).x
    lr: np.ndarray          # (n,), likelihood ratios, >= 0 (0 once underflowed)
    posteriors: np.ndarray  # (n, m), C-ordered: the update's column-sum bits depend on it


def _as_batch(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise DimensionMismatch(f"expected points of dimension {dim}, got shape {x.shape}")
    return x


def _tilt_slices(theta: MixtureParam, x: np.ndarray):
    """(rows, top, e, s) over _step-aligned row slices of x, from the (m, rows) tilt matrix
    t_j(x) = alpha_j.x + log w_j - |alpha_j|^2 / 2: top is its per-sample max, e is
    exp(t - top) written over t, and s the per-sample sum of e (>= 1).

    w_j phi_d(x - alpha_j) = phi_d(x) exp(t_j(x)), so the |x|^2 terms cancel and are
    never formed.  Components run along axis 0: per-sample reductions are elementwise.
    Each tilt matmul takes at most 2^18 multiply-adds, which OpenBLAS runs on the calling
    thread: none of its threads wakes to spin against the pool."""
    a = theta.means
    shift = (np.log(theta.weights) - 0.5 * np.einsum("md,md->m", a, a))[:, None]
    step = _step(max(len(x), 1), max(1, 2 ** 18 // (theta.m * theta.dim)))
    for lo in range(0, len(x), step):
        rows = slice(lo, lo + step)
        # a far tilt overflows to a non-finite lr here, which mixture_update rejects
        with np.errstate(over="ignore", invalid="ignore"):
            t = a @ x[rows].T
            t += shift
            top = t.max(axis=0)
            t -= top
            np.exp(t, out=t)
        yield rows, top, t, t.sum(axis=0)


def _lr(theta: MixtureParam, x: np.ndarray, lr: np.ndarray, post: np.ndarray = None):
    """likelihood_ratio of the rows of x into lr and, given the (n, m) post, their
    posteriors into it."""
    for rows, top, e, s in _tilt_slices(theta, x):
        np.divide(np.exp(-top), s, out=lr[rows])
        if post is not None:
            np.divide(e, s, out=post[rows].T)


def log_mixture_density(theta: MixtureParam, x) -> np.ndarray:
    """log h_theta(x) = log phi_d(x) + log sum_j exp(t_j(x)), max-shifted."""
    x = _as_batch(x, theta.dim)
    out = np.empty(len(x))
    for rows, top, _, s in _tilt_slices(theta, x):
        out[rows] = (top + np.log(s) - 0.5 * np.einsum("nd,nd->n", x[rows], x[rows])
                     - 0.5 * theta.dim * LOG_2PI)
    return out


def likelihood_ratio(theta: MixtureParam, x) -> np.ndarray:
    """phi_d(x) / h_theta(x) = 1 / sum_j exp(t_j(x)); the unbiasedness
    correction factor.  Exactly 1 under the identity tilt; 0 once it
    underflows far out in a component's tail."""
    x = _as_batch(x, theta.dim)
    lr = np.empty(len(x))
    _lr(theta, x, lr)
    return lr


def posterior(theta: MixtureParam, x) -> np.ndarray:
    """(n, m) component posteriors h_theta(j | x) = exp(t_j) / sum_i exp(t_i);
    rows sum to 1."""
    x = _as_batch(x, theta.dim)
    post = np.empty((len(x), theta.m))
    _lr(theta, x, np.empty(len(x)), post)
    return post


def _draw_rows(theta: MixtureParam, n: int, stream: RngStream, lo: int, x: np.ndarray,
               lr: np.ndarray, post: np.ndarray = None):
    """Rows [lo, lo + len(x)) of the n-row batch of sample_mixture, written into
    the C-contiguous x, and their _lr into lr (and post).  Words [lo, hi) of the
    stream pick the components (none drawn when m = 1); words n + [i*d, (i+1)*d)
    give row i by inverse-CDF normals."""
    labels = np.zeros(len(x), dtype=np.intp)
    if theta.m > 1:
        u = stream._fill(np.empty(len(x)), lo)
        np.minimum(np.searchsorted(np.cumsum(theta.weights), u), theta.m - 1, out=labels)
    flat = x.reshape(-1)
    stream._fill(flat, n + lo * theta.dim)
    ndtri(flat, out=flat)
    step = max(1, 2 ** 16 // theta.dim)  # bounds the gathered-means temporary
    for i in range(0, len(x), step):
        x[i:i + step] += theta.means[labels[i:i + step]]
    _lr(theta, x, lr, post)


def sample_mixture(theta: MixtureParam, n: int, stream: RngStream) -> SampleBatch:
    """n iid draws from h_theta with their likelihood ratios and posteriors:
    _draw_rows over row blocks on the thread pool, each block from its own words."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x, lr, post = np.empty((n, theta.dim)), np.empty(n), np.empty((n, theta.m))
    _for_blocks(lambda lo, hi: _draw_rows(theta, n, stream, lo, x[lo:hi], lr[lo:hi],
                                          post[lo:hi]), n, _block_rows(theta.dim))
    return SampleBatch(x, lr, post)
