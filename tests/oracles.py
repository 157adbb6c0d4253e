"""Reference implementations the tests check the package against.

Each is written from its textbook definition, independently of the
package code it checks.
"""

import math

import numpy as np
from scipy.special import ndtri

from cemix.errors import DegenerateUpdate
from cemix.mixture import MixtureParam


def normals(stream, n: int, d: int) -> np.ndarray:
    """(n, d) array of iid N(0,1) draws: inverse CDF of the stream's uniforms."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    return ndtri(stream.uniforms((n, d)))


def log_component_density(alpha, x) -> np.ndarray:
    """log phi_d(x - alpha) for each row of x."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    diff = np.atleast_2d(np.asarray(x, dtype=float)) - alpha
    return -0.5 * np.sum(diff * diff, axis=1) - 0.5 * alpha.size * math.log(2.0 * math.pi)


def permuted(theta: MixtureParam, perm) -> MixtureParam:
    """theta with its components reordered by perm."""
    perm = np.asarray(perm)
    return MixtureParam(theta.weights[perm], theta.means[perm])


def basic_update(ev) -> np.ndarray:
    """The paper's single-component CE update: the V*lr-weighted sample mean
    (w @ x) / sum(w), w = V*lr."""
    w = ev.payoff * ev.lr
    if not w.sum() > 0:
        raise DegenerateUpdate("payoff-weighted mass is not positive")
    return (w @ ev.x) / w.sum()
