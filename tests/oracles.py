"""Reference implementations the tests check the package against.

Each is written from its textbook definition, independently of the
package code it checks.
"""

import math

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtri

from cemix.errors import DegenerateUpdate
from cemix.estimate import LR_CONCENTRATION_SHARE, chunk_moments, merge_moments
from cemix.mixture import MixtureParam, likelihood_ratio, log_mixture_density, sample_mixture
from cemix.numerics import _block_rows, _blocks


def uniforms(stream, size) -> np.ndarray:
    """The stream's first words as uniforms, from one serial Philox draw,
    kept off 0 as the package keeps them."""
    gen = np.random.Generator(np.random.Philox(key=stream._key()))
    return np.maximum(gen.random(size), 2.0 ** -53)


def normals(stream, n: int, d: int) -> np.ndarray:
    """(n, d) array of iid N(0,1) draws: inverse CDF of the stream's block
    draw of its first n*d words."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    return ndtri(stream._fill(np.empty(n * d), 0)).reshape(n, d)


def log_component_density(alpha, x) -> np.ndarray:
    """log phi_d(x - alpha) for each row of x."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    diff = np.atleast_2d(np.asarray(x, dtype=float)) - alpha
    return -0.5 * np.sum(diff * diff, axis=1) - 0.5 * alpha.size * math.log(2.0 * math.pi)


def permuted(theta: MixtureParam, perm) -> MixtureParam:
    """theta with its components reordered by perm."""
    perm = np.asarray(perm)
    return MixtureParam(theta.weights[perm], theta.means[perm])


def basic_update(batch, payoff) -> np.ndarray:
    """The paper's single-component CE update: the V*lr-weighted sample mean
    (w @ x) / sum(w), w = V*lr, of a pilot batch and its payoffs V."""
    w = payoff * batch.lr
    if not w.sum() > 0:
        raise DegenerateUpdate("payoff-weighted mass is not positive")
    return (w @ batch.x) / w.sum()


def serial_sample(theta: MixtureParam, n: int, stream):
    """(x, labels) of sample_mixture from one serial draw of the stream's
    n*(d+1) words: labels from the first n, normals from the rest."""
    u = uniforms(stream, n * (theta.dim + 1))
    labels = np.minimum(np.searchsorted(np.cumsum(theta.weights), u[:n]), theta.m - 1)
    return ndtri(u[n:]).reshape(n, theta.dim) + theta.means[labels], labels


def serial_is_estimate(model, theta: MixtureParam, n: int, stream, chunk_size: int):
    """(estimate, std_error, min_lr, max_lr, lr_concentrated, plain_variance) of
    is_estimate from public calls: each chunk draws its whole batch with
    sample_mixture, then takes likelihood_ratio and payoff of it and its
    chunk_moments; the chunks merge in chunk order.  The plain variance is
    E[V^2 lr] - mean^2, made unbiased by n / (n - 1), its V^2 lr summed per
    _blocks(c, _block_rows(d)) block of each chunk, one block sum at a time."""
    moments, lrs, vals, sum_sq = (0, 0.0, 0.0), [], [], 0.0
    for k, start in enumerate(range(0, n, chunk_size)):
        x = sample_mixture(theta, min(chunk_size, n - start),
                           stream.child(counter=stream.counter + k)).x
        lrs.append(likelihood_ratio(theta, x))
        payoff = model.payoff(x)
        vals.append(payoff * lrs[-1])
        moments = merge_moments(moments, chunk_moments(vals[-1].copy()))
        for rows in _blocks(len(payoff), _block_rows(theta.dim)):
            sum_sq += float(np.sum(payoff[rows] * vals[-1][rows]))
    _, est, m2 = moments
    top = max(v.max() for v in vals)
    return (est, math.sqrt(m2 / (n - 1) / n), min(v.min() for v in lrs),
            max(v.max() for v in lrs), est > 0 and top > LR_CONCENTRATION_SHARE * est * n,
            max(sum_sq / n - est * est, 0.0) * (n / (n - 1)))


def cev_paths(model, x):
    """Terminal (S_T, H_T) of CevDigital by one Euler loop over the whole
    batch, with numpy's scalar exp and sqrt as in the model, each step's
    values in fresh arrays."""
    z, resid = x[:, 0::2], x[:, 1::2]
    dt = model.maturity / model.n_steps
    sqdt, root = np.sqrt(dt), np.sqrt(1.0 - model.rho ** 2)
    xs = np.full(x.shape[0], float(model.s0))
    ys = np.full(x.shape[0], float(model.h0))
    for i in range(model.n_steps):
        t = i * dt
        dw = sqdt * z[:, i]
        db = sqdt * (model.rho * z[:, i] + root * resid[:, i])
        xs = np.maximum(xs + model.sigma1 * np.exp(-model.r * (1.0 - model.gamma1) * t)
                        * xs ** model.gamma1 * dw, 0.0)
        ys = np.maximum(ys + model.sigma2 * np.exp(-model.r * (1.0 - model.gamma2) * t)
                        * ys ** model.gamma2 * db, 0.0)
    grow = np.exp(model.r * model.maturity)
    return grow * xs, grow * ys


def triangular_solves(chol, moves):
    """The rows of moves solved through the lower-triangular chol, one LAPACK call each."""
    return np.array([solve_triangular(chol, row, lower=True) for row in moves])


def rainbow_tilts(model):
    """RainbowOption.approx_tilts by one triangular solve per asset: row j moves
    asset j's normal so that its mean terminal price is the strike."""
    d = model.dim
    tilts = np.empty((d, d))
    for j in range(d):
        eta = np.zeros(d)
        eta[j] = (np.log(model.strike / model.s0[j]) - model.r * model.maturity) \
            / (model.sigmas[j] * np.sqrt(model.maturity))
        tilts[j] = solve_triangular(model.chol, eta, lower=True)
    return tilts


def pyramid_tilts(model):
    """PyramidOption.approx_tilts by one triangular solve per sign pattern: the
    mean terminal prices are kbar +- slack per asset, floored at 1e-8 * s0."""
    kbar = np.maximum(model.asset_strikes, model.s0 * np.exp(model.r * model.maturity))
    slack = max(model.strike - np.abs(kbar - model.asset_strikes).sum(), 0.0) / model.dim
    tilts = np.empty((2 ** model.dim, model.dim))
    for i, signs in enumerate(model.sign_patterns()):
        target = np.maximum(kbar + signs * slack, 1e-8 * model.s0)
        eta = (np.log(target / model.s0) - model.r * model.maturity) \
            / (model.sigmas * np.sqrt(model.maturity))
        tilts[i] = solve_triangular(model.chol, eta, lower=True)
    return tilts


def block_sums(x, payoff, lr, post):
    """A block's update sums from its (k, m) posteriors, row-major: the mass of
    w = V*lr, the component masses (post * w).sum(0) and (post * w).T @ x."""
    w = payoff * lr
    wp = post * w[:, None]
    return w.sum(), wp.sum(axis=0), wp.T @ x


def objective_sum(theta: MixtureParam, x, payoff, lr) -> float:
    """Sum of V*lr * log h_theta over the rows of a block with V > 0."""
    active = payoff > 0
    if not np.any(active):
        return 0.0
    return float((payoff[active] * lr[active] * log_mixture_density(theta, x[active])).sum())


def gbm_prices(model, x):
    """Terminal prices of a CorrelatedGbm by whole-row broadcasts:
    s0 * exp((r - sigma^2 / 2) T + sigma sqrt(T) * (x @ chol.T))."""
    expo = (model.r - 0.5 * model.sigmas ** 2) * model.maturity \
        + model.sigmas * np.sqrt(model.maturity) * (x @ model.chol.T)
    return model.s0 * np.exp(expo)


def rainbow_payoff(model, x):
    """(max_j disc * S_T^(j) - disc * K)^+ by a row max."""
    disc = np.exp(-model.r * model.maturity)
    return np.maximum((disc * gbm_prices(model, x)).max(axis=1) - disc * model.strike, 0.0)


def rainbow_rarity_payoff(model, delta, x):
    """The rainbow's delta-scaled payoff (max_j disc*S_T^(j) - disc*delta_j*K)^+ by a row max."""
    disc = np.exp(-model.r * model.maturity)
    h = (disc * gbm_prices(model, x) - disc * delta[None, :] * model.strike).max(axis=1)
    return np.maximum(h, 0.0)


def rainbow_levels(model, x):
    """The rainbow's rarity levels S_T^(j) / K."""
    return gbm_prices(model, x) / model.strike


def pyramid_payoff(model, x):
    """disc * (sum_j |S_T^(j) - K_j| - K)^+ by a row sum."""
    spread = np.abs(gbm_prices(model, x) - model.asset_strikes).sum(axis=1)
    return np.exp(-model.r * model.maturity) * np.maximum(spread - model.strike, 0.0)


def tail_levels(model, x):
    """The tail's rarity levels (x/a, x/b)."""
    return x / np.array([model.a, model.b])
