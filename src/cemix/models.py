"""Payoff models on standard-normal input spaces.

Each model maps a batch of iid N(0, I_d) inputs to nonnegative discounted
payoffs and names the initializers it supports in its `inits` tuple:

* "perturbation" needs nothing beyond `dim` and `default_components`,
* "rarity_ce" needs a rarity embedding: `rarity_levels(x)`, the (n, k)
  rarity parameter each sample reaches, and `rarity_payoff(delta, x)`,
* "approx" needs an analytical initialization map (`approx_tilts`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import ApproxUnavailable, ConfigError
from .mixture import _as_batch
from .numerics import _block_rows, _for_blocks, bisect_root, cholesky

MAX_PYRAMID_ASSETS = 10  # 2^d mixture components; memory/pilot-coverage cap


class Model:
    """Base of the payoff models.  A model's _payoff is a row kernel (row i of its
    output depends on row i of x only) that calls only private helpers."""

    def payoff(self, x) -> np.ndarray:
        """Payoffs of the rows of x: _payoff over row blocks on the pool."""
        x = _as_batch(x, self.dim)
        out = np.empty(len(x))
        def block(lo, hi):
            out[lo:hi] = self._payoff(x[lo:hi])
        _for_blocks(block, len(x), _block_rows(self.dim))
        return out


@dataclass
class TwoSidedTail(Model):
    """P{X >= a or X <= b} for scalar standard normal X, b < 0 < a."""

    a: float
    b: float

    name = "two_sided_tail"
    inits = ("perturbation", "rarity_ce", "approx")
    dim = 1
    default_components = 2

    def __post_init__(self):
        if not self.b < 0 < self.a:
            raise ConfigError("need b < 0 < a")

    def _payoff(self, x):
        return ((x[:, 0] >= self.a) | (x[:, 0] <= self.b)).astype(float)

    def rarity_levels(self, x):
        """(n, 2) rarity reached per side: x/a above, x/b below.

        Sets are compared in delta space (x/a >= delta[0]) rather than
        against delta*a, where rounding in (x/a)*a could drop the very
        sample that set delta.
        """
        return _as_batch(x, 1) / np.array([self.a, self.b])

    def rarity_payoff(self, delta, x):
        return (self.rarity_levels(x) >= delta).any(axis=1).astype(float)

    def approx_tilts(self):
        return np.array([[self.a], [self.b]])


@dataclass
class AsianCall(Model):
    """Discretely monitored average-price call under geometric Brownian
    motion; input coordinates are the normalized Brownian increments."""

    s0: float
    r: float
    sigma: float
    maturity: float
    n_dates: int
    strike: float
    times: np.ndarray | None = None  # monitoring dates; default uniform i*T/d

    name = "asian_call"
    inits = ("perturbation", "approx")
    default_components = 1

    def __post_init__(self):
        if min(self.s0, self.sigma, self.maturity, self.strike) <= 0:
            raise ConfigError("need s0, sigma, maturity and strike > 0")
        if self.times is None:
            self.times = self.maturity * np.arange(1, self.n_dates + 1) / self.n_dates
        self.times = np.asarray(self.times, dtype=float)
        if self.n_dates < 1 or self.times.size != self.n_dates \
                or np.any(np.diff(self.times) <= 0) or self.times[0] <= 0:
            raise ConfigError("need n_dates >= 1 monitoring dates, increasing and positive")
        self._sqdt = np.sqrt(np.diff(self.times, prepend=0.0))

    @property
    def dim(self):
        return self.n_dates

    def _payoff(self, x):
        drift = (self.r - 0.5 * self.sigma ** 2) * self.times
        bridge = np.cumsum(self._sqdt * x, axis=1)
        mean_price = (self.s0 * np.exp(drift[None, :] + self.sigma * bridge)).mean(axis=1)
        return np.exp(-self.r * self.maturity) * np.maximum(mean_price - self.strike, 0.0)

    def approx_tilts(self):
        """Constant shift a with E[average price] = K under N(a*1, I)."""
        drift = (self.r - 0.5 * self.sigma ** 2) * self.times
        csq = np.cumsum(self._sqdt)

        def gap(a):
            return np.mean(self.s0 * np.exp(drift + self.sigma * csq * a)) - self.strike

        lo, hi = -1.0, 1.0
        while gap(lo) > 0:
            lo *= 2
        while gap(hi) < 0:
            hi *= 2
        a = bisect_root(gap, lo, hi)
        return np.full((1, self.n_dates), a)


@dataclass
class CorrelatedGbm(Model):
    """Correlated geometric Brownian motion assets driven by N(0, I_d) inputs."""

    s0: np.ndarray
    sigmas: np.ndarray
    corr: np.ndarray
    r: float
    maturity: float
    strike: float

    per_asset = ("sigmas",)  # float arrays shaped like s0; a scalar is one asset

    def __post_init__(self):
        self.s0 = np.atleast_1d(np.asarray(self.s0, dtype=float))
        for name in self.per_asset:
            value = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if value.shape != self.s0.shape:
                raise ConfigError(f"{name} has shape {value.shape}, s0 has {self.s0.shape}")
            setattr(self, name, value)
        if not (self.maturity > 0 and np.all(self.s0 > 0) and np.all(self.sigmas > 0)):
            raise ConfigError("need s0, sigmas and maturity > 0")
        self.corr = np.asarray(self.corr, dtype=float)
        if self.corr.shape != (self.dim, self.dim):
            raise ConfigError(f"corr must be {self.dim}x{self.dim}, got shape {self.corr.shape}")
        if not np.allclose(np.diag(self.corr), 1.0):
            raise ConfigError("correlation matrix must have unit diagonal")
        self.chol = cholesky(self.corr)

    @property
    def dim(self):
        return self.s0.size

    def _terminal_prices(self, x):
        """Undiscounted S_T^(j) per sample and asset."""
        cx = _as_batch(x, self.dim) @ self.chol.T
        expo = (self.r - 0.5 * self.sigmas ** 2) * self.maturity \
            + self.sigmas * np.sqrt(self.maturity) * cx
        return self.s0 * np.exp(expo)

    def _log_moves(self, target):
        """Per asset, the standardized log move (log(target/s0) - rT)/(sigma sqrt(T))
        of the driving normal that sets the mean terminal price to target."""
        return (np.log(target / self.s0) - self.r * self.maturity) \
            / (self.sigmas * np.sqrt(self.maturity))

    def _tilts_to(self, moves):
        """Input-space tilts whose correlated moves (chol @ tilt) are the rows of moves."""
        return np.array([solve_triangular(self.chol, row, lower=True) for row in moves])


class RainbowOption(CorrelatedGbm):
    """Outperformance option (max_j S_T^(j) - K)^+ on correlated GBM assets."""

    name = "rainbow"
    inits = ("perturbation", "rarity_ce", "approx")

    def __post_init__(self):
        super().__post_init__()
        if self.strike <= 0:
            raise ConfigError("need strike > 0")

    @property
    def default_components(self):
        return self.dim

    def _payoff(self, x):
        disc = np.exp(-self.r * self.maturity)
        best = (disc * self._terminal_prices(x)).max(axis=1)
        return np.maximum(best - disc * self.strike, 0.0)

    def rarity_levels(self, x):
        """(n, d) rarity reached per asset: terminal price over strike."""
        return self._terminal_prices(x) / self.strike

    def rarity_payoff(self, delta, x):
        disc = np.exp(-self.r * self.maturity)
        prices = self._terminal_prices(x)
        delta = np.asarray(delta, dtype=float)
        h = (disc * prices - disc * delta[None, :] * self.strike).max(axis=1)
        # the level comparison of init_rarity_ce, so the sample that set
        # delta is in the set
        in_set = np.any(prices / self.strike >= delta[None, :], axis=1)
        return np.maximum(h, 0.0) * in_set

    def approx_tilts(self):
        """One tilt per asset, lifting that asset's mean terminal price to K."""
        return self._tilts_to(np.diag(self._log_moves(self.strike)))


@dataclass
class PyramidOption(CorrelatedGbm):
    """Pyramid option (sum_j |S_T^(j) - K_j| - K)^+ on correlated GBM assets."""

    asset_strikes: np.ndarray

    name = "pyramid"
    inits = ("perturbation", "approx")
    per_asset = ("sigmas", "asset_strikes")

    def __post_init__(self):
        super().__post_init__()
        if self.dim > MAX_PYRAMID_ASSETS:
            raise ConfigError(
                f"pyramid model capped at {MAX_PYRAMID_ASSETS} assets (2^d components)")

    @property
    def default_components(self):
        return 2 ** self.dim

    def _payoff(self, x):
        spread = np.abs(self._terminal_prices(x) - self.asset_strikes).sum(axis=1)
        return np.exp(-self.r * self.maturity) * np.maximum(spread - self.strike, 0.0)

    def sign_patterns(self):
        d = self.dim
        grid = np.indices((2,) * d).reshape(d, -1).T
        return 1 - 2 * grid  # rows in {+1, -1}^d, all-plus first

    def approx_tilts(self):
        """One tilt per sign pattern of the 2^d positivity regions."""
        kbar = np.maximum(self.asset_strikes, self.s0 * np.exp(self.r * self.maturity))
        slack = max(self.strike - np.abs(kbar - self.asset_strikes).sum(), 0.0) / self.dim
        # keep the log argument positive for deep down-moves
        targets = np.maximum(kbar + self.sign_patterns() * slack, 1e-8 * self.s0)
        return self._tilts_to(self._log_moves(targets))


@dataclass
class CevDigital(Model):
    """Digital option on the better of two correlated CEV assets.

    Both assets are simulated by Euler discretization of the driftless
    discounted dynamics; the input space is the interleaved innovation
    vector (Z_1, R_1, ..., Z_n, R_n) with W-increment sqrt(dt)*Z and
    B-increment sqrt(dt)*(rho*Z + sqrt(1-rho^2)*R).  Negative states are
    clamped to zero and absorbed.
    """

    s0: float
    h0: float
    sigma1: float
    sigma2: float
    gamma1: float
    gamma2: float
    rho: float
    r: float
    maturity: float
    strike: float
    c1: float = 1.0
    c2: float = 1.0
    n_steps: int = 50

    name = "cev_digital"
    inits = ("approx",)
    default_components = 2

    def __post_init__(self):
        if not (0.5 <= self.gamma1 <= 1.0 and 0.5 <= self.gamma2 <= 1.0):
            raise ConfigError("gamma must lie in [0.5, 1]")
        if not -1.0 < self.rho < 1.0:
            raise ConfigError("rho must lie in (-1, 1)")
        if self.n_steps < 1:
            raise ConfigError("need at least one Euler step")
        if min(self.s0, self.h0, self.sigma1, self.sigma2, self.maturity, self.c1,
               self.c2) <= 0 or self.strike < 0:
            raise ConfigError("need s0, h0, sigma1, sigma2, maturity, c1, c2 > 0 and strike >= 0")

    @property
    def dim(self):
        return 2 * self.n_steps

    def _euler(self, x):
        """Terminal (S_T, H_T) of the rows of x by one Euler loop."""
        z = x[:, 0::2]
        resid = x[:, 1::2]
        dt = self.maturity / self.n_steps
        sqdt = np.sqrt(dt)
        root = np.sqrt(1.0 - self.rho ** 2)
        xs = np.full(x.shape[0], float(self.s0))
        ys = np.full(x.shape[0], float(self.h0))
        for i in range(self.n_steps):
            t = i * dt
            dw = sqdt * z[:, i]
            db = sqdt * (self.rho * z[:, i] + root * resid[:, i])
            cx = self.sigma1 * np.exp(-self.r * (1.0 - self.gamma1) * t) * xs ** self.gamma1
            cy = self.sigma2 * np.exp(-self.r * (1.0 - self.gamma2) * t) * ys ** self.gamma2
            xs = np.maximum(xs + cx * dw, 0.0)
            ys = np.maximum(ys + cy * db, 0.0)
        grow = np.exp(self.r * self.maturity)
        return grow * xs, grow * ys

    def _payoff(self, x):
        # undiscounted hit probability of the better asset reaching K
        s_t, h_t = self._euler(x)
        hit = np.maximum(self.c1 * s_t, self.c2 * h_t) >= self.strike
        return hit.astype(float)

    def _drift(self, sigma, gamma, s0, cost):
        """Constant Brownian drift pushing the mean terminal level to K/cost."""
        if gamma >= 1.0:
            raise ApproxUnavailable("analytic drift needs gamma < 1")
        target = np.exp(-self.r * self.maturity) * self.strike / cost
        return (self.r / sigma) * (target ** (1.0 - gamma) - s0 ** (1.0 - gamma)) \
            / (1.0 - np.exp(-self.r * (1.0 - gamma) * self.maturity))

    def approx_tilts(self):
        """Innovation-space mean shifts for drifting W (component 1) or B
        (component 2)."""
        dt = self.maturity / self.n_steps
        sqdt = np.sqrt(dt)
        root = np.sqrt(1.0 - self.rho ** 2)
        x_drift = self._drift(self.sigma1, self.gamma1, self.s0, self.c1)
        y_drift = self._drift(self.sigma2, self.gamma2, self.h0, self.c2)
        tilt_w = np.zeros(self.dim)
        tilt_w[0::2] = x_drift * sqdt
        tilt_b = np.zeros(self.dim)
        tilt_b[0::2] = self.rho * y_drift * sqdt
        tilt_b[1::2] = root * y_drift * sqdt
        return np.vstack([tilt_w, tilt_b])


def require_init(model, method: str, error=ConfigError):
    """Raise error unless the model (class or instance) lists method in its
    inits."""
    if method not in getattr(model, "inits", ()):
        raise error(f"{model.name} does not support init method {method!r}")
