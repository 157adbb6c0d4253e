"""Payoff models on standard-normal input spaces.

Each model maps a batch of iid N(0, I_d) inputs to nonnegative discounted
payoffs and names the initializers it supports in its `inits` tuple:

* "perturbation" needs nothing beyond `dim` and `default_components`,
* "rarity_ce" needs a rarity embedding: `rarity_levels(x)`, the (n, k)
  rarity parameter each sample reaches, and `rarity_payoff(delta, x)`, the
  delta-scaled payoff, which the rarity stage of `initialization` keeps on
  the rows whose level j reaches delta_j for some j,
* "approx" needs an analytical initialization map (`approx_tilts`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ApproxUnavailable, ConfigError
from .mixture import _as_batch
from .numerics import _block_rows, _blocks, _fold_columns, _map, bisect_root, cholesky

MAX_PYRAMID_ASSETS = 10  # 2^d mixture components; memory/pilot-coverage cap

# bound on the volatility scale sigma*sqrt(T) and the rate scale |r|*T: what a model
# exponentiates or steps through its Euler scheme then stays finite.  Far above any
# market's, far below the 709 at which exp overflows.
MAX_SCALE = 10.0


@np.errstate(over="ignore")  # an overflowed scale is an unbounded one
def _require_scales(maturity, sigmas, r=0.0):
    """Raise ConfigError unless every sigma*sqrt(maturity) and |r|*maturity is finite and
    at most MAX_SCALE."""
    for name, scale in (("sigma*sqrt(maturity)", np.multiply(sigmas, np.sqrt(maturity))),
                        ("|r|*maturity", np.abs(r) * maturity)):
        if not np.all(np.abs(scale) <= MAX_SCALE):  # NaN fails too
            raise ConfigError(f"need {name} finite and at most {MAX_SCALE:g}, got {scale}")


class Model:
    """Base of the payoff models.  A model's _payoff is a row kernel (row i of its
    output depends on row i of x only) that calls only private helpers and returns
    a new float64 vector of len(x) values, which the caller may overwrite."""

    def payoff(self, x) -> np.ndarray:
        """Payoffs of the rows of x: _payoff over final-pass _blocks on the pool."""
        x = _as_batch(x, self.dim)
        out = np.empty(len(x))
        def block(rows):
            out[rows] = self._payoff(x[rows])
        _map(block, _blocks(len(x), _block_rows(self.dim)))
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

        The rarity stage compares these levels with delta, in delta space,
        rather than x with delta*a, where rounding in (x/a)*a could drop the
        very sample that set delta.
        """
        with np.errstate(over="ignore"):  # past a tiny a or b: an infinite level
            return _as_batch(x, 1) / np.array([self.a, self.b])

    def rarity_payoff(self, delta, x):
        """The delta-scaled event is the set itself: 1 on every row."""
        return np.ones(len(x))

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
        _require_scales(self.maturity, self.sigma, self.r)
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

    @np.errstate(over="ignore")  # a mean price past the doubles is an infinite payoff
    def _payoff(self, x):
        drift = (self.r - 0.5 * self.sigma ** 2) * self.times
        bridge = np.cumsum(self._sqdt * x, axis=1)
        mean_price = (self.s0 * np.exp(drift[None, :] + self.sigma * bridge)).mean(axis=1)
        return np.exp(-self.r * self.maturity) * np.maximum(mean_price - self.strike, 0.0)

    def approx_tilts(self):
        """Constant shift a with E[average price] = K under N(a*1, I)."""
        drift = (self.r - 0.5 * self.sigma ** 2) * self.times
        csq = np.cumsum(self._sqdt)

        @np.errstate(over="ignore")  # an overflowed price is an infinite gap
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
        _require_scales(self.maturity, self.sigmas, self.r)
        self.corr = np.asarray(self.corr, dtype=float)
        if self.corr.shape != (self.dim, self.dim):
            raise ConfigError(f"corr must be {self.dim}x{self.dim}, got shape {self.corr.shape}")
        if not np.allclose(np.diag(self.corr), 1.0):
            raise ConfigError("correlation matrix must have unit diagonal")
        self.chol = cholesky(self.corr)

    @property
    def dim(self):
        return self.s0.size

    @np.errstate(over="ignore")  # a price past the doubles is inf
    def _terminal_prices(self, x):
        """Undiscounted S_T^(j) per sample and asset, worked in place one asset at a time."""
        prices = _as_batch(x, self.dim) @ self.chol.T
        drift = (self.r - 0.5 * self.sigmas ** 2) * self.maturity
        vol = self.sigmas * np.sqrt(self.maturity)
        for column, v, mu, s0 in zip(prices.T, vol, drift, self.s0):
            column *= v
            column += mu
            np.exp(column, out=column)
            column *= s0
        return prices

    def _log_moves(self, target):
        """Per asset, the standardized log move (log(target/s0) - rT)/(sigma sqrt(T))
        of the driving normal that sets the mean terminal price to target."""
        return (np.log(target / self.s0) - self.r * self.maturity) \
            / (self.sigmas * np.sqrt(self.maturity))

    def _tilts_to(self, moves):
        """Input-space tilts whose correlated moves (chol @ tilt) are the rows of moves, by
        forward substitution in LAPACK's row order, each step one dot of contiguous rows."""
        tilts = np.zeros((len(moves), self.dim))  # C-ordered whatever the order of moves
        for move, tilt in zip(moves, tilts):
            for i, row in enumerate(self.chol):
                tilt[i] = (move[i] - row[:i] @ tilt[:i]) / row[i]
        return tilts


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
        prices = self._terminal_prices(x)
        prices *= disc
        return np.maximum(_fold_columns(np.maximum, prices.T) - disc * self.strike, 0.0)

    @np.errstate(over="ignore")  # a level past the doubles is inf
    def rarity_levels(self, x):
        """(n, d) rarity reached per asset: terminal price over strike."""
        return self._terminal_prices(x) / self.strike

    # an inf price at an inf delta: a NaN payoff, and mass
    @np.errstate(over="ignore", invalid="ignore")
    def rarity_payoff(self, delta, x):
        """(max_j disc*S_T^(j) - disc*delta_j*K)^+ per row."""
        disc = np.exp(-self.r * self.maturity)
        strikes = disc * np.broadcast_to(delta, self.dim) * self.strike
        h = _fold_columns(np.maximum, (disc * p - k for p, k in
                                       zip(self._terminal_prices(x).T, strikes)))
        return np.maximum(h, 0.0)

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
        prices = self._terminal_prices(x)
        for column, strike in zip(prices.T, self.asset_strikes):
            np.abs(np.subtract(column, strike, out=column), out=column)
        spread = prices.sum(axis=1)  # numpy's row sum: a left fold moves bits from 8 assets on
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
        _require_scales(self.maturity, [self.sigma1, self.sigma2], self.r)

    @property
    def dim(self):
        return 2 * self.n_steps

    def _euler(self, x):
        """Terminal (S_T, H_T) of the rows of x: s = max(s + sigma e^(-r(1-gamma)t) s^gamma dW, 0)
        per step, in that order, in place but for s^gamma; each column of x is read once."""
        dt = self.maturity / self.n_steps
        sqdt = np.sqrt(dt)
        root = np.sqrt(1.0 - self.rho ** 2)
        xs = np.full(x.shape[0], float(self.s0))
        ys = np.full(x.shape[0], float(self.h0))
        z, dw, db = np.empty((3, x.shape[0]))
        for i in range(self.n_steps):
            t = i * dt
            np.copyto(z, x[:, 2 * i])
            np.multiply(sqdt, z, out=dw)
            np.multiply(self.rho, z, out=db)
            db += np.multiply(root, x[:, 2 * i + 1], out=z)
            db *= sqdt
            for s, dv, sigma, gamma in ((xs, dw, self.sigma1, self.gamma1),
                                        (ys, db, self.sigma2, self.gamma2)):
                c = s ** gamma  # numpy's sqrt fast path at gamma = 0.5
                c *= sigma * np.exp(-self.r * (1.0 - gamma) * t)
                c *= dv
                c += s
                np.maximum(c, 0.0, out=s)
        grow = np.exp(self.r * self.maturity)
        return grow * xs, grow * ys

    def _payoff(self, x):
        # undiscounted hit probability of the better asset reaching K; a level past the
        # doubles is inf, which reaches any K, or NaN once inf meets -inf, which reaches none
        with np.errstate(over="ignore", invalid="ignore"):
            s_t, h_t = self._euler(x)
            hit = np.maximum(self.c1 * s_t, self.c2 * h_t) >= self.strike
        return hit.astype(float)

    def _drift(self, sigma, gamma, s0, cost):
        """Constant Brownian drift pushing the mean terminal level to K/cost."""
        if gamma >= 1.0:
            raise ApproxUnavailable("analytic drift needs gamma < 1")
        target = np.exp(-self.r * self.maturity) * self.strike / cost
        lift = target ** (1.0 - gamma) - s0 ** (1.0 - gamma)
        rate = self.r * (1.0 - gamma) * self.maturity
        if abs(rate) < 1e-5:  # 1 - exp(-rate) cancels here, -expm1(-rate) does not
            limit = lift / (sigma * (1.0 - gamma) * self.maturity)  # the r -> 0 limit
            span = -np.expm1(-rate)
            return limit if span == 0.0 else limit * (rate / span)
        return (self.r / sigma) * lift / (1.0 - np.exp(-rate))

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

