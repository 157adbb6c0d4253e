"""Reference values of the benchmark tables 1-9, one per row in the row order
of experiments.table_configs.

Tables 1-3 price the two-sided normal tail P(X >= a) + P(X <= b), whose exact
value is normal_cdf(-a) + normal_cdf(b).  Table 5 prices a call on the maximum
of two GBM assets, whose exact value is Stulz's (1982) closed form.  Tables 4
and 6-9 keep the paper's values as printed; each is itself a Monte Carlo
estimate, rounded to its last printed digit.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import multivariate_normal

from cemix.numerics import normal_cdf

PAPER = {
    4: ("4.0766", "1.0179", "0.1917", "0.0309", "0.0045"),
    6: ("4.6841", "4.6722", "0.5271", "0.5284", "0.0360", "0.0362"),
    7: ("9.3417", "3.4025", "0.9050", "0.1930", "0.047"),
    8: ("8.8209", "3.2507", "0.8504", "0.1713", "0.032"),
    9: ("0.8297", "0.1908", "0.0314", "0.0039", "3.3638e-4"),
}


@dataclass(frozen=True)
class Reference:
    value: float
    exact: bool  # False for a paper value


def bivariate_normal_cdf(a: float, b: float, rho: float) -> float:
    """P(X <= a, Y <= b) for standard normals of correlation rho, by scipy's
    multivariate normal CDF with a fixed seed for its integration rule."""
    return float(multivariate_normal.cdf([a, b], cov=[[1.0, rho], [rho, 1.0]], abseps=1e-12,
                                         releps=0.0, rng=np.random.default_rng(0)))


def max_call(s0, sigmas, corr, r, maturity, strike) -> float:
    """Stulz's (1982) price of the call (max(S_T^1, S_T^2) - K)^+ on two GBM
    assets with no dividends, discounted at r: the RainbowOption of two assets."""
    (s1, s2), (v1, v2), rho = s0, sigmas, corr[0][1]
    root = math.sqrt(maturity)
    v = math.sqrt(v1 * v1 + v2 * v2 - 2.0 * rho * v1 * v2)  # volatility of log(S1/S2)
    d = (math.log(s1 / s2) + 0.5 * v * v * maturity) / (v * root)
    y1 = (math.log(s1 / strike) + (r + 0.5 * v1 * v1) * maturity) / (v1 * root)
    y2 = (math.log(s2 / strike) + (r + 0.5 * v2 * v2) * maturity) / (v2 * root)
    both_below = bivariate_normal_cdf(-y1 + v1 * root, -y2 + v2 * root, rho)
    return (s1 * bivariate_normal_cdf(y1, d, (v1 - rho * v2) / v)
            + s2 * bivariate_normal_cdf(y2, v * root - d, (v2 - rho * v1) / v)
            - strike * math.exp(-r * maturity) * (1.0 - both_below))


def reference(cfg) -> Reference:
    """The reference of the table row that cfg configures."""
    if cfg.table in (1, 2, 3):
        a, b = cfg.model_params["a"], cfg.model_params["b"]
        return Reference(float(normal_cdf(-a) + normal_cdf(b)), exact=True)
    if cfg.table == 5:
        return Reference(max_call(**cfg.model_params), exact=True)
    return Reference(float(PAPER[cfg.table][cfg.row]), exact=False)
