"""Reference values of the benchmark tables 1-9, one per row in the row order
of experiments.table_configs.

Tables 1-3 price the two-sided normal tail P(X >= a) + P(X <= b), whose exact
value is normal_cdf(-a) + normal_cdf(b).  Table 5 prices a call on the maximum
of two GBM assets, whose exact value is Stulz's (1982) closed form.  Tables 4
and 6-9 keep the paper's values as printed; each is itself a Monte Carlo
estimate, rounded to its last printed digit.

Table 4's arithmetic-average calls at K = 50, 60 and 70 have precise Monte
Carlo values instead, TABLE_4_CV, from numpy's own generator with the geometric-
average call as control variate (Kemna & Vorst, 1990); K = 80 and 90 keep the
paper's, since 4M paths are not sharper than those rows.
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


# (value, SE) per strike of table 4, from asian_call_cv((50.0, 60.0, 70.0),
# 4_000_000, 12345, **cemix.experiments.ASIAN)
TABLE_4_CV = {50.0: (4.078571, 1.3e-4), 60.0: (1.020284, 1.1e-4), 70.0: (0.192894, 9.1e-5)}


@dataclass(frozen=True)
class Reference:
    value: float
    exact: bool  # False for a Monte Carlo value
    se: float | None = None  # of a Monte Carlo value computed here; None for a paper value

    def se_diff(self, row_se: float) -> float:
        """The SE of a row's estimate - value: the row's own against an exact value, its
        hypot with this value's SE, or row_se * sqrt(2) against a paper value, whose SE is
        not printed."""
        if self.exact:
            return row_se
        return row_se * math.sqrt(2.0) if self.se is None else math.hypot(row_se, self.se)


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


def geometric_asian_call(s0, r, sigma, maturity, n_dates, strike) -> float:
    """The discretely monitored geometric-average call e^(-rT) E[(G - K)^+], G the
    geometric mean of the GBM prices S(t_i) at t_i = i*T/n_dates.  log G is normal, with
    mean log s0 + (r - sigma^2/2) mean(t) and variance sigma^2 sum_ij min(t_i, t_j) / n^2."""
    t = maturity * np.arange(1, n_dates + 1) / n_dates
    mean = math.log(s0) + (r - 0.5 * sigma * sigma) * t.mean()
    sd = sigma * math.sqrt(np.minimum.outer(t, t).sum()) / n_dates
    d = (mean - math.log(strike)) / sd
    return float(math.exp(-r * maturity) * (math.exp(mean + 0.5 * sd * sd) * normal_cdf(d + sd)
                                            - strike * normal_cdf(d)))


def asian_call_cv(strikes, n_paths, seed, s0, r, sigma, maturity, n_dates) -> list:
    """(value, SE) per strike of the arithmetic-average call (AsianCall at the uniform dates)
    on n_paths GBM paths from numpy's default_rng(seed), with the geometric-average call of
    the same paths as control variate and its coefficient fitted on them."""
    rng = np.random.default_rng(seed)
    t = maturity * np.arange(1, n_dates + 1) / n_dates
    drift = math.log(s0) + (r - 0.5 * sigma * sigma) * t
    vol = sigma * np.sqrt(np.diff(t, prepend=0.0))
    disc = math.exp(-r * maturity)
    sums = np.zeros((len(strikes), 5))  # per strike: sums of A, G, A^2, G^2 and A*G
    for lo in range(0, n_paths, 100_000):  # 100k paths at a time
        logs = drift + np.cumsum(vol * rng.standard_normal((min(100_000, n_paths - lo), n_dates)),
                                 axis=1)
        arithmetic, geometric = np.exp(logs).mean(axis=1), np.exp(logs.mean(axis=1))
        for row, strike in zip(sums, strikes):
            a = disc * np.maximum(arithmetic - strike, 0.0)
            g = disc * np.maximum(geometric - strike, 0.0)
            row += (a.sum(), g.sum(), a @ a, g @ g, a @ g)
    out = []
    for (sa, sg, saa, sgg, sag), strike in zip(sums / n_paths, strikes):
        cov, var_g = sag - sa * sg, sgg - sg * sg
        beta = cov / var_g
        exact = geometric_asian_call(s0, r, sigma, maturity, n_dates, strike)
        residual = saa - sa * sa - beta * cov  # var(A - beta G)
        out.append((sa - beta * (sg - exact), math.sqrt(residual / n_paths)))
    return out


def reference(cfg) -> Reference:
    """The reference of the table row that cfg configures."""
    if cfg.table in (1, 2, 3):
        a, b = cfg.model_params["a"], cfg.model_params["b"]
        return Reference(float(normal_cdf(-a) + normal_cdf(b)), exact=True)
    if cfg.table == 5:
        return Reference(max_call(**cfg.model_params), exact=True)
    if cfg.table == 4 and cfg.model_params["strike"] in TABLE_4_CV:
        value, se = TABLE_4_CV[cfg.model_params["strike"]]
        return Reference(value, exact=False, se=se)
    return Reference(float(PAPER[cfg.table][cfg.row]), exact=False)
