"""Workload definitions, per-row references and the reference check.

A workload is a list of benchmark tables run row after row in one process
(a closed loop with one caller).  The rows come from
`experiments.table_configs(table, seed)`, so the program receives only the
configurations that the seed generates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

# Tables 1, 4, 5 and 7 are left out on purpose: table 1's perturbation
# collapse is stochastic by design, tables 5 and 7 are sub-second two-asset
# copies of tables 6 and 8, and table 4 works the same layers as table 9 at
# smaller d.
#
# tail-1d: large n, d=1; time goes to likelihood ratios and the final
#   estimator/baseline reductions, hardly to the CE update.
# cev-100d: d=100 Euler paths; time goes to the sampler, the per-coordinate
#   mixture update and the payoff; no rarity init.
# basket-4d: d=4 with up to m=16 components and INI_CE rarity rows; the
#   update and posteriors dominate, and stream collisions change results.
WORKLOADS = {
    "tail-1d": (2, 3),
    "cev-100d": (9,),
    "basket-4d": (6, 8),
}

# Row seeds one untraced run cycles through, pass after pass.  A row's
# rel_error is fixed by its seed, so rel_error_geomean over one seed swings
# with the seed: on basket-4d the INI_CE rows at K=60 and K=70 take 3-15
# rarity stages and their rel_error is up to 9x its median at some seeds.
# Over five seeds the geometric mean is steadier.
SUBSEEDS = {
    "tail-1d": 2,
    "cev-100d": 2,
    "basket-4d": 5,
}


def subseeds(seed: int, count: int) -> list:
    """The `count` row seeds of workload seed `seed`; disjoint per seed."""
    return [seed * count + j for j in range(count)]


# A row passes when |estimate - reference| <= K_SE * SE_diff plus half a unit
# in the reference's last printed digit.  SE_diff is the standard error of
# the difference: the row's SE for an exact reference, and SE * sqrt(2) for
# a paper value, which is itself a Monte Carlo estimate of the same size.
# The check runs at any seed, not at one frozen seed as the acceptance tests
# do, so K_SE sits above their 3-4 SE.  Over seeds 0-39, table 9 K=65 lies
# 1.0-5.6 row SEs beyond its allowance (mean 3.0): the printed 0.0039 sits
# about 3% below this code's estimate.
K_SE = 4.5

# Paper values, printed as in the paper (tables 6, 8, 9); the row order is
# that of experiments.table_configs.
PAPER_REFERENCES = {
    6: ("4.6841", "4.6722", "0.5271", "0.5284", "0.0360", "0.0362"),
    8: ("8.8209", "3.2507", "0.8504", "0.1713", "0.032"),
    9: ("0.8297", "0.1908", "0.0314", "0.0039", "3.3638e-4"),
}


def half_unit(printed: str) -> float:
    """Half a unit in the last printed digit of a decimal string."""
    return 0.5 * 10.0 ** Decimal(printed).as_tuple().exponent


@dataclass(frozen=True)
class Reference:
    """A row's reference value and how far an estimate may stray from it."""

    value: float
    allowance: float = 0.0  # rounding of the printed value
    exact: bool = True      # False for a Monte Carlo estimate

    @classmethod
    def printed(cls, text: str) -> "Reference":
        """A paper value as printed: rounded, and a Monte Carlo estimate."""
        return cls(float(text), half_unit(text), exact=False)

    def tolerance(self, std_error: float, k: float = K_SE) -> float:
        se_diff = std_error if self.exact else std_error * math.sqrt(2.0)
        return k * se_diff + self.allowance

    def accepts(self, estimate: float, std_error: float) -> bool:
        return abs(estimate - self.value) <= self.tolerance(std_error)


def references(table: int, configs) -> list:
    """One Reference per row of a table.

    Tables 2 and 3 price the two-sided normal tail, whose exact value is
    normal_cdf(-a) + normal_cdf(b).
    """
    from cemix.numerics import normal_cdf

    if table in (2, 3):
        return [Reference(float(normal_cdf(-c.model_params["a"])
                                + normal_cdf(c.model_params["b"])))
                for c in configs]
    printed = PAPER_REFERENCES[table]
    if len(printed) != len(configs):
        raise ValueError(f"table {table}: {len(configs)} rows but "
                         f"{len(printed)} references")
    return [Reference.printed(p) for p in printed]


def row_samples(cfg, init_stages: int) -> int:
    """Gaussian sample vectors one row draws.

    Rarity stages and CE iterations each draw one pilot; the final IS
    estimate and the plain-MC baseline each draw n_final.
    """
    return (init_stages + cfg.iterations) * cfg.pilot_size + 2 * cfg.n_final


def prepare(workload: str, seed: int):
    """Import cemix and build a workload's rows: (configs, references).

    This is the set-up a user pays before the first row can run; the
    models are built here once so that their construction is part of it.
    """
    from cemix import experiments

    configs, refs = [], []
    for table in WORKLOADS[workload]:
        rows = experiments.table_configs(table, seed)
        configs += rows
        refs += references(table, rows)
    for cfg in configs:
        experiments.build_model(cfg)
    return configs, refs
