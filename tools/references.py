"""Reference values of the benchmark tables 1-9, one per row in the row order
of experiments.table_configs.

Tables 1-3 price the two-sided normal tail P(X >= a) + P(X <= b), whose exact
value is normal_cdf(-a) + normal_cdf(b).  Tables 4-9 keep the paper's values
as printed; each is itself a Monte Carlo estimate, rounded to its last
printed digit.
"""

from dataclasses import dataclass

from cemix.numerics import normal_cdf

PAPER = {
    4: ("4.0766", "1.0179", "0.1917", "0.0309", "0.0045"),
    5: ("3.5898", "3.5825", "0.2768", "0.2763", "0.0093", "0.0093"),
    6: ("4.6841", "4.6722", "0.5271", "0.5284", "0.0360", "0.0362"),
    7: ("9.3417", "3.4025", "0.9050", "0.1930", "0.047"),
    8: ("8.8209", "3.2507", "0.8504", "0.1713", "0.032"),
    9: ("0.8297", "0.1908", "0.0314", "0.0039", "3.3638e-4"),
}


@dataclass(frozen=True)
class Reference:
    value: float
    exact: bool  # False for a paper value


def reference(cfg) -> Reference:
    """The reference of the table row that cfg configures."""
    if cfg.table in (1, 2, 3):
        a, b = cfg.model_params["a"], cfg.model_params["b"]
        return Reference(float(normal_cdf(-a) + normal_cdf(b)), exact=True)
    return Reference(float(PAPER[cfg.table][cfg.row]), exact=False)
