import math
import sys
from pathlib import Path

import numpy as np
import pytest

from cemix.experiments import ASIAN, RAINBOW_2, table_configs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from references import (  # noqa: E402
    TABLE_4_CV,
    asian_call_cv,
    geometric_asian_call,
    max_call,
    reference,
)


class TestMaxCall:
    @pytest.mark.parametrize("strike, price", [(50.0, 3.580167), (60.0, 0.275596),
                                               (70.0, 0.0092979)])
    def test_table_5_prices(self, strike, price):
        # Stulz's closed form for RAINBOW_2, as checked against a 4e7-path direct Monte Carlo
        assert max_call(strike=strike, **RAINBOW_2) == pytest.approx(price, abs=1e-5)

    def test_table_5_reference_is_exact(self):
        for cfg in table_configs(5):
            ref = reference(cfg)
            assert ref.exact
            assert ref.value == max_call(**cfg.model_params)


class TestAsianCallCv:
    def test_geometric_closed_form(self):
        # against a plain Monte Carlo of the geometric-average payoff over Brownian paths
        p, n = ASIAN, 200_000
        dt = p["maturity"] / p["n_dates"]
        t = dt * np.arange(1, p["n_dates"] + 1)
        w = np.cumsum(np.random.default_rng(3).standard_normal((n, p["n_dates"])), axis=1)
        g = p["s0"] * np.exp(((p["r"] - 0.5 * p["sigma"] ** 2) * t
                              + p["sigma"] * math.sqrt(dt) * w).mean(axis=1))
        for strike in (40.0, 50.0, 60.0, 70.0):
            payoff = math.exp(-p["r"] * p["maturity"]) * np.maximum(g - strike, 0.0)
            exact = geometric_asian_call(strike=strike, **p)
            assert abs(payoff.mean() - exact) <= 4 * payoff.std() / math.sqrt(n), strike

    def test_table_4_literals(self):
        # a 200k-path recomputation at another seed: each value within 4 SE of the
        # difference, each SE that of 4M paths
        strikes = tuple(TABLE_4_CV)
        for strike, (value, se) in zip(strikes, asian_call_cv(strikes, 200_000, 2, **ASIAN)):
            ref, ref_se = TABLE_4_CV[strike]
            assert abs(value - ref) <= 4 * math.hypot(se, ref_se), strike
            assert se / math.sqrt(20.0) == pytest.approx(ref_se, rel=0.25), strike

    def test_table_4_references(self):
        # K = 50, 60 and 70 take the control-variate values, whose z adds both SEs;
        # K = 80 and 90 keep the paper's, with the row SE times sqrt(2)
        refs = [reference(cfg) for cfg in table_configs(4)]
        assert [(ref.value, ref.se) for ref in refs[:3]] == list(TABLE_4_CV.values())
        assert [ref.value for ref in refs[3:]] == [0.0309, 0.0045]
        assert not any(ref.exact for ref in refs) and refs[3].se is None
        assert refs[0].se_diff(3e-4) == pytest.approx(math.hypot(3e-4, 1.3e-4))
        assert refs[3].se_diff(3e-4) == pytest.approx(3e-4 * math.sqrt(2.0))
