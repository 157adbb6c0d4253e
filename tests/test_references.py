import sys
from pathlib import Path

import pytest

from cemix.experiments import RAINBOW_2, table_configs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from references import max_call, reference  # noqa: E402


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
