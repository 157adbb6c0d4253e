import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cemix.errors import ConfigError, DimensionMismatch, EmbeddingUnavailable
from cemix.experiments import PYRAMID_2, PYRAMID_4, RAINBOW_2, RAINBOW_4, STRIKE_TABLES
from cemix.initialization import RarityConfig, init_rarity_ce, rarity_delta
from cemix.mixture import MixtureParam
from cemix.models import (
    AsianCall,
    CevDigital,
    Model,
    PyramidOption,
    RainbowOption,
    TwoSidedTail,
)
from cemix.numerics import _block_rows, normal_cdf
from cemix.rng import RngStream
from oracles import cev_paths, normals, pyramid_tilts, rainbow_tilts


class TestTwoSidedTail:
    def test_indicator_values(self):
        model = TwoSidedTail(a=1.0, b=-1.5)
        x = np.array([[1.0], [0.99], [-1.5], [-1.49], [0.0], [5.0]])
        np.testing.assert_array_equal(model.payoff(x), [1, 0, 1, 0, 0, 1])

    def test_three_dimensional_batch_rejected(self):
        with pytest.raises(DimensionMismatch):
            TwoSidedTail(a=1.0, b=-1.0).payoff(np.zeros((5, 1, 3)))

    def test_mean_matches_cdf_oracle(self):
        model = TwoSidedTail(a=2.0, b=-2.5)
        x = normals(RngStream(1), 1_000_000, 1)
        truth = normal_cdf(-2.0) + normal_cdf(-2.5)
        se = math.sqrt(truth * (1 - truth) / 1_000_000)
        assert abs(model.payoff(x).mean() - truth) <= 4 * se

    def test_invalid_bounds(self):
        with pytest.raises(ConfigError):
            TwoSidedTail(a=-1.0, b=-2.0)

    def test_approx_tilts(self):
        np.testing.assert_array_equal(TwoSidedTail(2.0, -3.0).approx_tilts(),
                                      [[2.0], [-3.0]])


class TestRarityDeltas:
    def test_two_sided_order_statistics(self):
        samples = np.concatenate([np.arange(1, 101), -np.arange(1, 101)]) / 100.0
        levels = TwoSidedTail(a=1.0, b=-1.0).rarity_levels(samples[:, None])
        delta = rarity_delta(levels, n0=10, prev=[0.0, 0.0])
        # 10th largest is 0.91, 10th smallest is -0.91
        np.testing.assert_allclose(delta, [0.91, 0.91])

    def test_monotone_clamp(self):
        samples = np.linspace(-0.5, 0.5, 100)
        levels = TwoSidedTail(a=1.0, b=-1.0).rarity_levels(samples[:, None])
        delta = rarity_delta(levels, n0=5, prev=[0.9, 0.9])
        np.testing.assert_array_equal(delta, [0.9, 0.9])

    def test_rainbow_per_asset(self):
        prices = np.column_stack([np.arange(1.0, 101.0), np.arange(101.0, 201.0)])
        # the rainbow's rarity level is the terminal price over the strike
        delta = rarity_delta(prices / 100.0, n0=10, prev=np.zeros(2))
        np.testing.assert_allclose(delta, [0.91, 1.91])

    def test_rarity_payoff_recovers_indicator_at_one(self):
        model = TwoSidedTail(a=1.5, b=-2.0)
        x = normals(RngStream(2), 10_000, 1)
        np.testing.assert_array_equal(model.rarity_payoff(np.array([1.0, 1.0]), x),
                                      model.payoff(x))

    def test_sample_setting_delta_is_member(self):
        # for this sample (x/b)*b rounds below x; it sets delta[1] and must
        # still count as reaching the delta-scaled set
        model = TwoSidedTail(a=2.0, b=-2.5)
        x = np.array([[-3.069274373323133], [0.0], [5.0]])
        levels = model.rarity_levels(x)
        delta = rarity_delta(levels, 1, np.zeros(2))
        np.testing.assert_array_equal(levels >= delta,
                                      [[False, True], [False, False], [True, False]])
        np.testing.assert_array_equal(model.rarity_payoff(delta, x), [1.0, 0.0, 1.0])
        # rainbow: r = sigma^2/2 puts x = 0 at prices s0 exactly; that row
        # sets both deltas, reaches both sets, and for this s0 its
        # delta-scaled payoff disc*S - disc*delta*K rounds above zero
        model = RainbowOption(s0=[58.2051153243211, 45.0], sigmas=[0.5, 0.5],
                              corr=np.eye(2), r=0.125, maturity=1.0, strike=60.0)
        x = np.array([[0.0, 0.0], [-1.0, -1.0], [-0.5, -2.0]])
        levels = model.rarity_levels(x)
        delta = rarity_delta(levels, 1, np.zeros(2))
        np.testing.assert_array_equal(delta, model.s0 / 60.0)
        np.testing.assert_array_equal(levels >= delta,
                                      [[True, True], [False, False], [False, False]])
        payoff = model.rarity_payoff(delta, x)
        assert payoff[0] > 0.0 and np.all(payoff[1:] == 0.0)

    def test_rarity_payoff_monotone_in_delta(self):
        model = TwoSidedTail(a=1.5, b=-2.0)
        x = normals(RngStream(3), 10_000, 1)
        easy = model.rarity_payoff(np.array([0.3, 0.3]), x)
        hard = model.rarity_payoff(np.array([0.9, 0.9]), x)
        assert np.all(easy >= hard)

    def test_embedding_unavailable(self):
        model = AsianCall(s0=50, r=0.05, sigma=0.3, maturity=1.0, n_dates=4, strike=50)
        with pytest.raises(EmbeddingUnavailable):
            init_rarity_ce(model, RarityConfig(), MixtureParam.single(np.zeros(4)),
                           RngStream(6, phase="init"))


class TestAsianCall:
    def make(self, strike=50.0, sigma=0.3, n_dates=30):
        return AsianCall(s0=50.0, r=0.05, sigma=sigma, maturity=1.0,
                         n_dates=n_dates, strike=strike)

    def test_two_date_hand_formula(self):
        model = self.make(strike=45.0, n_dates=2)
        x = np.array([[0.3, -0.2]])
        dt = 0.5
        s1 = 50.0 * math.exp((0.05 - 0.045) * dt + 0.3 * math.sqrt(dt) * 0.3)
        s2 = s1 * math.exp((0.05 - 0.045) * dt + 0.3 * math.sqrt(dt) * -0.2)
        expect = math.exp(-0.05) * max(0.5 * (s1 + s2) - 45.0, 0.0)
        assert abs(model.payoff(x)[0] - expect) <= 1e-12

    def test_zero_volatility_limit(self):
        model = self.make(strike=45.0, sigma=1e-10)
        det = 50.0 * np.exp((0.05 - 0.5e-20) * model.times)
        expect = math.exp(-0.05) * max(det.mean() - 45.0, 0.0)
        assert abs(model.payoff(np.zeros((1, 30)))[0] - expect) <= 1e-8

    def test_payoff_monotone_in_inputs(self):
        model = self.make()
        x = normals(RngStream(4), 100, 30)
        assert np.all(model.payoff(x + 0.5) >= model.payoff(x))

    def test_approx_tilt_solves_mean_price_equation(self):
        for strike in (40.0, 50.0, 90.0):
            model = self.make(strike=strike)
            a = model.approx_tilts()[0, 0]
            drift = (0.05 - 0.5 * 0.09) * model.times
            csq = np.cumsum(model._sqdt)
            mean_price = np.mean(50.0 * np.exp(drift + 0.3 * csq * a))
            assert abs(mean_price - strike) <= strike * 1e-8

    def test_approx_tilt_sign(self):
        assert self.make(strike=90.0).approx_tilts()[0, 0] > 0
        assert self.make(strike=30.0).approx_tilts()[0, 0] < 0

    def test_bad_dates(self):
        with pytest.raises(ConfigError):
            AsianCall(s0=50, r=0.05, sigma=0.3, maturity=1.0, n_dates=2,
                      strike=50, times=[0.5, 0.4])

    @pytest.mark.parametrize("bad", [{"s0": -50.0}, {"strike": -5.0}, {"strike": 0.0},
                                     {"sigma": 0.0}, {"maturity": 0.0}])
    def test_parameter_ranges(self, bad):
        # with a negative s0 or strike, approx_tilts' bracket search has no root to find
        params = dict(s0=50.0, r=0.05, sigma=0.3, maturity=1.0, n_dates=30, strike=50.0)
        with pytest.raises(ConfigError):
            AsianCall(**{**params, **bad})


@pytest.mark.parametrize("cls, params, strikes, oracle", [
    (RainbowOption, RAINBOW_2, (50.0, 60.0, 70.0, 45.0, 75.0), rainbow_tilts),
    (RainbowOption, RAINBOW_4, (50.0, 60.0, 70.0, 45.0, 75.0), rainbow_tilts),
    (PyramidOption, PYRAMID_2, STRIKE_TABLES[7][2] + (45, 75), pyramid_tilts),
    (PyramidOption, PYRAMID_4, STRIKE_TABLES[8][2] + (45, 75), pyramid_tilts),
], ids=["rainbow-2", "rainbow-4", "pyramid-2", "pyramid-4"])
def test_gbm_tilt_map_matches_solve_loops(cls, params, strikes, oracle):
    # the one price-to-tilt map of CorrelatedGbm gives the bits of the
    # per-asset and per-pattern solve loops, at the table strikes and beyond
    for strike in strikes:
        model = cls(strike=float(strike), **params)
        np.testing.assert_array_equal(model.approx_tilts(), oracle(model))


class TestRainbowOption:
    def make2(self, strike=60.0):
        return RainbowOption(s0=[50.0, 45.0], sigmas=[0.1, 0.15],
                             corr=[[1.0, 0.2], [0.2, 1.0]], r=0.03,
                             maturity=1.0, strike=strike)

    def test_hand_formula_two_assets(self):
        model = self.make2()
        x = np.array([[0.7, -0.4]])
        c21, c22 = 0.2, math.sqrt(0.96)
        y1 = 0.7
        y2 = c21 * 0.7 + c22 * -0.4
        s1 = 50.0 * math.exp((0.03 - 0.005) + 0.1 * y1)
        s2 = 45.0 * math.exp((0.03 - 0.01125) + 0.15 * y2)
        expect = max(math.exp(-0.03) * max(s1, s2) - math.exp(-0.03) * 60.0, 0.0)
        assert abs(model.payoff(x)[0] - expect) <= 1e-10

    def test_deep_in_the_money_floor(self):
        model = self.make2(strike=1.0)
        pay = model.payoff(np.zeros((1, 2)))[0]
        s1 = 50.0 * math.exp(0.03 - 0.005)
        assert abs(pay - math.exp(-0.03) * (s1 - 1.0)) <= 1e-10

    def test_approx_tilt_hits_strike(self):
        model = self.make2(strike=70.0)
        tilts = model.approx_tilts()
        for j in range(2):
            prices = model._terminal_prices(tilts[j][None, :])[0]
            # asset j's price under its own tilt lands on K up to the
            # half-variance term absorbed into the construction
            eta = model.chol @ tilts[j]
            lifted = model.s0[j] * math.exp(model.r + model.sigmas[j] * eta[j])
            assert abs(lifted - 70.0) <= 1e-8
            assert prices[j] > prices[1 - j]

    def test_bad_corr(self):
        with pytest.raises(ConfigError):
            RainbowOption(s0=[50.0], sigmas=[0.1], corr=[[0.9]], r=0.03,
                          maturity=1.0, strike=50.0)

    @pytest.mark.parametrize("bad", [{"maturity": -1.0}, {"sigmas": [0.1, 0.0]},
                                     {"s0": [50.0, -45.0]}, {"strike": 0.0}])
    def test_parameter_ranges(self, bad):
        params = dict(s0=[50.0, 45.0], sigmas=[0.1, 0.15], corr=[[1.0, 0.2], [0.2, 1.0]],
                      r=0.03, maturity=1.0, strike=60.0)
        with pytest.raises(ConfigError):
            RainbowOption(**{**params, **bad})

    def test_membership_matches_prices(self):
        model = self.make2()
        x = normals(RngStream(5), 1000, 2)
        member = model.rarity_levels(x) >= np.array([0.8, 0.8])
        prices = model._terminal_prices(x)
        np.testing.assert_array_equal(member, prices > 0.8 * 60.0)


class TestPyramidOption:
    def make2(self, strike=30.0):
        return PyramidOption(s0=[50.0, 45.0], sigmas=[0.2, 0.25],
                             asset_strikes=[55.0, 50.0],
                             corr=[[1.0, 0.3], [0.3, 1.0]], r=0.03,
                             maturity=1.0, strike=strike)

    def test_hand_formula(self):
        model = self.make2()
        x = np.array([[1.2, -0.8]])
        c21, c22 = 0.3, math.sqrt(0.91)
        y = np.array([1.2, c21 * 1.2 + c22 * -0.8])
        s = np.array([50.0, 45.0]) * np.exp(
            (0.03 - 0.5 * np.array([0.04, 0.0625])) + np.array([0.2, 0.25]) * y)
        expect = math.exp(-0.03) * max(abs(s[0] - 55.0) + abs(s[1] - 50.0) - 30.0, 0.0)
        assert abs(model.payoff(x)[0] - expect) <= 1e-10

    def test_out_of_the_money_zero(self):
        model = self.make2(strike=500.0)
        assert model.payoff(np.zeros((2, 2))).sum() == 0.0

    def test_sign_patterns(self):
        patterns = self.make2().sign_patterns()
        assert patterns.shape == (4, 2)
        np.testing.assert_array_equal(patterns[0], [1, 1])
        assert len({tuple(p) for p in patterns}) == 4

    def test_approx_tilts_all_plus_reaches_strike(self):
        model = self.make2(strike=40.0)
        tilt = model.approx_tilts()[0]
        prices = model._terminal_prices(tilt[None, :])[0]
        spread = np.abs(prices - model.asset_strikes).sum()
        # the all-plus tilt is built to put the spread at the strike, up to
        # the half-variance term dropped by the approximation
        assert spread >= 40.0 * 0.8

    def test_bad_corr(self):
        with pytest.raises(ConfigError):
            PyramidOption(s0=[50.0, 45.0], sigmas=[0.2, 0.25], asset_strikes=[55.0, 50.0],
                          corr=[[2.0, 0.3], [0.3, 2.0]], r=0.03, maturity=1.0,
                          strike=30.0)

    @pytest.mark.parametrize("bad", [{"maturity": 0.0}, {"sigmas": [0.0, 0.25]},
                                     {"s0": [0.0, 45.0]}])
    def test_parameter_ranges(self, bad):
        params = dict(s0=[50.0, 45.0], sigmas=[0.2, 0.25], asset_strikes=[55.0, 50.0],
                      corr=[[1.0, 0.3], [0.3, 1.0]], r=0.03, maturity=1.0, strike=30.0)
        with pytest.raises(ConfigError):
            PyramidOption(**{**params, **bad})

    def test_component_count_and_cap(self):
        assert self.make2().default_components == 4
        with pytest.raises(ConfigError):
            PyramidOption(s0=np.ones(11), sigmas=np.full(11, 0.2),
                          asset_strikes=np.ones(11), corr=np.eye(11),
                          r=0.03, maturity=1.0, strike=1.0)


class TestCevDigital:
    def make(self, strike=55.0, **kw):
        params = dict(s0=50.0, h0=48.0, sigma1=0.3, sigma2=0.35, gamma1=0.5,
                      gamma2=0.7, rho=0.3, r=0.03, maturity=1.0, strike=strike,
                      n_steps=50)
        params.update(kw)
        return CevDigital(**params)

    def test_zero_innovations_hold_levels(self):
        model = self.make()
        s_t, h_t = model._euler(np.zeros((1, 100)))
        grow = math.exp(0.03)
        assert abs(s_t[0] - 50.0 * grow) <= 1e-12
        assert abs(h_t[0] - 48.0 * grow) <= 1e-12

    def test_trivial_strikes(self):
        x = normals(RngStream(6), 200, 100)
        assert np.all(self.make(strike=0.0).payoff(x) == 1.0)
        assert np.all(self.make(strike=1e9).payoff(x) == 0.0)

    def test_gbm_limit_matches_euler_oracle(self):
        # gamma = 1 reduces to GBM; replicate the Euler recursion directly
        model = self.make(gamma1=1.0, gamma2=1.0, rho=0.0, n_steps=8)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 16))
        s_t, h_t = model._euler(x)
        dt = 1.0 / 8
        for i in range(5):
            s, h = 50.0, 48.0
            for k in range(8):
                s = max(s + 0.3 * s * math.sqrt(dt) * x[i, 2 * k], 0.0)
                h = max(h + 0.35 * h * math.sqrt(dt) * x[i, 2 * k + 1], 0.0)
            assert abs(s_t[i] - s * math.exp(0.03)) <= 1e-12 * max(s, 1.0)
            assert abs(h_t[i] - h * math.exp(0.03)) <= 1e-12 * max(h, 1.0)

    def test_row_blocks_match_whole_batch_loop(self):
        # the Euler row kernel mapped over three full payoff blocks and a
        # ragged tail, bit for bit
        model = self.make()
        x = normals(RngStream(8), 3 * _block_rows(100) + 1, 100)
        s_t, h_t = cev_paths(model, x)
        for i, want in enumerate((s_t, h_t)):
            kernel = SimpleNamespace(dim=100, _payoff=lambda rows: model._euler(rows)[i])
            np.testing.assert_array_equal(Model.payoff(kernel, x), want)
        np.testing.assert_array_equal(
            model.payoff(x), (np.maximum(s_t, h_t) >= model.strike).astype(float))

    def test_absorption_at_zero(self):
        model = self.make(n_steps=4)
        x = np.zeros((1, 8))
        x[0, 0] = -100.0  # kills S at the first step
        s_t, _ = model._euler(x)
        assert s_t[0] == 0.0

    def test_correlation_mixes_second_driver(self):
        model = self.make(rho=0.9, n_steps=2)
        x = np.zeros((1, 4))
        x[0, 0] = 1.0  # Z only; B-increment = rho * Z
        _, h_t = model._euler(x)
        assert h_t[0] > 48.0 * math.exp(0.03)

    def test_drift_ode_oracle(self):
        # the tilt drift solves f' = x*sigma*exp(-r(1-gamma)t)*f^gamma,
        # f(0)=S0, f(T)=e^{-rT}K
        model = self.make(strike=60.0)
        tilts = model.approx_tilts()
        dt = 1.0 / 50
        x_drift = tilts[0, 0] / math.sqrt(dt)
        sol = solve_ivp(
            lambda t, f: x_drift * 0.3 * math.exp(-0.03 * 0.5 * t) * f ** 0.5,
            (0.0, 1.0), [50.0], rtol=1e-10, atol=1e-12)
        assert abs(sol.y[0, -1] - math.exp(-0.03) * 60.0) <= 1e-4

    def test_tilt_structure(self):
        model = self.make(strike=60.0, rho=0.0)
        tilts = model.approx_tilts()
        assert tilts.shape == (2, 100)
        # component 1 never moves the residual driver; with rho=0 component 2
        # never moves Z
        assert np.all(tilts[0, 1::2] == 0.0)
        assert np.all(tilts[1, 0::2] == 0.0)
        assert np.all(tilts[0, 0::2] > 0.0)

    def test_at_the_forward_zero_drift(self):
        model = self.make(strike=50.0 * math.exp(0.03), c1=1.0)
        assert abs(model.approx_tilts()[0, 0]) <= 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            self.make(gamma1=0.4)
        with pytest.raises(ConfigError):
            self.make(rho=1.0)
        with pytest.raises(DimensionMismatch):
            self.make().payoff(np.zeros((1, 7)))

    @pytest.mark.parametrize("bad", [{"maturity": 0.0}, {"sigma1": 0.0}, {"sigma2": -0.1},
                                     {"strike": -1.0}, {"s0": -50.0}, {"h0": 0.0},
                                     {"c1": 0.0}, {"c2": -1.0}])
    def test_parameter_ranges(self, bad):
        # strike 0 stays valid: test_trivial_strikes prices it
        with pytest.raises(ConfigError):
            self.make(**bad)
