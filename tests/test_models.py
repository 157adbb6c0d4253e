import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from cemix.errors import ConfigError, DimensionMismatch, EmbeddingUnavailable
from cemix.experiments import (
    PYRAMID_2,
    PYRAMID_4,
    RAINBOW_2,
    RAINBOW_4,
    STRIKE_TABLES,
    build_model,
    table_configs,
)
from cemix.initialization import RarityConfig, init_rarity_ce, rarity_delta
from cemix.mixture import MixtureParam
from cemix.models import (
    MAX_PYRAMID_ASSETS,
    AsianCall,
    CevDigital,
    Model,
    PyramidOption,
    RainbowOption,
    TwoSidedTail,
)
from cemix.numerics import _block_rows, normal_cdf
from cemix.rng import RngStream
from oracles import (
    cev_paths,
    gbm_prices,
    normals,
    pyramid_payoff,
    pyramid_tilts,
    rainbow_payoff,
    rainbow_levels,
    rainbow_rarity_payoff,
    rainbow_tilts,
    tail_levels,
    triangular_solves,
)


@pytest.mark.parametrize("table", [2, 4, 6, 8, 9],
                         ids=["tail", "asian", "rainbow", "pyramid", "cev"])
def test_payoff_returns_a_fresh_vector(table):
    # the final pass multiplies V^2 lr into _payoff's result in place
    model = build_model(table_configs(table)[0])
    x = normals(RngStream(31), 1000, model.dim)
    out = model._payoff(x)
    assert out.dtype == np.float64 and out.shape == (1000,)
    assert not np.shares_memory(out, x)


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
        # at delta = 1 the rows whose levels reach it are the payoff's event; the stage
        # keeps the delta-scaled payoff on them
        model = TwoSidedTail(a=1.5, b=-2.0)
        x = normals(RngStream(2), 10_000, 1)
        in_set = (model.rarity_levels(x) >= 1.0).any(axis=1)
        np.testing.assert_array_equal(model.rarity_payoff(np.ones(2), x) * in_set,
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
        # rainbow: r = sigma^2/2 puts x = 0 at prices s0 exactly; that row
        # sets both deltas, reaches both, and for this s0 its delta-scaled
        # payoff disc*S - disc*delta*K rounds above zero (the stage's sets:
        # TestRarityCe.test_row_that_sets_delta_is_in_its_set)
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
                                     {"sigma": 0.0}, {"maturity": 0.0}, {"sigma": 1e300},
                                     {"sigma": 10.5}, {"maturity": 1e300}, {"r": 1e300},
                                     {"r": -11.0}])
    def test_parameter_ranges(self, bad):
        # with a negative s0 or strike, approx_tilts' bracket search has no root to find;
        # sigma*sqrt(T) and |r|*T above MAX_SCALE overflow what the payoff exponentiates
        params = dict(s0=50.0, r=0.05, sigma=0.3, maturity=1.0, n_dates=30, strike=50.0)
        with pytest.raises(ConfigError):
            AsianCall(**{**params, **bad})

    def test_scale_bound_inclusive(self):
        model = AsianCall(s0=50.0, r=-10.0, sigma=10.0, maturity=1.0, n_dates=2, strike=50.0)
        assert np.all(np.isfinite(model.payoff(normals(RngStream(3), 100, 2))))


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


def random_corr(rng, d):
    """A random d x d correlation matrix, exactly symmetric."""
    a = rng.standard_normal((d, d + 2))
    cov = a @ a.T
    corr = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    return (corr + corr.T) / 2


@given(st.integers(1, MAX_PYRAMID_ASSETS), st.floats(0.1, 1e3), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_tilts_to_matches_triangular_solves(d, scale, fortran, seed):
    # forward substitution gives the bits of LAPACK's solve of each row, into a C-ordered
    # array for C- and F-ordered moves (the pyramid's moves are F-ordered)
    rng = np.random.default_rng(seed)
    model = RainbowOption(s0=np.full(d, 50.0), sigmas=np.full(d, 0.2), corr=random_corr(rng, d),
                          r=0.03, maturity=1.0, strike=60.0)
    moves = scale * rng.standard_normal((int(rng.integers(1, 2 ** d + 1)), d))
    if fortran:
        moves = np.asfortranarray(moves)
    tilts = model._tilts_to(moves)
    assert tilts.flags.c_contiguous
    np.testing.assert_array_equal(tilts, triangular_solves(model.chol, moves))


@given(st.integers(1, MAX_PYRAMID_ASSETS), st.floats(1.0, 300.0), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_column_kernels_match_row_oracles(d, scale, seed):
    # the column-by-column prices and payoffs give the bits of whole-row broadcasts, out
    # to inputs whose prices overflow; a NaN matches any NaN
    rng = np.random.default_rng(seed)
    corr = random_corr(rng, d)
    params = dict(s0=rng.uniform(10.0, 100.0, d), sigmas=rng.uniform(0.05, 1.0, d),
                  corr=corr, r=rng.uniform(-0.1, 0.1),
                  maturity=rng.uniform(0.1, 5.0), strike=rng.uniform(10.0, 200.0))
    rainbow = RainbowOption(**params)
    pyramid = PyramidOption(asset_strikes=rng.uniform(10.0, 100.0, d), **params)
    tail = TwoSidedTail(a=rng.uniform(0.5, 5.0), b=-rng.uniform(0.5, 5.0))
    x = scale * rng.standard_normal((257, d))
    with np.errstate(all="ignore"):
        delta = rng.uniform(0.0, 2.0, d)
        delta[0] = rainbow.rarity_levels(x[:1])[0, 0]  # the first row sits on its level
        pairs = [
            (rainbow._terminal_prices(x), gbm_prices(rainbow, x)),
            (rainbow._payoff(x), rainbow_payoff(rainbow, x)),
            (rainbow.rarity_levels(x), rainbow_levels(rainbow, x)),
            (rainbow.rarity_payoff(delta, x), rainbow_rarity_payoff(rainbow, delta, x)),
            (pyramid._terminal_prices(x), gbm_prices(pyramid, x)),
            (pyramid._payoff(x), pyramid_payoff(pyramid, x)),
            (tail.rarity_levels(x[:, :1]), tail_levels(tail, x[:, :1])),
        ]
    for got, want in pairs:
        np.testing.assert_array_equal(got, want)


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
                                     {"s0": [50.0, -45.0]}, {"strike": 0.0},
                                     {"sigmas": [0.1, 1e300]}, {"r": -1e300}])
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
                                     {"s0": [0.0, 45.0]}, {"maturity": 1e300}])
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

    @pytest.mark.parametrize("gamma", [0.5, 0.7, 1.0])
    @pytest.mark.parametrize("rho", [-0.6, 0.3])
    def test_euler_matches_allocating_loop(self, gamma, rho):
        # the in-place loop against a loop of fresh arrays, bit for bit: among the rows,
        # paths absorbed at 0 and paths whose levels overflow to inf or meet inf - inf
        model = self.make(gamma1=gamma, gamma2=gamma, rho=rho)
        x = normals(RngStream(23), 400, 100)
        x[:100] *= 4.0
        x[100:120, :4] = -1000.0  # both absorbed in the first two steps
        x[120:140, 2] = 1e300  # S overflows at gamma = 1
        x[140:160, 6:8] = np.inf  # at inf or inf - inf, then NaN at a negative step
        x[160:180, 98] = np.inf  # S at inf in the last step, H too at rho > 0
        x[180:200, 99] = np.inf  # H at inf in the last step
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = model._euler(x), cev_paths(model, x)
        for level in want:
            assert np.any(level == 0.0) and np.any(np.isinf(level)) and np.any(np.isnan(level))
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

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

    def test_zero_rate_drift_is_the_limit(self):
        # at r = 0, (r/sigma) * lift / (1 - exp(-r(1-gamma)T)) is 0/0; the drift takes its
        # r -> 0 limit (K^(1-gamma) - s0^(1-gamma)) / (sigma(1-gamma)T), as does any r
        # too small to move exp, and a small r lands next to it
        x_drift = (60.0 ** 0.5 - 50.0 ** 0.5) / (0.3 * 0.5 * 1.0)
        y_drift = (60.0 ** 0.3 - 48.0 ** 0.3) / (0.35 * 0.3 * 1.0)
        sqdt = math.sqrt(1.0 / 50)
        limit = np.zeros((2, 100))
        limit[0, 0::2] = x_drift * sqdt
        limit[1, 0::2] = 0.3 * y_drift * sqdt
        limit[1, 1::2] = math.sqrt(1.0 - 0.3 ** 2) * y_drift * sqdt
        tilts = self.make(strike=60.0, r=0.0).approx_tilts()
        np.testing.assert_allclose(tilts, limit, rtol=1e-14)
        np.testing.assert_array_equal(self.make(strike=60.0, r=1e-300).approx_tilts(), tilts)
        np.testing.assert_allclose(self.make(strike=60.0, r=1e-6).approx_tilts(), limit,
                                   rtol=1e-5)

    def test_tiny_rate_drift_does_not_cancel(self):
        # 1 - exp(-r(1-gamma)T) keeps few digits at r = 1e-15; -expm1 keeps them all
        tilts = self.make(strike=60.0, r=0.0).approx_tilts()
        for r in (1e-15, 1e-13):
            np.testing.assert_allclose(self.make(strike=60.0, r=r).approx_tilts(), tilts,
                                       rtol=1e-12)

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
                                     {"c1": 0.0}, {"c2": -1.0}, {"sigma2": 1e300},
                                     {"maturity": 1e308}, {"r": 710.0}])
    def test_parameter_ranges(self, bad):
        # strike 0 stays valid: test_trivial_strikes prices it
        with pytest.raises(ConfigError):
            self.make(**bad)
