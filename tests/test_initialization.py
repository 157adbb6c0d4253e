import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemix.errors import ApproxUnavailable, ConfigError, StagnantRarity
from cemix.initialization import (
    RarityConfig,
    init_approx,
    init_perturbation,
    init_rarity_ce,
    rarity_delta,
)
from cemix.mixture import MixtureParam
from cemix.models import RainbowOption, TwoSidedTail
from cemix.rng import RngStream


class TestPerturbation:
    def test_single_component_no_noise(self):
        theta = init_perturbation(1, [1.0, 2.0], 0.0, RngStream(0))
        np.testing.assert_array_equal(theta.means, [[1.0, 2.0]])
        np.testing.assert_array_equal(theta.weights, [1.0])

    def test_scalar_base_broadcast(self):
        theta = init_perturbation(1, 0.5, 0.0, RngStream(0), dim=3)
        np.testing.assert_array_equal(theta.means, [[0.5, 0.5, 0.5]])

    def test_noise_bounded_and_distinct(self):
        theta = init_perturbation(4, [0.0, 0.0], 0.2, RngStream(1))
        assert np.max(np.abs(theta.means)) <= 0.2
        np.testing.assert_allclose(theta.weights, 0.25)
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(theta.means[i], theta.means[j])

    def test_multiple_components_need_noise(self):
        with pytest.raises(ConfigError):
            init_perturbation(2, [0.0], 0.0, RngStream(2))

    def test_deterministic(self):
        a = init_perturbation(3, [0.0], 0.1, RngStream(3))
        b = init_perturbation(3, [0.0], 0.1, RngStream(3))
        np.testing.assert_array_equal(a.means, b.means)

    @pytest.mark.parametrize("m, base, scale", [
        (2, [0.0], 0.1), (4, [1.0, -2.0], 0.5), (16, [0.3, 0.0, -1.5, 2.0], 1.0),
        (3, np.linspace(-1.0, 1.0, 100), 0.25), (1, [5.0], 1e-3)])
    def test_words_of_one_uniform_draw(self, m, base, scale):
        # the noise is words [0, m*d) of the stream, with the bits of
        # Generator.uniform on a generator keyed like the stream
        for seed in range(8):
            stream = RngStream(seed, phase="init", iteration=0)
            gen = np.random.Generator(np.random.Philox(key=stream._key()))
            expect = np.asarray(base) + gen.uniform(-scale, scale, (m, len(base)))
            np.testing.assert_array_equal(
                init_perturbation(m, base, scale, stream).means, expect)

    def test_rounded_away_noise_config_error(self):
        # base + noise rounds to base, so every component has the same mean
        with pytest.raises(ConfigError, match="pairwise distinct"):
            init_perturbation(2, [1e20], 0.1, RngStream(4))


class TestApproxInit:
    def test_two_sided(self):
        theta = init_approx(TwoSidedTail(a=2.0, b=-2.5))
        np.testing.assert_array_equal(theta.means, [[2.0], [-2.5]])
        np.testing.assert_allclose(theta.weights, 0.5)

    def test_unavailable(self):
        class Bare:
            name = "bare"
            dim = 1

        with pytest.raises(ApproxUnavailable):
            init_approx(Bare())


class TestRarityConfig:
    def test_n0(self):
        assert RarityConfig(rho=0.05, pilot_size=10000).n0(2) == 250

    def test_bad_rho(self):
        with pytest.raises(ConfigError):
            RarityConfig(rho=1.5)

    def test_pilot_too_small(self):
        with pytest.raises(ConfigError):
            RarityConfig(rho=0.01, pilot_size=10).n0(2)


def kth_smallest(values, k):
    """The k-th smallest value (1-based) through rarity_delta on one column:
    the n0-th largest of n values is the (n - n0 + 1)-th smallest."""
    values = np.asarray(values, dtype=float)
    return rarity_delta(values[:, None], values.size - k + 1, [-np.inf])[0]


class TestRarityDelta:
    def test_small_cases(self):
        assert kth_smallest([3, 1, 2], 1) == 1
        assert kth_smallest([3, 1, 2], 3) == 3
        assert kth_smallest([5, 5, 1], 2) == 5

    def test_matches_full_sort(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(100_000)
        full = np.sort(values)
        for k in (1, 17, 50_000, 100_000):
            assert kth_smallest(values, k) == full[k - 1]

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=30), st.data())
    @settings(max_examples=100, deadline=None)
    def test_sort_oracle(self, values, data):
        k = data.draw(st.integers(1, len(values)))
        assert kth_smallest(values, k) == sorted(values)[k - 1]

    def test_columns_and_floor(self):
        # each column on its own, never below prev
        levels = np.random.default_rng(1).integers(-3, 4, size=(50, 3)).astype(float)
        prev = np.array([-np.inf, 10.0, -np.inf])
        expect = np.maximum(np.sort(levels, axis=0)[-7], prev)
        np.testing.assert_array_equal(rarity_delta(levels, 7, prev), expect)


class TestRarityCe:
    def run_two_sided(self, a, b, seed=0, **kw):
        model = TwoSidedTail(a=a, b=b)
        cfg = RarityConfig(rho=0.05, pilot_size=20000, **kw)
        theta0 = MixtureParam.uniform([[0.0], [-0.1]])
        return init_rarity_ce(model, cfg, theta0, RngStream(seed, phase="init"))

    def test_non_rare_terminates_immediately(self):
        theta, trace = self.run_two_sided(0.05, -0.05)
        assert len(trace) == 1
        assert np.all(trace[0].delta >= 1.0)

    def test_moderate_case_reaches_target_region(self):
        theta, trace = self.run_two_sided(2.0, -2.5, seed=1)
        assert 2 <= len(trace) <= 8
        means = np.sort(theta.means[:, 0])
        # terminal tilts sit outside the thresholds, near the conditional means
        assert 2.2 <= means[1] <= 3.2
        assert -3.9 <= means[0] <= -2.7

    def test_deeper_case(self):
        theta, trace = self.run_two_sided(2.0, -3.0, seed=1)
        assert len(trace) <= 10
        means = np.sort(theta.means[:, 0])
        assert means[1] >= 2.2 and means[0] <= -3.1

    def test_delta_monotone_and_terminal(self):
        _, trace = self.run_two_sided(2.0, -2.5, seed=2)
        deltas = np.array([rec.delta for rec in trace])
        assert np.all(np.diff(deltas, axis=0) >= 0)
        assert np.all(deltas[-1] >= 1.0)
        assert np.all(deltas[:-1].max(axis=1) < np.inf)

    def test_weights_stay_uniform(self):
        _, trace = self.run_two_sided(2.0, -2.5, seed=3)
        for rec in trace:
            np.testing.assert_allclose(rec.theta.weights, 0.5)

    def run_rainbow(self, seed, strike=60.0):
        model = RainbowOption(s0=[50.0, 45.0], sigmas=[0.1, 0.15],
                              corr=[[1.0, 0.2], [0.2, 1.0]], r=0.03,
                              maturity=1.0, strike=strike)
        cfg = RarityConfig(rho=0.05, pilot_size=10000)
        theta0 = MixtureParam.uniform(np.zeros((2, 2)) + [[0.0, 0.0], [0.1, 0.1]])
        theta, trace = init_rarity_ce(model, cfg, theta0, RngStream(seed, phase="init"))
        return model, theta, trace

    def test_membership_counts_meet_threshold(self):
        _, trace = self.run_two_sided(2.0, -2.5, seed=4)
        n0 = RarityConfig(rho=0.05, pilot_size=20000).n0(2)
        for rec in trace:
            assert np.all(rec.samples_in_set[~rec.clamped] >= n0)
        # per asset, the sample that sets the rainbow's delta is in its set
        _, _, trace = self.run_rainbow(seed=5, strike=75.0)
        n0 = RarityConfig(rho=0.05, pilot_size=10000).n0(2)
        assert len(trace) >= 2
        for rec in trace:
            assert np.all(rec.samples_in_set[~rec.clamped] >= n0)

    def test_components_must_match_rarity_levels(self):
        # two_sided_tail has two rarity levels (one per side), so three or one
        # starting means cannot be matched to them
        model = TwoSidedTail(a=2.0, b=-2.5)
        for means in ([[0.0], [-0.1], [0.3]], [[0.0]]):
            with pytest.raises(ConfigError, match="one component per rarity level"):
                init_rarity_ce(model, RarityConfig(pilot_size=2000),
                               MixtureParam.uniform(means), RngStream(0, phase="init"))

    def test_stagnant_raises(self):
        with pytest.raises(StagnantRarity):
            self.run_two_sided(20.0, -20.0, max_stages=2)

    def test_rainbow_runs(self):
        model, theta, trace = self.run_rainbow(seed=5)
        assert np.all(trace[-1].delta >= 1.0)
        # each component pushes one asset toward the strike
        prices = model._terminal_prices(theta.means)
        assert prices.max(axis=1).min() >= 0.8 * 60.0

    def test_embedding_required(self):
        from cemix.models import AsianCall

        model = AsianCall(s0=50, r=0.05, sigma=0.3, maturity=1.0, n_dates=4, strike=60)
        with pytest.raises(ApproxUnavailable):
            init_rarity_ce(model, RarityConfig(), MixtureParam.single(np.zeros(4)),
                           RngStream(6))
