from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemix import initialization, numerics
from cemix.errors import ApproxUnavailable, ConfigError, StagnantRarity
from cemix.experiments import run_experiment, table_configs
from cemix.initialization import (
    InitConfig,
    RarityConfig,
    init_approx,
    init_perturbation,
    init_rarity_ce,
    initial_mixture,
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

    def test_stages_do_not_depend_on_pool(self, monkeypatch):
        # a stage's 40k-row pilot spans three blocks of the pass
        model, theta0 = TwoSidedTail(a=2.0, b=-2.5), MixtureParam.uniform([[0.0], [-0.1]])
        runs = []
        for workers in (1, 2, 3):
            with ThreadPoolExecutor(workers) as pool:
                monkeypatch.setattr(numerics, "_POOL", pool)
                _, trace = init_rarity_ce(model, RarityConfig(pilot_size=40_000), theta0,
                                          RngStream(1, phase="init"))
            runs.append([(rec.delta.tobytes(), rec.theta.means.tobytes(),
                          rec.samples_in_set.tobytes()) for rec in trace])
        assert len(runs[0]) >= 2
        assert runs[0] == runs[1] == runs[2]

    def spy_weights(self, monkeypatch):
        """The (x, w, post) of each block that the stages' update sums see, in call order."""
        seen, block_sums_of = [], initialization._block_sums

        def block_sums(x, w, post):
            seen.append((x, w, post))
            return block_sums_of(x, w, post)

        monkeypatch.setattr(initialization, "_block_sums", block_sums)
        return seen

    def test_stage_sets_are_the_levels_that_reach_delta(self, monkeypatch):
        # on each block of a 20k-row pilot, the update weighs exactly the rows whose level
        # reaches delta (lr > 0 at d = 1), and the counts are those rows per side
        seen = self.spy_weights(monkeypatch)
        _, trace = self.run_two_sided(2.0, -2.5, seed=1)
        per_stage = len(seen) // len(trace)
        assert per_stage >= 2 and len(seen) == per_stage * len(trace)
        for i, rec in enumerate(trace):
            blocks = seen[i * per_stage:(i + 1) * per_stage]
            reached = [x / np.array([2.0, -2.5]) >= rec.delta for x, _, _ in blocks]
            for (_, w, _), member in zip(blocks, reached):
                np.testing.assert_array_equal(w > 0, member.any(axis=1))
            np.testing.assert_array_equal(rec.samples_in_set, np.concatenate(reached).sum(axis=0))

    def test_each_component_fits_its_own_set(self, monkeypatch):
        # on each block of a two-block pilot, component j's posteriors in the update are 1 on
        # the rows whose level j reaches delta_j and 0 elsewhere; delta never passes 1
        model = TwoSidedTail(a=2.0, b=-2.5)
        seen = self.spy_weights(monkeypatch)
        _, trace = self.run_two_sided(2.0, -2.5, seed=1)
        per_stage = len(seen) // len(trace)
        assert per_stage == 2 and len(seen) == per_stage * len(trace)
        for i, rec in enumerate(trace):
            for x, _, post in seen[i * per_stage:(i + 1) * per_stage]:
                member = model.rarity_levels(x) >= rec.delta
                np.testing.assert_array_equal(np.asarray(post, dtype=float), member.T)
        deltas = np.array([rec.delta for rec in trace])
        assert np.all(deltas <= 1.0)
        np.testing.assert_array_equal(deltas[-1], [1.0, 1.0])

    @pytest.mark.parametrize("model, x, expect", [
        # (x/b)*b rounds below x = -1.7792...: that row sets delta[1] < 1
        (TwoSidedTail(a=2.0, b=-2.5), [[-1.7792176880030601], [0.0], [5.0]],
         [True, False, True]),
        # r = sigma^2/2 puts x = 0 at prices s0 exactly, below the strike: that row sets both
        # deltas, and for this s0 its delta-scaled payoff disc*S - disc*delta*K rounds above 0
        (RainbowOption(s0=[54.1909318448285, 52.0], sigmas=[0.5, 0.5], corr=np.eye(2),
                       r=0.125, maturity=1.0, strike=60.0),
         [[0.0, 0.0], [-1.0, -1.0], [-0.5, -2.0]], [True, False, False]),
        # levels past 1: delta stops at the cap, and the rows that passed it are in the sets
        (TwoSidedTail(a=2.0, b=-2.5), [[-3.069274373323133], [0.0], [5.0]], [True, False, True]),
        (RainbowOption(s0=[64.04680070645806, 62.0], sigmas=[0.5, 0.5], corr=np.eye(2),
                       r=0.125, maturity=1.0, strike=60.0),
         [[0.0, 0.0], [-1.0, -1.0], [-0.5, -2.0]], [True, False, False]),
    ])
    def test_row_that_sets_delta_is_in_its_set(self, monkeypatch, model, x, expect):
        # a stage whose whole pilot is x, at n0 = 1 and lr = 1; the stage ignores the
        # pilot's posteriors.  A delta below 1 takes a second stage, whose rows pass every
        # level, to end the scheme.
        x = np.array(x)
        pilots = iter([x, np.array([[5.0] * x.shape[1], [-5.0] * x.shape[1]])])

        def pilot_pass(theta, n, stream, price):
            rows = next(pilots)
            return [price(rows, np.ones(len(rows)), None)]

        monkeypatch.setattr(initialization, "_pilot_pass", pilot_pass)
        seen = self.spy_weights(monkeypatch)
        _, trace = init_rarity_ce(model, RarityConfig(pilot_size=4, rho=0.5),
                                  MixtureParam.uniform(np.zeros(x.shape[1]) + [[0.0], [0.1]]),
                                  RngStream(0, phase="init"))
        top = model.rarity_levels(x).max(axis=0)
        assert len(trace) == (1 if np.all(top >= 1.0) else 2)
        np.testing.assert_array_equal(trace[0].delta, np.minimum(top, 1.0))
        np.testing.assert_array_equal(trace[0].samples_in_set, [1, 1])
        np.testing.assert_array_equal(seen[0][1] > 0, expect)
        np.testing.assert_array_equal(trace[-1].delta, [1.0, 1.0])

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

    def test_table_6_k70_rows_stay_apart(self):
        # table 6 K=70/INI_CE at seed 10: stages that fit every component to the union of
        # the sets, with delta uncapped, ran 12 times and collapsed this row (var_ratio 15.2)
        cfg = next(c for c in table_configs(6, 10) if c.label == "K=70/INI_CE")
        row = run_experiment(cfg)
        assert "collapse" not in row.flags
        assert row.var_ratio >= 100 and row.init_stages <= 4

    def test_embedding_required(self):
        from cemix.models import AsianCall

        model = AsianCall(s0=50, r=0.05, sigma=0.3, maturity=1.0, n_dates=4, strike=60)
        with pytest.raises(ApproxUnavailable):
            init_rarity_ce(model, RarityConfig(), MixtureParam.single(np.zeros(4)),
                           RngStream(6))


class TestInitialMixture:
    def test_drawn_rarity_ce_stream_layout(self):
        # the drawn means take their noise from init iteration 0, the stages from 1 on
        model = TwoSidedTail(a=2.0, b=-2.5)
        init = InitConfig(method="rarity_ce", pilot_size=20000)
        theta, stages = initial_mixture(model, init, RngStream(7))
        start = init_perturbation(2, 0.0, 0.1, RngStream(7, phase="init", iteration=0), dim=1)
        expect, trace = init_rarity_ce(model, init, start,
                                       RngStream(7, phase="init", iteration=1))
        assert stages == len(trace) >= 2
        np.testing.assert_array_equal(theta.means, expect.means)
        np.testing.assert_array_equal(theta.weights, expect.weights)
