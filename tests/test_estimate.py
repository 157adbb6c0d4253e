import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cemix import estimate, numerics
from cemix.errors import DimensionMismatch, UnequalSampleSize
from cemix.estimate import (
    EstimateReport,
    chunk_moments,
    is_estimate,
    merge_moments,
    plain_mc_estimate,
    variance_ratio,
)
from cemix.experiments import ASIAN, CEV, PYRAMID_4, RAINBOW_4
from cemix.mixture import MixtureParam, likelihood_ratio, sample_mixture
from cemix.models import AsianCall, CevDigital, PyramidOption, RainbowOption, TwoSidedTail
from cemix.numerics import _block_rows, normal_cdf
from cemix.rng import RngStream
from oracles import serial_is_estimate


class ShiftedCall:
    """1-d test payoff (x - 1)^+ with a quadrature-computable mean."""

    dim = 1

    @staticmethod
    def payoff(x):
        return np.maximum(np.asarray(x)[:, 0] - 1.0, 0.0)

    _payoff = payoff


class Constant:
    dim = 2

    @staticmethod
    def payoff(x):
        return np.full(np.asarray(x).shape[0], 3.25)

    _payoff = payoff


class Exponential:
    """V(x) = exp(c . x); sampled at the tilt c, V * lr is the constant
    exp(|c|^2 / 2), so the IS estimator has zero variance."""

    c = np.array([1.2, -0.8])
    dim = 2

    @classmethod
    def payoff(cls, x):
        return np.exp(np.asarray(x) @ cls.c)

    _payoff = payoff


class TestIsEstimate:
    def test_constant_payoff_zero_variance_under_identity(self):
        report = plain_mc_estimate(Constant(), 1000, RngStream(0))
        assert report.estimate == pytest.approx(3.25, abs=1e-12)
        assert report.std_error == pytest.approx(0.0, abs=1e-12)

    def test_exact_tilt_zero_variance(self, monkeypatch):
        # only rounding noise remains; a sum-of-squares variance would
        # cancel to ~1e-11 here
        theta = MixtureParam.single(Exponential.c)
        for chunk_size in (200_000, 7_000):
            monkeypatch.setattr(estimate, "_CHUNK", chunk_size)
            report = is_estimate(Exponential(), theta, 100_000, RngStream(12))
            assert report.estimate == pytest.approx(math.exp(0.5 * 2.08), rel=1e-13)
            assert report.relative_error <= 1e-15

    def test_chunk_merge_matches_two_pass_reference(self, monkeypatch):
        # the merged chunk moments equal the mean and variance of all draws
        # taken at once, summed with fsum
        model = TwoSidedTail(a=1.0, b=-1.5)
        theta = MixtureParam([0.5, 0.5], [[1.0], [-1.5]])
        n, chunk, stream = 50_000, 7_000, RngStream(13)
        monkeypatch.setattr(estimate, "_CHUNK", chunk)
        report = is_estimate(model, theta, n, stream)
        vals = []
        for k, start in enumerate(range(0, n, chunk)):
            x = sample_mixture(theta, min(chunk, n - start),
                               stream.child(counter=k)).x
            vals.extend(model.payoff(x) * likelihood_ratio(theta, x))
        mean = math.fsum(vals) / n
        var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
        assert report.estimate == pytest.approx(mean, rel=1e-13)
        assert report.std_error == pytest.approx(math.sqrt(var / n), rel=1e-12)

    def test_unbiased_for_tilted_constant(self):
        theta = MixtureParam([0.5, 0.5], [[1.0, 0.0], [0.0, -1.0]])
        report = is_estimate(Constant(), theta, 100_000, RngStream(1))
        assert abs(report.estimate - 3.25) <= 4 * report.std_error

    def test_quadrature_oracle(self):
        density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
        truth, _ = quad(lambda t: (t - 1.0) * density(t), 1.0, 30.0)
        theta = MixtureParam.single([1.5])
        report = is_estimate(ShiftedCall(), theta, 1_000_000, RngStream(2))
        assert abs(report.estimate - truth) <= 4 * report.std_error
        assert report.std_error <= truth * 0.01

    def test_two_sided_truth(self):
        model = TwoSidedTail(a=2.0, b=-2.5)
        theta = MixtureParam([0.7, 0.3], [[2.3], [-2.8]])
        report = is_estimate(model, theta, 500_000, RngStream(3))
        truth = normal_cdf(-2.0) + normal_cdf(-2.5)
        assert abs(report.estimate - truth) <= 4 * report.std_error

    def test_plain_mc_binomial(self):
        model = TwoSidedTail(a=1.0, b=-1.5)
        truth = normal_cdf(-1.0) + normal_cdf(-1.5)
        report = plain_mc_estimate(model, 1_000_000, RngStream(4))
        se = math.sqrt(truth * (1 - truth) / 1_000_000)
        assert abs(report.estimate - truth) <= 4 * se
        assert report.std_error == pytest.approx(se, rel=0.05)

    def test_chunking_deterministic_and_consistent(self, monkeypatch):
        model = TwoSidedTail(a=1.0, b=-1.5)
        theta = MixtureParam([0.5, 0.5], [[1.0], [-1.5]])
        monkeypatch.setattr(estimate, "_CHUNK", 7_000)
        a = is_estimate(model, theta, 50_000, RngStream(5))
        b = is_estimate(model, theta, 50_000, RngStream(5))
        assert a.estimate == b.estimate and a.std_error == b.std_error
        # different chunk sizes use different sub-streams; estimates agree
        # statistically, not bitwise
        monkeypatch.setattr(estimate, "_CHUNK", 50_000)
        c = is_estimate(model, theta, 50_000, RngStream(5))
        combined = math.hypot(a.std_error, c.std_error)
        assert abs(a.estimate - c.estimate) <= 4 * combined

    def test_plain_mc_is_identity_tilt(self):
        model = TwoSidedTail(a=1.0, b=-1.5)
        a = plain_mc_estimate(model, 20_000, RngStream(6))
        b = is_estimate(model, MixtureParam.single([0.0]), 20_000, RngStream(6))
        assert a.estimate == b.estimate and a.std_error == b.std_error

    def test_coverage_over_seeds(self):
        model = TwoSidedTail(a=1.0, b=-1.5)
        theta = MixtureParam([0.6, 0.4], [[1.5], [-1.9]])
        truth = normal_cdf(-1.0) + normal_cdf(-1.5)
        hits = 0
        for seed in range(100):
            report = is_estimate(model, theta, 20_000, RngStream(seed, phase="final_is"))
            if abs(report.estimate - truth) <= 4 * report.std_error:
                hits += 1
        assert hits >= 95

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            is_estimate(Constant(), MixtureParam.single([0.0, 0.0]), 1, RngStream(7))

    def test_lr_concentration_flag(self):
        # tilt points away from the event; the few hits carry huge ratios
        model = TwoSidedTail(a=2.5, b=-20.0)
        theta = MixtureParam.single([-1.0])
        report = is_estimate(model, theta, 5_000, RngStream(8))
        assert report.lr_concentrated

    def test_well_covered_run_not_flagged(self):
        model = TwoSidedTail(a=1.0, b=-1.5)
        theta = MixtureParam([0.5, 0.5], [[1.3], [-1.8]])
        report = is_estimate(model, theta, 100_000, RngStream(9))
        assert not report.lr_concentrated
        assert report.min_lr < 1.0 < report.max_lr


def approx_theta(model):
    """The model's approx tilts under unequal weights."""
    tilts = model.approx_tilts()
    w = np.arange(1.0, len(tilts) + 1)
    return MixtureParam(w / w.sum(), tilts)


class TestFusedPass:
    """is_estimate draws, prices and weights row blocks on the pool; it must
    give the bits of the whole-chunk public calls."""

    @pytest.mark.parametrize("model, identity", [
        (TwoSidedTail(a=2.0, b=-2.5), False),
        (RainbowOption(strike=60.0, **RAINBOW_4), False),
        (PyramidOption(strike=40.0, **PYRAMID_4), False),
        (AsianCall(strike=60.0, **ASIAN), False),
        (CevDigital(strike=60.0, **CEV), False),
        (AsianCall(strike=60.0, **ASIAN), True),
    ], ids=["tail-m2", "rainbow-m4", "pyramid-m16", "asian-d30", "cev-d100", "identity"])
    def test_matches_serial_chunks(self, model, identity, monkeypatch):
        # two chunks of three full blocks and a ragged tail, then a short chunk
        theta = MixtureParam.single(np.zeros(model.dim)) if identity else approx_theta(model)
        chunk = 3 * _block_rows(model.dim) + 37
        n, stream = 2 * chunk + 501, RngStream(14, phase="final_is", counter=3)
        monkeypatch.setattr(estimate, "_CHUNK", chunk)
        report = is_estimate(model, theta, n, stream)
        assert (report.estimate, report.std_error, report.min_lr, report.max_lr,
                report.lr_concentrated) == serial_is_estimate(model, theta, n, stream, chunk)

    def test_no_chunk_sized_draw_array(self, monkeypatch):
        # table 9's model at n = 1e5 on two workers: the (n, d) draws alone
        # would take 80 MB
        model = CevDigital(strike=60.0, **CEV)
        theta = approx_theta(model)
        with ThreadPoolExecutor(2) as pool:
            monkeypatch.setattr(numerics, "_POOL", pool)
            tracemalloc.start()
            try:
                is_estimate(model, theta, 100_000, RngStream(15, phase="final_is"))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 20e6

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            is_estimate(Constant(), MixtureParam.single([0.0]), 100, RngStream(16))


class TestMergeMoments:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300), st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_split_merges_to_two_pass(self, values, data):
        vals = np.array(values)
        n = vals.size
        cuts = [] if n == 1 else sorted(
            data.draw(st.sets(st.integers(1, n - 1), max_size=12)))
        merged = (0, 0.0, 0.0)
        for chunk in np.split(vals, cuts):
            merged = merge_moments(merged, chunk_moments(chunk))
        mean = math.fsum(values) / n
        m2 = math.fsum((v - mean) ** 2 for v in values)
        # beyond rtol 1e-12, allow for the rounding of the means: a chunk
        # sum errs by up to log2(n) ulp of max|v| and each merge adds one;
        # a mean error e moves M2 by up to n * (2 * spread + e) * e, which
        # shows only when M2 << n * max|v|^2.  Subnormal means and squares
        # round in absolute steps of `step`.
        step = np.finfo(float).smallest_subnormal
        ulp = np.finfo(float).eps * np.abs(vals).max()
        err = (math.log2(n) + len(cuts) + 2) * ulp + step
        spread = vals.max() - vals.min()
        assert merged[0] == n
        assert abs(merged[1] - mean) <= 1e-12 * abs(mean) + err
        assert abs(merged[2] - m2) <= 1e-12 * m2 + n * ((2 * spread + err) * err + step)


class TestVarianceRatio:
    def test_identical_reports(self):
        r = EstimateReport(1.0, 0.01, 0.01, 1000, 0.5, 2.0)
        assert variance_ratio(r, r) == 1.0

    def test_unequal_sizes(self):
        a = EstimateReport(1.0, 0.01, 0.01, 1000, 0.5, 2.0)
        b = EstimateReport(1.0, 0.01, 0.01, 2000, 0.5, 2.0)
        with pytest.raises(UnequalSampleSize):
            variance_ratio(a, b)

    def test_zero_variance_sentinel(self):
        a = EstimateReport(1.0, 0.01, 0.01, 1000, 0.5, 2.0)
        b = EstimateReport(1.0, 0.0, 0.0, 1000, 1.0, 1.0)
        assert variance_ratio(a, b) == math.inf

    def test_per_sample_variance(self):
        r = EstimateReport(1.0, 0.02, 0.02, 2500, 0.5, 2.0)
        assert r.per_sample_variance == pytest.approx(1.0, rel=1e-12)

    def test_effective_reduction(self):
        model = TwoSidedTail(a=2.0, b=-2.5)
        theta = MixtureParam([0.7, 0.3], [[2.3], [-2.8]])
        plain = plain_mc_estimate(model, 200_000, RngStream(10, phase="baseline"))
        tilted = is_estimate(model, theta, 200_000, RngStream(10, phase="final_is"))
        assert variance_ratio(plain, tilted) > 5.0
