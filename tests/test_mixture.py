import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, ndtri

from cemix.errors import DimensionMismatch
from cemix.mixture import (
    MixtureParam,
    _labels,
    _lr,
    likelihood_ratio,
    log_mixture_density,
    min_tilt_distance,
    posterior,
    sample_mixture,
)
from cemix.numerics import _block_rows, _blocks, _map
from cemix.rng import RngStream
from oracles import log_component_density, permuted, serial_sample, uniforms


def random_theta(rng, m, d):
    w = rng.uniform(0.1, 1.0, m)
    return MixtureParam(w / w.sum(), rng.standard_normal((m, d)))


class TestMixtureParam:
    def test_single(self):
        theta = MixtureParam.single([1.0, 2.0])
        assert theta.m == 1 and theta.dim == 2
        np.testing.assert_array_equal(theta.weights, [1.0])

    def test_uniform(self):
        theta = MixtureParam.uniform([[0.0], [1.0], [2.0]])
        np.testing.assert_allclose(theta.weights, 1.0 / 3.0)

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            MixtureParam([0.5, 0.6], [[0.0], [1.0]])
        with pytest.raises(ValueError):
            MixtureParam([1.0, 0.0], [[0.0], [1.0]])

    def test_component_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            MixtureParam([0.5, 0.5], [[0.0]])


class TestMinTiltDistance:
    def test_matches_pairwise_loop(self):
        means = np.random.default_rng(9).standard_normal((6, 3))
        loop = min(np.linalg.norm(means[i] - means[j])
                   for i in range(6) for j in range(i + 1, 6))
        assert min_tilt_distance(means) == pytest.approx(loop, rel=1e-14)
        assert min_tilt_distance([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]]) == 0.0
        assert min_tilt_distance([[1.0, 2.0]]) == math.inf


class TestDensities:
    def test_standard_normal_at_origin(self):
        got = log_component_density([0.0], [[0.0]])[0]
        assert abs(got - (-0.5 * math.log(2 * math.pi))) <= 1e-14

    def test_matches_scalar_formula(self):
        rng = np.random.default_rng(0)
        alpha = rng.standard_normal(3)
        x = rng.standard_normal((5, 3))
        got = log_component_density(alpha, x)
        for i in range(5):
            expect = sum(-0.5 * (x[i, k] - alpha[k]) ** 2
                         - 0.5 * math.log(2 * math.pi) for k in range(3))
            assert abs(got[i] - expect) <= 1e-12

    def test_single_component_reduction(self):
        rng = np.random.default_rng(1)
        alpha = rng.standard_normal(4)
        x = rng.standard_normal((10, 4))
        theta = MixtureParam.single(alpha)
        np.testing.assert_allclose(log_mixture_density(theta, x),
                                   log_component_density(alpha, x), rtol=1e-12)

    def test_two_component_scalar_oracle(self):
        theta = MixtureParam([0.3, 0.7], [[1.0], [-1.0]])
        x = 0.5
        phi = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
        expect = math.log(0.3 * phi(x - 1.0) + 0.7 * phi(x + 1.0))
        assert abs(log_mixture_density(theta, [[x]])[0] - expect) <= 1e-12

    def test_no_underflow_high_dimension(self):
        d = 100
        theta = MixtureParam.uniform(np.zeros((2, d)))
        val = log_mixture_density(theta, np.zeros((1, d)))[0]
        assert np.isfinite(val)
        assert abs(val - (-0.5 * d * math.log(2 * math.pi))) <= 1e-9


class TestPosterior:
    def test_symmetric_point(self):
        theta = MixtureParam([0.5, 0.5], [[1.0], [-1.0]])
        np.testing.assert_allclose(posterior(theta, [[0.0]]), [[0.5, 0.5]], atol=1e-14)

    def test_single_component(self):
        theta = MixtureParam.single([2.0])
        np.testing.assert_array_equal(posterior(theta, [[5.0]]), [[1.0]])

    def test_far_point_concentrates(self):
        theta = MixtureParam([0.5, 0.5], [[0.0], [10.0]])
        p = posterior(theta, [[10.0]])
        assert p[0, 1] > 1.0 - 1e-8

    def test_far_point_rows_normalized(self):
        # |x|^2 of the far point overflows; its tilts alpha_j.x do not
        rng = np.random.default_rng(12)
        theta = random_theta(rng, 16, 4)
        x = np.vstack([rng.standard_normal((20, 4)), [[1e155, 0.0, 0.0, 0.0]]])
        p = posterior(theta, x)
        assert not np.any(np.isnan(p))
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12

    @given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_rows_normalized(self, m, d, seed):
        rng = np.random.default_rng(seed)
        theta = random_theta(rng, m, d)
        p = posterior(theta, 3.0 * rng.standard_normal((20, d)))
        assert np.all(p >= 0)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12

    @given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, m, d, seed):
        rng = np.random.default_rng(seed)
        theta = random_theta(rng, m, d)
        x = rng.standard_normal((10, d))
        perm = rng.permutation(m)
        np.testing.assert_allclose(log_mixture_density(permuted(theta, perm), x),
                                   log_mixture_density(theta, x), rtol=1e-12)
        np.testing.assert_allclose(posterior(permuted(theta, perm), x),
                                   posterior(theta, x)[:, perm], atol=1e-12)


class TestLikelihoodRatio:
    def test_identity_tilt(self):
        theta = MixtureParam.single([0.0, 0.0])
        x = np.random.default_rng(2).standard_normal((50, 2))
        np.testing.assert_allclose(likelihood_ratio(theta, x), 1.0, rtol=1e-12)

    def test_identity_tilt_exact(self):
        # all tilts are exactly 0, so plain MC weighs every draw by 1.0
        for d in (1, 4, 100):
            theta = MixtureParam.single(np.zeros(d))
            x = 30.0 * np.random.default_rng(d).standard_normal((50, d))
            np.testing.assert_array_equal(likelihood_ratio(theta, x), 1.0)

    def test_high_dimension_closed_form(self):
        # m=1: lr(x) = exp(|alpha|^2/2 - alpha.x); at d=100 far from the
        # origin |x|^2 is ~1e4, and forming it costs ~1e-12 of accuracy
        d = 100
        alpha = np.full(d, 0.3)
        x = alpha + np.random.default_rng(13).standard_normal((200, d)) + 10.0
        expect = np.exp(0.5 * alpha @ alpha - x @ alpha)
        np.testing.assert_allclose(likelihood_ratio(MixtureParam.single(alpha), x),
                                   expect, rtol=1e-14)

    def test_single_tilt_closed_form(self):
        # m=1: lr(x) = exp(alpha^2/2 - alpha*x)
        theta = MixtureParam.single([2.0])
        got = likelihood_ratio(theta, [[1.0]])[0]
        assert abs(got - math.exp(2.0 - 2.0)) <= 1e-12
        got = likelihood_ratio(theta, [[3.0]])[0]
        assert abs(got - math.exp(2.0 - 6.0)) <= 1e-12

    def test_density_ratio_identity(self):
        rng = np.random.default_rng(3)
        theta = random_theta(rng, 3, 2)
        x = rng.standard_normal((100, 2))
        log_f = log_component_density(np.zeros(2), x)
        expect = np.exp(log_f - log_mixture_density(theta, x))
        np.testing.assert_allclose(likelihood_ratio(theta, x), expect, rtol=1e-10)

    def test_unit_mean_under_mixture(self):
        n = 100_000
        theta = MixtureParam([0.4, 0.6], [[2.0, 0.0], [-1.0, 1.0]])
        batch = sample_mixture(theta, n, RngStream(4))
        lr = likelihood_ratio(theta, batch.x)
        se = lr.std(ddof=1) / math.sqrt(n)
        assert abs(lr.mean() - 1.0) <= 4 * se

    @pytest.mark.parametrize("m, d", [(16, 4), (1, 100), (2, 100), (1, 30)])
    def test_row_blocks_do_not_move_bits(self, m, d):
        # the fused estimators' lr over pool blocks and matmul slices, for two block
        # sizes that start the blocks at different rows; a block start off the BLAS
        # kernel unroll moves some rows' bits.  The sampler weights its blocks the same
        # way: its lr and posteriors are those of one whole-batch pass.
        theta = random_theta(np.random.default_rng(m + d), m, d)
        n = 5 * _block_rows(d) + 7
        batch = sample_mixture(theta, n, RngStream(10))
        np.testing.assert_array_equal(batch.lr, likelihood_ratio(theta, batch.x))
        np.testing.assert_array_equal(batch.posteriors, posterior(theta, batch.x))
        outs = []
        for size in (_block_rows(d), _block_rows(d) // 2 + 17):
            outs.append(np.empty(n))
            _map(lambda rows: _lr(theta, batch.x[rows], outs[-1][rows]), _blocks(n, size))
        np.testing.assert_array_equal(*outs)


class TestTiltSlices:
    @pytest.mark.parametrize("m, d", [(16, 4), (2, 100)])
    def test_slices_match_component_oracle(self, m, d):
        # three full tilt slices of 2^18 multiply-adds and a ragged tail
        rng = np.random.default_rng(m + d)
        theta = random_theta(rng, m, d)
        x = rng.standard_normal((3 * (2 ** 18 // (m * d)) + 5, d))
        log_joint = np.array([math.log(w) + log_component_density(a, x)
                              for w, a in zip(theta.weights, theta.means)])
        log_h = logsumexp(log_joint, axis=0)
        lr, post = likelihood_ratio(theta, x), posterior(theta, x)
        np.testing.assert_allclose(log_mixture_density(theta, x), log_h, rtol=1e-12)
        np.testing.assert_allclose(lr, np.exp(log_component_density(np.zeros(d), x) - log_h),
                                   rtol=1e-9)
        np.testing.assert_allclose(post, np.exp(log_joint - log_h).T, rtol=1e-9, atol=1e-300)
        assert post.T.flags.c_contiguous  # component-major underneath
        # one _lr pass that fills both, as the sampler's blocks do, gives the same bits
        both_lr, both_post = np.empty(len(x)), np.empty((m, len(x)))
        _lr(theta, x, both_lr, both_post)
        np.testing.assert_array_equal(both_lr, lr)
        np.testing.assert_array_equal(both_post.T, post)

    def test_empty_batch(self):
        theta = MixtureParam([0.5, 0.5], [[1.0], [-1.0]])
        x = np.zeros((0, 1))
        assert likelihood_ratio(theta, x).shape == (0,)
        assert posterior(theta, x).shape == (0, 2)
        assert log_mixture_density(theta, x).shape == (0,)


class TestLabels:
    @given(st.one_of(st.integers(1, 1024), st.sampled_from([254, 255, 256, 510, 511, 512])),
           st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_searchsorted(self, m, seed, floored):
        # weights at the update's 1e-300 floor, u at and next to every cumulative
        # weight, and the extreme uniforms of RngStream._fill
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, 1.0, m)
        w[rng.uniform(size=m) < floored] = 1e-300
        w /= w.sum()
        edges = np.cumsum(w)
        u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0),
                            [2.0 ** -53, np.nextafter(1.0, 0.0)], rng.uniform(size=100)])
        np.testing.assert_array_equal(_labels(w, u),
                                      np.minimum(np.searchsorted(edges, u), m - 1))


class TestSampleMixture:
    def test_deterministic(self):
        theta = MixtureParam([0.5, 0.5], [[1.0], [-1.0]])
        s = RngStream(5)
        np.testing.assert_array_equal(sample_mixture(theta, 100, s).x,
                                      sample_mixture(theta, 100, s).x)

    def test_one_uniform_draw_per_batch(self):
        # labels take the first n uniforms, the normals the next n*d
        theta = MixtureParam([0.3, 0.7], [[1.0, 0.0, 2.0], [-1.0, 0.5, 0.0]])
        n, s = 50, RngStream(8, iteration=2)
        u = uniforms(s, n * 4)
        labels = (u[:n] > 0.3).astype(int)
        np.testing.assert_array_equal(sample_mixture(theta, n, s).x,
                                      ndtri(u[n:].reshape(n, 3)) + theta.means[labels])

    @pytest.mark.parametrize("d", [1, 3, 100])
    @pytest.mark.parametrize("m", [1, 2])
    def test_blocks_match_one_serial_draw(self, d, m):
        # three full blocks and a ragged tail; at d = 3 block starts fall
        # off the 4-word Philox counter steps
        n = 3 * _block_rows(d) + 5
        theta = random_theta(np.random.default_rng(d + m), m, d)
        stream = RngStream(9, phase="final_is", iteration=2, counter=7)
        x, _ = serial_sample(theta, n, stream)
        np.testing.assert_array_equal(sample_mixture(theta, n, stream).x, x)

    def test_many_components_match_one_serial_draw(self):
        # 300 components: the labels count their edges in two groups
        theta = random_theta(np.random.default_rng(10), 300, 2)
        stream = RngStream(9, phase="final_is")
        x, _ = serial_sample(theta, 2000, stream)
        np.testing.assert_array_equal(sample_mixture(theta, 2000, stream).x, x)

    def test_single_component_moments(self):
        n = 100_000
        theta = MixtureParam.single([3.0])
        x = sample_mixture(theta, n, RngStream(6)).x[:, 0]
        assert abs(x.mean() - 3.0) <= 4.0 / math.sqrt(n)

    def test_label_frequencies(self):
        n = 100_000
        theta = MixtureParam([0.2, 0.8], [[5.0], [-5.0]])
        x = sample_mixture(theta, n, RngStream(7)).x
        frac = (x[:, 0] > 0).mean()
        se = math.sqrt(0.2 * 0.8 / n)
        assert abs(frac - 0.2) <= 4 * se
        # labels and positions agree for well-separated components
        _, labels = serial_sample(theta, n, RngStream(7))
        assert np.all((x[:, 0] > 0) == (labels == 0))

    def test_dimension_mismatch(self):
        theta = MixtureParam.single([0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            likelihood_ratio(theta, np.zeros((5, 3)))
