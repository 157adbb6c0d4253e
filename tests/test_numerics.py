import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cemix.errors import NoBracket, NotPositiveDefinite, RankOutOfRange
from cemix.numerics import _for_blocks, bisect_root, cholesky, normal_cdf, order_statistic


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky(np.eye(2)), np.eye(2))

    def test_2x2_closed_form(self):
        # [[1,.2],[.2,1]] factors as [[1,0],[.2, sqrt(1-.04)]]
        c = cholesky([[1.0, 0.2], [0.2, 1.0]])
        expected = np.array([[1.0, 0.0], [0.2, math.sqrt(0.96)]])
        np.testing.assert_allclose(c, expected, atol=1e-12)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky([[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky([[1.0, 0.5], [0.2, 1.0]])

    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_reconstruction(self, d):
        rng = np.random.default_rng(d)
        a = rng.standard_normal((d, d))
        cov = a @ a.T + d * np.eye(d)
        scale = np.sqrt(np.diag(cov))
        corr = cov / np.outer(scale, scale)
        c = cholesky(corr)
        assert np.max(np.abs(c @ c.T - corr)) <= 1e-10
        assert np.all(np.diag(c) > 0)


class TestForBlocks:
    @given(st.integers(1, 20_000), st.data())
    @settings(max_examples=200, deadline=None)
    def test_blocks_partition_range(self, size, data):
        n = data.draw(st.integers(1, 50 * size))
        blocks = []
        _for_blocks(lambda lo, hi: blocks.append((lo, hi)), n, size)
        blocks.sort()
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert all(0 < hi - lo <= size for lo, hi in blocks)


class TestOrderStatistic:
    def test_small_cases(self):
        assert order_statistic([3, 1, 2], 1) == 1
        assert order_statistic([3, 1, 2], 3) == 3
        assert order_statistic([5, 5, 1], 2) == 5

    def test_rank_out_of_range(self):
        for k in (0, 4):
            with pytest.raises(RankOutOfRange):
                order_statistic([3, 1, 2], k)

    def test_matches_full_sort(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(100_000)
        full = np.sort(values)
        for k in (1, 17, 50_000, 100_000):
            assert order_statistic(values, k) == full[k - 1]

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=30), st.data())
    @settings(max_examples=100, deadline=None)
    def test_sort_oracle(self, values, data):
        k = data.draw(st.integers(1, len(values)))
        assert order_statistic(values, k) == sorted(values)[k - 1]


class TestBisectRoot:
    def test_linear(self):
        assert abs(bisect_root(lambda a: a - 1.0, 0.0, 2.0) - 1.0) <= 1e-10

    def test_exponential(self):
        root = bisect_root(lambda a: math.exp(a) - 2.0, 0.0, 1.0)
        assert abs(root - math.log(2.0)) <= 1e-10

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            bisect_root(lambda a: a * a, 1.0, 2.0)


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0) == 0.5

    def test_quadrature_oracle(self):
        # independent oracle: quadrature of the density
        density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
        expected, _ = quad(density, -30, -1.0)
        assert abs(normal_cdf(-1.0) - expected) <= 1e-10
        assert round(normal_cdf(-1.0), 6) == 0.158655

    def test_two_sided_benchmark_value(self):
        assert round(normal_cdf(-1.0) + normal_cdf(-1.5), 4) == 0.2255

    def test_complement_identity(self):
        for z in np.linspace(-8, 8, 33):
            assert abs(normal_cdf(z) + normal_cdf(-z) - 1.0) <= 1e-12

    def test_nondecreasing(self):
        z = np.linspace(-10, 10, 1001)
        assert np.all(np.diff(normal_cdf(z)) >= 0)
