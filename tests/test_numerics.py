import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cemix.errors import NoBracket, NotPositiveDefinite
from cemix.numerics import _blocks, _fold_columns, bisect_root, cholesky, normal_cdf


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


class TestBlocks:
    @given(st.integers(1, 20_000), st.data())
    @settings(max_examples=200, deadline=None)
    def test_blocks_partition_range(self, size, data):
        n = data.draw(st.integers(0, 50 * size))
        blocks = _blocks(n, size)
        ends = [0] + [rows.stop for rows in blocks]
        assert [rows.start for rows in blocks] == ends[:-1] and ends[-1] == n
        assert all(0 < rows.stop - rows.start <= size for rows in blocks)
        assert size < 16 or all(rows.start % 16 == 0 for rows in blocks)


class TestFoldColumns:
    @given(st.integers(1, 40), st.integers(1, 10), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_row_reductions(self, rows, cols, seed):
        # at the ends of the doubles, signed, and NaN: each row's max and any as numpy's
        edges = [np.inf, 1.7e308, 5e-324, 1.0, np.nan]
        a = np.random.default_rng(seed).choice(edges + [-v for v in edges], (rows, cols))
        np.testing.assert_array_equal(_fold_columns(np.maximum, a.T), a.max(axis=1))
        for level in (5e-324, 1.7e308, np.inf):
            reached = a >= level
            np.testing.assert_array_equal(_fold_columns(np.logical_or, reached.T),
                                          reached.any(axis=1))

    def test_columns_not_written(self):
        a = np.array([[1.0, 3.0], [4.0, 2.0]])
        np.testing.assert_array_equal(_fold_columns(np.maximum, a.T), [3.0, 4.0])
        np.testing.assert_array_equal(a, [[1.0, 3.0], [4.0, 2.0]])


class TestBisectRoot:
    def test_linear(self):
        assert abs(bisect_root(lambda a: a - 1.0, 0.0, 2.0) - 1.0) <= 1e-10

    def test_exponential(self):
        root = bisect_root(lambda a: math.exp(a) - 2.0, 0.0, 1.0)
        assert abs(root - math.log(2.0)) <= 1e-10

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            bisect_root(lambda a: a * a, 1.0, 2.0)

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_non_finite_bracket(self, lo, hi):
        with pytest.raises(NoBracket):
            bisect_root(lambda a: a - 0.5, lo, hi)

    def test_ends_where_doubles_are_wider_than_tol(self):
        # near 1e10 the doubles lie 2e-6 apart, so the bracket never gets
        # below tol; the halvings stop at adjacent doubles
        root = bisect_root(lambda a: a - (1e10 + 0.3), 0.0, 3e10)
        assert abs(root - (1e10 + 0.3)) <= 2 * math.ulp(1e10)

    def test_bracket_sum_beyond_float_range(self):
        # lo + hi overflows; the midpoints must stay inside the bracket
        big = np.finfo(float).max
        root = bisect_root(lambda a: a - 0.75 * big, 0.5 * big, big)
        assert abs(root - 0.75 * big) <= 2 * math.ulp(0.75 * big)


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
