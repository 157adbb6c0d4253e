import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cemix.errors import ConfigError
from cemix.rng import PHASES, RngStream
from oracles import normals, uniforms


def test_determinism_bit_identical():
    s = RngStream(42, phase="pilot", iteration=3)
    np.testing.assert_array_equal(normals(s, 100, 3), normals(s, 100, 3))


def test_single_draw_repeatable():
    s = RngStream(7)
    np.testing.assert_array_equal(normals(s, 1, 3), normals(s, 1, 3))


def test_distinct_coordinates_differ():
    base = RngStream(1)
    variants = [
        RngStream(2),
        base.child(phase="init"),
        base.child(iteration=1),
        base.child(counter=1),
    ]
    x = normals(base, 10, 2)
    for other in variants:
        assert not np.array_equal(x, normals(other, 10, 2))


def test_mean_clt_bound():
    x = normals(RngStream(5), 1_000_000, 1)
    assert abs(x.mean()) <= 4.0 / np.sqrt(1_000_000)


def test_per_coordinate_variance():
    x = normals(RngStream(9), 100_000, 2)
    var = x.var(axis=0, ddof=1)
    assert np.all((0.98 <= var) & (var <= 1.02))


def test_child_replaces_coordinates():
    s = RngStream(3).child(phase="final_is", iteration=2, counter=5)
    assert (s.seed, s.phase, s.iteration, s.counter) == (3, "final_is", 2, 5)


def test_all_phases_valid():
    for phase in PHASES:
        normals(RngStream(0, phase=phase), 1, 1)


def test_unknown_phase_rejected():
    with pytest.raises(ValueError):
        RngStream(0, phase="warmup")


def test_bad_counts_rejected():
    with pytest.raises(ValueError):
        normals(RngStream(0), 0, 1)


def test_uniforms_open_interval():
    u = RngStream(11)._fill(np.empty(1000), 0)
    assert np.all((u > 0) & (u < 1))


def test_block_draw_is_a_slice_of_one_draw():
    s = RngStream(12, phase="baseline", counter=3)
    u = uniforms(s, 64)
    for start in range(9):
        for size in (1, 3, 4, 7):
            np.testing.assert_array_equal(s._fill(np.empty(size), start), u[start:start + size])


@pytest.mark.parametrize("coords", [
    dict(seed=-1), dict(seed=2**64), dict(seed=0, iteration=-1), dict(seed=0, iteration=2**28),
    dict(seed=0, counter=-1), dict(seed=0, counter=2**32),
])
def test_out_of_range_coordinates_rejected(coords):
    with pytest.raises(ConfigError):
        RngStream(**coords)


def test_child_out_of_range_rejected():
    with pytest.raises(ConfigError):
        RngStream(0).child(counter=2**32)


def test_extreme_in_range_coordinates_accepted():
    s = RngStream(2**64 - 1, phase="baseline", iteration=2**28 - 1, counter=2**32 - 1)
    assert s._fill(np.empty(3), 5).shape == (3,)


in_range = st.tuples(st.integers(0, 2**64 - 1), st.sampled_from(PHASES),
                     st.integers(0, 2**28 - 1), st.integers(0, 2**32 - 1))


@given(in_range, in_range)
def test_distinct_coordinates_give_distinct_keys(a, b):
    if a != b:
        assert RngStream(*a)._key() != RngStream(*b)._key()
