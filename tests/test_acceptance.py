"""End-to-end acceptance checks against the benchmark reference values.

Each test covers one criterion and prints a single PASS line with its
headline numbers (run with `pytest -s` to see them).  Seeds are frozen;
every run is fully deterministic.
"""

import functools
import math
import sys
from pathlib import Path

import numpy as np

from cemix.engine import mixture_update, run_ce, CeConfig
from cemix.estimate import is_estimate
from cemix.experiments import (
    TWO_SIDED_CASES,
    TWO_SIDED_START,
    reproduce_table,
    run_experiment,
    two_sided_config,
)
from cemix.initialization import RarityConfig, init_rarity_ce
from cemix.mixture import (
    MixtureParam,
    SampleBatch,
    likelihood_ratio,
    posterior,
    sample_mixture,
)
from cemix.models import CevDigital, TwoSidedTail
from cemix.numerics import normal_cdf
from cemix.rng import RngStream
from oracles import basic_update, permuted

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from references import TABLE_4_CV  # noqa: E402

TWO_SIDED_TRUTHS = [normal_cdf(-a) + normal_cdf(b) for a, b in TWO_SIDED_CASES]


@functools.lru_cache(maxsize=None)
def table(table_id, seed):
    return reproduce_table(table_id, seed=seed)


def test_criterion_1_two_sided_truth():
    rounded = [round(float(t), 4) for t in TWO_SIDED_TRUTHS]
    assert rounded == [0.2255, 0.0290, 0.0241]
    print(f"PASS criterion 1: two-sided truths {rounded}")


def test_criterion_2_table2_rarity_init():
    rows = table(2, 1)
    min_vr = (2.0, 7.0, 8.0)
    for row, truth, vr_floor in zip(rows, TWO_SIDED_TRUTHS, min_vr):
        assert abs(row.estimate - truth) <= 3 * row.std_error, row.label
        assert row.var_ratio >= vr_floor, row.label
    summary = ", ".join(f"{r.estimate:.4f}/vr={r.var_ratio:.1f}" for r in rows)
    print(f"PASS criterion 2: table 2 rows {summary}")


def test_criterion_3_perturbation_collapse():
    collapsed = 0
    for seed in range(7000, 7020):
        row = run_experiment(two_sided_config(
            2.0, -2.5, {"method": "perturbation", "means": TWO_SIDED_START},
            seed, n_final=10_000))
        collapsed += "collapse" in row.flags
    assert collapsed >= 1
    print(f"PASS criterion 3: {collapsed}/20 perturbation runs collapsed")


def test_criterion_4_table4_asian():
    rows = table(4, 1)
    refs = (4.0766, 1.0179, 0.1917, 0.0309, 0.0045)
    ref_vr = (9.5, 18.7, 58.3, 277.9, 1119.1)
    for row, ref, vr in zip(rows, refs, ref_vr):
        assert abs(row.estimate - ref) <= 0.03 * ref, row.label
        assert row.var_ratio >= 0.5 * vr, row.label
    # the non-extreme strikes against 4M-path control-variate values, drawn outside cemix
    for row, strike in zip(rows, (50.0, 60.0, 70.0)):
        assert abs(row.estimate - TABLE_4_CV[strike][0]) <= 4 * row.std_error, row.label
    summary = ", ".join(f"{r.estimate:.4f}" for r in rows)
    print(f"PASS criterion 4: table 4 estimates {summary}")


def test_criterion_5_rainbow_tables():
    refs = {
        5: (3.5898, 3.5825, 0.2768, 0.2763, 0.0093, 0.0093),
        6: (4.6841, 4.6722, 0.5271, 0.5284, 0.0360, 0.0362),
    }
    for table_id, seed in ((5, 2), (6, 3)):
        rows = table(table_id, seed)
        for row, ref in zip(rows, refs[table_id]):
            tol = 3 * row.std_error + 5e-5  # reference values carry 4 decimals
            assert abs(row.estimate - ref) <= tol, f"table {table_id} {row.label}"
        for ce_row, ap_row in zip(rows[0::2], rows[1::2]):
            gap = abs(ce_row.estimate - ap_row.estimate)
            combined = math.hypot(ce_row.std_error, ap_row.std_error)
            assert gap <= 3 * combined, f"table {table_id} {ce_row.label}"
    summary = ", ".join(f"{r.estimate:.4f}" for r in table(5, 2) + table(6, 3))
    print(f"PASS criterion 5: rainbow estimates {summary}")


def test_criterion_6_pyramid_tables():
    refs = {
        7: ((9.3417, 3.4025, 0.9050, 0.1930, 0.047), (3.4, 6.3, 16.5, 64.6, 262.3)),
        8: ((8.8209, 3.2507, 0.8504, 0.1713, 0.032), (4.0, 6.2, 14.8, 51.6, 232.8)),
    }
    for table_id in (7, 8):
        rows = table(table_id, 1)
        for row, ref, vr in zip(rows, *refs[table_id]):
            digits = 4 if ref >= 0.1 else 3  # last column is printed coarser
            tol = 3 * row.std_error + 0.5 * 10.0 ** -digits
            assert abs(row.estimate - ref) <= tol, f"table {table_id} {row.label}"
            assert 0.5 * vr <= row.var_ratio <= 2.0 * vr, f"table {table_id} {row.label}"
    summary = ", ".join(f"{r.estimate:.4f}" for r in table(7, 1) + table(8, 1))
    print(f"PASS criterion 6: pyramid estimates {summary}")


def test_criterion_7_cev_table():
    rows = table(9, 5)
    refs = (0.8297, 0.1908, 0.0314, 0.0039, 3.3638e-4)
    for row, ref in zip(rows, refs):
        assert abs(row.estimate - ref) <= 4 * row.std_error, row.label
    assert rows[-1].var_ratio >= 200.0
    summary = ", ".join(f"{r.estimate:.4g}" for r in rows)
    print(f"PASS criterion 7: table 9 estimates {summary}, "
          f"vr(K=70)={rows[-1].var_ratio:.0f}")


def _random_pilot(rng):
    m = rng.integers(1, 5)
    d = rng.integers(1, 4)
    n = 100
    w = rng.uniform(0.1, 1.0, m)
    theta = MixtureParam(w / w.sum(), 2.0 * rng.standard_normal((m, d)))
    x = rng.standard_normal((n, d)) + theta.means[rng.integers(0, m, n)]
    payoff = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.7)
    if not np.any(payoff > 0):
        payoff[0] = 1.0
    lr = rng.uniform(0.2, 5.0, n)
    return SampleBatch(x=x, lr=lr, posteriors=posterior(theta, x)), payoff, theta


def _surrogate(batch, payoff, theta):
    from cemix.engine import surrogate_objective

    return surrogate_objective(batch, payoff, theta)


def test_criterion_8_property_suite():
    rng = np.random.default_rng(2024)

    # EM ascent of the sampled objective on 1000 random pilot evaluations
    for _ in range(1000):
        batch, payoff, theta = _random_pilot(rng)
        new = mixture_update(batch, payoff, theta, weight_floor=0.0)
        j0, j1 = _surrogate(batch, payoff, theta), _surrogate(batch, payoff, new)
        assert j1 >= j0 - 1e-9 * abs(j0) - 1e-12

    # single-component update reduces exactly to the basic update
    batch, payoff, _ = _random_pilot(np.random.default_rng(7))
    batch1 = SampleBatch(x=batch.x, lr=batch.lr, posteriors=np.ones((batch.x.shape[0], 1)))
    got = mixture_update(batch1, payoff, MixtureParam.single(np.zeros(batch.x.shape[1])),
                         weight_floor=0.0)
    np.testing.assert_array_equal(got.means[0], basic_update(batch1, payoff))

    # posterior rows normalize to machine precision
    for _ in range(50):
        batch, _, theta = _random_pilot(rng)
        assert np.max(np.abs(batch.posteriors.sum(axis=1) - 1.0)) <= 1e-12

    # likelihood ratios average to one under the mixture
    theta = MixtureParam([0.3, 0.7], [[1.5, 0.0], [-1.0, 2.0]])
    batch = sample_mixture(theta, 100_000, RngStream(21))
    lr = likelihood_ratio(theta, batch.x)
    assert abs(lr.mean() - 1.0) <= 4 * lr.std(ddof=1) / math.sqrt(lr.size)

    # permutation equivariance of the mixture update
    batch, payoff, theta = _random_pilot(np.random.default_rng(8))
    if theta.m > 1:
        perm = np.random.default_rng(9).permutation(theta.m)
        batch_p = SampleBatch(x=batch.x, lr=batch.lr, posteriors=batch.posteriors[:, perm])
        a = mixture_update(batch, payoff, theta)
        b = mixture_update(batch_p, payoff, permuted(theta, perm))
        np.testing.assert_allclose(b.means, a.means[perm], rtol=1e-12)
        np.testing.assert_allclose(b.weights, a.weights[perm], rtol=1e-12)

    # payoff-scale invariance
    a = mixture_update(batch, payoff, theta)
    b = mixture_update(batch, 42.0 * payoff, theta)
    np.testing.assert_allclose(a.means, b.means, rtol=1e-12)

    # rarity parameters grow monotonically stage over stage
    _, trace = init_rarity_ce(
        TwoSidedTail(a=2.0, b=-2.5), RarityConfig(rho=0.05, pilot_size=20000),
        MixtureParam.uniform(TWO_SIDED_START), RngStream(22, phase="init"))
    deltas = np.array([rec.delta for rec in trace])
    assert np.all(np.diff(deltas, axis=0) >= 0) and np.all(deltas[-1] >= 1.0)

    # Euler paths reduce to the geometric recursion in the unit-elasticity limit
    model = CevDigital(s0=50.0, h0=48.0, sigma1=0.3, sigma2=0.35, gamma1=1.0,
                       gamma2=1.0, rho=0.0, r=0.03, maturity=1.0, strike=55.0,
                       n_steps=10)
    x = np.random.default_rng(10).standard_normal((20, 20))
    s_t, h_t = model._euler(x)
    dt, grow = 0.1, math.exp(0.03)
    for i in range(20):
        s, h = 50.0, 48.0
        for k in range(10):
            s = max(s * (1.0 + 0.3 * math.sqrt(dt) * x[i, 2 * k]), 0.0)
            h = max(h * (1.0 + 0.35 * math.sqrt(dt) * x[i, 2 * k + 1]), 0.0)
        assert abs(s_t[i] - grow * s) <= 1e-12 * max(s, 1.0)
        assert abs(h_t[i] - grow * h) <= 1e-12 * max(h, 1.0)

    # V = exp(<c, x>) drives the tilt to c and the estimator variance to zero
    c = np.array([1.2, -0.8])

    class Expo:
        dim = 2

        @staticmethod
        def payoff(x):
            return np.exp(np.asarray(x) @ c)

        _payoff = payoff

    theta, _ = run_ce(Expo(), MixtureParam.single([0.0, 0.0]),
                      CeConfig(pilot_size=100_000, iterations=5), RngStream(23))
    assert np.max(np.abs(theta.means[0] - c)) <= 0.05
    report = is_estimate(Expo(), theta, 100_000, RngStream(23, phase="final_is"))
    truth = math.exp(0.5 * float(c @ c))
    assert abs(report.estimate - truth) <= 4 * report.std_error
    assert report.relative_error <= 1e-3

    print("PASS criterion 8: property suite (EM ascent, reductions, "
          "invariances, monotonicity, limits)")
