import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cemix import engine, experiments, numerics
from cemix.engine import (
    CeConfig,
    _block_sums,
    _pilot,
    _pilot_pass,
    mixture_update,
    run_ce,
    surrogate_objective,
)
from cemix.errors import DegenerateUpdate
from cemix.experiments import ExperimentConfig, run_experiment
from cemix.mixture import (
    MixtureParam,
    SampleBatch,
    likelihood_ratio,
    posterior,
    sample_mixture,
)
from cemix.initialization import init_approx
from cemix.models import CevDigital, Model, PyramidOption, TwoSidedTail
from cemix.rng import RngStream
from oracles import basic_update, block_sums, normals, objective_sum, permuted


def make_eval(x, payoff, lr=None, theta=None):
    """(batch, payoff) of a pilot with these draws, payoffs and likelihood ratios."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    lr = np.ones(x.shape[0]) if lr is None else np.asarray(lr, dtype=float)
    post = posterior(theta, x) if theta is not None else np.ones((x.shape[0], 1))
    return SampleBatch(x=x, lr=lr, posteriors=post), np.asarray(payoff, dtype=float)


def random_eval(rng, n=200, m=3, d=2):
    w = rng.uniform(0.1, 1.0, m)
    theta = MixtureParam(w / w.sum(), 2.0 * rng.standard_normal((m, d)))
    x = rng.standard_normal((n, d)) + rng.choice(theta.means, n)
    payoff = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.7)
    lr = rng.uniform(0.5, 2.0, n)
    return (*make_eval(x, payoff, lr, theta), theta)


class TestBasicUpdate:
    def test_single_sample(self):
        np.testing.assert_allclose(basic_update(*make_eval([[2.0, -1.0]], [3.0])), [2.0, -1.0])

    def test_plain_mean_when_flat(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((500, 2))
        np.testing.assert_allclose(basic_update(*make_eval(x, np.ones(500))), x.mean(axis=0),
                                   rtol=1e-12)

    def test_hand_computed(self):
        pilot = make_eval([[1.0], [2.0], [3.0]], [1.0, 0.0, 2.0], [0.5, 9.9, 1.0])
        # weights V*lr = (0.5, 0, 2) -> mean (0.5*1 + 2*3) / 2.5 = 2.6
        np.testing.assert_allclose(basic_update(*pilot), [2.6], rtol=1e-14)

    def test_all_zero_payoff_degenerate(self):
        pilot = make_eval([[1.0], [2.0]], [0.0, 0.0])
        with pytest.raises(DegenerateUpdate):
            basic_update(*pilot)

    def test_exponential_payoff_tilts_toward_c(self):
        # V = e^{c x} under f gives weighted mean -> c as n grows
        c, n = 1.5, 400_000
        x = normals(RngStream(1), n, 1)
        v = np.exp(c * x[:, 0])
        w = v / v.sum()
        est = basic_update(*make_eval(x, v))[0]
        se = math.sqrt(float(np.sum(w**2 * (x[:, 0] - est) ** 2)))
        assert abs(est - c) <= 4 * se


def fsum_update(batch, payoff, theta_prev, weight_floor):
    """Reference update: one compensated sum per component and coordinate."""
    w = payoff * batch.lr
    denom = math.fsum(w)
    m = batch.posteriors.shape[1]
    weights = np.empty(m)
    means = np.array(theta_prev.means, copy=True)
    for j in range(m):
        wj = w * batch.posteriors[:, j]
        mass = math.fsum(wj)
        weights[j] = mass / denom
        if mass > 0:
            means[j] = [math.fsum(wj * batch.x[:, k]) / mass for k in range(batch.x.shape[1])]
    weights = np.maximum(weights, max(weight_floor, 1e-300))
    return weights / weights.sum(), means


class TestMixtureUpdate:
    def test_matches_compensated_reference(self):
        # the array form sums in another order; 1e-12 is a few thousand
        # ulps of double rounding, far above the ~1e-15 seen
        rng = np.random.default_rng(15)
        for _ in range(20):
            batch, payoff, theta = random_eval(rng, n=2000, m=int(rng.integers(1, 5)),
                                               d=int(rng.integers(1, 6)))
            got = mixture_update(batch, payoff, theta, weight_floor=1e-3)
            weights, means = fsum_update(batch, payoff, theta, 1e-3)
            np.testing.assert_allclose(got.weights, weights, rtol=1e-12)
            np.testing.assert_allclose(got.means, means, rtol=1e-12, atol=1e-14)

    def test_single_component_matches_basic(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((300, 3))
        payoff = rng.uniform(0, 1, 300)
        lr = rng.uniform(0.5, 2.0, 300)
        batch, payoff = make_eval(x, payoff, lr)
        theta_prev = MixtureParam.single(np.zeros(3))
        updated = mixture_update(batch, payoff, theta_prev, weight_floor=0.0)
        np.testing.assert_array_equal(updated.means[0], basic_update(batch, payoff))
        np.testing.assert_array_equal(updated.weights, [1.0])

    def test_hand_computed_two_components(self):
        x = np.array([[1.0], [2.0], [-1.0], [-2.0]])
        payoff = np.array([1.0, 2.0, 1.0, 1.0])
        lr = np.array([1.0, 0.5, 1.0, 2.0])
        post = np.array([[1.0, 0.0], [0.8, 0.2], [0.0, 1.0], [0.1, 0.9]])
        batch = SampleBatch(x=x, lr=lr, posteriors=post)
        theta_prev = MixtureParam([0.5, 0.5], [[1.0], [-1.0]])
        got = mixture_update(batch, payoff, theta_prev, weight_floor=0.0)
        # v*lr = (1, 1, 1, 2) with total mass 5
        w1 = (1.0 * 1.0 + 1.0 * 0.8 + 2.0 * 0.1)
        w2 = (1.0 * 0.2 + 1.0 * 1.0 + 2.0 * 0.9)
        a1 = (1.0 * 1.0 * 1.0 + 1.0 * 0.8 * 2.0 + 2.0 * 0.1 * -2.0) / w1
        a2 = (1.0 * 0.2 * 2.0 + 1.0 * 1.0 * -1.0 + 2.0 * 0.9 * -2.0) / w2
        np.testing.assert_allclose(got.weights, [w1 / 5.0, w2 / 5.0], rtol=1e-14)
        np.testing.assert_allclose(got.means, [[a1], [a2]], rtol=1e-14)

    def test_payoff_scale_invariance(self):
        rng = np.random.default_rng(2)
        batch, payoff, theta = random_eval(rng)
        a = mixture_update(batch, payoff, theta)
        b = mixture_update(batch, 137.0 * payoff, theta)
        np.testing.assert_allclose(a.weights, b.weights, rtol=1e-12)
        np.testing.assert_allclose(a.means, b.means, rtol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        batch, payoff, theta = random_eval(rng)
        perm = np.array([2, 0, 1])
        batch_p = SampleBatch(x=batch.x, lr=batch.lr, posteriors=batch.posteriors[:, perm])
        a = mixture_update(batch, payoff, theta)
        b = mixture_update(batch_p, payoff, permuted(theta, perm))
        np.testing.assert_allclose(b.weights, a.weights[perm], rtol=1e-12)
        np.testing.assert_allclose(b.means, a.means[perm], rtol=1e-12)

    def test_weights_normalized_and_floored(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            batch, payoff, theta = random_eval(rng)
            got = mixture_update(batch, payoff, theta, weight_floor=1e-3)
            assert abs(got.weights.sum() - 1.0) <= 1e-12
            assert np.all(got.weights >= 1e-3 / (1.0 + 1e-3 * theta.m))

    def test_means_in_sample_hull(self):
        rng = np.random.default_rng(5)
        batch, payoff, theta = random_eval(rng, d=1)
        got = mixture_update(batch, payoff, theta)
        active = batch.x[payoff > 0, 0]
        assert np.all(got.means[:, 0] >= active.min() - 1e-12)
        assert np.all(got.means[:, 0] <= active.max() + 1e-12)

    def test_dead_component_keeps_mean(self):
        # all payoff mass is posterior-assigned to component 0
        x = np.array([[1.0], [2.0]])
        post = np.array([[1.0, 0.0], [1.0, 0.0]])
        batch = SampleBatch(x=x, lr=np.ones(2), posteriors=post)
        theta_prev = MixtureParam([0.5, 0.5], [[0.0], [-7.0]])
        got = mixture_update(batch, np.ones(2), theta_prev, weight_floor=1e-4)
        assert got.means[1, 0] == -7.0
        assert got.weights[1] == pytest.approx(1e-4 / (1.0 + 1e-4), rel=1e-10)

    def test_degenerate(self):
        batch, payoff = make_eval([[1.0], [2.0]], [0.0, 0.0])
        with pytest.raises(DegenerateUpdate):
            mixture_update(batch, payoff, MixtureParam.single([0.0]))


class TestBlockSums:
    def test_matches_row_major_oracle(self):
        # component-major sums against (k, m) ones, to 1e-12 of the sums of magnitudes;
        # a transposed view of the posteriors gives the same bits
        rng = np.random.default_rng(20)
        for _ in range(20):
            m, d, k = (int(rng.integers(1, top)) for top in (17, 101, 3000))
            x = rng.standard_normal((k, d))
            payoff = rng.uniform(0.0, 1.0, k) * (rng.random(k) < 0.7)
            lr = rng.uniform(0.5, 2.0, k)
            post = rng.dirichlet(np.ones(m), k)
            got = _block_sums(x, payoff * lr, np.ascontiguousarray(post.T))
            want = block_sums(x, payoff, lr, post)
            bound = block_sums(np.abs(x), payoff, lr, post)[2]
            assert got[0] == want[0]
            np.testing.assert_allclose(got[1], want[1], rtol=1e-12)
            assert np.all(np.abs(got[2] - want[2]) <= 1e-12 * bound)
            for a, b in zip(got, _block_sums(x, payoff * lr, post.T)):
                np.testing.assert_array_equal(a, b)


class TestSurrogateObjective:
    def test_zero_payoff(self):
        batch, payoff = make_eval([[1.0]], [0.0])
        assert surrogate_objective(batch, payoff, MixtureParam.single([0.0])) == 0.0

    def test_flat_payoff_mean_log_density(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((100, 1))
        batch, payoff = make_eval(x, np.ones(100))
        theta = MixtureParam.single([0.0])
        expect = np.mean(-0.5 * x[:, 0] ** 2 - 0.5 * math.log(2 * math.pi))
        assert abs(surrogate_objective(batch, payoff, theta) - expect) <= 1e-12

    def test_em_ascent(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            batch, payoff, theta = random_eval(rng)
            if not np.any(payoff * batch.lr > 0):
                continue
            batch = SampleBatch(x=batch.x, lr=batch.lr, posteriors=posterior(theta, batch.x))
            new = mixture_update(batch, payoff, theta, weight_floor=0.0)
            j0 = surrogate_objective(batch, payoff, theta)
            j1 = surrogate_objective(batch, payoff, new)
            assert j1 >= j0 - 1e-9 * abs(j0) - 1e-12


class TestRunCe:
    def test_flat_payoff_stays_near_origin(self):
        class Flat(Model):
            dim = 2

            def _payoff(self, x):
                return np.ones(x.shape[0])

        theta, trace = run_ce(Flat(), MixtureParam.single([1.0, 1.0]),
                              CeConfig(pilot_size=50_000, iterations=3), RngStream(8))
        assert len(trace) == 3
        assert np.max(np.abs(theta.means)) <= 0.05

    def test_exponential_payoff_converges_to_c(self):
        c = np.array([1.0, -0.5])

        class Exponential(Model):
            dim = 2

            def _payoff(self, x):
                return np.exp(x @ c)

        theta, _ = run_ce(Exponential(), MixtureParam.single([0.0, 0.0]),
                          CeConfig(pilot_size=100_000, iterations=4), RngStream(9))
        assert np.max(np.abs(theta.means[0] - c)) <= 0.05

    def test_two_sided_benchmark_region(self):
        model = TwoSidedTail(a=1.0, b=-1.5)
        theta0 = MixtureParam.uniform([[0.0], [-0.1]])
        theta, trace = run_ce(model, theta0,
                              CeConfig(pilot_size=20_000, iterations=5), RngStream(10))
        means = theta.means[:, 0]
        up, down = means.max(), means.min()
        assert 1.3 <= up <= 1.7 and -2.2 <= down <= -1.6
        w_up = theta.weights[np.argmax(means)]
        assert 0.6 <= w_up <= 0.8
        # the objective of each drawing theta, on its own pilot, ends above where it began
        objs = [rec.objective for rec in trace]
        assert objs[-1] >= objs[0]

    def test_degenerate_reports_iteration(self):
        model = TwoSidedTail(a=7.0, b=-7.0)
        theta0 = MixtureParam.uniform([[0.0], [-0.1]])
        with pytest.raises(DegenerateUpdate) as exc_info:
            run_ce(model, theta0, CeConfig(pilot_size=100, iterations=3), RngStream(11))
        assert exc_info.value.iteration == 1

    def test_low_positive_warning_recorded(self, monkeypatch):
        # about half of this pilot is positive: flagged only when the
        # threshold exceeds the pilot size
        cfg = ExperimentConfig(
            model="two_sided_tail", model_params=dict(a=3.5, b=-3.5),
            init={"method": "perturbation", "means": [[3.5], [-3.5]]},
            pilot_size=2000, iterations=1, n_final=2000, seed=12)
        row = run_experiment(cfg)
        assert 10 <= row.trace[0].positive_payoffs < 2000
        assert "low_positive_pilot" not in row.flags
        monkeypatch.setattr(experiments, "LOW_POSITIVE_PILOT", 2001)
        assert "low_positive_pilot" in run_experiment(cfg).flags


class TestEvaluatePilot:
    def test_fields_consistent(self):
        model = TwoSidedTail(a=1.0, b=-1.5)
        theta = MixtureParam.uniform([[1.0], [-1.5]])
        batch = sample_mixture(theta, 500, RngStream(13))
        payoff = model.payoff(batch.x)
        assert batch.x.shape == (500, 1)
        assert set(np.unique(payoff)) <= {0.0, 1.0}
        assert np.all(batch.lr > 0)
        assert np.max(np.abs(batch.posteriors.sum(axis=1) - 1.0)) <= 1e-12

    def test_matches_separate_evaluations(self):
        # one shared log-joint gives the same bits as two separate passes
        model = TwoSidedTail(a=2.0, b=-2.5)
        theta = MixtureParam([0.3, 0.7], [[2.2], [-2.7]])
        batch = sample_mixture(theta, 1000, RngStream(14))
        np.testing.assert_array_equal(batch.lr, likelihood_ratio(theta, batch.x))
        np.testing.assert_array_equal(batch.posteriors, posterior(theta, batch.x))

    def test_lr_range(self):
        # an underflowed lr of 0 is a zero weight; a negative or non-finite
        # one is a degenerate pilot; payoffs or posteriors of another length
        # than the draws are an inconsistent one
        theta = MixtureParam.single([0.0])
        batch = SampleBatch(x=np.zeros((2, 1)), lr=np.array([0.0, 1.0]),
                            posteriors=np.ones((2, 1)))
        assert mixture_update(batch, np.ones(2), theta).weights[0] == 1.0
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(DegenerateUpdate):
                mixture_update(SampleBatch(x=np.zeros((2, 1)), lr=np.array([bad, 1.0]),
                                           posteriors=np.ones((2, 1))), np.ones(2), theta)
        with pytest.raises(ValueError):
            mixture_update(batch, np.ones(3), theta)
        with pytest.raises(ValueError):
            mixture_update(SampleBatch(x=batch.x, lr=batch.lr, posteriors=np.ones((3, 1))),
                           np.ones(2), theta)

    def test_rejects_negative_payoff(self):
        with pytest.raises(ValueError):
            mixture_update(SampleBatch(x=np.zeros((1, 1)), lr=np.ones(1),
                                       posteriors=np.ones((1, 1))),
                           np.array([-1.0]), MixtureParam.single([0.0]))


def pilot_problem(name):
    """(model, theta, pilot size) of a d=1, a d=4 (m=16) and a d=100 pilot."""
    if name == "tail-1d":
        return TwoSidedTail(a=2.0, b=-2.5), MixtureParam([0.4, 0.6], [[2.1], [-2.4]]), 20_000
    if name == "pyramid-4d":
        model = PyramidOption(strike=40.0, **experiments.PYRAMID_4)
    else:
        model = CevDigital(strike=60.0, **experiments.CEV)
    return model, init_approx(model), 10_000


PILOT_STREAM = RngStream(16, phase="pilot", iteration=1)


class TestFusedPilot:
    @pytest.mark.parametrize("name", ["tail-1d", "pyramid-4d", "cev-100d"])
    def test_matches_unfused_reference(self, name):
        # sample_mixture -> payoff -> mixture_update, and surrogate_objective under the
        # theta that drew the batch
        model, theta, n = pilot_problem(name)
        new, objective, positive = _pilot(model, theta, n, PILOT_STREAM, 1e-4)
        batch = sample_mixture(theta, n, PILOT_STREAM)
        payoff = model.payoff(batch.x)
        ref = mixture_update(batch, payoff, theta, 1e-4)
        np.testing.assert_allclose(new.weights, ref.weights, rtol=1e-12)
        np.testing.assert_allclose(new.means, ref.means, rtol=1e-12)
        assert objective == pytest.approx(surrogate_objective(batch, payoff, theta), rel=1e-12)
        whole = objective_sum(theta, batch.x, payoff, batch.lr) / n
        assert objective == pytest.approx(whole, rel=1e-12)
        assert positive == np.count_nonzero(payoff > 0)
        assert 0 < positive < n

    @pytest.mark.parametrize("name", ["tail-1d", "pyramid-4d", "cev-100d"])
    def test_bit_identical_on_any_pool(self, name, monkeypatch):
        model, theta, n = pilot_problem(name)
        runs = []
        for workers in (1, 2, 3):
            with ThreadPoolExecutor(workers) as pool:
                monkeypatch.setattr(numerics, "_POOL", pool)
                new, objective, positive = _pilot(model, theta, n, PILOT_STREAM, 1e-4)
            runs.append((new.weights.tobytes(), new.means.tobytes(), objective, positive))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("name", ["tail-1d", "pyramid-4d", "cev-100d"])
    def test_pass_blocks_are_sample_mixture_rows(self, name, monkeypatch):
        # the blocks of a pilot pass, put together, are the one whole-batch draw
        _, theta, n = pilot_problem(name)
        batch = sample_mixture(theta, n, PILOT_STREAM)
        for workers in (1, 2, 3):
            with ThreadPoolExecutor(workers) as pool:
                monkeypatch.setattr(numerics, "_POOL", pool)
                blocks = _pilot_pass(theta, n, PILOT_STREAM, lambda *block: block)
            assert len(blocks) > 1
            x, lr, post = zip(*blocks)
            np.testing.assert_array_equal(np.concatenate(x), batch.x)
            np.testing.assert_array_equal(np.concatenate(lr), batch.lr)
            np.testing.assert_array_equal(np.concatenate(post, axis=1), batch.posteriors.T)

    def test_block_sizes_keep_the_pilot_partition(self, monkeypatch):
        # pilot blocks are max(8192, 2^16 // (d + 1)) // 2 rows at every d, and final
        # blocks max(8192, 2^16 // (d + 1)) below d = 8: the CE and rarity-stage bits,
        # and those of every final pass below d = 8, rest on these sizes
        sizes = []
        monkeypatch.setattr(engine, "_blocks", lambda n, size: sizes.append(size) or [])
        for d in range(1, 301):
            assert _pilot_pass(MixtureParam.single(np.zeros(d)), 100, PILOT_STREAM, None) == []
        assert sizes == [max(8192, 2 ** 16 // (d + 1)) // 2 for d in range(1, 301)]
        assert [numerics._block_rows(d) for d in range(1, 8)] == [
            max(8192, 2 ** 16 // (d + 1)) for d in range(1, 8)]

    def test_negative_payoff_rejected(self):
        class Signed(Model):
            dim = 1

            def _payoff(self, x):
                return x[:, 0]

        with pytest.raises(ValueError, match="nonnegative"):
            run_ce(Signed(), MixtureParam.single([0.0]), CeConfig(pilot_size=20_000),
                   RngStream(17))

    def test_first_failing_block_raises(self, monkeypatch):
        # a NaN lr in block 0 of 3 and negative payoffs in every block: block 0's
        # DegenerateUpdate raises on any pool, before any later block's ValueError
        class Signed(Model):
            dim = 1

            def _payoff(self, x):
                return x[:, 0]

        draw_rows = engine._draw_rows

        def spoiled(theta, n, stream, lo, x, lr, post=None):
            draw_rows(theta, n, stream, lo, x, lr, post)
            if lo == 0:
                lr[0] = np.nan

        monkeypatch.setattr(engine, "_draw_rows", spoiled)
        assert len(numerics._blocks(40_000, numerics._block_rows(1, 2 ** 15))) == 3
        for workers in (1, 2, 3):
            with ThreadPoolExecutor(workers) as pool:
                monkeypatch.setattr(numerics, "_POOL", pool)
                with pytest.raises(DegenerateUpdate, match="likelihood ratios"):
                    _pilot(Signed(), MixtureParam.single([0.0]), 40_000, PILOT_STREAM, 1e-4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_lr_reports_iteration(self, bad, monkeypatch):
        # a non-finite likelihood ratio in the last block of the second pilot
        draw_rows = engine._draw_rows

        def spoiled(theta, n, stream, lo, x, lr, post=None):
            draw_rows(theta, n, stream, lo, x, lr, post)
            if stream.iteration == 2 and lo + len(x) == n:
                lr[-1] = bad

        monkeypatch.setattr(engine, "_draw_rows", spoiled)
        with pytest.raises(DegenerateUpdate, match="likelihood ratios") as exc_info:
            run_ce(TwoSidedTail(a=1.0, b=-1.5), MixtureParam.uniform([[1.0], [-1.5]]),
                   CeConfig(pilot_size=20_000, iterations=3), RngStream(18))
        assert exc_info.value.iteration == 2

    def test_zero_mass_reports_iteration(self):
        with pytest.raises(DegenerateUpdate, match="mass is 0.0") as exc_info:
            run_ce(TwoSidedTail(a=9.0, b=-9.0), MixtureParam.uniform([[0.0], [-0.1]]),
                   CeConfig(pilot_size=20_000, iterations=2), RngStream(19))
        assert exc_info.value.iteration == 1
