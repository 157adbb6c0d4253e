"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/test_perfbench.py -q

They need numpy and the cemix sources under ./src; no workload is run.
"""

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS, PER_LAYER_UNITS, Pass, Row, check  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import (K_SE, SUBSEEDS, Reference, half_unit,  # noqa: E402
                       references, subseeds)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for group, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in bench[group]}
        assert declared == units, group
        for name in declared:
            assert NAME.fullmatch(name), name


def _span(start, end, parent):
    return ["f", "layer", "f", start, end, parent, None]


def test_self_time_of_nested_spans():
    # 0 [0, 10] holds 1 [1, 4] and 2 [5, 9]; 2 holds 3 [6, 7]
    spans = [_span(0, 10, None), _span(1, 4, 0), _span(5, 9, 0), _span(6, 7, 2)]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])
    # overlapping children (threads) are covered once; a child past the
    # parent's end counts only inside the parent
    spans = [_span(0, 10, None), _span(2, 6, 0), _span(4, 8, 0), _span(9, 12, 0)]
    assert self_times(spans)[0] == pytest.approx(10 - 6 - 1)


def test_rounding_allowance():
    assert half_unit("0.0039") == pytest.approx(5e-5)
    assert half_unit("3.3638e-4") == pytest.approx(5e-9)
    assert half_unit("0.032") == pytest.approx(5e-4)
    ref = Reference.printed("0.0039")
    # table 9 K=65 at seed 6: 3.4 SE beyond the rounding allowance
    assert ref.accepts(0.0040291, 2.3e-5)
    # a miss just beyond the tolerance fails, on either side
    se = 2.3e-5
    assert not ref.accepts(0.0039 + ref.tolerance(se) * 1.001, se)
    assert not ref.accepts(0.0039 - ref.tolerance(se) * 1.001, se)
    # an exact reference has no allowance and no error of its own:
    # 5 SE off fails
    exact = Reference(0.02)
    assert exact.accepts(0.02 + 4.4 * se, se)
    assert not exact.accepts(0.02 + 5 * se, se)
    # a printed paper value carries its own sampling error, SE * sqrt(2)
    assert ref.tolerance(se) == pytest.approx(K_SE * math.sqrt(2) * se + 5e-5)


def test_exact_references_of_tail_tables():
    from cemix import experiments

    refs = references(2, experiments.table_configs(2, 0))
    assert [round(r.value, 4) for r in refs] == [0.2255, 0.0290, 0.0241]
    assert all(r.exact and r.allowance == 0.0 for r in refs)


def test_tracer_spans_counts_and_restore():
    from cemix import engine, mixture
    from cemix.mixture import MixtureParam
    from cemix.models import TwoSidedTail
    from cemix.rng import RngStream

    original = mixture.sample_mixture
    tracer = Tracer()
    tracer.install()
    try:
        theta = MixtureParam.uniform([[2.0], [-2.5]])
        batch = mixture.sample_mixture(theta, 500, RngStream(3))
        ev = engine.evaluate_pilot(TwoSidedTail(a=2.0, b=-2.5).payoff, theta, batch)
        engine.mixture_update(ev, theta)
    finally:
        tracer.uninstall()
    assert mixture.sample_mixture is original
    summary = tracer.summary()
    assert summary["mixture.rows_drawn"] == 500
    assert summary["mixture.coords_drawn"] == 500
    # likelihood_ratio and posterior from engine; log_mixture_density inside
    # likelihood_ratio is mixture calling itself and is not counted
    assert summary["mixture.logjoint_rows"] == 1000
    assert summary["mixture.logjoint_per_row"] == 2.0
    assert summary["models.payoff_rows"] == 500
    assert summary["engine.updates"] == 1
    assert summary["engine.update_nmd"] == 500 * 2 * 1
    names = [s[0] for s in tracer.spans]
    assert "models.TwoSidedTail.payoff" in names
    assert "rng.RngStream.generator" in names
    for layer in ("mixture", "engine", "models", "rng"):
        assert summary[f"{layer}.calls"] > 0
        assert summary[f"{layer}.self_s"] >= 0.0
    # self times of all spans add up to the root spans' durations
    roots = sum(s[4] - s[3] for s in tracer.spans if s[5] is None)
    assert sum(self_times(tracer.spans)) == pytest.approx(roots)
    assert np.isfinite(summary["mixture.likelihood_ratio.self_s"])


def test_absent_function_reports_none():
    tracer = Tracer()
    tracer.wrapped = {("mixture", "sample_mixture")}
    summary = tracer.summary()
    assert summary["mixture.sample_mixture.self_s"] == 0.0
    assert summary["mixture.posterior.self_s"] is None


def test_check_flags_errors_misses_and_mismatches():
    ref = Reference(1.0)

    def row(estimate, std_error=0.01, error=""):
        return Row("r", 0.1, estimate=estimate, std_error=std_error, error=error)

    first = Pass(1.0, [row(1.0), row(1.0), row(1.0)])
    again = Pass(1.0, [row(1.0), row(1.0 + 1e-15), row(2.0)])
    failed = Pass(1.0, [row(1.0, error="DegenerateUpdate: x"), row(1.0), row(1.0)])
    assert check([first, again, failed], {0: [ref] * 3}) == [
        ["", "", ""],
        ["", "mismatch", "reference"],
        ["error", "", ""],
    ]


def test_check_compares_each_row_seed_with_its_own_first_pass():
    refs = {0: [Reference(1.0)], 1: [Reference(1.1)]}

    def run(seed, estimate):
        return Pass(1.0, [Row("r", 0.1, estimate=estimate, std_error=0.01)], seed=seed)

    passes = [run(0, 1.0), run(1, 1.1), run(0, 1.0), run(1, 1.1 + 1e-15)]
    assert check(passes, refs) == [[""], [""], [""], ["mismatch"]]


def test_row_seeds_are_disjoint_between_workload_seeds():
    assert subseeds(0, 6) == [0, 1, 2, 3, 4, 5]
    seen = [s for seed in range(20) for s in subseeds(seed, 6)]
    assert len(seen) == len(set(seen))
    assert all(count >= 1 for count in SUBSEEDS.values())
