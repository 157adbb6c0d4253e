#!/usr/bin/env python3
"""cemix benchmark: one workload, run in passes, with its metrics.

    python3 perfbench/run.py --workload tail-1d --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; cemix is imported from ./src.  A pass
runs every row of the workload one after another through the public API
(`experiments.table_configs` -> `experiments.run_experiment`) in this one
process.  Passes repeat until the next one would end after --seconds.

--trace 0 measures set-up time in separate processes, then reports the
end-to-end metrics.  Its passes cycle through the workload's row seeds
(`workloads.SUBSEEDS`, derived from --seed), each seed once and then again,
so that rel_error_geomean averages over several seeds.  --trace 1 runs one
row seed, alternates untraced and traced passes and reports the per-layer
metrics; its spans go to perfbench/out/ as JSONL.  Every row is checked
against its reference, and every pass must reproduce the first pass of its
row seed, estimate and SE, bit for bit.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import geometric_mean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from tracer import FUNCTIONS, LAYERS, PHASES, Tracer  # noqa: E402
from workloads import (K_SE, SUBSEEDS, WORKLOADS, prepare,  # noqa: E402
                       row_samples, subseeds)

SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "samples_per_s": "1/s",
    "rel_error_geomean": "ratio", "peak_rss_mb": "MB",
}

# Printed and saved but not in the result line, so never compared between
# commits: fail_rate is 0 on a healthy run (its failures are the result
# line's "failed"), and time_to_1pct_s on basket-4d swings with the seed
# because an INI_CE row that collapses at some seeds dominates the sum.
REPORTED_UNITS = {"time_to_1pct_s": "s", "fail_rate": "ratio"}

PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"phase.{phase}_s": "s" for phase, _, _ in PHASES},
    **{f"{layer}.{func}.self_s": "s" for layer, func in FUNCTIONS},
    "mixture.rows_drawn": "count", "mixture.coords_drawn": "count",
    "mixture.logjoint_rows": "count", "mixture.logjoint_per_row": "ratio",
    "models.payoff_rows": "count", "engine.updates": "count",
    "engine.update_nmd": "count", "estimate.chunks": "count",
    "engine.pilot_positive_share": "ratio", "initialization.stages": "count",
    "trace.overhead": "ratio",
}

# per-layer counts derived from array shapes rather than observed work
COMPUTED = {"engine.update_nmd"}


@dataclass
class Row:
    label: str
    seconds: float
    estimate: float = math.nan
    std_error: float = math.nan
    rel_error: float = math.nan
    var_ratio: float = math.nan
    flags: list = field(default_factory=list)
    init_stages: int = 0
    samples: int = 0
    positive: int = 0         # positive-payoff CE pilot samples
    pilot: int = 0            # CE pilot samples
    error: str = ""


@dataclass
class Pass:
    seconds: float
    rows: list
    traced: bool = False
    seed: int = 0             # row seed the pass ran at

    @property
    def samples(self) -> int:
        return sum(r.samples for r in self.rows)


def run_row(cfg) -> Row:
    from cemix import experiments
    from cemix.errors import CemixError

    label = f"t{cfg.table} {cfg.label}"
    start = time.perf_counter()
    try:
        r = experiments.run_experiment(cfg)
    except CemixError as exc:
        return Row(label, time.perf_counter() - start,
                   error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    return Row(
        label=label, seconds=seconds,
        estimate=r.estimate, std_error=r.std_error, rel_error=r.rel_error,
        var_ratio=r.var_ratio, flags=list(r.flags), init_stages=r.init_stages,
        samples=row_samples(cfg, r.init_stages),
        positive=sum(rec.positive_payoffs for rec in r.trace),
        pilot=cfg.pilot_size * len(r.trace))


def run_pass(configs, tracer=None, seed=0) -> Pass:
    rows = []
    start = time.perf_counter()
    for i, cfg in enumerate(configs):
        if tracer is not None:
            tracer.row = i
        rows.append(run_row(cfg))
    return Pass(time.perf_counter() - start, rows, traced=tracer is not None,
                seed=seed)


def first_passes(passes) -> dict:
    """The first pass of each row seed, in the order the seeds first ran."""
    firsts = {}
    for p in passes:
        firsts.setdefault(p.seed, p)
    return firsts


def check(passes, refs):
    """Status of every row of every pass: "" when it passes.

    `refs` maps a row seed to its rows' references.  A row fails when it
    raised, missed its reference, or differs from the first pass of its
    row seed in estimate or SE in any bit.
    """
    firsts = first_passes(passes)
    statuses = []
    for p in passes:
        status = []
        for row, base, ref in zip(p.rows, firsts[p.seed].rows, refs[p.seed]):
            if row.error:
                status.append("error")
            elif not ref.accepts(row.estimate, row.std_error):
                status.append("reference")
            elif (row.estimate, row.std_error) != (base.estimate, base.std_error):
                status.append("mismatch")
            else:
                status.append("")
        statuses.append(status)
    return statuses


def keep_going(start, passes, budget, step=1, minimum=2) -> bool:
    """Whether `step` more passes fit in the budget, or fewer than `minimum`
    have run; the determinism check needs a row seed to run twice."""
    if len(passes) < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + step * median(p.seconds for p in passes) <= budget


def measure_setup(workload, seed):
    """Wall times of fresh processes that import cemix and build the rows."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC),
                        workload, str(seed)], check=True)
        samples.append(time.perf_counter() - start)
    return samples


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children holds the largest waited-for child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def end_to_end(passes, setup_samples) -> dict:
    """Times and rates are medians over passes; rel_error_geomean is over
    the rows of every row seed's first pass."""
    rel = [r.rel_error for p in first_passes(passes).values() for r in p.rows
           if not r.error and 0 < r.rel_error < math.inf]
    return {
        "setup_s": median(setup_samples),
        "wall_s": median(p.seconds for p in passes),
        "samples_per_s": median(p.samples / p.seconds for p in passes),
        "rel_error_geomean": geometric_mean(rel) if rel else None,
        "peak_rss_mb": peak_rss_mb(),
    }


def time_to_1pct(passes) -> float:
    """Sum over rows of row seconds * (rel_error / 0.01)^2.

    The cost of pricing every row to 1% relative error at this code's
    speed and tilt quality; row seconds are medians over the passes of a
    row seed, and the sum is averaged over row seeds.
    """
    firsts = first_passes(passes)
    total = 0.0
    for seed, first in firsts.items():
        same = [p for p in passes if p.seed == seed]
        for i, row in enumerate(first.rows):
            if not row.error and math.isfinite(row.rel_error):
                seconds = median(p.rows[i].seconds for p in same)
                total += seconds * (row.rel_error / 0.01) ** 2
    return total / len(firsts)


def per_layer(untraced, traced, tracers) -> dict:
    summaries = [t.summary() for t in tracers]
    out = {}
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        out[key] = None if values[0] is None else median(values)
    first = untraced[0].rows
    pilot = sum(r.pilot for r in first)
    out["engine.pilot_positive_share"] = sum(r.positive for r in first) / pilot if pilot else 0.0
    out["initialization.stages"] = sum(r.init_stages for r in first)
    out["trace.overhead"] = (median(p.seconds for p in traced)
                             / median(p.seconds for p in untraced) - 1.0)
    return out


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import numpy

    for path in glob.glob(os.path.dirname(numpy.__file__) + ".libs/*openblas*"):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit() -> str:
    """Commit of the checkout, read from .git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
    }


def print_rows(passes, refs, statuses):
    """The accuracy report: every row of every row seed's first pass, with
    the failures of that row in any pass of the seed."""
    for seed, first in first_passes(passes).items():
        same = [s for p, s in zip(passes, statuses) if p.seed == seed]
        print(f"row seed {seed}")
        print_seed_rows(first, refs[seed], same)


def print_seed_rows(first, refs, statuses):
    print(f"{'row':<22} {'estimate':>12} {'SE':>10} {'z':>6} {'var_ratio':>10} "
          f"{'stages':>6} {'s':>6}  flags / status")
    for i, (row, ref) in enumerate(zip(first.rows, refs)):
        if row.error:
            print(f"{row.label:<22} {row.error}")
            continue
        z = (row.estimate - ref.value) / row.std_error if row.std_error > 0 else math.inf
        bad = sorted({s[i] for s in statuses if s[i]})
        print(f"{row.label:<22} {row.estimate:>12.6g} {row.std_error:>10.3g} "
              f"{z:>6.2f} {row.var_ratio:>10.4g} {row.init_stages:>6d} "
              f"{row.seconds:>6.2f}  {'|'.join(row.flags + bad)}")


def print_metrics(metrics, units, note=""):
    for name, value in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        tag = "  (computed)" if name in COMPUTED else note
        print(f"metric {name} {shown} {units[name]}{tag}")


def _seed(text) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def _seconds(text) -> float:
    seconds = float(text)
    if not seconds > 0:
        raise argparse.ArgumentTypeError("seconds must be > 0")
    return seconds


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=_seed, default=1)
    p.add_argument("--seconds", type=_seconds, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cemix" / "__init__.py").is_file():
        print(f"error: no cemix package under {SRC}; run from the root of a "
              "cemix checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    seeds = subseeds(args.seed, 1 if args.trace else SUBSEEDS[args.workload])
    setup_samples = [] if args.trace else measure_setup(args.workload, seeds[0])
    configs, refs = {}, {}
    for seed in seeds:
        configs[seed], refs[seed] = prepare(args.workload, seed)
    env = environment(args)
    env["row_seeds"] = seeds

    passes, tracers = [], []
    start = time.perf_counter()
    if args.trace:
        seed = seeds[0]
        while keep_going(start, passes, args.seconds, step=2):
            passes.append(run_pass(configs[seed], seed=seed))
            tracer = Tracer()
            tracer.install()
            try:
                passes.append(run_pass(configs[seed], tracer, seed=seed))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
    else:
        # every row seed once, then the first again for the determinism check
        while keep_going(start, passes, args.seconds, minimum=len(seeds) + 1):
            seed = seeds[len(passes) % len(seeds)]
            passes.append(run_pass(configs[seed], seed=seed))

    statuses = check(passes, refs)
    attempted = sum(len(s) for s in statuses)
    failed = sum(1 for s in statuses for st in s if st)
    reported = {"fail_rate": failed / attempted}
    if args.trace:
        untraced = [p for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]
        metrics = per_layer(untraced, traced, tracers)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(passes, setup_samples)
        units = END_TO_END_UNITS
        reported["time_to_1pct_s"] = time_to_1pct(passes)

    print("environment " + json.dumps(env))
    print(f"passes {len(passes)}; reference check: |estimate - reference| <= "
          f"{K_SE} SE_diff + rounding allowance")
    print_rows(passes, refs, statuses)
    print_metrics(metrics, units)
    print_metrics(reported, REPORTED_UNITS, "  (not compared)")
    print(f"row runs {attempted}, failed {failed}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracers:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for i, tracer in enumerate(tracers):
                tracer.write_jsonl(fh, i)
    result = {
        "environment": env, "setup_samples_s": setup_samples,
        "passes": [{"seconds": p.seconds, "traced": p.traced, "seed": p.seed,
                    "rows": [asdict(r) for r in p.rows]} for p in passes],
        "statuses": statuses, "metrics": metrics, "reported": reported,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
