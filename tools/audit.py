"""Per-row calibration audit of benchmark tables over a range of seeds.

Each row of the named tables runs at every seed of the range.  Per row the
audit prints
- z = (estimate - reference) / SE_diff, as its mean, its mean |z| and its
  largest |z| over the seeds.  SE_diff is the row's SE against an exact reference (tables
  1-3 and 5), hypot(row SE, reference SE) against table 4's control-variate values
  at K = 50, 60 and 70, and SE * sqrt(2) against a paper value, itself a Monte Carlo
  estimate (tools/references.py);
- the var_ratio spread over the seeds: median, min and max;
- the number of seeds at which the row is flagged `collapse`.

The audit gates nothing: it prints its report and exits 0.

    PYTHONPATH=src python tools/audit.py --tables 2 5 6 8 9 --seeds 1..5

Two checkouts' results compare row by row when the same audit runs over each
one's src, e.g. PYTHONPATH=../parent/src:tools.
"""

import argparse
import statistics

from cemix.experiments import run_experiment, table_configs
from references import reference


def seed_range(text: str) -> range:
    """Seeds a..b, both included; a lone a is the range a..a."""
    first, _, last = text.partition("..")
    try:
        seeds = range(int(first), int(last or first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must read a..b, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def kind(ref) -> str:
    return "exact" if ref.exact else "paper" if ref.se is None else "cv"


def spread(values) -> str:
    return f"{statistics.median(values):9.4g} [{min(values):.4g}, {max(values):.4g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tables", type=int, nargs="+", required=True,
                        choices=range(1, 10), metavar="T", help="benchmark tables 1-9")
    parser.add_argument("--seeds", type=seed_range, required=True, help="seed range a..b")
    args = parser.parse_args()
    print(f"{'row':<22} {'reference':>10} {'kind':<5} {'mean z':>7} {'mean|z|':>7} "
          f"{'max|z|':>7}  {'var_ratio median [min, max]':<30} collapse")
    zs = []
    for table in args.tables:
        runs = [[(cfg, run_experiment(cfg)) for cfg in table_configs(table, seed)]
                for seed in args.seeds]
        for per_seed in zip(*runs):
            first, _ = per_seed[0]
            ref = reference(first)
            z, vr = [], []
            for _, row in per_seed:
                z.append((row.estimate - ref.value) / ref.se_diff(row.std_error))
                vr.append(row.var_ratio)
            collapses = sum("collapse" in row.flags for _, row in per_seed)
            zs += z
            print(f"{f'{table}/{first.row} {first.label}':<22} {ref.value:>10.5g} "
                  f"{kind(ref):<5} {statistics.fmean(z):>7.2f} "
                  f"{statistics.fmean(map(abs, z)):>7.2f} {max(map(abs, z)):>7.2f}  "
                  f"{spread(vr):<30} {collapses}/{len(z)}", flush=True)
    print(f"pooled z over {len(zs)} runs: mean {statistics.fmean(zs):.3f}, "
          f"sd {statistics.pstdev(zs):.3f}")


if __name__ == "__main__":
    main()
