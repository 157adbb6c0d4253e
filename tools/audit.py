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

--parent REV audits two sides, each in its own subprocess: the commit REV, unpacked by
`git archive` into a temporary directory, and this checkout's src (uncommitted edits
included).  Both take their references from this checkout's tools/references.py.  Each
row then prints one line per side, and each side prints its pooled line:

    PYTHONPATH=src python tools/audit.py --parent HEAD~1 --tables 2 5 6 --seeds 1..13
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench import git, unpack
from cemix.experiments import run_experiment, table_configs
from references import reference

TOOLS = Path(__file__).resolve().parent

# one side's audit() rows as JSON, with the side's src first on the path
CHILD = """
import json, sys
from audit import audit
tables, first, last = json.loads(sys.argv[1])
print(json.dumps(list(audit(tables, range(first, last + 1)))))
"""


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


def audit(tables, seeds):
    """Per row of the tables, in table order: its name, reference value and kind, its z and
    var_ratio per seed, and the number of seeds flagged `collapse`."""
    for table in tables:
        runs = [[(cfg, run_experiment(cfg)) for cfg in table_configs(table, seed)]
                for seed in seeds]
        for per_seed in zip(*runs):
            first, _ = per_seed[0]
            ref = reference(first)
            rows = [row for _, row in per_seed]
            yield {"row": f"{table}/{first.row} {first.label}", "reference": ref.value,
                   "kind": kind(ref),
                   "z": [(r.estimate - ref.value) / ref.se_diff(r.std_error) for r in rows],
                   "var_ratio": [r.var_ratio for r in rows],
                   "collapses": sum("collapse" in r.flags for r in rows)}


def side_rows(src: Path, tables, seeds) -> list:
    """audit(tables, seeds) run in a subprocess on the cemix of src."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([tables, seeds[0], seeds[-1]])],
        cwd=TOOLS, check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{TOOLS}"})
    return json.loads(done.stdout)


def spread(values) -> str:
    return f"{statistics.median(values):9.4g} [{min(values):.4g}, {max(values):.4g}]"


def line(row, side: str) -> str:
    z = row["z"]
    return (f"{row['row']:<22} {side:<6} {row['reference']:>10.5g} {row['kind']:<5} "
            f"{statistics.fmean(z):>7.2f} {statistics.fmean(map(abs, z)):>7.2f} "
            f"{max(map(abs, z)):>7.2f}  {spread(row['var_ratio']):<30} "
            f"{row['collapses']}/{len(z)}")


def pooled(rows, side: str) -> str:
    zs = [z for row in rows for z in row["z"]]
    return (f"{side + ': ' if side else ''}pooled z over {len(zs)} runs: mean "
            f"{statistics.fmean(zs):.3f}, sd {statistics.pstdev(zs):.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tables", type=int, nargs="+", required=True,
                        choices=range(1, 10), metavar="T", help="benchmark tables 1-9")
    parser.add_argument("--seeds", type=seed_range, required=True, help="seed range a..b")
    parser.add_argument("--parent", metavar="REV",
                        help="also audit commit REV, and print both sides per row")
    args = parser.parse_args()
    print(f"{'row':<22} {'side':<6} {'reference':>10} {'kind':<5} {'mean z':>7} "
          f"{'mean|z|':>7} {'max|z|':>7}  {'var_ratio median [min, max]':<30} collapse")
    if args.parent is None:
        rows = []
        for row in audit(args.tables, args.seeds):
            rows.append(row)
            print(line(row, ""), flush=True)
        print(pooled(rows, ""))
        return
    with tempfile.TemporaryDirectory() as tmp:
        unpack(git("rev-parse", args.parent), Path(tmp) / "parent")
        sides = {"parent": side_rows(Path(tmp) / "parent" / "src", args.tables, args.seeds),
                 "change": side_rows(TOOLS.parent / "src", args.tables, args.seeds)}
    for rows in zip(*sides.values()):
        for side, row in zip(sides, rows):
            print(line(row, side))
    for side, rows in sides.items():
        print(pooled(rows, side))


if __name__ == "__main__":
    main()
