"""Print a bit-exact digest of the 74 compared benchmark rows, one line per row.

The rows are tables 1-9 at seed 1 and tables 2, 5 and 6 at seeds 2 and 3.
Each line holds the hex of the row's estimate, SE and rel_error, its
var_ratio as its own `vr <hex>` field, its weights, tilts, flags and init
stage count, and per CE iteration the objective, the positive-payoff count
and theta.  Two checkouts give the same results when their outputs are
identical:

    PYTHONPATH=src python tools/rows_digest.py > rows.txt
    PYTHONPATH=src python tools/rows_digest.py --workers 3 > rows3.txt
    diff rows.txt rows3.txt

A change that moves only var_ratio shows no difference once that field is
dropped, e.g. from outputs a.txt and b.txt of two checkouts:

    diff <(sed 's/ ; vr [^ ]*//' a.txt) <(sed 's/ ; vr [^ ]*//' b.txt)

--workers N runs the row kernels on a pool of N threads instead of the
default pool of one thread per core.
"""

import argparse
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from cemix import numerics
from cemix.experiments import reproduce_table

RUNS = [(table, 1) for table in range(1, 10)] + [
    (table, seed) for seed in (2, 3) for table in (2, 5, 6)]


def hexes(values) -> str:
    return " ".join(float(v).hex() for v in np.ravel(values))


def digest(row) -> str:
    parts = [f"{row.table}/{row.row} {row.label}",
             hexes([row.estimate, row.std_error, row.rel_error]),
             f"vr {float(row.var_ratio).hex()}",
             f"w {hexes(row.weights)}", f"a {hexes(row.tilts)}",
             f"flags {'|'.join(row.flags) or '-'}", f"stages {row.init_stages}"]
    for rec in row.trace:
        parts.append(f"it{rec.iteration} {float(rec.objective).hex()} "
                     f"{rec.positive_payoffs} w {hexes(rec.theta.weights)} "
                     f"a {hexes(rec.theta.means)}")
    return " ; ".join(parts)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workers", type=int, default=None,
                        help="threads in the row-kernel pool (default: one per core)")
    args = parser.parse_args()
    if args.workers is not None:
        if args.workers < 1:
            parser.error("--workers must be >= 1")
        numerics._POOL = ThreadPoolExecutor(args.workers)
    for table, seed in RUNS:
        for row in reproduce_table(table, seed=seed):
            print(f"seed {seed} {digest(row)}", flush=True)


if __name__ == "__main__":
    main()
