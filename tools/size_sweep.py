"""Run `cemix run` at pilot and final sizes around and past the final pass's chunk size.

The tier-1 config fuzz keeps pilot <= 500 and n <= 2000, so it never reaches a
multi-chunk final pass or a rarity stage's whole-batch arrays.  This sweep runs
the tail (d = 1, rarity init), rainbow INI_CE (d = 4, m = 4) and CEV (d = 100,
approx init) models, each at n = _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 _CHUNK + 1 and
10^6 final rows, and pilot = 500 and 10^5 (and 10^6 at d <= 4) rows per CE
iteration, two iterations each.  Each case runs `cli.main(["run", cfg])` in its
own fresh process and checks what the fuzz checks: exit code 0, 2, 3 or 4, no
warning, and finite numbers in an exit-0 row (but rel_error at a zero estimate
and var_ratio at a zero SE).  It prints one line per case with the exit code,
the wall time and the process's peak RSS, and exits 1 if any case fails a check.
The largest case, rainbow at pilot 10^6, peaks near 290 MB of RSS; the sweep
takes about two minutes on two cores.

    PYTHONPATH=src python tools/size_sweep.py
"""

import contextlib
import csv
import io
import math
import multiprocessing
import resource
import sys
import tempfile
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import yaml

from cemix.cli import EXIT_CONFIG, EXIT_DEGENERATE, EXIT_STAGNANT, main
from cemix.estimate import _CHUNK
from cemix.experiments import CEV, CSV_HEADER, RAINBOW_4

MODELS = {  # label: (model, init)
    "tail-1d": ({"name": "two_sided_tail", "a": 2.0, "b": -2.5},
                {"method": "rarity_ce", "means": [[0.0], [-0.1]], "rho": 0.05}),
    "rainbow-4d": ({"name": "rainbow", **RAINBOW_4, "strike": 60.0},
                   {"method": "rarity_ce", "rho": 0.05}),
    "cev-100d": ({"name": "cev_digital", **CEV, "strike": 60.0}, {"method": "approx"}),
}
FINAL_SIZES = (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 10 ** 6)
CASES = [(label, pilot, n) for label in MODELS for pilot in (500, 10 ** 5, 10 ** 6)
         for n in FINAL_SIZES if pilot < 10 ** 6 or label != "cev-100d"]


def problems(code: int, caught: list, out: Path) -> list:
    """What the case's exit code, warnings and output row break of the fuzz's checks."""
    found = [f"warning: {w.category.__name__}: {w.message}" for w in caught]
    if code not in (0, EXIT_CONFIG, EXIT_DEGENERATE, EXIT_STAGNANT):
        found.append(f"exit code {code}")
    if code:
        return found
    row = dict(zip(CSV_HEADER.split(","), next(csv.reader(out.read_text().splitlines()[1:]))))
    estimate, se = float(row["estimate"]), float(row["std_error"])
    numbers = [estimate, se] + [float(v) for v in
                                row["weights"].split(";") + row["tilts"].replace(";", " ").split()]
    if not all(math.isfinite(v) for v in numbers):
        found.append("non-finite estimate, SE, weight or tilt")
    if not (math.isfinite(float(row["rel_error"])) or estimate == 0.0):
        found.append("non-finite rel_error at a nonzero estimate")
    if not (math.isfinite(float(row["var_ratio"])) or se == 0.0):
        found.append("non-finite var_ratio at a nonzero SE")
    return found


def run_case(case) -> tuple:
    """(exit code, wall seconds, peak RSS in MB, problems) of one case, run in this process."""
    label, pilot, n = case
    model, init = MODELS[label]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.yaml", Path(tmp) / "out.csv"
        path.write_text(yaml.safe_dump({
            "model": model, "init": init, "ce": {"pilot_size": pilot, "iterations": 2},
            "sampling": {"n": n, "seed": 1}, "output": {"path": str(out)}}))
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("always")
            start = time.perf_counter()
            code = main(["run", str(path)])
            wall = time.perf_counter() - start
        found = problems(code, caught, out)
    return code, wall, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, found


def sweep() -> int:
    failed = 0
    print(f"{'model':10s} {'pilot':>8s} {'n':>8s} exit   wall_s  maxrss_mb  checks")
    spawn = multiprocessing.get_context("spawn")
    for case in CASES:
        with ProcessPoolExecutor(1, mp_context=spawn) as fresh:
            code, wall, rss, found = fresh.submit(run_case, case).result()
        failed += bool(found)
        print(f"{case[0]:10s} {case[1]:8d} {case[2]:8d} {code:4d} {wall:8.2f} {rss:10.1f}  "
              + ("; ".join(found) or "ok"), flush=True)
    print(f"{len(CASES)} cases, {failed} failing a check")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(sweep())
