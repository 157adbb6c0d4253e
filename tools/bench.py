"""Benchmark this checkout against a parent commit in alternated pairs; write a BENCH file.

    python tools/bench.py PARENT --out BENCH_18.json

PARENT is unpacked by `git archive` into a temporary directory.  The
change is a copy of this checkout's src/, perfbench/, tests/, tools/, BENCHMARK.json and
pyproject.toml (uncommitted edits included), so no run writes into the checkout; it is
labelled `+ uncommitted edits` only when a tracked file among those is dirty.  For each
workload of BENCHMARK.json, pair i of PAIRS runs both sides' `perfbench/run.py
--workload W --seed SEED+i --seconds S`, S being BENCHMARK.json's run_seconds;
the side that runs first alternates from pair to pair.  Then each side times
reproduce_table(t, 1), t = 1-9, in a fresh process, three times, alternated the
same way; then each side runs the tier-1 suite three times, alternated the same
way, the first side continuing the alternation: one run per side swings by
seconds on a shared host.  Last, each side prints tools/rows_digest.py four ways: with the
default pool, with --workers 1, with --workers 3, and with OPENBLAS_NUM_THREADS=1 in
its environment.  Each side's src/cemix/*.py line count (as `wc -l` counts it) is
recorded as src_lines.  Around each perfbench run, the RUSAGE_CHILDREN deltas
(which take in the run's set-up probes too) divided by the run's pass count give
its minor page faults, user CPU seconds and system CPU seconds per pass.

The file holds, per workload and end-to-end metric, each side's median and
quartiles (statistics.quantiles, inclusive) over the pairs, the change/parent
ratio of the medians, the share of pairs in which the change was better or
equal, and `claim_met`: the change won at least 0.9 of the pairs and its median
is better than the parent's by more than the parent's q3 - q1; per workload,
each side's median resource use per pass; then the table wall times, each side's
tier-1 wall times with their median and each run's passed and failed counts,
each side's digest per setting against the parent's default digest (equal or
not, the count and `seed t/r label` names of the differing rows, and
`equal_without_vr`, equal once each line's ` ; vr <hex>` field is dropped) and
against the side's own default digest (`own_default`), and the environment
block of the runs.  Host speed drifts between sessions, so only the pairs of one file
compare; the digests compare across files.
"""

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # per workload
SEED = 21  # workload seed of the first pair
TABLE_ROUNDS = 3
TIER1_ROUNDS = 3
CHANGE_DIRS = ("src", "perfbench", "tests", "tools")  # the change side: copies of these
CHANGE_FILES = ("BENCHMARK.json", "pyproject.toml")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
DIGESTS = {  # setting: (rows_digest.py arguments, environment additions)
    "default": ([], {}),
    "workers_1": (["--workers", "1"], {}),
    "workers_3": (["--workers", "3"], {}),
    "openblas_threads_1": ([], {"OPENBLAS_NUM_THREADS": "1"}),
}

USAGE = {"minor_faults": "ru_minflt", "user_s": "ru_utime", "system_s": "ru_stime"}

TIME_TABLES = """
import json, sys, time
sys.path.insert(0, "src")
from cemix.experiments import reproduce_table
walls = {}
for table in range(1, 10):
    start = time.perf_counter()
    reproduce_table(table, 1)
    walls[table] = time.perf_counter() - start
print(json.dumps(walls))
"""


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(commit: str, dest: Path):
    """The files of commit, from `git archive`, in the new directory dest."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_side(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one perfbench run, with its environment block and its
    resource use per pass."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)], cwd=side, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if done.returncode != 0:
        raise SystemExit(f"perfbench run failed in {side}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next(line for line in lines if line.startswith("environment "))
    result["environment"] = json.loads(env[len("environment "):])
    passes = int(re.search(r"^passes (\d+);", done.stdout, re.M).group(1))
    result["per_pass"] = {name: (getattr(after, field) - getattr(before, field)) / passes
                          for name, field in USAGE.items()}
    return result


def time_tier1(side: Path) -> dict:
    """Wall time of one tier-1 run in side, with its passed and failed counts."""
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=side, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": "src"})
    seconds = time.perf_counter() - start
    counts = dict.fromkeys(("passed", "failed"), 0)
    for count, outcome in re.findall(r"(\d+) (passed|failed|errors?)\b", done.stdout):
        counts["passed" if outcome == "passed" else "failed"] += int(count)
    return {"seconds": seconds, **counts}


def digest(side: Path, args: list, env: dict) -> list:
    """The lines of one tools/rows_digest.py run in side."""
    done = subprocess.run([sys.executable, "tools/rows_digest.py", *args], cwd=side,
                          check=True, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": "src", **env})
    return done.stdout.splitlines()


def src_lines(side: Path) -> int:
    """Lines of side's src/cemix/*.py, the count that ROADMAP aim 2 tracks."""
    return sum(path.read_bytes().count(b"\n") for path in (side / "src" / "cemix").glob("*.py"))


def differing_rows(got: list, reference: list) -> list:
    """The `seed t/r label` prefixes of the digest lines in which got and reference differ;
    a missing or extra line counts as one."""
    common = min(len(got), len(reference))
    lines = [a for a, b in zip(got, reference) if a != b] + got[common:] + reference[common:]
    return [line.split(" ; ", 1)[0] for line in lines]


def without_vr(lines: list) -> list:
    """The digest lines with their ` ; vr <hex>` field dropped, as rows_digest.py's
    docstring drops it."""
    return [re.sub(r" ; vr [^ ]*", "", line) for line in lines]


def bit_identity(sides: dict) -> dict:
    """Per side and DIGESTS setting: whether its digest equals the parent's default one,
    the rows that differ from it, whether it equals that digest once var_ratio is
    dropped, and whether it equals the side's own default digest."""
    runs = {side: {name: digest(path, *DIGESTS[name]) for name in DIGESTS}
            for side, path in sides.items()}
    reference = runs["parent"]["default"]
    out = {"rows": len(reference)}
    for side, lines in runs.items():
        out[side] = {}
        for name, got in lines.items():
            differ = differing_rows(got, reference)
            out[side][name] = {"equal": not differ, "rows_differing": len(differ),
                               "differing": differ,
                               "equal_without_vr": without_vr(got) == without_vr(reference),
                               "own_default": got == lines["default"]}
    return out


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(results, metrics) -> dict:
    """Per end-to-end metric: each side's summary, the ratio of medians, the win share
    and whether a claimed gain is met: the change wins at least 0.9 of the pairs and its
    median beats the parent's by more than the parent's q3 - q1."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {side: [r["metrics"][name]["value"] for r in results[side]]
                 for side in ("parent", "change")}
        pairs = list(zip(sides["parent"], sides["change"]))
        parent, change = summary(sides["parent"]), summary(sides["change"])
        gain = (parent["median"] - change["median"]) * (1 if lower else -1)
        won = sum(c < p if lower else c > p for p, c in pairs) / len(pairs)
        out[name] = {
            "better": metric["better"],
            "parent": parent, "change": change,
            "ratio": change["median"] / parent["median"],
            "won": won,
            "won_or_tied": sum(c <= p if lower else c >= p for p, c in pairs) / len(pairs),
            "claim_met": won >= 0.9 and gain > parent["q3"] - parent["q1"],
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the commit to compare against")
    parser.add_argument("--out", required=True, help="file to write, e.g. BENCH_17.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    parent_commit = git("rev-parse", args.parent)
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        unpack(parent_commit, sides["parent"])
        for part in CHANGE_DIRS:
            shutil.copytree(ROOT / part, sides["change"] / part,
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
        for part in CHANGE_FILES:
            shutil.copy(ROOT / part, sides["change"])
        order = [("parent", "change"), ("change", "parent")]
        workloads, env = {}, {}
        for spec in bench["workloads"]:
            workload = spec["name"]
            results = {"parent": [], "change": []}
            seeds = range(SEED, SEED + PAIRS)
            for i, seed in enumerate(seeds):
                for side in order[i % 2]:
                    results[side].append(run_side(sides[side], workload, seed, seconds))
                    env.setdefault(side, results[side][-1]["environment"])
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {results[side][-1]['metrics']['wall_s']['value']:.3f} s"
                    for side in ("parent", "change")), file=sys.stderr, flush=True)
            workloads[workload] = {
                "seeds": list(seeds),
                "first": [order[i % 2][0] for i in range(len(seeds))],
                "correct": {side: all(r["correct"] for r in results[side])
                            for side in results},
                "metrics": compare(results, bench["end_to_end"]),
                "per_pass": {side: {name: statistics.median(r["per_pass"][name]
                                                            for r in results[side])
                                    for name in USAGE} for side in results},
            }
        tables = {"parent": [], "change": []}
        for i in range(TABLE_ROUNDS):
            for side in order[i % 2]:
                done = subprocess.run([sys.executable, "-c", TIME_TABLES], cwd=sides[side],
                                      check=True, capture_output=True, text=True)
                tables[side].append(json.loads(done.stdout))
        runs = {"parent": [], "change": []}
        for i in range(TIER1_ROUNDS):
            for side in order[(TABLE_ROUNDS + i) % 2]:
                runs[side].append(time_tier1(sides[side]))
        tier1 = {side: {"median": statistics.median(run["seconds"] for run in runs[side]),
                        **{key: [run[key] for run in runs[side]]
                           for key in ("seconds", "passed", "failed")}}
                 for side in runs}
        identity = bit_identity(sides)
        lines = {side: src_lines(path) for side, path in sides.items()}
    dirty = bool(git("status", "--porcelain", "--untracked-files=no", "--",
                     *CHANGE_DIRS, *CHANGE_FILES))
    out = {
        "parent": parent_commit,
        "change": git("rev-parse", "HEAD") + (" + uncommitted edits" if dirty else ""),
        "run_seconds": seconds, "pairs": PAIRS,
        "workloads": workloads,
        "reproduce_table_s": {
            side: {table: statistics.median(run[table] for run in tables[side])
                   for table in tables[side][0]} for side in tables},
        "tier1": tier1,
        "bit_identity": identity,
        "src_lines": lines,
        "environment": env,
    }
    (ROOT / args.out).write_text(json.dumps(out, indent=1) + "\n")
    for workload, data in workloads.items():
        for name, m in data["metrics"].items():
            print(f"{workload:10s} {name:18s} parent {m['parent']['median']:.5g} "
                  f"change {m['change']['median']:.5g} ratio {m['ratio']:.3f} "
                  f"won {m['won']:.0%}" + (" claim met" if m["claim_met"] else ""))
        for side, usage in data["per_pass"].items():
            print(f"{workload:10s} per pass {side:6s} minor faults {usage['minor_faults']:.0f}, "
                  f"user {usage['user_s']:.3f} s, system {usage['system_s']:.3f} s")
    for side in ("parent", "change"):
        print(f"{side} digests: " + ", ".join(
            f"{name} {'equal' if v['equal'] else str(v['rows_differing']) + ' rows differ'}"
            f"{'' if v['equal'] or not v['equal_without_vr'] else ' (equal without vr)'}"
            for name, v in identity[side].items()) + "; settings agree: "
            + str(all(v["own_default"] for v in identity[side].values())))
    for side in ("parent", "change"):
        print(f"{side} tier-1: median {tier1[side]['median']:.1f} s of " + ", ".join(
            f"{s:.1f}" for s in tier1[side]["seconds"]) + f"; failed {tier1[side]['failed']}")
    print(f"src_lines: parent {lines['parent']}, change {lines['change']}")


if __name__ == "__main__":
    main()
