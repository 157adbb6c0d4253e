"""The benchmark's result line, end to end: perfbench/run.py on a short traced
tail-1d run, from a copy of the checkout so no output lands in the repo."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_run_prints_a_complete_result_line(tmp_path):
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tail-1d", "--seconds", "1",
         "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    # a name the tracer cannot find reads null, not a number
    bad = {name: m["value"] for name, m in result["metrics"].items()
           if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"]))}
    assert not bad, bad
