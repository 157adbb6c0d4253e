"""One set-up sample: import cemix and build a workload's rows, then exit.

run.py times this process from spawn to exit.  Usage:
    python3 perfbench/setup_probe.py <src-dir> <workload> <seed>
"""

import os
import sys

sys.path.insert(0, sys.argv[1])
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import prepare  # noqa: E402

prepare(sys.argv[2], int(sys.argv[3]))
