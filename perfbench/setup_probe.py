"""One set-up sample: a fresh interpreter runs a workload's set-up,
prints ``ready`` once it could start timing, then tears down.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD`` (``run.py`` times it).
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import drivers, population  # noqa: E402


def main(workload: str) -> int:
    driver, _probe, patches = drivers.prepare(workload, population.load_expected())
    print("ready", flush=True)
    driver.close()
    patches.undo()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
