"""Set-up probe: one fresh interpreter from start to the first simulated step.

Usage: ``python3 perfbench/probe.py <workload> <seed> <size>``. Imports
``repro`` (loading the compiled core), generates the workload, builds its
first session and steps it once, then prints ``time.monotonic_ns()``.
``run.py`` subtracts the monotonic clock it read just before starting this
process, so the difference covers interpreter start too.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import suite  # noqa: E402  (needs the source tree on sys.path)

if __name__ == "__main__":
    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    suite.build(name, seed, size).first_step()
    print(time.monotonic_ns())
