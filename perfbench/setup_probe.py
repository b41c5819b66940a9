"""Print the seconds this fresh process spends on ``import splitflow`` plus
the problem generation of a workload's first pass: first at reference
machine speed (see ``speed.py``), then wall-clock.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

from speed import SpeedClock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

with SpeedClock(numeric=False) as clock:
    import splitflow  # noqa: F401
    import workloads

    workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print(f"{clock.seconds!r} {clock.wall - clock.in_handler!r}")
