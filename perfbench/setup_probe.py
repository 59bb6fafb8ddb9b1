"""Set up one workload, then time the reference code; ``setup_s`` is
timed from the start of this process to the end of its set-up.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is what every run pays before its first op: interpreter start,
importing the library, building the seeded inputs and loading the golden
outputs.  The probe prints, as one JSON object, the ``perf_counter()``
time at which set-up ended (the clock is the system's monotonic one, so
the parent can subtract its own start time from it) and five timings of
the reference code taken in this process afterwards, which give the speed
of the processor it ran on.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import golden  # noqa: E402
from workloads import WORKLOADS, Library  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed = argv
    lib = Library(HERE.parent)
    WORKLOADS[name](lib, int(seed))
    golden.load(name)
    ready = perf_counter()
    from speed import time_reference
    print(json.dumps({"ready": ready,
                      "reference": [time_reference() for _ in range(5)]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
