"""Golden outputs of the workloads, recorded from the library as it
stood when the benchmark was defined.

Run ``python3 perfbench/golden.py`` from the repository root to record
them again; do so only when the library's output is meant to change.
The products digests and the command-pool outputs do not depend on the
seed; the desk checks are recorded at two seeds and must agree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import WORKLOADS, Library

HERE = Path(__file__).resolve().parent
DIR = HERE / "recorded"
RECORD_SEEDS = (1, 2)


def load(workload: str) -> dict:
    with open(DIR / f"{workload}.json") as f:
        return json.load(f)


def record_one(cls, lib, seed: int) -> dict:
    # Called from main() as run.py's measure() is, so the command pool meets
    # the same stack depth here as when measured.
    work = cls(lib, seed)
    lib.clear_memos()
    if cls.name == "cli-session":
        run = work.run(stream=range(len(work.pool.commands)))
    else:
        run = work.run()
    return work.golden(run)


def main() -> int:
    lib = Library(HERE.parent)
    DIR.mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        first = record_one(cls, lib, RECORD_SEEDS[0])
        second = record_one(cls, lib, RECORD_SEEDS[1])
        if first != second:
            print(f"{name}: golden output depends on the seed", file=sys.stderr)
            return 1
        with open(DIR / f"{name}.json", "w") as f:
            json.dump(first, f, indent=0, sort_keys=True)
            f.write("\n")
        print(f"{name}: recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
