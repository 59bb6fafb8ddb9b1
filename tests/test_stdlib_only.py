"""The package runs on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Snapshot first: `site` may already have loaded third-party modules
# (path hooks of installed packages) before this code runs.
PROBE = """
import sys
before = set(sys.modules)
import baxtertrees, baxtertrees.cli, baxtertrees.verify
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"baxtertrees"})))
"""


def test_imports_load_only_the_standard_library():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
