"""Thread capping: LAB_THREADS must reach the BLAS pools before numpy loads."""

import os
import subprocess
import sys
from pathlib import Path

import boltzlab

# Records the BLAS thread variable at the moment numpy is first imported.
_PROBE = """
import importlib.abc, os, sys
assert "numpy" not in sys.modules
seen = []
class Probe(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None
sys.meta_path.insert(0, Probe())
import boltzlab
print(seen)
"""


def test_thread_cap_set_before_numpy_import():
    src = str(Path(boltzlab.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if not k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))}
    env.update(LAB_THREADS="1", PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "['1']"
