"""What `import boltzlab` does to a fresh process: LAB_THREADS must reach the
BLAS pools before numpy loads, scipy.interpolate stays unloaded, and a star
import binds exactly the export list."""

import os
import subprocess
import sys
import types
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


# Imports numpy first, then prints the RuntimeWarnings importing boltzlab raises.
_LATE = """
import warnings
import numpy
with warnings.catch_warnings(record=True) as seen:
    warnings.simplefilter("always")
    import boltzlab
print([str(w.message) for w in seen if w.category is RuntimeWarning])
"""


def _run_capped(script: str) -> subprocess.CompletedProcess:
    """Run `script` in a fresh interpreter with only LAB_THREADS=1 set."""
    src = str(Path(boltzlab.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if not k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))}
    env.update(LAB_THREADS="1", PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120, check=True)


def test_thread_cap_set_before_numpy_import():
    out = _run_capped(_PROBE)
    assert out.stdout.strip() == "['1']"
    assert "RuntimeWarning" not in out.stderr


def test_thread_cap_warns_when_numpy_loaded_first():
    out = _run_capped(_LATE)
    assert "numpy was imported before boltzlab" in out.stdout
    assert "OPENBLAS_NUM_THREADS" in out.stdout


def test_import_leaves_scipy_interpolate_unloaded():
    # its own process: other test modules import scipy.interpolate
    _run_capped("import boltzlab, sys; sys.exit('scipy.interpolate' in sys.modules)")


def test_star_import_binds_exactly_the_export_list():
    ns = {}
    exec("from boltzlab import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(boltzlab.__all__)
    assert len(ns) == 48
    assert not any(isinstance(obj, types.ModuleType) for obj in ns.values())
    # the package attribute is the operator, not the submodule
    assert ns["collision"] is boltzlab.collision
    assert callable(ns["collision"])
