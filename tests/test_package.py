"""The lazy package and the CLI's BLAS pin, each checked in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import frond

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Names frond no longer exports: each had no caller in the CLI, the
# benchmark, the demos or the acceptance tests.
DELETED_NAMES = (
    "init_bank",
    "cosine_similarity",
    "cost_from_similarity",
    "evaluate_sequences",
    "merge_match_tables",
    "hota",
    "mota",
    "idf1",
    "iou",
    "LeafModel",
    "det_a",
    "ass_a",
    "id_switches",
)
SRC = str(Path(frond.__file__).resolve().parents[1])

# Records OPENBLAS_NUM_THREADS at the moment numpy starts to load.
SPY_ON_NUMPY = """
import os, sys

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print("at numpy import:", os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Spy())
"""


def run_python(code: str, **env_overrides: str) -> str:
    """Run code in a new interpreter with no BLAS variable set unless given."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(env_overrides)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_frond_loads_no_numpy():
    out = run_python("import sys, frond; print(sorted(m for m in sys.modules if m.startswith(('numpy', 'frond'))))")
    assert out == "['frond']\n"


def test_cli_pins_blas_before_numpy_loads():
    code = SPY_ON_NUMPY + "import frond.cli\nprint(*(os.environ[v] for v in %r))" % (BLAS_VARS,)
    assert run_python(code) == "at numpy import: 1\n1 1 1\n"


def test_exported_blas_setting_wins():
    code = "import os, frond.cli; print(*(os.environ[v] for v in %r))" % (BLAS_VARS,)
    assert run_python(code, OPENBLAS_NUM_THREADS="2") == "2 1 1\n"
    assert run_python(code, OMP_NUM_THREADS="3", MKL_NUM_THREADS="4") == "1 3 4\n"


def test_every_export_resolves_to_its_module_attribute():
    code = """
import importlib, frond
for name in frond.__all__:
    owner = importlib.import_module("frond." + frond._MODULE_OF[name])
    assert getattr(frond, name) is getattr(owner, name), name
namespace = {}
exec("from frond import *", namespace)
assert set(frond.__all__) <= set(namespace), set(frond.__all__) - set(namespace)
assert set(frond.__all__) <= set(dir(frond))
print(len(frond.__all__))
"""
    assert run_python(code) == f"{len(frond.__all__)}\n"


def test_unknown_attribute_raises_attribute_error():
    code = """
import frond
for name in %r:
    try:
        getattr(frond, name)
    except AttributeError as err:
        print(err)
print(hasattr(frond, "no_such_name"))
""" % (DELETED_NAMES,)
    expected = "".join(f"module 'frond' has no attribute {name!r}\n" for name in DELETED_NAMES)
    assert run_python(code) == expected + "False\n"


def test_submodules_import_through_the_lazy_package():
    out = run_python("from frond import fileio, tracker; print(fileio.__name__, tracker.step.__module__)")
    assert out == "frond.fileio frond.tracker\n"
