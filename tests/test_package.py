"""The empty package file, the CLI's BLAS pin and the README's code, each in a fresh interpreter."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import frond

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Names frond no longer exports.  Most had no caller in the CLI, the
# benchmark, the demos or the acceptance tests.  GtAnnotation and TrackedBox
# held the same (frame, id, box) row and merged into geometry.LeafBox;
# logistic_area, called only by generate, is now private to the simulator.
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
    "Track",
    "GtAnnotation",
    "TrackedBox",
    "logistic_area",
)
# Names the package once re-exported, by the module that defines them; each
# is now imported from that module only.
FORMER_EXPORTS = {
    "assignment": ("Assignment", "gate_assignment", "hungarian", "similarity_matrix"),
    "embedding": (
        "CROSS_PLANT_FLEXIBLE",
        "INTRA_PLANT_FULL_CYCLE",
        "INTRA_PLANT_TEMPORAL_WINDOW",
        "CropRef",
        "SamplingStrategy",
        "TripletSpec",
        "normalize",
        "sample_triplets",
        "triplet_margin_loss",
    ),
    "fileio": (
        "read_detections",
        "read_gt",
        "read_results",
        "read_scenario_config",
        "read_tracker_params",
        "read_triplets",
        "read_truth_map",
        "write_detections",
        "write_gt",
        "write_leaf_matrix_csv",
        "write_results",
        "write_triplets",
        "write_truth_map",
    ),
    "geometry": ("BBox", "iou_matrix"),
    "metrics": (
        "CELL_ABSENT",
        "CELL_CORRECT",
        "CELL_FAILURE",
        "LeafAccuracyMatrix",
        "MatchTable",
        "MetricReport",
        "daily_accuracy",
        "evaluate",
        "format_report",
        "format_report_machine",
        "leaf_accuracy_matrix",
        "match_frames",
        "report_from_table",
    ),
    "simulator": ("ScenarioConfig", "baseline_iou_tracker", "generate"),
    "tracker": (
        "Detection",
        "FrameResult",
        "MemoryBank",
        "TrackerParams",
        "run_sequence",
        "step",
        "tracked_boxes",
    ),
}
FORMER_NAMES = tuple(name for names in FORMER_EXPORTS.values() for name in names)
SRC = str(Path(frond.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"

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


def test_metrics_loads_neither_tracker_nor_embedding():
    out = run_python("import sys, frond.metrics; print(sorted(m for m in sys.modules if m.startswith('frond')))")
    assert out == "['frond', 'frond.assignment', 'frond.geometry', 'frond.metrics']\n"


def test_tracker_loads_neither_metrics_nor_simulator_nor_fileio():
    out = run_python("import sys, frond.tracker; print(sorted(m for m in sys.modules if m.startswith('frond')))")
    assert out == "['frond', 'frond.assignment', 'frond.embedding', 'frond.geometry', 'frond.tracker']\n"


def test_cli_pins_blas_before_numpy_loads():
    code = SPY_ON_NUMPY + "import frond.cli\nprint(*(os.environ[v] for v in %r))" % (BLAS_VARS,)
    assert run_python(code) == "at numpy import: 1\n1 1 1\n"


def test_exported_blas_setting_wins():
    code = "import os, frond.cli; print(*(os.environ[v] for v in %r))" % (BLAS_VARS,)
    assert run_python(code, OPENBLAS_NUM_THREADS="2") == "2 1 1\n"
    assert run_python(code, OMP_NUM_THREADS="3", MKL_NUM_THREADS="4") == "1 3 4\n"


def test_package_exposes_only_its_version():
    code = """
import frond
namespace = {}
exec("from frond import *", namespace)
print(frond.__version__, [n for n in vars(frond) if not n.startswith("_")], sorted(namespace))
"""
    assert run_python(code) == f"{frond.__version__} [] ['__builtins__']\n"


def test_every_former_export_lives_in_its_module():
    for module, names in FORMER_EXPORTS.items():
        owner = importlib.import_module(f"frond.{module}")
        assert [n for n in names if not hasattr(owner, n)] == [], module


def test_unknown_attribute_raises_attribute_error():
    code = """
import frond
for name in %r + %r:
    try:
        getattr(frond, name)
    except AttributeError as err:
        print(err)
print(hasattr(frond, "no_such_name"))
""" % (DELETED_NAMES, FORMER_NAMES)
    expected = "".join(
        f"module 'frond' has no attribute {name!r}\n" for name in DELETED_NAMES + FORMER_NAMES
    )
    assert run_python(code) == expected + "False\n"


def test_submodules_import_through_the_package():
    out = run_python("from frond import fileio, tracker; print(fileio.__name__, tracker.step.__module__)")
    assert out == "frond.fileio frond.tracker\n"


def test_every_readme_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        run_python(block)
