"""Import cost: importing the package, opening a dataset and running
association load no SciPy, and mapping loads no numpy.ma.

Each check runs in a fresh interpreter, because the test process itself has
SciPy loaded by other tests.
"""

import json
import os
import subprocess
import sys

import pytest

from objmap.scenes import make_scene
from objmap.simulator import generate, load

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MAPPING_PATH = """
import json, sys
import objmap, objmap.pipeline, objmap.cli, objmap.scenes
from objmap.pipeline import dataset_cameras
from objmap.simulator import load
frame = next(iter(load(sys.argv[1])))
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "index": frame.index,
    "cameras": len(dataset_cameras(sys.argv[1])),
}))
"""

ASSOCIATION_ONLY = """
import json, sys
import objmap.association as association
from objmap.pipeline import run_pipeline
from objmap.scenes import ablation_config

calls = 0
iou_3d = association.iou_3d

def counted_iou_3d(a, b):
    global calls
    calls += 1
    return iou_3d(a, b)

association.iou_3d = counted_iou_3d
result = run_pipeline(sys.argv[1], ablation_config("qd+iou"))
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "iou_3d_calls": calls,
    "frames": len(result.logs),
}))
"""


MAPPING_PASS = """
import json, sys
from objmap.pipeline import PipelineConfig, run_pipeline
from objmap.scenes import ablation_config

config = ablation_config("qd+iou") if sys.argv[2] == "qd+iou" else PipelineConfig(stride=2)
result = run_pipeline(sys.argv[1], config)
print(json.dumps({"numpy.ma": "numpy.ma" in sys.modules, "gaussians": len(result.store)}))
"""


def run_fresh(*args: str) -> str:
    """Run `python *args` in a new interpreter with `src` on the path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_mapping_path_loads_no_scipy(tmp_path):
    spec = make_scene("sphere", n_frames=2, width=48, height=36)
    d = generate(spec, str(tmp_path / "ds"))
    got = json.loads(run_fresh("-c", MAPPING_PATH, d))
    assert got == {"scipy": [], "index": 0, "cameras": 2}


def test_generation_in_fresh_interpreter(tmp_path):
    d = str(tmp_path / "ds")
    run_fresh("-m", "objmap.cli", "simulate", "--preset", "sphere",
              "--frames", "2", "--width", "48", "--height", "36", "--out", d)
    assert [len(f.detections) for f in load(d)] == [1, 1]


def test_association_loads_no_scipy(tmp_path):
    spec = make_scene("ablation8", seed=2, n_frames=6, width=80, height=60)
    d = generate(spec, str(tmp_path / "ds"))
    got = json.loads(run_fresh("-c", ASSOCIATION_ONLY, d))
    assert got["scipy"] == []
    assert got["frames"] == 6
    assert got["iou_3d_calls"] >= 1  # the merge test ran, so the check is not vacuous


@pytest.mark.parametrize("preset, config", [("sphere", "gaussians"), ("ablation8", "qd+iou")])
def test_mapping_pass_loads_no_numpy_ma(tmp_path, preset, config):
    """np.median and a plain np.unique import numpy.ma (for their masked
    array checks); neither pass may call them."""
    spec = make_scene(preset, n_frames=4, width=80, height=60)
    d = generate(spec, str(tmp_path / "ds"))
    got = json.loads(run_fresh("-c", MAPPING_PASS, d, config))
    assert got["numpy.ma"] is False
    assert (got["gaussians"] > 0) == (config == "gaussians")
