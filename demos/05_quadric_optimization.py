"""Recovering an object's pose and size from bounding boxes alone.

Collects the detection boxes of one simulated object over an orbit, starts
from a deliberately wrong quadric (20 cm off, 25% too large), and lets the
box-reprojection optimizer pull it back.
"""

import logging

import numpy as np

logging.disable(logging.WARNING)

from objmap.quadric_fit import optimize_quadric
from objmap.quadrics import DualQuadric, iou_3d
from objmap.scenes import pose_scene
from objmap.simulator import frame_bundles

spec = pose_scene(seed=5, width=200, height=150)
observations = []
for bundle, _ in frame_bundles(spec):
    for det in bundle.detections:
        if det.class_id == spec.objects[0].class_id:  # each object has its own class
            observations.append((det.bbox, bundle.camera))
print(f"collected {len(observations)} box observations of object 1")

gt = spec.objects[0].quadric()
init = DualQuadric(
    np.asarray(gt.center) + np.array([0.12, -0.11, 0.1]),
    np.eye(3),
    np.asarray(gt.semi_axes) * 1.25,
)
print(f"initial:   center {np.round(init.center, 3)}, axes {np.round(init.semi_axes, 3)}")
print(f"           center error {np.linalg.norm(init.center - gt.center)*100:.1f} cm, "
      f"3D IoU {iou_3d(init, gt):.3f}")

result = optimize_quadric(init, observations, iters=300)
recovered = result.quadric
print(f"\noptimized in {result.iterations} iterations, "
      f"loss {result.initial_loss:.2f} -> {result.loss:.4f}")
print(f"recovered: center {np.round(recovered.center, 3)}, "
      f"axes {np.round(recovered.semi_axes, 3)}")
print(f"           center error {np.linalg.norm(recovered.center - gt.center)*100:.2f} cm, "
      f"3D IoU {iou_3d(recovered, gt):.3f}")
print(f"ground truth: center {np.round(np.asarray(gt.center), 3)}, "
      f"axes {np.round(np.asarray(gt.semi_axes), 3)}")
