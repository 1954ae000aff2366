"""Software Gaussian splatting: render channels, then fit an object.

Densifies Gaussians from one RGB-D frame, renders color / depth / instance
channels to PNGs, and runs a few appearance-optimization steps showing the
non-increasing loss trace.
"""

import logging
import os

import numpy as np

logging.disable(logging.WARNING)

from objmap.config import PipelineConfig
from objmap.gaussians import (
    GaussianStore,
    compute_update_masks,
    densify_from_mask,
    select_trainable,
)
from objmap.renderer import dump_render_pngs, optimize_object, render
from objmap.scenes import sphere_scene
from objmap.simulator import frame_bundles

os.makedirs("demo_output", exist_ok=True)
spec = sphere_scene(seed=2, n_frames=1)
frame, _ = next(frame_bundles(spec))

store = GaussianStore()
empty = render(store, frame.camera, instance_ref=frame.instance)
masks = compute_update_masks(frame, empty, PipelineConfig())
print(f"fresh map: {np.count_nonzero(masks.geo_mask)} geometry pixels flagged")

new = densify_from_mask(frame, masks, empty, PipelineConfig(stride=1))
store.extend(new)
print(f"densified {len(new)} gaussians from the depth image")

out = render(store, frame.camera, instance_id=1)
paths = dump_render_pngs(out, os.path.join("demo_output", "splat"))
print("wrote", ", ".join(paths))
print(f"alpha+transmittance check: max |a+T-1| = "
      f"{np.abs(out.alpha + out.transmittance - 1).max():.2e}")

trainable = select_trainable(store, masks, 1, frame.camera)
trace = optimize_object(store, 1, frame, trainable, PipelineConfig(gaussian_iters=12))
print("\nloss trace (appearance optimization):")
print("  " + " -> ".join(f"{v:.1f}" for v in trace[::3]))

obj = frame.instance == 1
final = render(store, frame.camera, instance_ref=frame.instance)
mae = np.abs(final.color - frame.rgb).mean(axis=2)[obj].mean()
print(f"masked-pixel photometric MAE after training: {mae:.4f}")
