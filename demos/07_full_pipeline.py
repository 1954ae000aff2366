"""End-to-end run: simulate, map, evaluate pose and reconstruction, export.

Equivalent CLI session:
    objmap simulate --preset sphere --out demo_output/ds
    objmap run --dataset demo_output/ds --out-state demo_output/state \
        --tau 0.25 --qd-accept 0.2 --stride 1
    objmap eval-pose  --state demo_output/state --dataset demo_output/ds
    objmap eval-recon --state demo_output/state --dataset demo_output/ds
    objmap export     --state demo_output/state --out demo_output/objects
"""

import logging
import os

logging.disable(logging.WARNING)

from objmap.gaussians import KIND_OPAQUE
from objmap.pipeline import (
    PipelineConfig,
    dataset_cameras,
    eval_pose,
    eval_recon,
    export_objects,
    run_pipeline,
    save_state,
)
from objmap.scenes import sphere_scene
from objmap.simulator import generate, load_gt

ds = os.path.join("demo_output", "pipeline_ds")
generate(sphere_scene(seed=4, n_frames=30), ds)
print(f"dataset at {ds}")

config = PipelineConfig(
    tau=0.25, qd_accept=0.2, stride=1, gaussian_iters=10,
    lr_opacity=0.04, quadric_every=10,
)
result = run_pipeline(ds, config)
save_state(result, os.path.join("demo_output", "pipeline_state"))
print(f"mapped {len(result.logs)} frames: {result.track_count()} tracks, "
      f"{len(result.store)} gaussians")

gt = load_gt(ds)
report = eval_pose(result, gt, dataset_cameras(ds))
print("\npose evaluation:")
print(report.table())

# the sphere's Gaussians carry the id of the track that eval_pose matched to it
(sphere,) = report.per_object
store = result.store
sel = (store.object_ids == sphere.track_id) & (store.kinds == KIND_OPAQUE)
acc, comp, ratio = eval_recon(store.means[sel], gt["points"][sphere.gt_id], threshold_cm=5.0)
print(f"\nreconstruction: accuracy {acc:.2f} cm, completion {comp:.2f} cm, "
      f"ratio<5cm {ratio:.1f}%")

manifest = export_objects(result, os.path.join("demo_output", "objects"))
print(f"\nexported {len(manifest['objects'])} object point clouds "
      f"to demo_output/objects/")
