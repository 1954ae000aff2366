"""Canonical synthetic scene presets used by the CLI, demos, and benchmarks.

The ablation scenes are engineered to separate the association strategies:
  - same-class near-duplicate pairs whose second member only starts being
    detected mid-sequence (a late detector pickup): without the image-space
    gate, its first detections land on the neighbor's track;
  - background occluder posts that periodically split an object into
    slivers too small to pass the IoU gate: without quadric-based merging,
    each episode leaves a stray fragment track behind.
"""

from __future__ import annotations

import numpy as np

from .pipeline import PipelineConfig
from .simulator import ObjectSpec, OrbitTrajectory, SceneSpec

PRESETS = ("pose4", "ablation4", "ablation8", "ablation12", "sphere", "static")


def pose_scene(seed: int = 0, width: int = 320, height: int = 240,
               n_frames: int = 60, bbox_jitter: float = 0.0) -> SceneSpec:
    """Four ellipsoidal objects of distinct classes on an orbit.

    Quadric-model-consistent silhouettes (spheres/ellipsoids): boxy shapes
    make the bbox-IoU optimum the circumscribing ellipsoid, which is a
    property of the representation, not of the optimizer under test.
    """
    tilt = np.array(
        [[np.cos(0.44), -np.sin(0.44), 0.0],
         [np.sin(0.44), np.cos(0.44), 0.0],
         [0.0, 0.0, 1.0]]
    )
    objects = [
        ObjectSpec(class_id=1, shape="sphere", center=(0.0, 0.0, 0.35),
                   semi_axes=(0.28, 0.28, 0.28), albedo=(0.85, 0.25, 0.2)),
        ObjectSpec(class_id=2, shape="ellipsoid", center=(-0.75, 0.55, 0.25),
                   semi_axes=(0.25, 0.21, 0.23), albedo=(0.2, 0.7, 0.3)),
        ObjectSpec(class_id=3, shape="ellipsoid", center=(0.8, 0.45, 0.3),
                   semi_axes=(0.3, 0.22, 0.28), albedo=(0.25, 0.35, 0.85)),
        ObjectSpec(class_id=4, shape="ellipsoid", center=(0.35, -0.85, 0.3),
                   semi_axes=(0.27, 0.23, 0.25), albedo=(0.85, 0.75, 0.25),
                   rotation=tilt),
    ]
    return SceneSpec(
        objects=objects,
        n_frames=n_frames,
        width=width, height=height,
        fx=0.75 * width, fy=0.75 * width,
        trajectory=OrbitTrajectory(target=(0.0, 0.0, 0.3), radius=2.6, height=1.4),
        bbox_jitter_sigma=bbox_jitter,
        seed=seed,
    )


def _pair(center, sep, class_id, radius, albedo, detect_from):
    """A same-class near-duplicate pair; second member detected late."""
    cx, cy, cz = center
    return [
        ObjectSpec(class_id=class_id, shape="sphere", center=(cx, cy, cz),
                   semi_axes=(radius,) * 3, albedo=albedo),
        ObjectSpec(class_id=class_id, shape="sphere", center=(cx + sep, cy + 0.05, cz),
                   semi_axes=(radius,) * 3, albedo=albedo, detect_from=detect_from),
    ]


def _post(x, y, albedo=(0.35, 0.3, 0.3)):
    """A thin tall background post that splits whatever passes behind it."""
    return ObjectSpec(class_id=0, shape="box", center=(x, y, 0.55),
                      semi_axes=(0.045, 0.045, 0.55), albedo=albedo)


def ablation_scene(n_objects: int, seed: int = 0, width: int = 200,
                   height: int = 150, n_frames: int = 80) -> SceneSpec:
    """Engineered occlusion/near-duplicate scene with n_objects in {4, 8, 12}."""
    if n_objects == 4:
        objects = _pair((0.0, 0.0, 0.33), 0.38, 1, 0.18, (0.85, 0.3, 0.2), n_frames // 3)
        objects += [
            ObjectSpec(class_id=2, shape="box", center=(-0.8, 0.6, 0.25),
                       semi_axes=(0.22, 0.22, 0.25), albedo=(0.2, 0.7, 0.3)),
            ObjectSpec(class_id=3, shape="sphere", center=(0.55, -0.8, 0.3),
                       semi_axes=(0.26, 0.26, 0.26), albedo=(0.3, 0.4, 0.85)),
        ]
        occluders = [_post(0.62, -0.25)]
        radius = 2.4
    elif n_objects == 8:
        objects = _pair((0.0, 0.2, 0.33), 0.4, 1, 0.18, (0.85, 0.3, 0.2), n_frames // 3)
        objects += _pair((-0.9, -0.5, 0.3), 0.42, 2, 0.17, (0.3, 0.75, 0.3), n_frames // 2)
        objects += [
            ObjectSpec(class_id=3, shape="box", center=(-0.9, 0.7, 0.25),
                       semi_axes=(0.2, 0.2, 0.25), albedo=(0.8, 0.7, 0.2)),
            ObjectSpec(class_id=4, shape="sphere", center=(0.8, -0.85, 0.3),
                       semi_axes=(0.25, 0.25, 0.25), albedo=(0.3, 0.4, 0.85)),
            ObjectSpec(class_id=5, shape="ellipsoid", center=(0.95, 0.65, 0.28),
                       semi_axes=(0.26, 0.18, 0.26), albedo=(0.7, 0.3, 0.7)),
            ObjectSpec(class_id=6, shape="superellipsoid", center=(0.0, 1.05, 0.28),
                       semi_axes=(0.22, 0.22, 0.26), albedo=(0.25, 0.7, 0.7)),
        ]
        occluders = [_post(0.88, -0.3), _post(-0.35, 0.85)]
        radius = 2.7
    elif n_objects == 12:
        objects = _pair((0.0, 0.1, 0.33), 0.4, 1, 0.17, (0.85, 0.3, 0.2), n_frames // 3)
        objects += _pair((-1.0, -0.6, 0.3), 0.42, 2, 0.16, (0.3, 0.75, 0.3), n_frames // 2)
        objects += _pair((1.0, 0.8, 0.3), 0.4, 3, 0.16, (0.75, 0.65, 0.25), 2 * n_frames // 3)
        objects += [
            ObjectSpec(class_id=4, shape="box", center=(-1.0, 0.8, 0.25),
                       semi_axes=(0.2, 0.2, 0.24), albedo=(0.2, 0.5, 0.8)),
            ObjectSpec(class_id=5, shape="sphere", center=(0.9, -0.9, 0.3),
                       semi_axes=(0.24, 0.24, 0.24), albedo=(0.6, 0.3, 0.8)),
            ObjectSpec(class_id=6, shape="ellipsoid", center=(0.0, -1.15, 0.26),
                       semi_axes=(0.26, 0.17, 0.24), albedo=(0.8, 0.45, 0.2)),
            ObjectSpec(class_id=7, shape="superellipsoid", center=(0.0, 1.2, 0.26),
                       semi_axes=(0.2, 0.2, 0.24), albedo=(0.25, 0.7, 0.7)),
            ObjectSpec(class_id=8, shape="sphere", center=(-1.35, 0.1, 0.28),
                       semi_axes=(0.22, 0.22, 0.22), albedo=(0.5, 0.8, 0.4)),
            ObjectSpec(class_id=9, shape="box", center=(1.45, -0.1, 0.24),
                       semi_axes=(0.18, 0.22, 0.24), albedo=(0.75, 0.75, 0.7)),
        ]
        occluders = [_post(0.78, -0.35), _post(-0.45, 0.95), _post(-1.15, -0.15)]
        radius = 3.0
    else:
        raise ValueError("ablation scenes are defined for 4, 8, or 12 objects")

    return SceneSpec(
        objects=objects,
        occluders=occluders,
        n_frames=n_frames,
        width=width, height=height,
        fx=0.8 * width, fy=0.8 * width,
        trajectory=OrbitTrajectory(target=(0.0, 0.0, 0.3), radius=radius, height=1.3),
        # realistic detector floor: slivers of a few dozen pixels still fire,
        # but geometrically meaningless specks do not
        min_detection_pixels=24,
        seed=seed,
    )


def sphere_scene(seed: int = 0, width: int = 96, height: int = 72,
                 n_frames: int = 50) -> SceneSpec:
    """Single zero-noise sphere for reconstruction benchmarks."""
    return SceneSpec(
        objects=[
            ObjectSpec(class_id=1, shape="sphere", center=(0.0, 0.0, 0.4),
                       semi_axes=(0.3, 0.3, 0.3), albedo=(0.8, 0.3, 0.25)),
        ],
        n_frames=n_frames,
        width=width, height=height,
        fx=0.9 * width, fy=0.9 * width,
        # near-equatorial orbit: all but tiny polar caps become visible
        trajectory=OrbitTrajectory(target=(0.0, 0.0, 0.4), radius=1.9, height=0.45),
        seed=seed,
    )


def static_scene(seed: int = 0, n_frames: int = 8,
                 width: int = 96, height: int = 72) -> SceneSpec:
    """Repeated identical frames (zero-sweep orbit) for update-mask studies."""
    return SceneSpec(
        objects=[
            ObjectSpec(class_id=1, shape="sphere", center=(0.0, 0.0, 0.4),
                       semi_axes=(0.3, 0.3, 0.3), albedo=(0.8, 0.3, 0.25)),
        ],
        n_frames=n_frames,
        width=width, height=height,
        fx=0.9 * width, fy=0.9 * width,
        trajectory=OrbitTrajectory(target=(0.0, 0.0, 0.4), radius=1.9, height=1.1,
                                   sweep=0.0),
        seed=seed,
    )


def make_scene(preset: str, seed: int = 0, **kw) -> SceneSpec:
    if preset == "pose4":
        return pose_scene(seed=seed, **kw)
    if preset == "ablation4":
        return ablation_scene(4, seed=seed, **kw)
    if preset == "ablation8":
        return ablation_scene(8, seed=seed, **kw)
    if preset == "ablation12":
        return ablation_scene(12, seed=seed, **kw)
    if preset == "sphere":
        return sphere_scene(seed=seed, **kw)
    if preset == "static":
        return static_scene(seed=seed, **kw)
    raise ValueError(f"unknown preset {preset!r}; choose from {PRESETS}")


def ablation_config(mode: str = "qd+iou") -> PipelineConfig:
    """Association-focused configuration used by the strategy ablation.

    tau and qd_accept are retuned for desk-scale objects: the inverse-square
    shape term grows like 1/axis^2, so small objects need a far looser
    acceptance than the library defaults to keep correct matches.
    """
    return PipelineConfig(
        assoc_mode=mode,
        tau=0.25,
        qd_accept=0.2,
        merge_duplicate_raw=0.15,
        enable_gaussians=False,
        quadric_every=5,
        quadric_iters=40,
        quadric_final_iters=120,
    )
