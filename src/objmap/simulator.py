"""Synthetic posed RGB-D sequence generator with exact ground truth.

Scenes are collections of analytic shapes (sphere, box, ellipsoid,
superellipsoid) above a textured ground plane inside four walls.  Frames are
ray-traced per pixel, so depth and instance ids are exact; detections are
tight boxes of the visible pixels of each object (per connected component,
so occluders genuinely split objects into pieces), with optional Gaussian
jitter and dropout.  Everything is a deterministic function of the scene
seed.

Dataset layout written by generate():
  intrinsics.json            fx, fy, cx, cy, width, height, depth_scale
  poses.txt                  lines "idx tx ty tz qx qy qz qw" (world-from-camera)
  rgb/%06d.png               8-bit RGB
  depth/%06d.png             16-bit, value = meters * depth_scale
  instance/%06d.png          16-bit object ids (0 = background)
  detections/%06d.json       [{class_id, bbox:[x1,y1,x2,y2], score}]
  gt/objects.json            ground-truth quadric parameters per object
  gt/points_%03d.ply         10^4 surface points per object
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetError, InvalidParameterError
from .frames import Detection2D, FrameBundle
from .plyio import read_point_ply, write_point_ply
from .png import read_png, write_png
from .quadrics import BBox2D, CameraModel, DualQuadric

SHAPES = ("sphere", "box", "ellipsoid", "superellipsoid")

_LIGHT = np.array([0.3, 0.25, 0.92])
_LIGHT = _LIGHT / np.linalg.norm(_LIGHT)


@dataclass
class ObjectSpec:
    """One analytic scene object; `detect_from` delays its first detection."""

    class_id: int
    shape: str
    center: tuple[float, float, float]
    semi_axes: tuple[float, float, float]
    albedo: tuple[float, float, float] = (0.7, 0.3, 0.3)
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    power: float = 4.0  # superellipsoid exponent
    detect_from: int = 0

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise InvalidParameterError(f"unknown shape {self.shape!r}")
        if np.any(np.asarray(self.semi_axes) <= 0):
            raise InvalidParameterError("object semi_axes must be > 0")
        self.rotation = np.asarray(self.rotation, dtype=float)

    def quadric(self) -> DualQuadric:
        return DualQuadric(np.asarray(self.center), self.rotation, np.asarray(self.semi_axes))


@dataclass
class OrbitTrajectory:
    """Camera circling `target` at fixed radius/height, always looking at it."""

    target: tuple[float, float, float] = (0.0, 0.0, 0.3)
    radius: float = 2.5
    height: float = 1.3
    start_angle: float = 0.0
    sweep: float = 2.0 * np.pi

    def pose(self, i: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        theta = self.start_angle + self.sweep * i / max(1, n)
        target = np.asarray(self.target, dtype=float)
        eye = target + np.array(
            [self.radius * np.cos(theta), self.radius * np.sin(theta), 0.0]
        )
        eye[2] = self.height
        return _look_at(eye, target)


@dataclass
class WaypointTrajectory:
    """Piecewise-linear eye path through waypoints, looking at a fixed target."""

    waypoints: list[tuple[float, float, float]]
    target: tuple[float, float, float] = (0.0, 0.0, 0.3)

    def pose(self, i: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        wp = np.asarray(self.waypoints, dtype=float)
        if len(wp) == 1:
            eye = wp[0]
        else:
            s = (len(wp) - 1) * i / max(1, n - 1)
            k = min(int(s), len(wp) - 2)
            eye = wp[k] + (s - k) * (wp[k + 1] - wp[k])
        return _look_at(eye, np.asarray(self.target, dtype=float))


def _look_at(eye: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """World-from-camera (R, t): camera x right, y down, z forward."""
    fwd = target - eye
    fwd = fwd / np.linalg.norm(fwd)
    up = np.array([0.0, 0.0, 1.0])
    if abs(fwd @ up) > 0.999:
        up = np.array([0.0, 1.0, 0.0])
    right = np.cross(fwd, up)
    right /= np.linalg.norm(right)
    down = np.cross(fwd, right)
    return np.stack([right, down, fwd], axis=1), eye


@dataclass
class SceneSpec:
    """Full description of a synthetic sequence; `seed` fixes every sample.

    `occluders` are rendered like objects but carry instance id 0: they
    block views and split detections without appearing in the ground truth.
    """

    objects: list[ObjectSpec]
    occluders: list[ObjectSpec] = field(default_factory=list)
    n_frames: int = 60
    trajectory: OrbitTrajectory | WaypointTrajectory = field(default_factory=OrbitTrajectory)
    width: int = 160
    height: int = 120
    fx: float = 120.0
    fy: float = 120.0
    room_extent: float = 4.0
    depth_noise_sigma: float = 0.0
    bbox_jitter_sigma: float = 0.0
    detection_dropout: float = 0.0
    min_detection_pixels: int = 8
    depth_scale: float = 1000.0
    seed: int = 0

    def camera_at(self, index: int) -> CameraModel:
        R, t = self.trajectory.pose(index, self.n_frames)
        return CameraModel(
            fx=self.fx, fy=self.fy, cx=self.width / 2.0, cy=self.height / 2.0,
            width=self.width, height=self.height, rotation=R, translation=t,
        )


# ---------------------------------------------------------------------------
# Analytic ray casting


def _ray_shape_hits(obj: ObjectSpec, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Smallest positive hit parameter per ray, inf where missed."""
    R = obj.rotation
    o = (origins - np.asarray(obj.center)) @ R
    d = dirs @ R
    s = np.asarray(obj.semi_axes, dtype=float)
    if obj.shape in ("sphere", "ellipsoid"):
        return _quadratic_hit(o / s, d / s)
    if obj.shape == "box":
        return _slab_hit(o, d, s)
    return _superellipsoid_hit(o, d, s, obj.power)


def _quadratic_hit(o: np.ndarray, d: np.ndarray) -> np.ndarray:
    a = np.sum(d * d, axis=1)
    b = 2.0 * np.sum(o * d, axis=1)
    c = np.sum(o * o, axis=1) - 1.0
    disc = b * b - 4 * a * c
    t = np.full(len(o), np.inf)
    ok = disc >= 0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    t_near = (-b - sq) / (2 * a)
    hit = ok & (t_near > 1e-6)
    t[hit] = t_near[hit]
    return t


def _slab_hit(o: np.ndarray, d: np.ndarray, s: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-s - o) / d
        t2 = (s - o) / d
    t_lo = np.nanmax(np.minimum(t1, t2), axis=1)
    t_hi = np.nanmin(np.maximum(t1, t2), axis=1)
    t = np.full(len(o), np.inf)
    hit = (t_hi >= t_lo) & (t_lo > 1e-6)
    t[hit] = t_lo[hit]
    return t


def _superellipsoid_hit(
    o: np.ndarray, d: np.ndarray, s: np.ndarray, power: float
) -> np.ndarray:
    """Bisection between the bounding-box entry point and first interior sample."""
    t_box = _slab_hit(o, d, s * (1.0 + 1e-9))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_exit = np.nanmin(np.maximum((-s - o) / d, (s - o) / d), axis=1)
    t = np.full(len(o), np.inf)
    cand = np.isfinite(t_box)
    if not np.any(cand):
        return t
    oc, dc = o[cand], d[cand]
    lo, hi = t_box[cand], t_exit[cand]

    def f(o_, d_, tt):
        p = o_ + tt[:, None] * d_
        return np.sum(np.abs(p / s) ** power, axis=1) - 1.0

    # march to bracket the first surface crossing
    n_steps = 48
    t_in = np.full(len(oc), np.nan)
    prev = lo
    prev_f = f(oc, dc, lo)
    for k in range(1, n_steps + 1):
        cur = lo + (hi - lo) * k / n_steps
        cur_f = f(oc, dc, cur)
        crossing = np.isnan(t_in) & (prev_f > 0) & (cur_f <= 0)
        t_in[crossing] = prev[crossing]
        prev = np.where(np.isnan(t_in), cur, prev)
        prev_f = np.where(np.isnan(t_in), cur_f, prev_f)
    found = ~np.isnan(t_in)
    a = t_in[found]
    b = a + (hi - lo)[found] / n_steps
    oc_found, dc_found = oc[found], dc[found]
    for _ in range(48):
        mid = 0.5 * (a + b)
        outside = f(oc_found, dc_found, mid) > 0
        a = np.where(outside, mid, a)
        b = np.where(outside, b, mid)
    out = np.full(len(oc), np.inf)
    out[found] = 0.5 * (a + b)
    t[cand] = out
    return t


def _shape_normal(obj: ObjectSpec, pts: np.ndarray) -> np.ndarray:
    """Outward surface normals (world frame) at points on the shape."""
    R = obj.rotation
    local = (pts - np.asarray(obj.center)) @ R
    s = np.asarray(obj.semi_axes, dtype=float)
    if obj.shape in ("sphere", "ellipsoid"):
        n = local / s**2
    elif obj.shape == "box":
        rel = np.abs(local) / s
        n = np.zeros_like(local)
        axis = np.argmax(rel, axis=1)
        n[np.arange(len(local)), axis] = np.sign(local[np.arange(len(local)), axis])
    else:
        p = obj.power
        n = p * np.sign(local) * np.abs(local / s) ** (p - 1) / s
    n = n @ R.T
    norm = np.linalg.norm(n, axis=1, keepdims=True)
    return n / np.maximum(norm, 1e-12)


def _checker(u: np.ndarray, v: np.ndarray, period: float = 0.5) -> np.ndarray:
    return ((np.floor(u / period) + np.floor(v / period)) % 2).astype(float)


def render_scene_frame(
    spec: SceneSpec, camera: CameraModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ray-trace one frame: (rgb float [0,1], depth meters, instance ids).

    Depth is camera-frame z at the hit point; instance id 0 is background.
    """
    h, w = spec.height, spec.width
    uu, vv = np.meshgrid(np.arange(w) + 0.5, np.arange(h) + 0.5)
    pix = np.stack([uu.ravel(), vv.ravel()], axis=1)
    dirs = camera.pixel_rays(pix)
    origins = np.broadcast_to(camera.translation, dirs.shape)

    # objects are 1..n; occluders are -1..-m: they shade pixels but report
    # instance 0
    shapes = list(enumerate(spec.objects, start=1))
    shapes += [(-j, obj) for j, obj in enumerate(spec.occluders, start=1)]
    n_rays = len(dirs)
    best_t = np.full(n_rays, np.inf)
    best_id = np.zeros(n_rays, dtype=np.int32)
    for k, obj in shapes:
        t = _ray_shape_hits(obj, origins, dirs)
        closer = t < best_t
        best_t[closer] = t[closer]
        best_id[closer] = k

    # background: ground plane z=0 and four walls at +-room_extent
    E = spec.room_extent
    bg_t = np.full(n_rays, np.inf)
    bg_kind = np.full(n_rays, -1)
    planes = [
        (np.array([0.0, 0.0, 1.0]), 0.0, 0),
        (np.array([1.0, 0.0, 0.0]), -E, 1),
        (np.array([-1.0, 0.0, 0.0]), -E, 2),
        (np.array([0.0, 1.0, 0.0]), -E, 3),
        (np.array([0.0, -1.0, 0.0]), -E, 4),
    ]
    for normal, offset, kind in planes:
        denom = dirs @ normal
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -(origins @ normal + offset) / denom
        pts = origins + t[:, None] * dirs
        ok = (
            (t > 1e-6)
            & (denom < 0)
            & (np.abs(pts[:, 0]) <= E + 1e-9)
            & (np.abs(pts[:, 1]) <= E + 1e-9)
            & (pts[:, 2] >= -1e-9)
            & (pts[:, 2] <= 2.0 * E)
            & (t < bg_t)
        )
        bg_t[ok] = t[ok]
        bg_kind[ok] = kind

    bg_closer = bg_t < best_t
    best_t[bg_closer] = bg_t[bg_closer]
    best_id[bg_closer] = 0

    rgb = np.zeros((n_rays, 3))
    hit = np.isfinite(best_t)
    pts = origins + best_t[:, None] * dirs

    for k, obj in shapes:
        m = hit & (best_id == k)
        if not np.any(m):
            continue
        normals = _shape_normal(obj, pts[m])
        shade = 0.65 + 0.35 * np.maximum(0.0, normals @ _LIGHT)
        rgb[m] = np.asarray(obj.albedo) * shade[:, None]

    bg_mask = hit & (best_id == 0)
    if np.any(bg_mask):
        p = pts[bg_mask]
        kind = bg_kind[bg_mask]
        checker = np.where(
            kind == 0,
            _checker(p[:, 0], p[:, 1]),
            _checker(p[:, 0] + p[:, 1], p[:, 2]),
        )
        base = np.where(kind[:, None] == 0, 0.45, 0.62)
        rgb[bg_mask] = base + 0.14 * checker[:, None]

    depth = np.zeros(n_rays)
    cam_z = (pts[hit] - camera.translation) @ camera.rotation[:, 2]
    depth[hit] = cam_z
    instance = np.maximum(best_id, 0)  # occluder hits fold into background
    return (
        np.clip(rgb, 0, 1).reshape(h, w, 3),
        depth.reshape(h, w),
        instance.reshape(h, w),
    )


def _detections_for_frame(
    spec: SceneSpec, index: int, instance: np.ndarray, rng: np.random.Generator
) -> list[Detection2D]:
    """Tight boxes (pixel centers) per visible connected component, noised."""
    from scipy import ndimage  # deferred: loading a dataset needs no SciPy

    h, w = instance.shape
    dets: list[Detection2D] = []
    for k, obj in enumerate(spec.objects, start=1):
        if index < obj.detect_from:
            continue
        mask = instance == k
        if not np.any(mask):
            continue
        labels, n_comp = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
        for comp in range(1, n_comp + 1):
            ys, xs = np.nonzero(labels == comp)
            if len(xs) < spec.min_detection_pixels:
                continue
            # outer pixel edges: within 0.5 px of the continuous silhouette
            box = np.array(
                [xs.min(), ys.min(), xs.max() + 1.0, ys.max() + 1.0], dtype=float
            )
            if spec.bbox_jitter_sigma > 0:
                box = box + rng.normal(0.0, spec.bbox_jitter_sigma, size=4)
            if rng.random() < spec.detection_dropout:
                continue
            x0 = float(np.clip(min(box[0], box[2]), 0, w - 1))
            x1 = float(np.clip(max(box[0], box[2]), x0, w))
            y0 = float(np.clip(min(box[1], box[3]), 0, h - 1))
            y1 = float(np.clip(max(box[1], box[3]), y0, h))
            dets.append(
                Detection2D(
                    bbox=BBox2D(x0, y0, x1, y1),
                    class_id=obj.class_id,
                    score=1.0,
                )
            )
    return dets


def frame_bundles(spec: SceneSpec):
    """Yield the sequence's FrameBundles (already quantized like the files)."""
    for i in range(spec.n_frames):
        camera = spec.camera_at(i)
        rgb, depth, instance = render_scene_frame(spec, camera)
        rng = np.random.default_rng([spec.seed, i])
        if spec.depth_noise_sigma > 0:
            noise = rng.normal(0.0, spec.depth_noise_sigma, size=depth.shape)
            depth = np.where(depth > 0, np.maximum(depth + noise, 1e-3), 0.0)
        dets = _detections_for_frame(spec, i, instance, rng)
        rgb_q = np.round(rgb * 255.0).astype(np.uint8)
        depth_q = np.clip(np.round(depth * spec.depth_scale), 0, 65535).astype(np.uint16)
        yield FrameBundle(
            rgb=rgb_q.astype(np.float64) / 255.0,
            depth=depth_q.astype(np.float64) / spec.depth_scale,
            instance=instance.astype(np.int32),
            camera=camera,
            detections=dets,
            index=i,
        ), (rgb_q, depth_q)


def _rotation_to_quat(R: np.ndarray) -> np.ndarray:
    """Rotation matrix -> quaternion (w, x, y, z)."""
    t = np.trace(R)
    if t > 0:
        s = 0.5 / np.sqrt(t + 1.0)
        return np.array(
            [0.25 / s, (R[2, 1] - R[1, 2]) * s, (R[0, 2] - R[2, 0]) * s, (R[1, 0] - R[0, 1]) * s]
        )
    i = int(np.argmax(np.diag(R)))
    j, k = (i + 1) % 3, (i + 2) % 3
    s = 2.0 * np.sqrt(max(1e-12, 1.0 + R[i, i] - R[j, j] - R[k, k]))
    q = np.empty(4)
    q[0] = (R[k, j] - R[j, k]) / s
    q[1 + i] = 0.25 * s
    q[1 + j] = (R[j, i] + R[i, j]) / s
    q[1 + k] = (R[k, i] + R[i, k]) / s
    return q


def quat_to_rotation(q: np.ndarray) -> np.ndarray:
    """Quaternion (w, x, y, z) -> rotation matrix.

    Raises InvalidParameterError when the norm is not finite or is 0 in
    floating point (also when it underflows).
    """
    norm = np.linalg.norm(q)
    if not 0.0 < norm < np.inf:
        raise InvalidParameterError(f"quaternion {q!r} has no usable norm")
    w, x, y, z = np.asarray(q, dtype=float) / norm
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quadric_to_json(quadric: DualQuadric) -> dict:
    """The JSON fields of a quadric, as saved states and manifests hold them."""
    return {
        "center": quadric.center.tolist(),
        "rotation_wxyz": _rotation_to_quat(quadric.rotation).tolist(),
        "semi_axes": quadric.semi_axes.tolist(),
    }


def quadric_from_json(entry: dict) -> DualQuadric:
    """The quadric of an entry's `center`, `rotation_wxyz` and `semi_axes`.

    Raises KeyError, TypeError, ValueError or OverflowError on a malformed
    entry.
    """
    return DualQuadric(
        np.asarray(entry["center"], dtype=float),
        quat_to_rotation(entry["rotation_wxyz"]),
        np.asarray(entry["semi_axes"], dtype=float),
    )


def sample_surface_points(obj: ObjectSpec, n: int, seed: int, index: int = 0) -> np.ndarray:
    """n points on the shape surface (world frame), deterministic per seed."""
    rng = np.random.default_rng([seed, index, n])
    s = np.asarray(obj.semi_axes, dtype=float)
    if obj.shape == "box":
        areas = np.array([s[1] * s[2], s[1] * s[2], s[0] * s[2], s[0] * s[2], s[0] * s[1], s[0] * s[1]])
        face = rng.choice(6, size=n, p=areas / areas.sum())
        uv = rng.uniform(-1, 1, size=(n, 2))
        local = np.empty((n, 3))
        for f in range(6):
            m = face == f
            axis = f // 2
            sign = 1.0 if f % 2 == 0 else -1.0
            others = [a for a in range(3) if a != axis]
            local[m, axis] = sign * s[axis]
            local[m, others[0]] = uv[m, 0] * s[others[0]]
            local[m, others[1]] = uv[m, 1] * s[others[1]]
    else:
        d = rng.normal(size=(n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        power = 2.0 if obj.shape in ("sphere", "ellipsoid") else obj.power
        r = np.sum(np.abs(d / s) ** power, axis=1) ** (-1.0 / power)
        local = d * r[:, None]
    return local @ obj.rotation.T + np.asarray(obj.center)


def generate(spec: SceneSpec, out_dir: str) -> str:
    """Write the full dataset for a scene; byte-identical per seed."""
    if not spec.objects:
        raise InvalidParameterError("scene needs at least one object")
    try:
        os.makedirs(out_dir, exist_ok=True)
        for sub in ("rgb", "depth", "instance", "detections", "gt"):
            os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    except OSError as e:
        raise DatasetError(f"cannot create dataset directory {out_dir}: {e}") from e

    intrinsics = {
        "fx": spec.fx, "fy": spec.fy,
        "cx": spec.width / 2.0, "cy": spec.height / 2.0,
        "width": spec.width, "height": spec.height,
        "depth_scale": spec.depth_scale,
    }
    _write_json(os.path.join(out_dir, "intrinsics.json"), intrinsics)

    pose_lines = []
    for bundle, (rgb_q, depth_q) in frame_bundles(spec):
        i = bundle.index
        cam = bundle.camera
        q = _rotation_to_quat(cam.rotation)
        t = cam.translation
        pose_lines.append(
            f"{i} {t[0]:.17g} {t[1]:.17g} {t[2]:.17g} "
            f"{q[1]:.17g} {q[2]:.17g} {q[3]:.17g} {q[0]:.17g}"
        )
        write_png(os.path.join(out_dir, "rgb", f"{i:06d}.png"), rgb_q)
        write_png(os.path.join(out_dir, "depth", f"{i:06d}.png"), depth_q)
        write_png(
            os.path.join(out_dir, "instance", f"{i:06d}.png"),
            bundle.instance.astype(np.uint16),
        )
        dets = [
            {
                "class_id": d.class_id,
                "bbox": d.bbox.as_array().tolist(),
                "score": d.score,
            }
            for d in bundle.detections
        ]
        _write_json(os.path.join(out_dir, "detections", f"{i:06d}.json"), dets)
    with open(os.path.join(out_dir, "poses.txt"), "w") as f:
        f.write("\n".join(pose_lines) + "\n")

    gt_objects = []
    for k, obj in enumerate(spec.objects, start=1):
        q = _rotation_to_quat(obj.rotation)
        gt_objects.append(
            {
                "id": k,
                "class_id": obj.class_id,
                "shape": obj.shape,
                "center": list(np.round(np.asarray(obj.center, dtype=float), 9)),
                "rotation_wxyz": list(np.round(q, 9)),
                "semi_axes": list(np.round(np.asarray(obj.semi_axes, dtype=float), 9)),
                "albedo": list(np.asarray(obj.albedo, dtype=float)),
            }
        )
        pts = sample_surface_points(obj, 10_000, spec.seed, index=k)
        write_point_ply(
            os.path.join(out_dir, "gt", f"points_{k:03d}.ply"),
            pts,
            colors=np.tile(np.asarray(obj.albedo), (len(pts), 1)),
            object_ids=np.full(len(pts), k),
        )
    _write_json(os.path.join(out_dir, "gt", "objects.json"), gt_objects)
    return out_dir


def _write_json(path: str, payload) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True, indent=1)
        f.write("\n")


# ---------------------------------------------------------------------------
# Loading


def _read_header(dataset_dir: str):
    """Parse intrinsics.json and poses.txt.

    Returns (depth_scale, {index: CameraModel}).  Raises DatasetError naming
    intrinsics.json when fx, fy, cx or cy is not finite, a focal length or
    the depth scale is not above 0, or the width or height is not an integer
    of at least 1; and naming poses.txt and the line when a pose has no
    finite translation or no quaternion of usable norm, or repeats a frame
    index.
    """
    intr_path = os.path.join(dataset_dir, "intrinsics.json")
    if not os.path.isfile(intr_path):
        raise DatasetError(f"missing intrinsics file: {intr_path}")

    def malformed(why) -> DatasetError:
        return DatasetError(f"malformed intrinsics file {intr_path}: {why}")

    try:
        with open(intr_path) as f:
            raw = json.load(f)
        intr = {k: float(raw[k]) for k in ("fx", "fy", "cx", "cy")}
        size = {k: raw[k] for k in ("width", "height")}
        depth_scale = float(raw["depth_scale"])
    except (KeyError, ValueError, TypeError, OverflowError) as e:  # JSON errors included
        raise malformed(e) from e
    if not np.all(np.isfinite(list(intr.values()))):
        raise malformed("fx, fy, cx and cy must be finite")
    if not (intr["fx"] > 0 and intr["fy"] > 0):
        raise malformed("focal lengths must be > 0")
    for k, v in size.items():
        if type(v) is not int or v < 1:
            raise malformed(f"{k} must be an integer >= 1, got {v!r}")
    intr.update(size)
    if not 0 < depth_scale < np.inf:
        raise malformed("depth_scale must be finite and > 0")

    poses_path = os.path.join(dataset_dir, "poses.txt")
    if not os.path.isfile(poses_path):
        raise DatasetError(f"missing poses file: {poses_path}")
    try:
        with open(poses_path) as f:
            lines = f.readlines()
    except UnicodeDecodeError as e:
        raise DatasetError(f"malformed poses file {poses_path}: {e}") from e
    cameras: dict[int, CameraModel] = {}
    for line_no, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 8:
            raise DatasetError(f"{poses_path}:{line_no}: expected 8 fields")
        try:
            idx = int(parts[0])
            if idx in cameras:
                raise ValueError(f"frame {idx} has a pose on an earlier line")
            tx, ty, tz, qx, qy, qz, qw = map(float, parts[1:])
            cameras[idx] = CameraModel(
                **intr, rotation=quat_to_rotation([qw, qx, qy, qz]),
                translation=np.array([tx, ty, tz]),
            )
        except ValueError as e:
            raise DatasetError(f"{poses_path}:{line_no}: {e}") from e
    return depth_scale, cameras


def dataset_cameras(dataset_dir: str) -> list[CameraModel]:
    """All frame cameras of a dataset in index order.

    Reads only intrinsics.json and poses.txt; no image is decoded.
    """
    _, cameras = _read_header(dataset_dir)
    return [cameras[idx] for idx in sorted(cameras)]


def load(dataset_dir: str):
    """Stream FrameBundles from a dataset directory in index order.

    Raises DatasetError naming the offending file on any malformed input;
    frames before the bad one are yielded normally.  A missing frame file is
    named with poses.txt, which lists the frame, and images whose sizes
    disagree with each other or with intrinsics.json are named with it.
    """
    depth_scale, cameras = _read_header(dataset_dir)
    intr_path = os.path.join(dataset_dir, "intrinsics.json")
    poses_path = os.path.join(dataset_dir, "poses.txt")

    def frames():
        for idx in sorted(cameras):
            rgb_path = os.path.join(dataset_dir, "rgb", f"{idx:06d}.png")
            depth_path = os.path.join(dataset_dir, "depth", f"{idx:06d}.png")
            inst_path = os.path.join(dataset_dir, "instance", f"{idx:06d}.png")
            det_path = os.path.join(dataset_dir, "detections", f"{idx:06d}.json")
            for p in (rgb_path, depth_path, inst_path, det_path):
                if not os.path.isfile(p):
                    raise DatasetError(f"missing frame file: {p} (frame {idx} of {poses_path})")
            # scaled in place: a second full-frame copy would set the
            # mapping run's memory peak
            rgb = read_png(rgb_path).astype(np.float64)
            rgb /= 255.0
            depth = read_png(depth_path).astype(np.float64)
            depth /= depth_scale
            instance = read_png(inst_path).astype(np.int32)
            try:
                with open(det_path) as f:
                    raw = json.load(f)
                dets = [
                    Detection2D(
                        bbox=BBox2D(*[float(v) for v in d["bbox"]]),
                        class_id=int(d["class_id"]),
                        score=float(d["score"]),
                    )
                    for d in raw
                ]
            except (KeyError, ValueError, TypeError, OverflowError) as e:  # JSON errors included
                raise DatasetError(f"malformed detections file {det_path}: {e}") from e
            try:
                frame = FrameBundle(
                    rgb=rgb, depth=depth, instance=instance,
                    camera=cameras[idx], detections=dets, index=idx,
                )
            except ValueError as e:
                raise DatasetError(
                    f"image sizes of frame {idx} disagree ({e}): {rgb_path}, {depth_path}, "
                    f"{inst_path}, camera size from {intr_path}"
                ) from e
            yield frame

    return frames()


def load_gt(dataset_dir: str) -> dict:
    """Ground truth: {'objects': [...], 'points': {id: (N,3) array}}.

    Raises DatasetError naming gt/objects.json when it is missing, is not
    JSON or holds a malformed object entry.
    """
    path = os.path.join(dataset_dir, "gt", "objects.json")
    if not os.path.isfile(path):
        raise DatasetError(f"missing ground-truth file: {path}")
    try:
        with open(path) as f:
            raw = json.load(f)
        objects = [
            {
                "id": int(entry["id"]),
                "class_id": int(entry["class_id"]),
                "shape": entry["shape"],
                "quadric": quadric_from_json(entry),
                "albedo": np.asarray(entry["albedo"], dtype=float),
            }
            for entry in raw
        ]
    except (KeyError, ValueError, TypeError, OverflowError) as e:  # JSON errors included
        raise DatasetError(f"malformed ground-truth file {path}: {e}") from e
    points = {}
    for obj in objects:
        ply = os.path.join(dataset_dir, "gt", f"points_{obj['id']:03d}.ply")
        if os.path.isfile(ply):
            points[obj["id"]] = read_point_ply(ply)["points"].astype(float)
    return {"objects": objects, "points": points}
