"""ID-tagged 3D Gaussian store and the incremental update-mask machinery.

Gaussians live in flat numpy arrays (structure-of-arrays) keyed by an owning
object id (0 = background).  Two kinds exist: opaque Gaussians carry
geometry (opacity starts at 0.9, clamped >= 0.5) and transparent Gaussians
correct color (opacity starts at 0.1, clamped <= 0.5).

The per-frame update flow: compare the current render against the frame
(compute_update_masks), spawn Gaussians at badly-explained pixels
(densify_from_mask), and restrict optimization to Gaussians whose image
footprints touch their object's masked pixels (select_trainable).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .frames import FrameBundle
from .plyio import read_point_ply, write_point_ply
from .quadrics import CameraModel

logger = logging.getLogger(__name__)

KIND_OPAQUE = 0
KIND_TRANSPARENT = 1

OPAQUE_INIT_OPACITY = 0.9
TRANSPARENT_INIT_OPACITY = 0.1
OPACITY_SPLIT = 0.5  # class boundary: opaque stays above, transparent below
OPACITY_MARGIN = 5e-3
SCALE_MIN = 1e-4
SCALE_MAX = 1.0
SPAWN_SCALE = 0.5  # a new Gaussian's scale = depth / fx * stride * SPAWN_SCALE

# the per-Gaussian arrays of a GaussianStore, and the ones training updates
# (scales and quats keep their spawn values)
STORE_ARRAYS = ("means", "scales", "quats", "opacities", "colors", "object_ids", "kinds")
TRAINABLE = ("means", "colors", "opacities")


class GaussianStore:
    """Structure-of-arrays Gaussian container; insertion order is stable.

    Missing arrays start empty; every array is converted to the store's
    dtypes (float64 parameters, int32 object ids, uint8 kinds).
    """

    def __init__(self, means=(), scales=(), quats=(), opacities=(), colors=(),
                 object_ids=(), kinds=()):
        self.means = np.asarray(means, dtype=float).reshape(-1, 3)
        self.scales = np.asarray(scales, dtype=float).reshape(-1, 3)
        self.quats = np.asarray(quats, dtype=float).reshape(-1, 4)
        self.opacities = np.asarray(opacities, dtype=float).reshape(-1)
        self.colors = np.asarray(colors, dtype=float).reshape(-1, 3)
        self.object_ids = np.asarray(object_ids, dtype=np.int32).reshape(-1)
        self.kinds = np.asarray(kinds, dtype=np.uint8).reshape(-1)

    def __len__(self) -> int:
        return len(self.means)

    def subset(self, idx) -> "GaussianStore":
        """The Gaussians at `idx` as a new store; a slice shares this store's memory."""
        return GaussianStore(**{name: getattr(self, name)[idx] for name in STORE_ARRAYS})

    def copy(self) -> "GaussianStore":
        return GaussianStore(**{name: getattr(self, name).copy() for name in STORE_ARRAYS})

    def extend(self, other: "GaussianStore") -> None:
        """Append every Gaussian of `other`, keeping its order."""
        for name in STORE_ARRAYS:
            setattr(self, name, np.concatenate([getattr(self, name), getattr(other, name)]))

    def object_indices(self, object_id: int) -> np.ndarray:
        return np.nonzero(self.object_ids == object_id)[0]

    def present_ids(self) -> list[int]:
        return sorted(int(i) for i in np.unique(self.object_ids))

    def rewrite_object_id(self, old_id: int, new_id: int) -> int:
        """Atomically reassign every Gaussian of old_id to new_id (merges)."""
        idx = self.object_ids == old_id
        self.object_ids[idx] = new_id
        return int(np.count_nonzero(idx))

    def clamp_parameters(self, idx=slice(None)) -> None:
        """Enforce opacity class bands and the color range.

        Only the rows at `idx` (default: all) are touched.
        """
        opacities = self.opacities[idx]
        self.opacities[idx] = np.where(
            self.kinds[idx] == KIND_OPAQUE,
            np.clip(opacities, OPACITY_SPLIT, 1.0 - OPACITY_MARGIN),
            np.clip(opacities, OPACITY_MARGIN, OPACITY_SPLIT),
        )
        self.colors[idx] = np.clip(self.colors[idx], 0.0, 1.0)


def extract_object(store: GaussianStore, object_id: int) -> GaussianStore:
    """All Gaussians of one object as a new store, in insertion order.

    An unknown id gives an empty store.
    """
    return store.subset(store.object_indices(object_id))


def export_object_ply(store: GaussianStore, object_id: int, path) -> int:
    """Write one object's Gaussians as a point cloud; returns point count."""
    idx = store.object_indices(object_id)
    write_point_ply(
        path,
        store.means[idx],
        colors=store.colors[idx],
        opacities=store.opacities[idx],
        object_ids=store.object_ids[idx],
    )
    return len(idx)


def import_object_ply(path) -> GaussianStore:
    """Read a point cloud back as isotropic, axis-aligned Gaussians."""
    data = read_point_ply(path)
    n = len(data["points"])
    return GaussianStore(
        means=data["points"],
        scales=np.full((n, 3), 0.01),
        quats=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
        opacities=data["opacities"],
        colors=data["colors"],
        object_ids=data["object_ids"],
        kinds=np.where(data["opacities"] > OPACITY_SPLIT, KIND_OPAQUE, KIND_TRANSPARENT),
    )


@dataclass
class MaskThresholds:
    theta_alpha: float = 0.9   # accumulation below this flags missing geometry
    theta_d: float = 0.1       # meters
    theta_c: float = 0.1       # max per-channel color error
    include_background: bool = False


@dataclass
class UpdateMasks:
    geo_mask: np.ndarray
    rgb_mask: np.ndarray
    per_object: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def masked_counts(self) -> tuple[int, int]:
        return int(np.count_nonzero(self.geo_mask)), int(np.count_nonzero(self.rgb_mask))


def compute_update_masks(frame: FrameBundle, render, thresholds: MaskThresholds) -> UpdateMasks:
    """Flag pixels whose render disagrees with the frame (geometry / color).

    geo: instance accumulation below theta_alpha OR depth error above
    theta_d (only where the observed depth is valid).  rgb: max channel
    error above theta_c.  Both masks are restricted to pixels with a positive
    instance id, or a non-negative one when include_background is set: a
    negative id marks a segment that is not mapped in this frame.
    """
    h, w = frame.shape
    if render.color.shape[:2] != (h, w):
        raise InvalidParameterError(
            f"render size {render.color.shape[:2]} does not match frame {(h, w)}"
        )
    valid_depth = frame.depth > 0
    ins = render.instance
    depth_err = np.abs(frame.depth - render.depth)
    geo = (ins < thresholds.theta_alpha) | (valid_depth & (depth_err > thresholds.theta_d))
    geo &= valid_depth

    color_err = np.max(np.abs(frame.rgb - render.color), axis=2)
    rgb = color_err > thresholds.theta_c

    mapped = frame.instance >= 0 if thresholds.include_background else frame.instance > 0
    geo &= mapped
    rgb &= mapped
    rgb &= ~geo  # geometry fixes take precedence at a pixel

    per_object: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    ids = np.unique(frame.instance[(geo | rgb)])
    for k in ids:
        sel = frame.instance == k
        per_object[int(k)] = (
            np.flatnonzero(geo & sel),
            np.flatnonzero(rgb & sel),
        )
    return UpdateMasks(geo_mask=geo, rgb_mask=rgb, per_object=per_object)


@dataclass
class DensifyConfig:
    stride: int = 4
    max_new_per_frame: int = 0  # 0 = unlimited; else cap spawns (scan order)


def _spawn(frame: FrameBundle, ys: np.ndarray, xs: np.ndarray, depths: np.ndarray,
           kind: int, stride: int) -> GaussianStore:
    """Isotropic, axis-aligned Gaussians back-projected at the given pixels.

    The scale is clipped to [SCALE_MIN, SCALE_MAX] here, once: training
    never changes a Gaussian's scale or rotation.
    """
    n = len(xs)
    scales = np.clip(depths / frame.camera.fx * stride * SPAWN_SCALE, SCALE_MIN, SCALE_MAX)
    opacity = OPAQUE_INIT_OPACITY if kind == KIND_OPAQUE else TRANSPARENT_INIT_OPACITY
    return GaussianStore(
        means=frame.camera.backproject(np.stack([xs + 0.5, ys + 0.5], axis=1), depths),
        scales=np.repeat(scales[:, None], 3, axis=1),
        quats=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
        opacities=np.full(n, opacity),
        colors=frame.rgb[ys, xs],
        object_ids=frame.instance[ys, xs],
        kinds=np.full(n, kind),
    )


def densify_from_mask(
    frame: FrameBundle, masks: UpdateMasks, render, config: DensifyConfig | None = None
) -> GaussianStore:
    """Spawn Gaussians on a stride grid over the masked pixels.

    Geometry pixels back-project at the observed depth as opaque Gaussians;
    color pixels spawn transparent Gaussians at the rendered surface depth.
    Zero-depth pixels are skipped.  The result holds only the new Gaussians:
    opaque ones first, each kind in pixel scan order.
    """
    config = config or DensifyConfig()
    h, w = frame.shape
    stride = max(1, config.stride)
    off = stride // 2
    grid = np.zeros((h, w), dtype=bool)
    grid[off::stride, off::stride] = True

    geo_sel = masks.geo_mask & grid & (frame.depth > 0)
    ys, xs = np.nonzero(geo_sel)
    out = _spawn(frame, ys, xs, frame.depth[ys, xs], KIND_OPAQUE, stride)

    ys, xs = np.nonzero(masks.rgb_mask & grid & ~geo_sel)
    rendered_depth = render.depth[ys, xs]
    usable = rendered_depth > 0
    out.extend(_spawn(frame, ys[usable], xs[usable], rendered_depth[usable],
                      KIND_TRANSPARENT, stride))
    if config.max_new_per_frame > 0:
        out = out.subset(slice(config.max_new_per_frame))
    return out


def select_trainable(
    store: GaussianStore,
    masks: UpdateMasks,
    object_id: int,
    camera: CameraModel,
) -> np.ndarray:
    """Indices of the object's Gaussians whose 3-sigma footprint hits its mask.

    Unknown object ids (or objects with no masked pixels) yield an empty set;
    everything not returned stays frozen for this frame.
    """
    idx = store.object_indices(object_id)
    if len(idx) == 0 or object_id not in masks.per_object:
        return np.empty(0, dtype=int)
    geo_px, rgb_px = masks.per_object[object_id]
    all_px = np.concatenate([geo_px, rgb_px])
    if len(all_px) == 0:
        return np.empty(0, dtype=int)

    h, w = masks.geo_mask.shape
    obj_mask = np.zeros(h * w, dtype=bool)
    obj_mask[all_px] = True
    obj_mask = obj_mask.reshape(h, w)
    # summed-area table for O(1) "any masked pixel in rect" queries
    integral = np.zeros((h + 1, w + 1), dtype=np.int64)
    integral[1:, 1:] = np.cumsum(np.cumsum(obj_mask, axis=0), axis=1)

    from .renderer import project_gaussian_subset  # renderer imports this module

    proj = project_gaussian_subset(store, idx, camera)
    valid = proj["valid"]
    idx = idx[valid]
    u, v = proj["means2d"][valid].T
    r = proj["radii"][valid]
    x0 = np.clip(np.floor(u - r), 0, w).astype(int)
    x1 = np.clip(np.ceil(u + r) + 1, 0, w).astype(int)
    y0 = np.clip(np.floor(v - r), 0, h).astype(int)
    y1 = np.clip(np.ceil(v + r) + 1, 0, h).astype(int)
    count = integral[y1, x1] - integral[y0, x1] - integral[y1, x0] + integral[y0, x0]
    return idx[(x1 > x0) & (y1 > y0) & (count > 0)]
