"""Per-frame observation containers shared by the simulator and the pipeline."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError
from .quadrics import BBox2D, CameraModel


@dataclass(frozen=True)
class Detection2D:
    """One 2D detector output: box, class, confidence."""

    bbox: BBox2D
    class_id: int
    score: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise InvalidParameterError(f"score must be in [0,1], got {self.score}")


@dataclass
class FrameBundle:
    """Posed RGB-D frame with instance ids and detections.

    rgb8: (H,W,3) uint8 colour, as decoded; `rgb` is it as float in [0,1],
    built on first read and kept; depth: (H,W) meters, 0 = invalid;
    instance: (H,W) integer segment ids, 0 = background; they name segments
    within this frame only (see `relabel_instances`).
    """

    rgb8: np.ndarray
    depth: np.ndarray
    instance: np.ndarray
    camera: CameraModel
    detections: list[Detection2D]
    index: int = 0

    def __post_init__(self):
        h, w = self.depth.shape
        if self.rgb8.dtype != np.uint8:
            raise InvalidParameterError(f"rgb8 must be uint8, got {self.rgb8.dtype}")
        if self.rgb8.shape != (h, w, 3):
            raise InvalidParameterError("rgb8 and depth dimensions disagree")
        if self.instance.shape != (h, w):
            raise InvalidParameterError("instance and depth dimensions disagree")
        if (self.camera.height, self.camera.width) != (h, w):
            raise InvalidParameterError("camera size and image dimensions disagree")

    @cached_property
    def rgb(self) -> np.ndarray:
        """(H,W,3) float colour in [0,1]; only the Gaussian layers read it,
        so a run without Gaussians never builds it."""
        return self.rgb8 / 255.0

    @property
    def shape(self) -> tuple[int, int]:
        return self.depth.shape


def bbox_pixel_rect(frame: FrameBundle, bbox: BBox2D) -> tuple[int, int, int, int]:
    """Clip a bbox to integer pixel bounds (x0, x1, y0, y1), half-open."""
    h, w = frame.shape
    x0 = int(np.clip(np.floor(bbox.x_min), 0, w - 1))
    x1 = int(np.clip(np.ceil(bbox.x_max), x0 + 1, w))
    y0 = int(np.clip(np.floor(bbox.y_min), 0, h - 1))
    y1 = int(np.clip(np.ceil(bbox.y_max), y0 + 1, h))
    return x0, x1, y0, y1


def dominant_instance_id(frame: FrameBundle, bbox: BBox2D) -> int:
    """The segment a detection box owns: the most frequent nonzero instance
    id inside it (0 if none)."""
    x0, x1, y0, y1 = bbox_pixel_rect(frame, bbox)
    inst = frame.instance[y0:y1, x0:x1]
    fg = inst[inst > 0]
    if fg.size == 0:
        return 0
    ids, counts = np.unique(fg, return_counts=True)
    return int(ids[np.argmax(counts)])


UNCLAIMED = -1  # id of a segment that no detection claims in its frame


def relabel_instances(frame: FrameBundle, labels: list[int]) -> FrameBundle:
    """The frame with each detection's segment renamed to its label.

    `labels[i]` is the new id of detection i's dominant segment; the first
    detection in frame order claims a shared segment.  Background stays 0
    and every other segment becomes UNCLAIMED.  Input ids must be
    non-negative, as the 16-bit ids of a dataset are.
    """
    claimed = {0: 0}
    for det, label in zip(frame.detections, labels):
        claimed.setdefault(dominant_instance_id(frame, det.bbox), label)
    new_ids = np.full(int(frame.instance.max()) + 1, UNCLAIMED, dtype=np.int32)
    for segment, label in claimed.items():
        new_ids[segment] = label
    return replace(frame, instance=new_ids[frame.instance])
