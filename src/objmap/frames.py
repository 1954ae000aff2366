"""Per-frame observation containers shared by the simulator and the pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .quadrics import BBox2D, CameraModel


@dataclass(frozen=True)
class Detection2D:
    """One 2D detector output: box, class, confidence, optional GT instance id."""

    bbox: BBox2D
    class_id: int
    score: float = 1.0
    instance_id: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise InvalidParameterError(f"score must be in [0,1], got {self.score}")


@dataclass
class FrameBundle:
    """Posed RGB-D frame with instance ids and detections.

    rgb: (H,W,3) float in [0,1]; depth: (H,W) meters, 0 = invalid;
    instance: (H,W) integer ids, 0 = background.
    """

    rgb: np.ndarray
    depth: np.ndarray
    instance: np.ndarray
    camera: CameraModel
    detections: list[Detection2D]
    index: int = 0

    def __post_init__(self):
        h, w = self.depth.shape
        if self.rgb.shape != (h, w, 3):
            raise InvalidParameterError("rgb and depth dimensions disagree")
        if self.instance.shape != (h, w):
            raise InvalidParameterError("instance and depth dimensions disagree")
        if (self.camera.height, self.camera.width) != (h, w):
            raise InvalidParameterError("camera size and image dimensions disagree")

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
    """Most frequent nonzero instance id inside a detection box (0 if none)."""
    x0, x1, y0, y1 = bbox_pixel_rect(frame, bbox)
    inst = frame.instance[y0:y1, x0:x1]
    fg = inst[inst > 0]
    if fg.size == 0:
        return 0
    ids, counts = np.unique(fg, return_counts=True)
    return int(ids[np.argmax(counts)])
