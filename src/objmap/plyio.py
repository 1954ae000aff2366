"""Binary little-endian PLY point clouds.

Export schema per point (documented in the header itself):
  x, y, z        float32  position in meters, world frame
  red/green/blue uchar    color, linear [0,255]
  opacity        float32  blending opacity in [0,1]
  object_id      int32    owning object id, 0 = background

The same writer serves both the per-object Gaussian export and the
simulator's ground-truth surface point clouds.
"""

from __future__ import annotations

import numpy as np

from .errors import DatasetError

_DTYPE = np.dtype(
    [
        ("x", "<f4"),
        ("y", "<f4"),
        ("z", "<f4"),
        ("red", "u1"),
        ("green", "u1"),
        ("blue", "u1"),
        ("opacity", "<f4"),
        ("object_id", "<i4"),
    ]
)

_HEADER = """ply
format binary_little_endian 1.0
comment objmap point cloud: xyz meters, rgb uint8, opacity float, object id int
element vertex {count}
property float x
property float y
property float z
property uchar red
property uchar green
property uchar blue
property float opacity
property int object_id
end_header
"""
_PROPERTIES = [line for line in _HEADER.splitlines() if line.startswith("property")]


def write_point_ply(
    path,
    points: np.ndarray,
    colors: np.ndarray | None = None,
    opacities: np.ndarray | None = None,
    object_ids: np.ndarray | None = None,
) -> None:
    """Write (N,3) float points with optional (N,3) colors in [0,1]."""
    pts = np.asarray(points, dtype=np.float32).reshape(-1, 3)
    n = len(pts)
    rec = np.empty(n, dtype=_DTYPE)
    rec["x"], rec["y"], rec["z"] = pts[:, 0], pts[:, 1], pts[:, 2]
    if colors is None:
        colors = np.full((n, 3), 0.5)
    rgb = np.clip(np.round(np.asarray(colors, dtype=float) * 255.0), 0, 255).astype(np.uint8)
    rec["red"], rec["green"], rec["blue"] = rgb[:, 0], rgb[:, 1], rgb[:, 2]
    rec["opacity"] = 1.0 if opacities is None else np.asarray(opacities, dtype=np.float32)
    rec["object_id"] = 0 if object_ids is None else np.asarray(object_ids, dtype=np.int32)
    with open(path, "wb") as f:
        f.write(_HEADER.format(count=n).encode("ascii"))
        f.write(rec.tobytes())


def read_point_ply(path) -> dict[str, np.ndarray]:
    """Read a PLY written by write_point_ply.

    Returns dict with 'points' (N,3) float32, 'colors' (N,3) float32 in [0,1],
    'opacities' (N,), 'object_ids' (N,).  A non-finite x, y, z or opacity
    raises DatasetError; `gaussians.VALID_VALUES` holds the other value rules.
    """
    with open(path, "rb") as f:
        blob = f.read()
    end = blob.find(b"end_header\n")
    if not blob.startswith(b"ply") or end < 0:
        raise DatasetError(f"{path}: not a PLY file")
    header = blob[: end + len(b"end_header\n")]
    count, properties, elements = None, [], []
    for line in header.decode("ascii", errors="replace").splitlines():
        words = line.split()
        if line.startswith("format") and "binary_little_endian" not in line:
            raise DatasetError(f"{path}: unsupported PLY format: {line}")
        if words[:1] == ["element"]:
            elements.append(line)
        if words[:2] == ["element", "vertex"]:
            if not words[-1].isdigit():
                raise DatasetError(f"{path}: bad vertex count: {line}")
            count = int(words[-1])
        if words[:1] == ["property"]:
            properties.append(" ".join(words))
    if count is None:
        raise DatasetError(f"{path}: missing vertex element")
    # The body is decoded with _DTYPE, so any other element or vertex
    # layout would decode to garbage.
    if len(elements) != 1 or properties != _PROPERTIES:
        raise DatasetError(f"{path}: unsupported PLY layout: {'; '.join(elements + properties)}")
    body = blob[end + len(b"end_header\n") :]
    if len(body) < count * _DTYPE.itemsize:
        raise DatasetError(f"{path}: truncated PLY body")
    rec = np.frombuffer(body, dtype=_DTYPE, count=count)
    for name in ("x", "y", "z", "opacity"):
        if not np.isfinite(rec[name]).all():
            raise DatasetError(f"{path}: a vertex has a non-finite {name}")
    points = np.stack([rec["x"], rec["y"], rec["z"]], axis=1).astype(np.float32)
    colors = np.stack([rec["red"], rec["green"], rec["blue"]], axis=1).astype(np.float32) / 255.0
    return {
        "points": points,
        "colors": colors,
        "opacities": rec["opacity"].astype(np.float32),
        "object_ids": rec["object_id"].astype(np.int32),
    }
