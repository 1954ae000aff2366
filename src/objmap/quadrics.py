"""Closed-form dual-quadric / dual-conic algebra.

Everything here is pure: quadric construction and decomposition, perspective
projection to image conics, bounding-box extraction from conics, plane
back-projection, and the 2D/3D IoU and quadric-distance primitives used by
association and evaluation.

Conventions:
  - A dual quadric is stored decoupled as (center, rotation, semi_axes).
    Its 4x4 matrix is T @ diag(a^2, b^2, c^2, -1) @ T.T with T the
    homogeneous object-to-world pose, normalized so the bottom-right entry
    is -1.  Planes pi tangent to the ellipsoid satisfy pi^T Q pi = 0.
  - Cameras store the world-from-camera pose; the projection matrix is
    P = K @ [R_cw | t_cw] (3x4, world point -> homogeneous pixel).
  - Dual conics are normalized so C[2,2] = -1; tangent image lines l
    satisfy l^T C l = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BehindCameraError,
    DegenerateConicError,
    DegenerateQuadricError,
    InvalidParameterError,
)

_ORTHO_TOL = 1e-9
# Box corners as axis signs, x slowest; corner i and j share an edge when
# their indices differ in one bit.
_CORNER_SIGNS = np.array(
    [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float
)


def _as_vec3(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.shape != (3,) or not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} must be a finite 3-vector, got {v!r}")
    return arr


def _check_rotation(R: np.ndarray, name: str = "rotation") -> np.ndarray:
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise InvalidParameterError(f"{name} must be 3x3")
    if not np.allclose(R.T @ R, np.eye(3), atol=1e-8):
        raise InvalidParameterError(f"{name} is not orthonormal")
    if np.linalg.det(R) < 0:
        raise InvalidParameterError(f"{name} has determinant -1 (reflection)")
    return R


@dataclass(frozen=True)
class DualQuadric:
    """Ellipsoid landmark: center (m), rotation (SO(3)), semi_axes (m)."""

    center: np.ndarray
    rotation: np.ndarray
    semi_axes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", _as_vec3(self.center, "center"))
        object.__setattr__(self, "rotation", _check_rotation(self.rotation))
        axes = _as_vec3(self.semi_axes, "semi_axes")
        if np.any(axes <= 0):
            raise InvalidParameterError(f"semi_axes must be > 0, got {axes}")
        object.__setattr__(self, "semi_axes", axes)

    def matrix(self) -> np.ndarray:
        """4x4 dual-quadric matrix T @ diag(a^2,b^2,c^2,-1) @ T.T."""
        T = np.eye(4)
        T[:3, :3] = self.rotation
        T[:3, 3] = self.center
        return T @ np.diag([*self.semi_axes**2, -1.0]) @ T.T

    def shape_matrix(self) -> np.ndarray:
        """Diagonal matrix of inverse-squared semi-axes (object frame)."""
        return np.diag(1.0 / self.semi_axes**2)

    def corners(self) -> np.ndarray:
        """(8,3) world corners of the oriented bounding box of the ellipsoid."""
        return self.center + (_CORNER_SIGNS * self.semi_axes) @ self.rotation.T

    def contains(self, points: np.ndarray, pad: float = 0.0) -> np.ndarray:
        """Boolean mask: points inside the oriented bounding box (+pad)."""
        local = (np.atleast_2d(points) - self.center) @ self.rotation
        return np.all(np.abs(local) <= self.semi_axes + pad, axis=1)

    def volume(self) -> float:
        """Volume of the oriented bounding box (2a * 2b * 2c)."""
        return float(np.prod(2.0 * self.semi_axes))


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus world-from-camera pose."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise InvalidParameterError(f"camera {name} must be finite, got {value!r}")
        if self.fx <= 0 or self.fy <= 0:
            raise InvalidParameterError("focal lengths must be > 0")
        if self.width <= 0 or self.height <= 0:
            raise InvalidParameterError("image size must be > 0")
        object.__setattr__(self, "rotation", _check_rotation(self.rotation, "camera rotation"))
        object.__setattr__(self, "translation", _as_vec3(self.translation, "camera translation"))

    @property
    def intrinsic_matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    def world_to_camera(self) -> tuple[np.ndarray, np.ndarray]:
        """(R_cw, t_cw) such that p_cam = R_cw @ p_world + t_cw."""
        R_cw = self.rotation.T
        return R_cw, -R_cw @ self.translation

    def projection_matrix(self) -> np.ndarray:
        """3x4 matrix P = K @ [R_cw | t_cw]."""
        R_cw, t_cw = self.world_to_camera()
        return self.intrinsic_matrix @ np.hstack([R_cw, t_cw[:, None]])

    def to_camera(self, points: np.ndarray) -> np.ndarray:
        """World points (N,3) -> camera frame."""
        R_cw, t_cw = self.world_to_camera()
        return np.atleast_2d(points) @ R_cw.T + t_cw

    def project_points(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """World points (N,3) -> (pixels (N,2), camera-frame depths (N,))."""
        cam = self.to_camera(points)
        z = cam[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = self.fx * cam[:, 0] / z + self.cx
            v = self.fy * cam[:, 1] / z + self.cy
        return np.stack([u, v], axis=1), z

    def pixel_rays(self, pixels: np.ndarray) -> np.ndarray:
        """Pixel coords (N,2) -> unit ray directions in the world frame."""
        px = np.atleast_2d(pixels)
        d = np.stack(
            [
                (px[:, 0] - self.cx) / self.fx,
                (px[:, 1] - self.cy) / self.fy,
                np.ones(len(px)),
            ],
            axis=1,
        )
        d_world = d @ self.rotation.T
        return d_world / np.linalg.norm(d_world, axis=1, keepdims=True)

    def backproject(self, pixels: np.ndarray, depths: np.ndarray) -> np.ndarray:
        """Pixels (N,2) at camera-frame z depths (N,) -> world points (N,3)."""
        px = np.atleast_2d(pixels)
        z = np.asarray(depths, dtype=float).reshape(-1)
        cam = np.stack(
            [
                (px[:, 0] - self.cx) / self.fx * z,
                (px[:, 1] - self.cy) / self.fy * z,
                z,
            ],
            axis=1,
        )
        return cam @ self.rotation.T + self.translation


@dataclass(frozen=True)
class BBox2D:
    """Axis-aligned image box in continuous pixel coordinates."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.x_min, self.y_min, self.x_max, self.y_max])):
            raise InvalidParameterError("bbox coordinates must be finite")
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise InvalidParameterError(
                f"bbox min must not exceed max: {(self.x_min, self.y_min, self.x_max, self.y_max)}"
            )

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return 0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max)

    def as_array(self) -> np.ndarray:
        return np.array([self.x_min, self.y_min, self.x_max, self.y_max])


@dataclass(frozen=True)
class DualConic:
    """Symmetric 3x3 dual conic (tangent-line quadric) in image coordinates."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise InvalidParameterError("conic matrix must be 3x3")
        if np.max(np.abs(m - m.T)) > 1e-9 * max(1.0, np.max(np.abs(m))):
            raise InvalidParameterError("conic matrix must be symmetric")
        object.__setattr__(self, "matrix", 0.5 * (m + m.T))


def assemble_dual_quadric(center, rotation, semi_axes) -> DualQuadric:
    """Build a DualQuadric; raises InvalidParameterError on bad inputs."""
    return DualQuadric(center, rotation, semi_axes)


def decompose_dual_quadric(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recover (center, rotation, semi_axes) from a 4x4 dual-quadric matrix.

    The matrix is first scale-normalized so its bottom-right entry is -1;
    the centered upper 3x3 block is then eigendecomposed.  Eigenvalues are
    returned in descending order, so semi_axes come out sorted; the rotation
    columns are permuted/flipped accordingly (det +1 enforced).
    """
    Q = np.asarray(matrix, dtype=float)
    if Q.shape != (4, 4):
        raise DegenerateQuadricError("expected a 4x4 matrix")
    if np.max(np.abs(Q - Q.T)) > 1e-6 * max(1.0, np.max(np.abs(Q))):
        raise DegenerateQuadricError("matrix is not symmetric")
    if abs(Q[3, 3]) < 1e-12:
        raise DegenerateQuadricError("bottom-right entry is zero; cannot normalize")
    Q = Q / -Q[3, 3]  # fix Q[3,3] = -1

    center = -Q[:3, 3]
    E = Q[:3, :3] + np.outer(center, center)
    E = 0.5 * (E + E.T)
    eigvals, eigvecs = np.linalg.eigh(E)
    if np.any(eigvals <= 0):
        raise DegenerateQuadricError(
            f"centered block is not positive definite (eigenvalues {eigvals})"
        )
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    R = eigvecs[:, order]
    if np.linalg.det(R) < 0:
        R = R.copy()
        R[:, 2] *= -1
    return center, R, np.sqrt(eigvals)


def project_to_conic(quadric: DualQuadric, camera: CameraModel) -> DualConic:
    """Project a dual quadric to the image dual conic C = P Q P^T.

    Raises BehindCameraError when the quadric center has non-positive depth
    in the camera frame (the caller skips the object for this frame).
    """
    z = camera.to_camera(quadric.center)[0, 2]
    if z <= 0:
        raise BehindCameraError(
            f"quadric center depth {z:.3f} m is not in front of the camera"
        )
    P = camera.projection_matrix()
    C = P @ quadric.matrix() @ P.T
    C = 0.5 * (C + C.T)
    if abs(C[2, 2]) > 1e-12:
        C = C / -C[2, 2]
    return DualConic(C)


def _conic_extent(c00: float, c02: float, c22: float) -> tuple[float, float]:
    """Solve c22*x^2 - 2*c02*x + c00 = 0 for the two tangent coordinates."""
    disc = c02 * c02 - c00 * c22
    if disc <= 0 or abs(c22) < 1e-12:
        raise DegenerateConicError("conic has no real axis-aligned tangents")
    root = np.sqrt(disc)
    lo = (c02 - root) / c22
    hi = (c02 + root) / c22
    return (lo, hi) if lo <= hi else (hi, lo)


def conic_to_bbox(conic: DualConic) -> BBox2D:
    """Tight axis-aligned box of the ellipse described by a dual conic.

    Uses the tangent-line condition l^T C l = 0 with vertical lines
    l = (1, 0, -x) and horizontal lines l = (0, 1, -y).  Raises
    DegenerateConicError for hyperbolic or degenerate conics.
    """
    C = conic.matrix
    # Classify via the point conic (adjugate): real ellipse requires a
    # positive-definite-signature 2x2 minor and nonzero determinant.
    A = _adjugate3(C)
    det_A = np.linalg.det(A)
    minor = A[0, 0] * A[1, 1] - A[0, 1] ** 2
    if abs(det_A) < 1e-18 or minor <= 0:
        raise DegenerateConicError("dual conic is not a real ellipse")
    x_lo, x_hi = _conic_extent(C[0, 0], C[0, 2], C[2, 2])
    y_lo, y_hi = _conic_extent(C[1, 1], C[1, 2], C[2, 2])
    return BBox2D(x_lo, y_lo, x_hi, y_hi)


def _adjugate3(m: np.ndarray) -> np.ndarray:
    """Adjugate of a 3x3 matrix (transpose of the cofactor matrix)."""
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return np.array(
        [
            [e * i - f * h, c * h - b * i, b * f - c * e],
            [f * g - d * i, a * i - c * g, c * d - a * f],
            [d * h - e * g, b * g - a * h, a * e - b * d],
        ]
    )


def bbox_edge_lines(bbox: BBox2D) -> np.ndarray:
    """(4,3) homogeneous image lines of the box edges: x_min, x_max, y_min, y_max."""
    return np.array(
        [
            [1.0, 0.0, -bbox.x_min],
            [1.0, 0.0, -bbox.x_max],
            [0.0, 1.0, -bbox.y_min],
            [0.0, 1.0, -bbox.y_max],
        ]
    )


def backproject_bbox_planes(bbox: BBox2D, camera: CameraModel) -> np.ndarray:
    """(4,4) world planes through the four bbox edge lines: pi = P^T l.

    Each plane satisfies pi^T X = 0 for homogeneous world points X projecting
    onto the corresponding edge line, hence pi^T Q pi = l^T C l = 0 for a
    quadric whose projected conic is tangent to the box.
    """
    P = camera.projection_matrix()
    return bbox_edge_lines(bbox) @ P


def iou_2d(a: BBox2D, b: BBox2D) -> float:
    """Standard intersection-over-union of two axis-aligned boxes."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return float(inter / union)


# Box faces in _halfspaces order: the +/- face across each box axis, and the
# two other box axes, which span the face plane.
_FACE_AXES = np.repeat(np.arange(3), 2)
_FACE_SIGNS = np.tile([1.0, -1.0], 3)
_FACE_SPAN = np.stack([(_FACE_AXES + 1) % 3, (_FACE_AXES + 2) % 3], axis=1)
# The 12 box edges as pairs of corner indices.
_EDGES = np.array(
    [(i, j) for i in range(8) for j in range(i + 1, 8) if bin(i ^ j).count("1") == 1]
)


def _halfspaces(q: DualQuadric) -> np.ndarray:
    """(6,4) half-space rows (n, d): inside means n.x + d <= 0."""
    normals = q.rotation.T[_FACE_AXES] * _FACE_SIGNS[:, None]
    offsets = -(normals @ q.center) - q.semi_axes[_FACE_AXES]
    return np.column_stack([normals, offsets])


def _intersection_vertices(subject: DualQuadric, clipper: DualQuadric) -> np.ndarray:
    """Candidate vertices of the intersection polytope of two oriented boxes."""
    ca, cb = subject.corners(), clipper.corners()
    pts = [ca[clipper.contains(ca, pad=1e-12)], cb[subject.contains(cb, pad=1e-12)]]
    # Edges of each box clipped against the other box's face planes, all
    # (6 planes x 12 edges) crossings at once.
    for corners, owner, other in ((ca, subject, clipper), (cb, clipper, subject)):
        p0 = corners[_EDGES[:, 0]]
        d = corners[_EDGES[:, 1]] - p0
        h = _halfspaces(other)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -(h[:, :3] @ p0.T + h[:, 3:]) / (h[:, :3] @ d.T)
        plane, edge = np.nonzero(np.isfinite(t) & (t >= -1e-12) & (t <= 1 + 1e-12))
        x = p0[edge] + t[plane, edge, None] * d[edge]
        # Inside the other box, and inside the edge's own box, up to tolerance.
        pts.append(x[other.contains(x, pad=1e-9) & owner.contains(x, pad=1e-9)])
    return np.vstack(pts)


def _intersection_volume(a: DualQuadric, b: DualQuadric, pts: np.ndarray) -> float:
    """Volume of the convex polytope with vertices pts, bounded by the box faces.

    Every face of the intersection lies on one of the 12 face planes of the
    two boxes.  Each face is the polygon of the vertices on its plane; the
    volume is the sum of the pyramids from the vertex centroid to the faces.
    """
    planes = np.vstack([_halfspaces(a), _halfspaces(b)])
    span = np.concatenate([a.rotation.T[_FACE_SPAN], b.rotation.T[_FACE_SPAN]])
    tol = 1e-9 * max(np.abs(pts).max(), np.abs(planes[:, 3]).max())
    on = np.abs(planes[:, :3] @ pts.T + planes[:, 3:]) <= tol
    # A face plane the two boxes share selects the same vertices twice: keep one.
    same = np.all(on[:, None, :] == on[None, :, :], axis=2)
    on &= ~np.triu(same, 1).any(axis=0)[:, None]
    count = on.sum(axis=1)
    # Each face's vertices in in-plane coordinates about their centroid, in
    # angular order; the ring is padded past its end with its first vertex
    # so that the wrap-around term of the shoelace sum closes the polygon.
    # A plane with fewer than 3 vertices (or all on one point) gets area 0.
    uv = np.einsum("fij,mj->fmi", span, pts)
    uv -= (on[:, :, None] * uv).sum(axis=1, keepdims=True) / np.maximum(count, 1)[:, None, None]
    angle = np.where(on, np.arctan2(uv[..., 1], uv[..., 0]), np.inf)
    ring = np.take_along_axis(uv, np.argsort(angle, axis=1)[..., None], axis=1)
    ring = np.where((np.arange(len(pts)) < count[:, None])[..., None], ring, ring[:, :1])
    nxt = np.roll(ring, -1, axis=1)
    area = 0.5 * np.abs(np.sum(ring[..., 0] * nxt[..., 1] - ring[..., 1] * nxt[..., 0], axis=1))
    height = -(planes[:, :3] @ pts.mean(axis=0) + planes[:, 3])
    return float(np.sum(area * height) / 3.0)


def iou_3d(a: DualQuadric, b: DualQuadric) -> float:
    """Exact IoU of the two oriented bounding boxes derived from the quadrics.

    The intersection of two boxes is a convex polytope.  Its vertices are box
    corners inside the other box plus the crossings of each box's edges with
    the other box's face planes, and each of its faces lies on one of the 12
    face planes.  Its volume is the sum over faces of area * h / 3, with h
    the distance of the vertex centroid to the face plane.
    """
    pts = _intersection_vertices(a, b)
    inter = max(_intersection_volume(a, b, pts), 0.0) if len(pts) >= 4 else 0.0
    union = a.volume() + b.volume() - inter
    if union <= 0:
        return 0.0
    return float(min(1.0, inter / union))


def quadric_distance(a: DualQuadric, b: DualQuadric, tau: float = 1.0) -> float:
    """Similarity exp(-tau * (center distance + Frobenius shape difference)).

    The shape term compares the diagonal inverse-squared-axes matrices, so
    the score is 1 exactly when centers and axis lengths both agree.
    """
    if tau <= 0:
        raise InvalidParameterError("tau must be > 0")
    return float(np.exp(-tau * quadric_raw_distance(a, b)))


def quadric_raw_distance(a: DualQuadric, b: DualQuadric) -> float:
    """Unscaled distance ||mu_a - mu_b||_2 + ||S_a - S_b||_F."""
    d_center = np.linalg.norm(a.center - b.center)
    d_shape = np.linalg.norm(a.shape_matrix() - b.shape_matrix(), ord="fro")
    return float(d_center + d_shape)
