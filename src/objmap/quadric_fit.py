"""Quadric refinement by minimizing box reprojection misfit.

The loss for a track is the sum over its observations of
(1 - IoU(projected box, observed box)).  Box IoU is piecewise smooth in the
quadric parameters, so the optimizer uses central finite-difference
gradients with per-block parameter scaling (center meters, rotation
axis-angle radians, log semi-axes) and a backtracking step search that
guarantees a non-increasing loss trace.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, UnoptimizableError
from .quadrics import BBox2D, CameraModel, DualQuadric

logger = logging.getLogger(__name__)

Observation = tuple[BBox2D, CameraModel]


@dataclass
class QuadricParams:
    """Optimization variables: center, axis-angle rotation, log semi-axes."""

    center: np.ndarray
    rot_axis_angle: np.ndarray
    log_semi_axes: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float).copy()
        self.rot_axis_angle = np.asarray(self.rot_axis_angle, dtype=float).copy()
        self.log_semi_axes = np.asarray(self.log_semi_axes, dtype=float).copy()
        if not np.all(np.isfinite(self.as_vector())):
            raise InvalidParameterError("quadric parameters must be finite")

    @classmethod
    def from_quadric(cls, q: DualQuadric) -> "QuadricParams":
        return cls(q.center, rotation_to_axis_angle(q.rotation), np.log(q.semi_axes))

    def to_quadric(self) -> DualQuadric:
        return DualQuadric(
            self.center,
            axis_angle_to_rotation(self.rot_axis_angle),
            np.exp(self.log_semi_axes),
        )

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.center, self.rot_axis_angle, self.log_semi_axes])

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "QuadricParams":
        v = np.asarray(v, dtype=float)
        return cls(v[:3], v[3:6], v[6:9])


def axis_angle_to_rotation(w: np.ndarray) -> np.ndarray:
    """Rodrigues formula; series expansion near zero angle."""
    w = np.asarray(w, dtype=float)
    theta = np.linalg.norm(w)
    K = np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]])
    if theta < 1e-10:
        return np.eye(3) + K + 0.5 * (K @ K)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / theta**2
    return np.eye(3) + a * K + b * (K @ K)


def rotation_to_axis_angle(R: np.ndarray) -> np.ndarray:
    """Inverse Rodrigues; stable branches at 0 and pi."""
    R = np.asarray(R, dtype=float)
    cos_t = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_t)
    if theta < 1e-8:
        return 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if np.pi - theta < 1e-6:
        # axis from the largest diagonal of (R + I) / 2
        M = 0.5 * (R + np.eye(3))
        axis = np.sqrt(np.maximum(np.diag(M), 0.0))
        k = int(np.argmax(axis))
        axis = M[:, k] / max(axis[k], 1e-12)
        axis /= np.linalg.norm(axis)
        return theta * axis
    v = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return theta / (2.0 * np.sin(theta)) * v


@dataclass
class OptimConfig:
    max_iters: int = 200
    min_obs: int = 3
    rel_tol: float = 1e-4
    patience: int = 5
    step_center: float = 0.01     # meters
    step_rotation: float = 0.01   # radians
    step_axes: float = 0.01       # log units
    fd_eps: float = 1e-5
    yaw_only: bool = False
    max_backtracks: int = 30


@dataclass
class OptimResult:
    params: QuadricParams
    loss: float
    iterations: int
    initial_loss: float
    skipped_projections: int = 0
    degenerate_geometry: bool = False
    converged: bool = False


def _prepare(observations: list[Observation]) -> list[tuple]:
    """Precompute per-observation projection data for the hot loss loop."""
    prep = []
    for bbox, cam in observations:
        P = cam.projection_matrix()
        R_cw, t_cw = cam.world_to_camera()
        prep.append((bbox.as_array(), P, R_cw[2], float(t_cw[2])))
    return prep


def _fast_terms(x: np.ndarray, prep: list[tuple]) -> tuple[float, int]:
    """(loss, unprojectable count) for a parameter vector; misses count 1."""
    center = x[:3]
    R = axis_angle_to_rotation(x[3:6])
    A = np.exp(2.0 * x[6:9])
    Q = np.empty((4, 4))
    Q[:3, :3] = (R * A) @ R.T - np.outer(center, center)
    Q[:3, 3] = -center
    Q[3, :3] = -center
    Q[3, 3] = -1.0
    loss = 0.0
    skipped = 0
    for bb, P, rz, tz in prep:
        z = rz @ center + tz
        if z <= 0:
            loss += 1.0
            skipped += 1
            continue
        C = P @ Q @ P.T
        c22 = C[2, 2]
        if abs(c22) < 1e-15:
            loss += 1.0
            skipped += 1
            continue
        C = C / -c22
        disc_x = C[0, 2] ** 2 + C[0, 0]
        disc_y = C[1, 2] ** 2 + C[1, 1]
        if disc_x <= 0 or disc_y <= 0:
            loss += 1.0
            skipped += 1
            continue
        rx, ry = np.sqrt(disc_x), np.sqrt(disc_y)
        x0, x1 = -C[0, 2] - rx, -C[0, 2] + rx
        y0, y1 = -C[1, 2] - ry, -C[1, 2] + ry
        ix = min(x1, bb[2]) - max(x0, bb[0])
        iy = min(y1, bb[3]) - max(y0, bb[1])
        if ix <= 0 or iy <= 0:
            loss += 1.0
            continue
        inter = ix * iy
        union = (x1 - x0) * (y1 - y0) + (bb[2] - bb[0]) * (bb[3] - bb[1]) - inter
        loss += 1.0 - inter / union if union > 0 else 1.0
    return loss, skipped


def pose_loss(params: QuadricParams, observations: list[Observation]) -> float:
    """Sum of (1 - IoU) between projected and observed boxes."""
    if not observations:
        raise InvalidParameterError("pose_loss requires at least one observation")
    return _fast_terms(params.as_vector(), _prepare(observations))[0]


def _gradient(x: np.ndarray, prep: list[tuple], config: OptimConfig) -> np.ndarray:
    g = np.zeros(9)
    active = list(range(9))
    if config.yaw_only:
        active = [0, 1, 2, 5, 6, 7, 8]  # freeze the x/y rotation components
    for k in active:
        e = config.fd_eps
        xp, xm = x.copy(), x.copy()
        xp[k] += e
        xm[k] -= e
        g[k] = (_fast_terms(xp, prep)[0] - _fast_terms(xm, prep)[0]) / (2 * e)
    return g


def observation_geometry_rank(observations: list[Observation], center: np.ndarray) -> float:
    """Second singular value of centered view directions; ~0 when collinear."""
    if len(observations) < 2:
        return 0.0
    dirs = []
    for _, cam in observations:
        d = np.asarray(center) - cam.translation
        n = np.linalg.norm(d)
        if n > 1e-9:
            dirs.append(d / n)
    if len(dirs) < 2:
        return 0.0
    dirs = np.asarray(dirs)
    sv = np.linalg.svd(dirs - dirs.mean(axis=0), compute_uv=False)
    return float(sv[1]) if len(sv) > 1 else 0.0


def optimize_quadric(
    quadric: DualQuadric,
    observations: list[Observation],
    config: OptimConfig | None = None,
) -> OptimResult:
    """Refine a quadric against its observation set.

    Preconditioned finite-difference descent with backtracking; accepted
    steps never increase the loss.  Raises UnoptimizableError when every
    observation is unprojectable from the start.
    """
    config = config or OptimConfig()
    if not observations:
        raise InvalidParameterError("optimize_quadric requires observations")

    prep = _prepare(observations)
    x = QuadricParams.from_quadric(quadric).as_vector()
    loss, skipped = _fast_terms(x, prep)
    if skipped == len(observations):
        raise UnoptimizableError("all observations are behind the camera")
    if skipped:
        logger.warning("pose optimization: %d/%d observations unprojectable",
                       skipped, len(observations))

    degenerate = observation_geometry_rank(observations, x[:3]) < 1e-3
    if degenerate:
        logger.warning("observation geometry is near-collinear; pose weakly constrained")

    initial_loss = loss
    precond = np.concatenate([
        np.full(3, config.step_center**2),
        np.full(3, config.step_rotation**2),
        np.full(3, config.step_axes**2),
    ])

    alpha = 1.0
    stall = 0
    iterations = 0
    for iterations in range(1, config.max_iters + 1):
        g = _gradient(x, prep, config)
        if not np.any(g):
            break
        direction = -precond * g
        accepted = False
        step = alpha
        for _ in range(config.max_backtracks):
            trial = x + step * direction
            trial_loss, _ = _fast_terms(trial, prep)
            if trial_loss < loss:
                improvement = (loss - trial_loss) / max(loss, 1e-12)
                x, loss = trial, trial_loss
                alpha = min(step * 1.5, 1e4)
                accepted = True
                stall = stall + 1 if improvement < config.rel_tol else 0
                break
            step *= 0.5
        if not accepted or stall >= config.patience or loss <= 1e-12:
            break

    params = QuadricParams.from_vector(x)
    return OptimResult(
        params=params,
        loss=loss,
        iterations=iterations,
        initial_loss=initial_loss,
        skipped_projections=_fast_terms(x, prep)[1],
        degenerate_geometry=degenerate,
        converged=stall >= config.patience or loss <= 1e-12,
    )
