"""Quadric refinement by minimizing box reprojection misfit.

The loss for a track is the sum over its observations of
(1 - IoU(projected box, observed box)).  One array kernel, `_losses`,
scores K parameter vectors against all M observations at once.  Box IoU is
piecewise smooth in the quadric parameters, so the optimizer uses central
finite-difference gradients with per-block parameter scaling (center meters,
rotation axis-angle radians, log semi-axes) and a backtracking step search
that guarantees a non-increasing loss trace.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .errors import InvalidParameterError, UnoptimizableError
from .quadrics import BBox2D, CameraModel, DualQuadric

logger = logging.getLogger(__name__)

Observation = tuple[BBox2D, CameraModel]


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
class OptimResult:
    quadric: DualQuadric
    loss: float
    iterations: int
    initial_loss: float
    degenerate_geometry: bool = False


STEP = 0.01           # preconditioner scale of every block: meters, radians, log units
FD_EPS = 1e-5         # central-difference half step
REL_TOL = 1e-4        # relative improvement below which a step counts as a stall
MAX_BACKTRACKS = 30
PATIENCE = 5          # stalled steps in a row that end the descent


def _prepare(observations: list[Observation]) -> tuple[np.ndarray, ...]:
    """Stack observation data: boxes (M,4), P (M,3,4), depth rows (M,3), offsets (M,)."""
    boxes = np.array([bbox.as_array() for bbox, _ in observations])
    P = np.array([cam.projection_matrix() for _, cam in observations])
    w2c = [cam.world_to_camera() for _, cam in observations]
    rz = np.array([R_cw[2] for R_cw, _ in w2c])
    tz = np.array([t_cw[2] for _, t_cw in w2c], dtype=float)
    return boxes, P, rz, tz


def _losses(X: np.ndarray, prep: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(K,) losses and unprojectable counts for K parameter rows; misses count 1."""
    boxes, P, rz, tz = prep
    Q = np.empty((len(X), 4, 4))
    for q, x in zip(Q, X):
        center = x[:3]
        R = axis_angle_to_rotation(x[3:6])
        q[:3, :3] = (R * np.exp(2.0 * x[6:9])) @ R.T - np.outer(center, center)
        q[:3, 3] = -center
        q[3, :3] = -center
        q[3, 3] = -1.0
    # (K, M) center depths: the reference loop's 3-term dot product plus offset, same bits
    z = X[:, :3] @ rz.T + tz
    C = P @ Q[:, None] @ P.transpose(0, 2, 1)  # (K, M, 3, 3) conics
    c22 = C[..., 2, 2]
    bx0, by0, bx1, by1 = boxes.T
    with np.errstate(all="ignore"):  # masked-out terms may divide by 0 or take sqrt(<0)
        scale = -c22  # normalizes C; only these four entries are read
        cx, cy = C[..., 0, 2] / scale, C[..., 1, 2] / scale
        # float_power calls libm pow like a scalar ** 2; array ** 2 differs by an ulp
        disc_x = np.float_power(cx, 2.0) + C[..., 0, 0] / scale
        disc_y = np.float_power(cy, 2.0) + C[..., 1, 1] / scale
        unprojectable = (z <= 0) | (np.abs(c22) < 1e-15) | (disc_x <= 0) | (disc_y <= 0)
        rx, ry = np.sqrt(disc_x), np.sqrt(disc_y)
        x0, x1 = -cx - rx, -cx + rx
        y0, y1 = -cy - ry, -cy + ry
        ix = np.minimum(x1, bx1) - np.maximum(x0, bx0)
        iy = np.minimum(y1, by1) - np.maximum(y0, by0)
        inter = ix * iy
        union = (x1 - x0) * (y1 - y0) + (bx1 - bx0) * (by1 - by0) - inter
        hit = ~unprojectable & (ix > 0) & (iy > 0) & (union > 0)
        terms = np.where(hit, 1.0 - inter / union, 1.0)
    # cumsum adds in observation order, one term at a time; sum would add pairwise
    return np.cumsum(terms, axis=1)[:, -1], np.count_nonzero(unprojectable, axis=1)


def _gradient(x: np.ndarray, prep: tuple[np.ndarray, ...]) -> np.ndarray:
    """Central finite differences over all nine components, in one kernel call."""
    i = np.arange(9)
    X = np.tile(x, (18, 1))
    X[i, i] += FD_EPS
    X[i + 9, i] -= FD_EPS
    losses, _ = _losses(X, prep)
    return (losses[:9] - losses[9:]) / (2 * FD_EPS)


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


def _vector(q: DualQuadric) -> np.ndarray:
    """Optimization variables of a quadric: center, axis-angle rotation, log semi-axes."""
    return np.concatenate([q.center, rotation_to_axis_angle(q.rotation), np.log(q.semi_axes)])


def optimize_quadric(
    quadric: DualQuadric,
    observations: list[Observation],
    config: PipelineConfig | None = None,
    iters: int | None = None,
) -> OptimResult:
    """Refine a quadric against its observation set.

    Preconditioned finite-difference descent with backtracking; accepted
    steps never increase the loss.  It moves all nine parameters, takes at
    most `iters` steps (default `config.quadric_iters`) and stops after
    PATIENCE stalled steps in a row.  Raises UnoptimizableError when every
    observation is unprojectable from the start.
    """
    config = config or PipelineConfig()
    if not observations:
        raise InvalidParameterError("optimize_quadric requires observations")

    prep = _prepare(observations)
    x = _vector(quadric)
    losses, counts = _losses(x[None], prep)
    loss, skipped = float(losses[0]), int(counts[0])
    if skipped == len(observations):
        raise UnoptimizableError("all observations are behind the camera")
    if skipped:
        logger.warning("pose optimization: %d/%d observations unprojectable",
                       skipped, len(observations))

    degenerate = observation_geometry_rank(observations, x[:3]) < 1e-3
    if degenerate:
        logger.warning("observation geometry is near-collinear; pose weakly constrained")

    initial_loss = loss
    alpha = 1.0
    stall = 0
    iterations = 0
    max_iters = config.quadric_iters if iters is None else iters
    for iterations in range(1, max_iters + 1):
        g = _gradient(x, prep)
        if not np.any(g):
            break
        direction = -STEP**2 * g
        accepted = False
        step = alpha
        for _ in range(MAX_BACKTRACKS):
            trial = x + step * direction
            trial_loss = float(_losses(trial[None], prep)[0][0])
            if trial_loss < loss:
                improvement = (loss - trial_loss) / max(loss, 1e-12)
                x, loss = trial, trial_loss
                alpha = min(step * 1.5, 1e4)
                accepted = True
                stall = stall + 1 if improvement < REL_TOL else 0
                break
            step *= 0.5
        if not accepted or stall >= PATIENCE or loss <= 1e-12:
            break

    return OptimResult(
        quadric=DualQuadric(x[:3], axis_angle_to_rotation(x[3:6]), np.exp(x[6:9])),
        loss=loss,
        iterations=iterations,
        initial_loss=initial_loss,
        degenerate_geometry=degenerate,
    )
