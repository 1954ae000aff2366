"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the closed-form code paths they check: projection
boxes come from dense surface sampling, box IoU from Monte-Carlo volume
estimation or from the convex hull of brute-force vertices, nearest-neighbor
metrics from full pairwise distances, and trainable selection from one
footprint query per Gaussian, and the quadric pose loss from a Python loop
over observations.  `reference_flat_entries` is the renderer's footprint
expansion and composite written as plain expressions, without in-place steps,
early frees or blocks; `reference_render` and `reference_loss_and_gradients`
build the images, the loss and the backward on it the same way, each sum one
`np.bincount` or `np.cumsum` over every entry.  `reference_unfilter` undoes
PNG row filters one byte at a time.  `store_of` builds small test stores from
rows.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from objmap.frames import FrameBundle
from objmap.gaussians import KIND_OPAQUE, STORE_ARRAYS, GaussianStore, UpdateMasks
from objmap.quadric_fit import axis_angle_to_rotation
from objmap.quadrics import BBox2D, CameraModel, DualQuadric
from objmap.renderer import (
    ALPHA_CAP,
    DEPTH_ALPHA_MIN,
    Q_MAX,
    GaussianGradients,
    RenderOutput,
    _support_window,
    project_gaussian_subset,
)


def store_of(rows) -> GaussianStore:
    """A store from (mean, scale, quat, opacity, color, object_id, kind) rows."""
    return GaussianStore(**dict(zip(STORE_ARRAYS, zip(*rows))))


_DIRECTION_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _unit_directions(n: int, seed: int) -> np.ndarray:
    key = (n, seed)
    if key not in _DIRECTION_CACHE:
        rng = np.random.default_rng(seed)
        d = rng.normal(size=(n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        _DIRECTION_CACHE[key] = d.astype(np.float32)
    return _DIRECTION_CACHE[key]


def sampled_projection_bbox(
    quadric: DualQuadric, camera: CameraModel, n: int = 1_000_000, seed: int = 0
) -> BBox2D:
    """Project n points sampled on the ellipsoid surface, take pixel extremes.

    The bulk math runs in float32: extremes come out to ~1e-3 px, plenty for
    the 0.1 px tolerances this oracle backs.
    """
    d = _unit_directions(n, seed % 3)  # a few reusable direction sets
    # fold ellipsoid shape, pose, and camera into one affine map of d
    R_cw, t_cw = camera.world_to_camera()
    A = (R_cw @ quadric.rotation * quadric.semi_axes).astype(np.float32)
    b = (R_cw @ quadric.center + t_cw).astype(np.float32)
    cam_pts = d @ A.T + b
    z = cam_pts[:, 2]
    front = z > 0
    u = camera.fx * cam_pts[front, 0] / z[front] + camera.cx
    v = camera.fy * cam_pts[front, 1] / z[front] + camera.cy
    return BBox2D(float(u.min()), float(v.min()), float(u.max()), float(v.max()))


def monte_carlo_box_iou(
    a: DualQuadric, b: DualQuadric, n: int = 1_000_000, seed: int = 0
) -> float:
    """IoU of the two oriented boxes by sampling the union's AABB."""
    rng = np.random.default_rng(seed)
    corners = np.vstack([a.corners(), b.corners()])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    pts = rng.uniform(lo, hi, size=(n, 3))
    in_a = a.contains(pts)
    in_b = b.contains(pts)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def convex_hull_box_iou(a: DualQuadric, b: DualQuadric) -> float:
    """IoU of the two oriented boxes from the convex hull of their intersection.

    Candidate vertices are the meeting points of every triple of the 12 face
    planes that lie inside both boxes; the intersection volume is the hull
    volume of those points (zero when they are flat or fewer than 4).
    """
    normals, limits = [], []
    for q in (a, b):
        for k in range(3):
            n = q.rotation[:, k]
            for sign in (1.0, -1.0):
                normals.append(sign * n)
                limits.append(sign * (n @ q.center) + q.semi_axes[k])
    normals, limits = np.array(normals), np.array(limits)
    triples = np.array(list(combinations(range(12), 3)))
    systems = normals[triples]
    solvable = np.abs(np.linalg.det(systems)) > 1e-12
    pts = np.linalg.solve(systems[solvable], limits[triples[solvable]][..., None])[..., 0]
    pts = pts[a.contains(pts, pad=1e-9) & b.contains(pts, pad=1e-9)]
    inter = 0.0
    if len(pts) >= 4:
        try:
            inter = ConvexHull(pts).volume
        except QhullError:
            inter = 0.0  # flat intersection
    return float(inter / (a.volume() + b.volume() - inter))


def brute_force_nn_means(est: np.ndarray, gt: np.ndarray) -> tuple[float, float]:
    """(mean est->gt, mean gt->est) nearest-neighbor distances, full pairwise."""
    d = np.linalg.norm(est[:, None, :] - gt[None, :, :], axis=2)
    return float(d.min(axis=1).mean()), float(d.min(axis=0).mean())


def random_quadric(rng: np.random.Generator, center_scale: float = 2.0) -> DualQuadric:
    center = rng.uniform(-center_scale, center_scale, size=3)
    axes = rng.uniform(0.2, 1.5, size=3)
    return DualQuadric(center, random_rotation(rng), axes)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def camera_looking_at(
    eye: np.ndarray,
    target: np.ndarray,
    fx: float = 200.0,
    fy: float = 200.0,
    width: int = 320,
    height: int = 240,
) -> CameraModel:
    """Camera at eye with +z axis toward target (up = world -y bias)."""
    eye = np.asarray(eye, dtype=float)
    fwd = np.asarray(target, dtype=float) - eye
    fwd = fwd / np.linalg.norm(fwd)
    ref = np.array([0.0, -1.0, 0.0])
    if abs(fwd @ ref) > 0.98:
        ref = np.array([1.0, 0.0, 0.0])
    right = np.cross(ref, fwd)
    right /= np.linalg.norm(right)
    down = np.cross(fwd, right)
    R = np.stack([right, down, fwd], axis=1)
    return CameraModel(
        fx=fx, fy=fy, cx=width / 2, cy=height / 2,
        width=width, height=height, rotation=R, translation=eye,
    )


def per_gaussian_select_trainable(
    store: GaussianStore,
    masks: UpdateMasks,
    object_id: int,
    camera: CameraModel,
) -> np.ndarray:
    """select_trainable as a Python loop: one summed-area query per Gaussian."""
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
    integral = np.zeros((h + 1, w + 1), dtype=np.int64)
    integral[1:, 1:] = np.cumsum(np.cumsum(obj_mask.reshape(h, w), axis=0), axis=1)

    proj = project_gaussian_subset(store, idx, camera)
    selected = []
    for row, i in enumerate(idx):
        if not proj["valid"][row]:
            continue
        u, v = proj["means2d"][row]
        r = proj["radii"][row]
        x0 = int(np.clip(np.floor(u - r), 0, w))
        x1 = int(np.clip(np.ceil(u + r) + 1, 0, w))
        y0 = int(np.clip(np.floor(v - r), 0, h))
        y1 = int(np.clip(np.ceil(v + r) + 1, 0, h))
        if x1 <= x0 or y1 <= y0:
            continue
        count = integral[y1, x1] - integral[y0, x1] - integral[y1, x0] + integral[y0, x0]
        if count > 0:
            selected.append(int(i))
    return np.asarray(selected, dtype=int)


def per_observation_prep(observations: list[tuple[BBox2D, CameraModel]]) -> list[tuple]:
    """(box, P, depth row, depth offset) of each observation, for _fast_terms."""
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


def reference_flat_entries(proj: dict, opacities: np.ndarray, h: int, w: int):
    """`renderer._skeleton` followed by `renderer._composite`, as plain
    expressions; None when nothing rasterizes."""
    valid = proj["valid"]
    rows = np.flatnonzero(valid)
    if len(rows) == 0:
        return None
    u = proj["means2d"][rows, 0]
    v = proj["means2d"][rows, 1]
    r = proj["radii"][rows]
    x0 = np.clip(np.floor(u - r).astype(int), 0, w)
    x1 = np.clip(np.floor(u + r).astype(int) + 1, 0, w)
    y0 = np.clip(np.floor(v - r).astype(int), 0, h)
    y1 = np.clip(np.floor(v + r).astype(int) + 1, 0, h)
    widths = np.maximum(x1 - x0, 0)
    heights = np.maximum(y1 - y0, 0)
    counts = widths * heights
    keep = counts > 0
    rows, x0, y0, widths, heights, counts = (
        rows[keep], x0[keep], y0[keep], widths[keep], heights[keep], counts[keep],
    )
    if len(rows) == 0:
        return None

    total = int(counts.sum())
    entry_row = np.repeat(rows, counts)
    base = np.concatenate([[0], np.cumsum(counts)[:-1]])
    local = np.arange(total) - np.repeat(base, counts)
    w_rep = np.repeat(widths, counts)
    dx = local % w_rep
    dy = local // w_rep
    px = np.repeat(x0, counts) + dx
    py = np.repeat(y0, counts) + dy
    pix = py * w + px

    du = px + 0.5 - proj["means2d"][entry_row, 0]
    dv = py + 0.5 - proj["means2d"][entry_row, 1]
    ia = proj["inv_cov"][entry_row, 0, 0]
    ib = proj["inv_cov"][entry_row, 0, 1]
    ic = proj["inv_cov"][entry_row, 1, 1]
    q = ia * du * du + 2.0 * ib * du * dv + ic * dv * dv

    inside = q < Q_MAX
    if not np.any(inside):
        return None
    entry_row = entry_row[inside]
    pix = pix[inside]
    q = q[inside]

    raw = np.exp(-0.5 * q) * _support_window(q)
    alpha_unclamped = opacities[entry_row] * raw
    alpha = np.minimum(alpha_unclamped, ALPHA_CAP)
    clamped = alpha_unclamped > ALPHA_CAP

    order = np.lexsort((entry_row, proj["z"][entry_row], pix))
    entry_row = entry_row[order]
    pix = pix[order]
    alpha = alpha[order]
    raw = raw[order]
    clamped = clamped[order]

    is_start = np.empty(len(pix), dtype=bool)
    is_start[0] = True
    is_start[1:] = pix[1:] != pix[:-1]
    seg_id = np.cumsum(is_start) - 1
    starts = np.flatnonzero(is_start)
    ends = np.append(starts[1:] - 1, len(pix) - 1)

    lg = np.log1p(-alpha)
    cs = np.cumsum(lg)
    prefix_excl = cs - lg
    seg_base = prefix_excl[starts][seg_id]
    T = np.exp(prefix_excl - seg_base)
    weight = alpha * T
    log_tn = cs[ends][seg_id] - seg_base  # total log transmittance per segment

    return {
        "row": entry_row,
        "pix": pix,
        "alpha": alpha,
        "raw": raw,
        "clamped": clamped,
        "T": T,
        "weight": weight,
        "seg_id": seg_id,
        "seg_starts": starts,
        "seg_ends": ends,
        "seg_log_tn": log_tn[starts],
        "z": proj["z"][entry_row],
    }


def _reference_images(store: GaussianStore, camera: CameraModel, instance_id=None,
                      instance_ref=None):
    """(entries, sub, color, alpha, draw, ins) of the whole store, as plain
    expressions; entries is None when nothing rasterizes."""
    h, w = camera.height, camera.width
    hw = h * w
    proj = project_gaussian_subset(store, np.arange(len(store)), camera)
    ent = reference_flat_entries(proj, store.opacities, h, w)
    if ent is None:
        return None, None, np.zeros((hw, 3)), np.zeros(hw), np.zeros(hw), np.zeros(hw)
    row, pix, weight = ent["row"], ent["pix"], ent["weight"]
    opaque = store.kinds[row] == KIND_OPAQUE
    ids = store.object_ids[row]
    if instance_id is not None:
        sub = opaque & (ids == instance_id)
    elif instance_ref is not None:
        sub = opaque & (ids == instance_ref.reshape(-1)[pix])
    else:
        sub = opaque & (ids > 0)
    color = np.stack([np.bincount(pix, weight * store.colors[row, ch], minlength=hw)
                      for ch in range(3)], axis=1)
    alpha = np.bincount(pix, weight, minlength=hw)
    draw = np.bincount(pix, weight * ent["z"], minlength=hw)
    ins = np.bincount(pix, weight * sub, minlength=hw)
    return ent, sub, color, alpha, draw, ins


def reference_render(store: GaussianStore, camera: CameraModel, instance_id=None,
                     instance_ref=None) -> RenderOutput:
    """`renderer.render` as plain expressions over every entry at once."""
    h, w = camera.height, camera.width
    ent, _, color, alpha, draw, ins = _reference_images(
        store, camera, instance_id, instance_ref)
    tn = np.ones(h * w)
    if ent is not None:
        tn[ent["pix"][ent["seg_starts"]]] = np.exp(ent["seg_log_tn"])
    depth = np.where(alpha >= DEPTH_ALPHA_MIN, draw / np.maximum(alpha, DEPTH_ALPHA_MIN), 0.0)
    return RenderOutput(
        color=np.clip(color, 0.0, 1.0).reshape(h, w, 3),
        depth=depth.reshape(h, w),
        instance=np.clip(ins, 0.0, 1.0).reshape(h, w),
        alpha=np.clip(alpha, 0.0, 1.0).reshape(h, w),
        transmittance=tn.reshape(h, w),
    )


def reference_loss_and_gradients(store: GaussianStore, trainable_idx, frame: FrameBundle,
                                 lam: float = 0.5, object_id: int = 0, eps: float = 1e-12):
    """`renderer.loss_and_gradients` as plain expressions over every entry at
    once: (loss, GaussianGradients, parts)."""
    hw = frame.camera.height * frame.camera.width
    n = len(store)
    ent, sub, color, alpha, draw, ins = _reference_images(store, frame.camera, object_id)

    r_c = color - frame.rgb.reshape(hw, 3)
    n_c = np.linalg.norm(r_c, axis=1)
    loss_rgb = float(n_c.sum())
    g_color = r_c / np.maximum(n_c, eps)[:, None]
    target_d = frame.depth.reshape(hw)
    valid = target_d > 0
    norm_ok = alpha >= DEPTH_ALPHA_MIN
    depth = np.where(norm_ok, draw / np.maximum(alpha, DEPTH_ALPHA_MIN), 0.0)
    r_d = np.where(valid, depth - target_d, 0.0)
    loss_depth = float(np.abs(r_d).sum())
    g_depth = np.where(valid, r_d / np.maximum(np.abs(r_d), eps), 0.0)
    g_draw = np.where(norm_ok, g_depth / np.maximum(alpha, DEPTH_ALPHA_MIN), 0.0)
    g_alpha = np.where(norm_ok, -g_depth * draw / np.maximum(alpha, DEPTH_ALPHA_MIN) ** 2, 0.0)
    r_i = ins - (frame.instance.reshape(hw) == object_id).astype(float)
    loss_ins = float(np.abs(r_i).sum())
    g_ins = lam * r_i / np.maximum(np.abs(r_i), eps)
    loss = loss_rgb + loss_depth + lam * loss_ins
    parts = {"rgb": loss_rgb, "depth": loss_depth, "ins": loss_ins}

    grad_color, grad_opacity = np.zeros((n, 3)), np.zeros(n)
    if ent is not None:
        row, pix, alpha_e, T, weight = ent["row"], ent["pix"], ent["alpha"], ent["T"], ent["weight"]
        seg_id, ends = ent["seg_id"], ent["seg_ends"]
        channels = [(g_color[:, ch], store.colors[row, ch]) for ch in range(3)]
        channels += [(g_draw, ent["z"]), (g_alpha, np.ones(len(row))), (g_ins, sub)]
        dL_dalpha = np.zeros(len(row))
        for g_img, value in channels:
            cs = np.cumsum(weight * value)
            after = cs[ends][seg_id] - cs  # weight * value of the entries behind
            dL_dalpha += g_img[pix] * (value * T - after / (1 - alpha_e))
        for ch in range(3):
            grad_color[:, ch] = np.bincount(row, g_color[pix, ch] * weight, minlength=n)
        free = ~ent["clamped"]
        grad_opacity = np.bincount(row, np.where(free, dL_dalpha * ent["raw"], 0.0), minlength=n)
    idx = np.asarray(trainable_idx, dtype=int)
    grads = GaussianGradients(colors=grad_color[idx], opacities=grad_opacity[idx])
    return loss, grads, parts


def reference_unfilter(stream: bytes, h: int, w: int, channels: int, bit_depth: int):
    """The image held by a decompressed PNG stream of h rows, each a filter
    byte (0 None, 1 Sub, 2 Up) and its filtered bytes, undone one byte at a
    time in a Python loop; 16-bit samples are big-endian."""
    bpp = channels * bit_depth // 8
    stride = w * bpp
    out = bytearray(h * stride)
    prev = bytearray(stride)
    for r in range(h):
        ftype = stream[r * (stride + 1)]
        assert ftype in (0, 1, 2), ftype
        row = bytearray(stream[r * (stride + 1) + 1 : (r + 1) * (stride + 1)])
        if ftype == 1:
            for i in range(bpp, stride):
                row[i] = (row[i] + row[i - bpp]) & 0xFF
        elif ftype == 2:
            for i in range(stride):
                row[i] = (row[i] + prev[i]) & 0xFF
        out[r * stride : (r + 1) * stride] = row
        prev = row
    if bit_depth == 16:
        return np.frombuffer(bytes(out), dtype=">u2").reshape(h, w).astype(np.uint16)
    shape = (h, w, 3) if channels == 3 else (h, w)
    return np.frombuffer(bytes(out), dtype=np.uint8).reshape(shape).copy()
