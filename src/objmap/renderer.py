"""Deterministic software rasterizer for ID-tagged 3D Gaussians.

Forward pass: each Gaussian is projected to a 2D Gaussian (pinhole mean,
Jacobian-transformed covariance plus a small isotropic low-pass term), its
footprint is expanded into flat (pixel, gaussian) entries, entries are
sorted front-to-back (ties broken by primitive index), and per-pixel alpha
compositing runs as segmented prefix products.  Identical inputs produce
bit-identical images: the entry order is a pure lexicographic sort and all
reductions are fixed-order numpy sums.

The per-Gaussian opacity kernel is windowed to 3 sigma with a C1 fade:
    alpha = opacity * exp(-q/2) * s(q),  q = d^T Sigma2D^-1 d
where s is 1 below q=8 and descends smoothstep-style to 0 at q=9.  Both the
value and the derivative vanish at the support boundary, so finite
difference checks of the analytic gradients stay clean at any step size.

Backward pass: analytic gradients of the training loss for color, opacity
and mean (including the Jacobian dependence of the 2D covariance),
accumulated race-free via fixed-order segmented suffix sums.  A Gaussian's
scale and rotation are fixed at spawn and get no gradient.  The mean chain
runs only when asked for: `optimize_object` asks when the mean learning rate
is non-zero, and `render` never builds the per-entry terms it needs.
Skipping it leaves the loss and the color and opacity gradients
bit-identical.

Losses (per object k):  L = L_rgb + L_depth + lambda * L_ins with
L_rgb the per-pixel color residual norm, L_depth the absolute depth residual
over valid-depth pixels, and L_ins the absolute difference between the
object's rendered opaque-Gaussian accumulation and its binary instance mask.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .frames import FrameBundle
from .gaussians import KIND_OPAQUE, TRAINABLE, GaussianStore
from .png import write_png
from .quadrics import CameraModel

logger = logging.getLogger(__name__)

Q_MAX = 9.0         # 3-sigma support
Q_FADE_START = 8.0  # C1 window fades over q in [8, 9]
ALPHA_CAP = 0.999
DEPTH_ALPHA_MIN = 1e-4
LOWPASS = 0.3       # pixels^2 added to the 2D covariance
MAX_RADIUS = 96.0   # pixel clamp on footprint radius
Z_NEAR = 0.05       # meters; nearer Gaussians are not drawn
MOMENTUM = 0.7      # training's velocity decay per step


def _support_window(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C1 fade s(q) and ds/dq: 1 below Q_FADE_START, 0 at Q_MAX."""
    u = np.clip((q - Q_FADE_START) / (Q_MAX - Q_FADE_START), 0.0, 1.0)
    s = 1.0 - u * u * (3.0 - 2.0 * u)
    ds = -6.0 * u * (1.0 - u) / (Q_MAX - Q_FADE_START)
    return s, ds


@dataclass
class RenderOutput:
    color: np.ndarray         # (H,W,3) in [0,1]
    depth: np.ndarray         # (H,W) meters, alpha-normalized, 0 when empty
    instance: np.ndarray      # (H,W) in [0,1], queried-object accumulation
    alpha: np.ndarray         # (H,W) total accumulated opacity
    transmittance: np.ndarray  # (H,W) final transmittance (independent product)


def quats_to_rotmats(q: np.ndarray) -> np.ndarray:
    """(N,4) unit quaternions (w,x,y,z) -> (N,3,3) rotation matrices."""
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = (q / np.maximum(n, 1e-12)).T
    R = np.empty((len(q), 3, 3))
    R[:, 0, 0] = 1 - 2 * (y * y + z * z)
    R[:, 0, 1] = 2 * (x * y - w * z)
    R[:, 0, 2] = 2 * (x * z + w * y)
    R[:, 1, 0] = 2 * (x * y + w * z)
    R[:, 1, 1] = 1 - 2 * (x * x + z * z)
    R[:, 1, 2] = 2 * (y * z - w * x)
    R[:, 2, 0] = 2 * (x * z - w * y)
    R[:, 2, 1] = 2 * (y * z + w * x)
    R[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def project_gaussian_subset(
    store: GaussianStore,
    idx: np.ndarray,
    camera: CameraModel,
) -> dict:
    """Project a subset of Gaussians; returns the quantities both passes need."""
    means = store.means[idx]
    R_cw, t_cw = camera.world_to_camera()
    p_cam = means @ R_cw.T + t_cw
    z = p_cam[:, 2]
    valid = z > Z_NEAR

    fx, fy = camera.fx, camera.fy
    with np.errstate(divide="ignore", invalid="ignore"):
        u = fx * p_cam[:, 0] / z + camera.cx
        v = fy * p_cam[:, 1] / z + camera.cy
    means2d = np.stack([u, v], axis=1)

    R3 = quats_to_rotmats(store.quats[idx])
    s2 = store.scales[idx] ** 2
    # Sigma3D = R3 diag(s^2) R3^T, then rotate into camera: B = W Sigma W^T
    sigma = np.einsum("nij,nj,nkj->nik", R3, s2, R3)
    B = np.einsum("ij,njk,lk->nil", R_cw, sigma, R_cw)

    J = np.zeros((len(idx), 2, 3))
    with np.errstate(divide="ignore", invalid="ignore"):
        J[:, 0, 0] = fx / z
        J[:, 1, 1] = fy / z
        J[:, 0, 2] = -fx * p_cam[:, 0] / z**2
        J[:, 1, 2] = -fy * p_cam[:, 1] / z**2
    cov2d = np.einsum("nij,njk,nlk->nil", J, B, J)
    cov2d[:, 0, 0] += LOWPASS
    cov2d[:, 1, 1] += LOWPASS

    a = cov2d[:, 0, 0]
    b = cov2d[:, 0, 1]
    c = cov2d[:, 1, 1]
    det = a * c - b * b
    valid &= det > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.empty_like(cov2d)
        inv[:, 0, 0] = c / det
        inv[:, 0, 1] = -b / det
        inv[:, 1, 0] = -b / det
        inv[:, 1, 1] = a / det
    tr = 0.5 * (a + c)
    gap = np.sqrt(np.maximum(tr * tr - det, 0.0))
    lam_max = tr + gap
    radii = np.minimum(3.0 * np.sqrt(np.maximum(lam_max, 0.0)) + 0.5, MAX_RADIUS)

    return {
        "p_cam": p_cam,
        "z": z,
        "means2d": means2d,
        "inv_cov": inv,
        "radii": radii,
        "valid": valid,
        "B": B,
        "J": J,
        "R_cw": R_cw,
    }


def _flat_entries(proj: dict, opacities: np.ndarray, h: int, w: int,
                  geometry: bool = True):
    """Expand footprints into sorted flat entries with alpha and transmittance.

    Returns None when nothing rasterizes, else a dict of per-entry arrays
    sorted by (pixel, depth, gaussian index).  The pixel offsets `du`, `dv`
    and `draw_dq` (d raw / d q) are included only with `geometry`: nothing
    but the geometry backward reads them.

    Expansion keeps at most six entry-length arrays alive, and each array is
    dropped once read.  The in-place steps repeat the operation order of
    `q = ia*du*du + 2*ib*du*dv + ic*dv*dv` and of the other expressions, so
    every value is bit-for-bit what the plain expressions give.
    """
    valid = proj["valid"]
    rows = np.flatnonzero(valid)
    if len(rows) == 0:
        return None
    means2d = proj["means2d"]
    u = means2d[rows, 0]
    v = means2d[rows, 1]
    r = proj["radii"][rows]
    x0 = np.clip(np.floor(u - r).astype(int), 0, w)
    x1 = np.clip(np.floor(u + r).astype(int) + 1, 0, w)
    y0 = np.clip(np.floor(v - r).astype(int), 0, h)
    y1 = np.clip(np.floor(v + r).astype(int) + 1, 0, h)
    widths = np.maximum(x1 - x0, 0)
    heights = np.maximum(y1 - y0, 0)
    counts = widths * heights
    keep = counts > 0
    rows, x0, y0, widths, counts = rows[keep], x0[keep], y0[keep], widths[keep], counts[keep]
    if len(rows) == 0:
        return None

    # pixel (px, py) of each entry: footprint corner + divmod(offset, width)
    total = int(counts.sum())
    entry_row = np.repeat(rows, counts)
    px = np.arange(total)
    px -= np.repeat(np.cumsum(counts) - counts, counts)
    w_rep = np.repeat(widths, counts)
    py = px // w_rep
    px %= w_rep
    del w_rep
    px += np.repeat(x0, counts)
    py += np.repeat(y0, counts)
    pix = py * w
    pix += px

    du = px + 0.5
    del px
    du -= means2d[entry_row, 0]
    dv = py + 0.5
    del py
    dv -= means2d[entry_row, 1]
    inv = proj["inv_cov"]
    q = inv[entry_row, 0, 0]
    q *= du
    q *= du
    t = inv[entry_row, 0, 1]
    t *= 2.0
    t *= du
    t *= dv
    q += t
    del t
    t = inv[entry_row, 1, 1]
    t *= dv
    t *= dv
    q += t
    del t
    if not geometry:
        del du, dv

    inside = q < Q_MAX
    if not np.any(inside):
        return None
    entry_row = entry_row[inside]
    pix = pix[inside]
    q = q[inside]
    if geometry:
        du, dv = du[inside], dv[inside]
    del inside

    G = np.exp(-0.5 * q)
    s_win, ds_win = _support_window(q)
    del q
    raw = G * s_win
    if geometry:
        draw_dq = G * (-0.5 * s_win + ds_win)
    del G, s_win, ds_win
    alpha = opacities[entry_row] * raw
    clamped = alpha > ALPHA_CAP
    np.minimum(alpha, ALPHA_CAP, out=alpha)

    order = np.lexsort((entry_row, proj["z"][entry_row], pix))
    entry_row = entry_row[order]
    pix = pix[order]
    alpha = alpha[order]
    raw = raw[order]
    clamped = clamped[order]
    if geometry:
        draw_dq = draw_dq[order]
        du, dv = du[order], dv[order]
    del order

    is_start = np.empty(len(pix), dtype=bool)
    is_start[0] = True
    is_start[1:] = pix[1:] != pix[:-1]
    seg_id = np.cumsum(is_start) - 1
    starts = np.flatnonzero(is_start)
    del is_start
    ends = np.append(starts[1:] - 1, len(pix) - 1)

    cs = np.log1p(-alpha)
    T = cs.copy()
    np.cumsum(cs, out=cs)
    np.subtract(cs, T, out=T)         # exclusive prefix sum of log(1 - alpha)
    seg_base = T[starts]
    seg_log_tn = cs[ends] - seg_base  # total log transmittance per segment
    del cs
    T -= seg_base[seg_id]
    np.exp(T, out=T)
    weight = alpha * T

    ent = {
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
        "seg_log_tn": seg_log_tn,
    }
    if geometry:
        ent.update(draw_dq=draw_dq, du=du, dv=dv)
    return ent


def _instance_subset_flags(
    store: GaussianStore,
    entry_row: np.ndarray,
    pix: np.ndarray,
    instance_id: int | None,
    instance_ref: np.ndarray | None,
) -> np.ndarray:
    opaque = store.kinds[entry_row] == KIND_OPAQUE
    ids = store.object_ids[entry_row]
    if instance_id is not None:
        return opaque & (ids == instance_id)
    if instance_ref is not None:
        return opaque & (ids == instance_ref.reshape(-1)[pix])
    return opaque & (ids > 0)


def _forward(
    store: GaussianStore,
    camera: CameraModel,
    instance_id: int | None = None,
    instance_ref: np.ndarray | None = None,
    geometry: bool = True,
):
    """Project, sort and composite every Gaussian of the store at one camera.

    Returns (proj, ent, images, per_entry).  images are the flat per-pixel
    color (HW,3), alpha, depth-weighted sum and instance accumulation, all
    zero when nothing rasterizes (ent and per_entry are then None);
    per_entry holds each sorted entry's depth and instance flag for the
    backward pass.  `geometry` is passed on to `_flat_entries`.
    """
    h, w = camera.height, camera.width
    hw = h * w
    color = np.zeros((hw, 3))
    proj = ent = None
    if len(store):
        proj = project_gaussian_subset(store, np.arange(len(store)), camera)
        ent = _flat_entries(proj, store.opacities, h, w, geometry)
    if ent is None:
        return proj, None, (color, np.zeros(hw), np.zeros(hw), np.zeros(hw)), None

    row, pix, weight = ent["row"], ent["pix"], ent["weight"]
    z_e = proj["z"][row]
    sub = _instance_subset_flags(store, row, pix, instance_id, instance_ref)
    for ch in range(3):
        color[:, ch] = np.bincount(pix, weights=weight * store.colors[row, ch], minlength=hw)
    alpha = np.bincount(pix, weights=weight, minlength=hw)
    draw = np.bincount(pix, weights=weight * z_e, minlength=hw)
    ins = np.bincount(pix, weights=weight * sub, minlength=hw)
    return proj, ent, (color, alpha, draw, ins), (z_e, sub)


def render(
    store: GaussianStore,
    camera: CameraModel,
    instance_id: int | None = None,
    instance_ref: np.ndarray | None = None,
) -> RenderOutput:
    """Composite the full map into color/depth/instance/alpha images.

    The instance channel accumulates opaque Gaussians of `instance_id` when
    given; with `instance_ref` (an (H,W) id map) each pixel accumulates the
    opaque Gaussians of its reference id; otherwise all foreground objects.
    """
    h, w = camera.height, camera.width
    _, ent, (color, alpha, draw, ins), _ = _forward(
        store, camera, instance_id, instance_ref, geometry=False
    )
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


@dataclass
class GaussianGradients:
    indices: np.ndarray
    means: np.ndarray
    colors: np.ndarray
    opacities: np.ndarray


def _loss_upstream(
    rendered_color: np.ndarray,
    alpha: np.ndarray,
    draw: np.ndarray,
    ins: np.ndarray,
    frame: FrameBundle,
    object_id: int,
    lam: float,
    eps: float = 1e-12,
):
    """Loss value plus per-pixel upstream gradients for each raw channel."""
    hw = alpha.shape[0]
    target_c = frame.rgb.reshape(hw, 3)
    r_c = rendered_color - target_c
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
    g_alpha = np.where(
        norm_ok, -g_depth * draw / np.maximum(alpha, DEPTH_ALPHA_MIN) ** 2, 0.0
    )

    target_i = (frame.instance.reshape(hw) == object_id).astype(float)
    r_i = ins - target_i
    loss_ins = float(np.abs(r_i).sum())
    g_ins = lam * r_i / np.maximum(np.abs(r_i), eps)

    loss = loss_rgb + loss_depth + lam * loss_ins
    parts = {"rgb": loss_rgb, "depth": loss_depth, "ins": loss_ins}
    return loss, parts, g_color, g_draw, g_alpha, g_ins


def loss_and_gradients(
    store: GaussianStore,
    trainable_idx: np.ndarray,
    frame: FrameBundle,
    lam: float = 0.5,
    object_id: int = 0,
    geometry: bool = True,
) -> tuple[float, GaussianGradients, dict]:
    """Training loss for one frame plus analytic gradients on the trainable set.

    The forward pass composites every Gaussian in the store (occluders
    matter); gradients are reported only for `trainable_idx`.  With
    `geometry=False` the geometry backward is skipped and the mean gradient
    is zero; the loss and the color and opacity gradients are the same bits
    either way.  Raises InvalidParameterError for stale indices.
    """
    trainable_idx = np.asarray(trainable_idx, dtype=int)
    if len(trainable_idx) and (
        trainable_idx.min() < 0 or trainable_idx.max() >= len(store)
    ):
        raise InvalidParameterError("trainable indices out of range (stale snapshot?)")
    h, w = frame.shape
    if (frame.camera.height, frame.camera.width) != (h, w):
        raise InvalidParameterError("frame camera does not match image size")
    n = len(store)

    proj, ent, images, per_entry = _forward(store, frame.camera, object_id, geometry=geometry)
    loss, parts, g_color_img, g_draw_img, g_alpha_img, g_ins_img = _loss_upstream(
        *images, frame, object_id, lam
    )
    sel = trainable_idx
    grads = GaussianGradients(indices=sel, **{
        name: np.zeros((len(sel),) + getattr(store, name).shape[1:]) for name in TRAINABLE
    })
    if ent is None:
        return loss, grads, parts

    # ---- backward over entries -------------------------------------------
    row, pix, weight = ent["row"], ent["pix"], ent["weight"]
    alpha_e, T = ent["alpha"], ent["T"]
    z_e, sub = per_entry
    seg_id = ent["seg_id"]
    ends = ent["seg_ends"]

    def suffix_after(contrib: np.ndarray) -> np.ndarray:
        cs = np.cumsum(contrib)
        after = cs[ends][seg_id]
        after -= cs
        return after

    # upstreams are gathered one channel at a time and each entry-length
    # temporary is dropped once read: together they set the evaluation's
    # memory peak
    one_minus = 1.0 - alpha_e
    dL_dalpha = np.zeros(len(row))
    grad_color = np.zeros((n, 3))
    for ch in range(3):
        gc_e = g_color_img[pix, ch]
        c_e = store.colors[row, ch]
        contrib = weight * c_e
        dL_dalpha += gc_e * (c_e * T - suffix_after(contrib) / one_minus)
        grad_color[:, ch] = np.bincount(row, weights=gc_e * weight, minlength=n)
    del gc_e, c_e, contrib
    gD_e = g_draw_img[pix]
    contrib_z = weight * z_e
    dL_dalpha += gD_e * (z_e * T - suffix_after(contrib_z) / one_minus)
    del contrib_z
    gA_e = g_alpha_img[pix]
    dL_dalpha += gA_e * (T - suffix_after(weight) / one_minus)
    del gA_e
    gI_e = g_ins_img[pix]
    contrib_i = weight * sub
    dL_dalpha += gI_e * (sub * T - suffix_after(contrib_i) / one_minus)
    del gI_e, contrib_i

    free = ~ent["clamped"]
    dL_do_e = np.where(free, dL_dalpha * ent["raw"], 0.0)
    grad_opacity = np.bincount(row, weights=dL_do_e, minlength=n)
    del dL_do_e
    grads.colors = grad_color[sel]
    grads.opacities = grad_opacity[sel]
    if geometry:
        grads.means = _geometry_backward(
            store, frame.camera, proj, ent, dL_dalpha, free, gD_e
        )[sel]
    return loss, grads, parts


def _geometry_backward(
    store: GaussianStore,
    camera: CameraModel,
    proj: dict,
    ent: dict,
    dL_dalpha: np.ndarray,
    free: np.ndarray,
    gD_e: np.ndarray,
) -> np.ndarray:
    """Mean gradient of every Gaussian of the store.

    Chains each entry's alpha upstream `dL_dalpha` (not applied where the
    entry's alpha is clamped, `~free`) and depth-sum upstream `gD_e` through
    the footprint quadratic form, the 2D covariance and the projection.
    """
    n = len(store)
    row, weight = ent["row"], ent["weight"]
    opac_e = store.opacities[row]
    dL_dq_e = np.where(free, dL_dalpha * opac_e * ent["draw_dq"], 0.0)

    ia = proj["inv_cov"][row, 0, 0]
    ib = proj["inv_cov"][row, 0, 1]
    ic = proj["inv_cov"][row, 1, 1]
    Ad0 = ia * ent["du"] + ib * ent["dv"]
    Ad1 = ib * ent["du"] + ic * ent["dv"]

    # per-gaussian accumulations
    grad_mean2d = np.stack(
        [
            np.bincount(row, weights=dL_dq_e * (-2.0) * Ad0, minlength=n),
            np.bincount(row, weights=dL_dq_e * (-2.0) * Ad1, minlength=n),
        ],
        axis=1,
    )
    grad_z_direct = np.bincount(row, weights=gD_e * weight, minlength=n)
    gM = np.zeros((n, 2, 2))
    gM[:, 0, 0] = np.bincount(row, weights=dL_dq_e * (-(Ad0 * Ad0)), minlength=n)
    gM[:, 0, 1] = np.bincount(row, weights=dL_dq_e * (-(Ad0 * Ad1)), minlength=n)
    gM[:, 1, 0] = gM[:, 0, 1]
    gM[:, 1, 1] = np.bincount(row, weights=dL_dq_e * (-(Ad1 * Ad1)), minlength=n)

    # ---- chain projective geometry per gaussian ---------------------------
    fx, fy = camera.fx, camera.fy
    p_cam = proj["p_cam"]
    z = np.maximum(proj["z"], 1e-9)
    J, B, R_cw = proj["J"], proj["B"], proj["R_cw"]

    grad_pcam = np.einsum("nij,ni->nj", J, grad_mean2d)
    grad_pcam[:, 2] += grad_z_direct

    grad_J = 2.0 * np.einsum("nij,njk,nkl->nil", gM, J, B)
    inv_z2 = 1.0 / z**2
    grad_pcam[:, 0] += grad_J[:, 0, 2] * (-fx * inv_z2)
    grad_pcam[:, 1] += grad_J[:, 1, 2] * (-fy * inv_z2)
    grad_pcam[:, 2] += (
        grad_J[:, 0, 0] * (-fx * inv_z2)
        + grad_J[:, 1, 1] * (-fy * inv_z2)
        + grad_J[:, 0, 2] * (2 * fx * p_cam[:, 0] / z**3)
        + grad_J[:, 1, 2] * (2 * fy * p_cam[:, 1] / z**3)
    )
    return grad_pcam @ R_cw


@dataclass
class TrainConfig:
    """Knobs of optimize_object; a group whose learning rate is 0 stays fixed.

    Training moves means, colors and opacities; a Gaussian's scale and
    rotation keep their spawn values.  The geometry backward (the mean
    gradient) runs only when `lr_mean` is non-zero; at 0 a step costs the
    forward pass plus the color and opacity backward.
    """

    iters: int = 30
    lam: float = 0.5
    lr_mean: float = 0.004      # meters per (rms-normalized) step
    lr_color: float = 0.04
    lr_opacity: float = 0.02


def optimize_object(
    store: GaussianStore,
    object_id: int,
    frames: list[FrameBundle],
    trainable_idx: np.ndarray,
    config: TrainConfig | None = None,
) -> list[float]:
    """Momentum descent on the trainable Gaussians of one object.

    Each step accumulates gradients over the frame window, takes an
    RMS-normalized step per parameter group, and rejects (reverts, halves
    the rate, resets momentum) any step that increases the loss, so the
    returned trace of accepted losses is non-increasing.  Each step evaluates
    once, at the trial point; a rejected step keeps the gradients it had.
    """
    config = config or TrainConfig()
    trainable_idx = np.asarray(trainable_idx, dtype=int)
    if len(trainable_idx) == 0:
        logger.warning("optimize_object %d: no trainable Gaussians, skipping", object_id)
        return []
    if not frames:
        return []

    geometry = config.lr_mean != 0.0  # the geometry backward serves only the means

    def total_loss_grads():
        loss = 0.0
        acc = None
        for frame in frames:
            f_loss, grads, _ = loss_and_gradients(
                store, trainable_idx, frame, lam=config.lam, object_id=object_id,
                geometry=geometry,
            )
            loss += f_loss
            if acc is None:
                acc = grads
            else:
                for name in TRAINABLE:
                    getattr(acc, name)[...] += getattr(grads, name)
        return loss, acc

    sel = trainable_idx
    vel = {name: np.zeros((len(sel),) + getattr(store, name).shape[1:]) for name in TRAINABLE}
    lrs = dict(zip(TRAINABLE, (config.lr_mean, config.lr_color, config.lr_opacity)))
    scale_down = 1.0
    loss, grads = total_loss_grads()
    trace = [loss]

    for _ in range(config.iters):
        backup = {name: getattr(store, name)[sel].copy() for name in TRAINABLE}
        for name in TRAINABLE:
            g = getattr(grads, name)
            rms = float(np.sqrt(np.mean(g**2)))
            if rms < 1e-15 or lrs[name] == 0.0:
                continue
            step = -(lrs[name] * scale_down) * g / rms
            vel[name] = MOMENTUM * vel[name] + step
            getattr(store, name)[sel] += vel[name]
        store.clamp_parameters(sel)  # frozen Gaussians stay bit-identical
        new_loss, new_grads = total_loss_grads()
        if new_loss <= trace[-1]:
            trace.append(new_loss)
            grads = new_grads
        else:
            for name in TRAINABLE:
                getattr(store, name)[sel] = backup[name]
                vel[name][:] = 0.0
            scale_down *= 0.5
            trace.append(trace[-1])
            if scale_down < 1e-4:
                break
    return trace


def dump_render_pngs(out: RenderOutput, prefix: str) -> list[str]:
    """Debug dump: 8-bit color, 16-bit depth in millimeters, 8-bit instance."""
    paths = []
    color8 = np.round(np.clip(out.color, 0, 1) * 255).astype(np.uint8)
    write_png(f"{prefix}_color.png", color8)
    paths.append(f"{prefix}_color.png")
    depth16 = np.clip(np.round(out.depth * 1000.0), 0, 65535).astype(np.uint16)
    write_png(f"{prefix}_depth.png", depth16)
    paths.append(f"{prefix}_depth.png")
    inst8 = np.round(np.clip(out.instance, 0, 1) * 255).astype(np.uint8)
    write_png(f"{prefix}_instance.png", inst8)
    paths.append(f"{prefix}_instance.png")
    return paths
