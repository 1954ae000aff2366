"""Deterministic software rasterizer for ID-tagged 3D Gaussians.

Forward pass: each Gaussian is projected to a 2D Gaussian (pinhole mean,
Jacobian-transformed covariance plus a small isotropic low-pass term), its
footprint is expanded into flat (pixel, gaussian) entries, entries are
sorted front-to-back (ties broken by primitive index), and per-pixel alpha
compositing runs as segmented prefix products.  Identical inputs produce
bit-identical images: the entry order is a pure lexicographic sort and all
reductions are fixed-order numpy sums.

The forward pass is two steps.  `_skeleton` does everything that depends
only on geometry: the expansion, the support cut, the kernel value `raw`,
the sort and the pixel segments.  It expands footprints in blocks of whole
Gaussians and keeps only each block's entries inside the support, so no
array the size of the uncut expansion is ever built.  `_composite` forms
alpha from the opacities and then the transmittance and blending weights,
the sort-then-composite of 3D Gaussian Splatting (Kerbl et al., SIGGRAPH
2023).  Every render and every training evaluation composites over a
skeleton; one where nothing rasterizes has zero entries.  A skeleton stays
valid only while the means, scales and rotations it was built from are
unchanged, so training with a zero mean learning rate builds one per frame
(`footprint_skeleton`) and composites over it at every step.  Per-pixel
values reach the entries by `np.repeat` over the segment lengths, and the
composite and backward work in place where they can, so a kept entry costs
a few arrays of 8 bytes each at the memory peak.

The per-Gaussian opacity kernel is windowed to 3 sigma with a C1 fade:
    alpha = opacity * exp(-q/2) * s(q),  q = d^T Sigma2D^-1 d
where s is 1 below q=8 and descends smoothstep-style to 0 at q=9.  Both the
value and the derivative vanish at the support boundary, so finite
difference checks of the analytic gradients stay clean at any step size.

Backward pass: analytic gradients of the training loss for color, opacity
and mean (including the Jacobian dependence of the 2D covariance),
accumulated race-free via fixed-order segmented suffix sums.  A Gaussian's
scale and rotation are fixed at spawn and get no gradient.  The mean chain
runs only over a skeleton that carries its per-entry terms and the
projection, which `loss_and_gradients` builds when it is given no skeleton;
`footprint_skeleton` leaves them out.  Skipping the chain leaves the loss
and the color and opacity gradients bit-identical.

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
# footprint entries expanded at once, before the support cut; at 1 << 15 the
# blocks' arrays were smaller than an evaluation's and a recon-sphere12 pass
# took twice the page faults (glibc sizes its heap reuse by the largest block
# freed)
EXPAND_BLOCK = 1 << 16
Z_NEAR = 0.05       # meters; nearer Gaussians are not drawn
MOMENTUM = 0.7      # training's velocity decay per step


def _support_window(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C1 fade s(q) and ds/dq: 1 below Q_FADE_START, 0 at Q_MAX."""
    u = np.clip((q - Q_FADE_START) / (Q_MAX - Q_FADE_START), 0.0, 1.0)
    s = 1.0 - u * u * (3.0 - 2.0 * u)
    ds = -6.0 * u * (1.0 - u) / (Q_MAX - Q_FADE_START)
    return s, ds


def _sum_at(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """`np.bincount` of `weights` into n bins, as floats also when there are
    no entries (bincount then returns integer zeros)."""
    return np.bincount(index, weights=weights, minlength=n).astype(float, copy=False)


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


def _skeleton(proj: dict, h: int, w: int, geometry: bool) -> dict:
    """Expand footprints into flat entries sorted by (pixel, depth, index).

    Returns the per-entry arrays that do not depend on opacity or color:
    `row` (Gaussian), `pix`, `raw` (the windowed kernel value) and `z`
    (depth), and the pixel segments `seg_starts`, `seg_ends`, all empty when
    nothing rasterizes; `size` is (Gaussians projected, h, w).  With
    `geometry` it also carries what the geometry backward reads: the pixel
    offsets `du`, `dv`, `draw_dq` (d raw / d q) and the projection `proj`.
    The arrays are read-only, so one skeleton can serve concurrent
    composites.

    Footprints are expanded in blocks of whole Gaussians of at most
    EXPAND_BLOCK entries before the support cut (a Gaussian whose box alone
    is larger makes a block of its own), and each block keeps only the
    entries inside the support, so the expansion's temporaries are bounded
    by the block, not by the frame.  Every value is elementwise and the sort
    key (pixel, depth, index) is unique, so the entries, their order and
    their bits do not depend on the blocking.
    """
    rows = np.flatnonzero(proj["valid"])
    means2d = proj["means2d"]
    u = means2d[rows, 0]
    v = means2d[rows, 1]
    r = proj["radii"][rows]
    x0 = np.clip(np.floor(u - r).astype(int), 0, w)
    x1 = np.clip(np.floor(u + r).astype(int) + 1, 0, w)
    y0 = np.clip(np.floor(v - r).astype(int), 0, h)
    y1 = np.clip(np.floor(v + r).astype(int) + 1, 0, h)
    widths = np.maximum(x1 - x0, 0)
    counts = widths * np.maximum(y1 - y0, 0)

    names = ("row", "pix", "raw") + (("du", "dv", "draw_dq") if geometry else ())
    kept = {name: [np.empty(0, int if name in ("row", "pix") else float)] for name in names}
    box_ends = np.cumsum(counts)
    first = 0
    while first < len(rows):
        last = max(first + 1, int(np.searchsorted(
            box_ends, box_ends[first] - counts[first] + EXPAND_BLOCK, side="right")))
        block = slice(first, last)
        for name, arr in zip(names, _expand(
                proj, rows[block], x0[block], y0[block], widths[block], counts[block],
                w, geometry)):
            kept[name].append(arr)
        first = last
    # each name's blocks are joined and then dropped before the next name's
    entry_row, pix, raw, *terms = (np.concatenate(kept.pop(name)) for name in names)

    # sorting before alpha is formed gives the same bits: alpha is an
    # elementwise product, which commutes with the permutation
    order = np.lexsort((entry_row, proj["z"][entry_row], pix))
    entry_row = entry_row[order]
    pix = pix[order]
    raw = raw[order]
    for i in range(len(terms)):
        terms[i] = terms[i][order]
    del order

    is_start = np.empty(len(pix), dtype=bool)
    is_start[:1] = True
    is_start[1:] = pix[1:] != pix[:-1]
    starts = np.flatnonzero(is_start)
    del is_start
    ends = np.append(starts[1:] - 1, len(pix) - 1)[:len(starts)]

    skel = {
        "row": entry_row,
        "pix": pix,
        "raw": raw,
        "z": proj["z"][entry_row],
        "seg_starts": starts,
        "seg_ends": ends,
    }
    skel.update(zip(names[3:], terms))
    for arr in skel.values():
        arr.flags.writeable = False
    skel["size"] = (len(proj["z"]), h, w)
    if geometry:
        skel["proj"] = proj
    return skel


def _expand(proj: dict, rows, x0, y0, widths, counts, w: int, geometry: bool) -> list:
    """The entries of one block of footprints that fall inside the support:
    [row, pix, raw] plus [du, dv, draw_dq] with `geometry`, in expansion
    order (Gaussian, then row-major over its box).

    The in-place steps repeat the operation order of
    `q = ia*du*du + 2*ib*du*dv + ic*dv*dv` and of the other expressions, so
    every value is bit-for-bit what the plain expressions give.
    """
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

    means2d = proj["means2d"]
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

    inside = q < Q_MAX
    out = [entry_row[inside], pix[inside]]
    del entry_row, pix
    q = q[inside]
    if geometry:
        du, dv = du[inside], dv[inside]
    else:
        del du, dv
    del inside

    G = np.exp(-0.5 * q)
    s_win, ds_win = _support_window(q)
    del q
    out.append(G * s_win)
    if geometry:
        out += [du, dv, G * (-0.5 * s_win + ds_win)]
    return out


def _composite(skel: dict, opacities: np.ndarray) -> dict:
    """Alpha, transmittance and blending weight of every skeleton entry.

    Returns the skeleton's arrays plus `alpha` (capped at ALPHA_CAP),
    `clamped` (where the cap applied), `T` (transmittance in front of the
    entry), `weight` = alpha * T and `seg_log_tn` (total log transmittance
    of each pixel).  The skeleton itself is not written to.
    """
    alpha = opacities[skel["row"]]
    alpha *= skel["raw"]
    clamped = alpha > ALPHA_CAP
    np.minimum(alpha, ALPHA_CAP, out=alpha)

    starts, ends = skel["seg_starts"], skel["seg_ends"]
    cs = np.negative(alpha)
    np.log1p(cs, out=cs)
    T = cs.copy()
    np.cumsum(cs, out=cs)
    np.subtract(cs, T, out=T)         # exclusive prefix sum of log(1 - alpha)
    seg_base = T[starts]
    seg_log_tn = cs[ends] - seg_base  # total log transmittance per segment
    del cs
    T -= np.repeat(seg_base, ends - starts + 1)
    np.exp(T, out=T)
    weight = alpha * T
    return dict(skel, alpha=alpha, clamped=clamped, T=T, weight=weight,
                seg_log_tn=seg_log_tn)


def footprint_skeleton(store: GaussianStore, camera: CameraModel) -> dict:
    """The skeleton of every Gaussian of the store at one camera, without
    the geometry terms; it has zero entries when nothing rasterizes.

    It stays valid while the store's means, scales and rotations are those
    it was built from: pass it to `loss_and_gradients` or `optimize_object`
    (with `lr_mean == 0`) to skip the projection, expansion and sort of each
    evaluation.
    """
    proj = project_gaussian_subset(store, np.arange(len(store)), camera)
    return _skeleton(proj, camera.height, camera.width, geometry=False)


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
    skeleton: dict,
    instance_id: int | None = None,
    instance_ref: np.ndarray | None = None,
):
    """Composite every Gaussian of the store over its footprint skeleton.

    Returns (ent, images, sub).  ent is the skeleton plus its composite;
    images are the flat per-pixel color (HW,3), alpha, depth-weighted sum
    and instance accumulation, all zero when the skeleton has no entries;
    sub flags the sorted entries that count toward the instance channel.
    """
    _, h, w = skeleton["size"]
    hw = h * w
    ent = _composite(skeleton, store.opacities)
    row, pix, weight = ent["row"], ent["pix"], ent["weight"]
    sub = _instance_subset_flags(store, row, pix, instance_id, instance_ref)
    color = np.zeros((hw, 3))
    for ch in range(3):
        value = store.colors[row, ch]
        value *= weight
        color[:, ch] = _sum_at(pix, value, hw)
    del value
    alpha = _sum_at(pix, weight, hw)
    draw = _sum_at(pix, weight * ent["z"], hw)
    ins = _sum_at(pix, weight * sub, hw)
    return ent, (color, alpha, draw, ins), sub


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
    Raises InvalidParameterError when `instance_ref` is not (H,W).
    """
    h, w = camera.height, camera.width
    if instance_ref is not None and np.shape(instance_ref) != (h, w):
        raise InvalidParameterError(
            f"instance_ref of shape {np.shape(instance_ref)} does not match "
            f"the {h}x{w} camera"
        )
    ent, (color, alpha, draw, ins), _ = _forward(
        store, footprint_skeleton(store, camera), instance_id, instance_ref
    )
    tn = np.ones(h * w)
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
    skeleton: dict | None = None,
) -> tuple[float, GaussianGradients, dict]:
    """Training loss for one frame plus analytic gradients on the trainable set.

    The forward pass composites every Gaussian in the store (occluders
    matter); gradients are reported only for `trainable_idx`.  Without a
    `skeleton` the store is projected and expanded here, keeping the terms
    of the geometry backward, so the mean gradient is computed.  A skeleton
    from `footprint_skeleton(store, frame.camera)` replaces that work and
    has no geometry terms: the mean gradient is then zero, and the loss and
    the color and opacity gradients are the same bits.  Raises
    InvalidParameterError for stale indices and for a skeleton built for
    another store size or image size.
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
    if skeleton is None:
        proj = project_gaussian_subset(store, np.arange(n), frame.camera)
        skeleton = _skeleton(proj, h, w, geometry=True)
    if skeleton["size"] != (n, h, w):
        raise InvalidParameterError(
            f"footprint skeleton of {skeleton['size']} (Gaussians, height, width) "
            f"does not fit a store of {n} at {h}x{w}"
        )

    ent, images, sub = _forward(store, skeleton, object_id)
    loss, parts, g_color_img, g_draw_img, g_alpha_img, g_ins_img = _loss_upstream(
        *images, frame, object_id, lam
    )
    del images
    sel = trainable_idx
    grads = GaussianGradients(**{
        name: np.zeros((len(sel),) + getattr(store, name).shape[1:]) for name in TRAINABLE
    })

    # ---- backward over entries -------------------------------------------
    row, pix, weight = ent["row"], ent["pix"], ent["weight"]
    T, z_e = ent["T"], ent["z"]
    ends = ent["seg_ends"]
    seg_len = ends - ent["seg_starts"] + 1
    one_minus = ent.pop("alpha")  # the composite's own array: 1 - alpha in place
    np.subtract(1.0, one_minus, out=one_minus)
    dL_dalpha = np.zeros(len(row))

    def accumulate(g_img: np.ndarray, value_T: np.ndarray, contrib: np.ndarray):
        """dL_dalpha += g_e * (value_T - after / one_minus) and returns g_e,
        the per-pixel upstream `g_img` at each entry's pixel; `after` sums
        `contrib` (weight * value) over the entries behind each entry at its
        pixel.  `value_T` (value * T) and `contrib` are overwritten; each
        step repeats the expression's operation order, so the bits are those
        of the plain expression."""
        np.cumsum(contrib, out=contrib)
        after = np.repeat(contrib[ends], seg_len)
        after -= contrib
        after /= one_minus
        value_T -= after
        del after  # g_e is gathered only now, so the two never coexist
        g_e = g_img[pix]
        value_T *= g_e
        np.add(dL_dalpha, value_T, out=dL_dalpha)
        return g_e

    # upstreams are gathered one channel at a time, weight * value is built
    # in the value's own buffer and each entry-length temporary is dropped
    # once read: together they set the evaluation's memory peak
    grad_color = np.zeros((n, 3))
    for ch in range(3):
        value = store.colors[row, ch]
        value_T = value * T
        value *= weight
        gc_e = accumulate(g_color_img[:, ch], value_T, value)
        del value, value_T
        gc_e *= weight
        grad_color[:, ch] = _sum_at(row, gc_e, n)
        del gc_e
    accumulate(g_draw_img, z_e * T, weight * z_e)
    accumulate(g_alpha_img, T.copy(), weight.copy())
    accumulate(g_ins_img, sub * T, weight * sub)

    free = ~ent["clamped"]
    dL_do_e = np.where(free, dL_dalpha * ent["raw"], 0.0)
    grad_opacity = _sum_at(row, dL_do_e, n)
    del dL_do_e
    grads.colors = grad_color[sel]
    grads.opacities = grad_opacity[sel]
    if "proj" in ent:
        grads.means = _geometry_backward(store, frame.camera, ent, dL_dalpha, free,
                                         g_draw_img)[sel]
    return loss, grads, parts


def _geometry_backward(
    store: GaussianStore,
    camera: CameraModel,
    ent: dict,
    dL_dalpha: np.ndarray,
    free: np.ndarray,
    g_draw_img: np.ndarray,
) -> np.ndarray:
    """Mean gradient of every Gaussian of the store.

    Chains each entry's alpha upstream `dL_dalpha` (not applied where the
    entry's alpha is clamped, `~free`) and the depth-sum upstream of its
    pixel (`g_draw_img`) through the footprint quadratic form, the 2D
    covariance and the projection, all read from the entries of a skeleton
    built with its geometry terms.
    """
    n = len(store)
    proj = ent["proj"]
    row, weight = ent["row"], ent["weight"]
    gD_e = g_draw_img[ent["pix"]]
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
            _sum_at(row, dL_dq_e * (-2.0) * Ad0, n),
            _sum_at(row, dL_dq_e * (-2.0) * Ad1, n),
        ],
        axis=1,
    )
    grad_z_direct = _sum_at(row, gD_e * weight, n)
    gM = np.zeros((n, 2, 2))
    gM[:, 0, 0] = _sum_at(row, dL_dq_e * (-(Ad0 * Ad0)), n)
    gM[:, 0, 1] = _sum_at(row, dL_dq_e * (-(Ad0 * Ad1)), n)
    gM[:, 1, 0] = gM[:, 0, 1]
    gM[:, 1, 1] = _sum_at(row, dL_dq_e * (-(Ad1 * Ad1)), n)

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
    skeletons: list | None = None,
) -> list[float]:
    """Momentum descent on the trainable Gaussians of one object.

    Each step accumulates gradients over the frame window, takes an
    RMS-normalized step per parameter group, and rejects (reverts, halves
    the rate, resets momentum) any step that increases the loss, so the
    returned trace of accepted losses is non-increasing.  Each step evaluates
    once, at the trial point; a rejected step keeps the gradients it had.

    With `lr_mean == 0` the Gaussians' geometry stays fixed, so every
    evaluation composites over one `footprint_skeleton` per frame:
    `skeletons[i]` for `frames[i]` when given (built from a store with this
    store's geometry), else built here; a frame where nothing rasterizes
    gets a skeleton with no entries.  With a non-zero `lr_mean` the means
    move, so each evaluation builds its own skeleton with the geometry terms
    and passing skeletons raises InvalidParameterError.
    """
    config = config or TrainConfig()
    trainable_idx = np.asarray(trainable_idx, dtype=int)
    if len(trainable_idx) == 0:
        logger.warning("optimize_object %d: no trainable Gaussians, skipping", object_id)
        return []
    if not frames:
        return []

    if config.lr_mean != 0.0:  # each evaluation builds a skeleton with geometry terms
        if skeletons is not None:
            raise InvalidParameterError("footprint skeletons need lr_mean == 0")
        skeletons = [None] * len(frames)
    elif skeletons is None:
        skeletons = [footprint_skeleton(store, frame.camera) for frame in frames]
    elif len(skeletons) != len(frames):
        raise InvalidParameterError(
            f"{len(skeletons)} footprint skeletons for {len(frames)} frames"
        )

    def total_loss_grads():
        loss = 0.0
        acc = None
        for frame, skeleton in zip(frames, skeletons):
            f_loss, grads, _ = loss_and_gradients(
                store, trainable_idx, frame, lam=config.lam, object_id=object_id,
                skeleton=skeleton,
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
        backup = {name: getattr(store, name)[sel] for name in TRAINABLE}  # fancy index: a copy
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
