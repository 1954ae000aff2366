"""Deterministic software rasterizer for ID-tagged 3D Gaussians.

Forward pass: each Gaussian is projected to a 2D Gaussian (pinhole mean,
Jacobian-transformed covariance plus a small isotropic low-pass term), its
footprint is expanded into flat (pixel, gaussian) entries, entries are
sorted front-to-back (ties broken by primitive index), and per-pixel alpha
compositing runs as segmented prefix products.  Identical inputs produce
bit-identical images: the entry order is a pure lexicographic sort and all
reductions are fixed-order numpy sums.

The forward pass is two steps.  `_skeleton` does everything that depends
only on geometry: the expansion, the support cut, the sort, the kernel
value `raw` and the pixel segments.  It expands footprints in blocks of
whole Gaussians and keeps one int64 key per entry inside the support,
`pix * n + rank[row]` (n Gaussians projected, `rank` a Gaussian's place in
stable depth-then-index order), so no array the size of the uncut expansion
is ever built.  One in-place sort of the unique keys gives the (pixel,
depth, index) order, as 3D Gaussian Splatting sorts one (tile, depth) key
per instance; the entries' int32 `row` and `pix` decode from the sorted
keys, and `raw` is computed once, in sorted order.  `_composite` forms
alpha from the opacities and then the transmittance and blending weights,
the sort-then-composite of 3D Gaussian Splatting (Kerbl et al., SIGGRAPH
2023).  Every render and every training evaluation composites over a
skeleton; one where nothing rasterizes has zero entries.  A Gaussian's
mean, scale and rotation are fixed at spawn, so training builds one skeleton
per frame (`footprint_skeleton`) and composites over it at every step.

The composite, the image sums, the loss and the backward run block by
block: a block holds whole pixel segments of at most BLOCK entries (a
longer segment is a block of its own), like the tiles of 3D Gaussian
Splatting and gsplat (Ye et al., 2024), so an evaluation's memory is set by
the block and the image, not by the entry count.  Every bit is that of the
unblocked sums.  Each running sum (the composite's log transmittance, the
backward's six channel sums) starts at -0.0, which adds to any first term
without changing it, and carries its last value into the next block's
first term.  A pixel never spans two blocks, so its six image sums are one
bincount over its block's pixels, row k's bins offset by k times the
block's pixel count; the per-Gaussian sums are one `np.add.at` over four
rows offset by the store size.  Both add each bin's entries in entry
order, as one call per row would.  Each numpy call costs a fixed time
that a block does not amortize, so a block makes few: the bincount and
np.add.at indices are written into the memory of its two work rows, and
the loss treats rows that share a formula in one call.

The per-Gaussian opacity kernel is windowed to 3 sigma with a C1 fade:
    alpha = opacity * exp(-q/2) * s(q),  q = d^T Sigma2D^-1 d
where s is 1 below q=8 and descends smoothstep-style to 0 at q=9, so both
the value and the derivative vanish at the support boundary.

Backward pass: analytic gradients of the training loss for color and
opacity, accumulated race-free via fixed-order segmented suffix sums.  A
Gaussian's geometry gets no gradient: unlike 3D Gaussian Splatting, which
also trains the means, the Gaussians stay where they were spawned on the
observed surface.

Losses (per object k):  L = L_rgb + L_depth + lambda * L_ins with
L_rgb the per-pixel color residual norm, L_depth the absolute depth residual
over valid-depth pixels, and L_ins the absolute difference between the
object's rendered opaque-Gaussian accumulation and its binary instance mask.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
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
# entries one block holds: footprint expansion (before the support cut),
# composite, image sums and backward all run block by block
BLOCK = 1 << 12
# rows of the (6, HW) image arrays after the three color rows: depth-weighted
# sum, alpha, instance accumulation
DRAW, ALPHA, INS = 3, 4, 5
Z_NEAR = 0.05       # meters; nearer Gaussians are not drawn
MOMENTUM = 0.7      # training's velocity decay per step


def _support_window(q: np.ndarray) -> np.ndarray:
    """C1 fade s(q): 1 below Q_FADE_START, 0 at Q_MAX."""
    u = np.clip((q - Q_FADE_START) / (Q_MAX - Q_FADE_START), 0.0, 1.0)
    return 1.0 - u * u * (3.0 - 2.0 * u)


def _block_bounds(unit_ends: np.ndarray):
    """Yield (first, last) runs of whole units, a Gaussian's footprint box or
    a pixel's segment, that hold at most BLOCK entries together; `unit_ends`
    are the units' cumulative entry counts.  A unit larger than BLOCK is a
    run of its own.  The run that would start at each unit is found by one
    search over all units, so a block costs no numpy call."""
    before = np.concatenate(([0], unit_ends[:-1]))
    reach = np.searchsorted(unit_ends, before + BLOCK, side="right")
    first = 0
    while first < len(unit_ends):
        last = max(first + 1, int(reach[first]))
        yield first, last
        first = last


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
    """Project a subset of Gaussians: camera depth `z`, pixel mean
    `means2d`, inverse 2D covariance `inv_cov`, footprint `radii` and
    `valid` (in front of the near plane with a regular 2D covariance)."""
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
        "z": z,
        "means2d": means2d,
        "inv_cov": inv,
        "radii": radii,
        "valid": valid,
    }


def _skeleton(proj: dict, h: int, w: int) -> dict:
    """Expand footprints into flat entries sorted by (pixel, depth, index).

    Returns the per-entry arrays that do not depend on opacity or color:
    `row` (Gaussian) and `pix` (int32), `raw` (the windowed kernel value),
    and the pixel segments `seg_starts`, `seg_ends`, all empty when nothing
    rasterizes; `depth` is the camera depth of every Gaussian projected (an
    entry's depth is its Gaussian's) and `size` is (Gaussians projected, h,
    w).  The arrays are read-only, so one skeleton serves every composite
    of a frame's objects and no evaluation can change it for the next.

    Footprints are expanded in blocks of whole Gaussians of at most BLOCK
    entries before the support cut (a Gaussian whose box alone is larger
    makes a block of its own), and each block keeps only one int64 key per
    entry inside the support, `pix * n + rank[row]`: n Gaussians projected,
    `rank` each one's place in stable (depth, index) order.  The keys are
    unique, so one in-place sort gives the (pixel, depth, index) order
    whatever the blocking, and `pix` and `row` decode from the sorted keys.
    `raw` is then computed in sorted order, block by block, with the
    expansion's elementwise expression, so it has the bits of any other
    order.  `_composite` and the backward walk the sorted entries in blocks
    of whole pixel segments of at most BLOCK entries, carrying each running
    sum from block to block.
    """
    n = len(proj["z"])
    by_depth = np.argsort(proj["z"], kind="stable").astype(np.int32)
    rank = np.empty(n, np.intp)
    rank[by_depth] = np.arange(n)
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

    kept = [np.empty(0, np.int64)]
    for first, last in _block_bounds(np.cumsum(counts)):
        block = slice(first, last)
        key, entry_row = _expand(proj, rows[block], x0[block], y0[block], widths[block],
                                 counts[block], w)
        key *= n
        key += rank[entry_row]
        kept.append(key)
    key = np.concatenate(kept)
    del kept
    key.sort()
    entry_row = by_depth.take(key % n)
    pix = np.floor_divide(key, n, out=np.empty(len(key), np.int32), casting="unsafe")
    del key
    raw = np.empty(len(pix))
    for s in range(0, len(pix), BLOCK):
        e = slice(s, s + BLOCK)
        q = _quad_form(proj, entry_row[e], pix[e], w)
        np.multiply(np.exp(-0.5 * q), _support_window(q), out=raw[e])

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
        "depth": np.ascontiguousarray(proj["z"]),
        "seg_starts": starts,
        "seg_ends": ends,
    }
    for arr in skel.values():
        arr.flags.writeable = False
    skel["size"] = (len(proj["z"]), h, w)
    return skel


def _expand(proj: dict, rows, x0, y0, widths, counts, w: int) -> tuple:
    """The entries of one block of footprints that fall inside the support,
    (pix, row) as int64, in expansion order (Gaussian, then row-major over
    its box)."""
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
    del px, py
    inside = _quad_form(proj, entry_row, pix, w) < Q_MAX
    return pix[inside], entry_row[inside]


def _quad_form(proj: dict, entry_row, pix, w: int) -> np.ndarray:
    """q = d^T Sigma2D^-1 d of each entry, d the pixel centre's offset from
    its Gaussian's projected mean; pixel coordinates are integers, so divmod
    gives them exactly, and the in-place steps keep the operation order of
    q = ia*du*du + 2*ib*du*dv + ic*dv*dv, so every entry's q has the same
    bits in any order and block."""
    means2d = proj["means2d"]
    du = pix % w + 0.5
    du -= means2d[entry_row, 0]
    dv = pix // w + 0.5
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
    return q


def _composite(skel: dict, opacities: np.ndarray):
    """Alpha, transmittance and blending weight of the skeleton's entries,
    one block at a time (see the module docstring).

    Yields one dict per block: `e` (its slice of the skeleton's entries),
    `ends` (each segment's last entry, counted in the block), `seg_len`,
    `alpha` (capped at ALPHA_CAP), `clamped` (where the cap applied), `T`
    (transmittance in front of the entry), `weight` = alpha * T and
    `seg_log_tn` (each pixel's total log transmittance).  A block's dict is
    emptied when the next block is asked for, so its arrays are freed first.
    """
    all_starts, all_ends = skel["seg_starts"], skel["seg_ends"]
    bounds = list(_block_bounds(all_ends + 1))
    seg_len = all_ends - all_starts + 1
    row, raw = skel["row"], skel["raw"]
    carry = -0.0  # -0.0 + x is x for every x, so the first block starts unchanged
    for s0, s1 in bounds:
        e0 = all_starts[s0]
        e = slice(e0, all_ends[s1 - 1] + 1)
        starts, ends, lens = all_starts[s0:s1] - e0, all_ends[s0:s1] - e0, seg_len[s0:s1]
        alpha = opacities.take(row[e])
        alpha *= raw[e]
        clamped = alpha > ALPHA_CAP
        np.minimum(alpha, ALPHA_CAP, out=alpha)
        T = np.negative(alpha)
        np.log1p(T, out=T)
        cs = T.copy()
        cs[0] += carry
        cs.cumsum(out=cs)
        carry = cs[-1]
        np.subtract(cs, T, out=T)         # exclusive prefix sum of log(1 - alpha)
        seg_base = T[starts]
        blk = {"e": e, "ends": ends, "seg_len": lens, "seg_log_tn": cs[ends] - seg_base}
        T -= seg_base.repeat(lens)
        np.exp(T, out=T)
        blk.update(alpha=alpha, clamped=clamped, T=T, weight=np.multiply(alpha, T, out=cs))
        del alpha, clamped, T, cs
        yield blk
        blk.clear()


def footprint_skeleton(store: GaussianStore, camera: CameraModel) -> dict:
    """The skeleton of every Gaussian of the store at one camera; it has
    zero entries when nothing rasterizes.

    Training changes only colors and opacities, so it stays valid for the
    store it was built from: pass it to `loss_and_gradients` or
    `optimize_object` to skip the projection, expansion and sort of each
    evaluation.
    """
    proj = project_gaussian_subset(store, np.arange(len(store)), camera)
    return _skeleton(proj, camera.height, camera.width)


def _value_table(store: GaussianStore, skel: dict, counted: np.ndarray) -> np.ndarray:
    """(6, N) value of each image row for every Gaussian of the store: color
    (rows 0-2), depth (DRAW), 1 (ALPHA) and `counted` (INS, whether it
    counts toward the instance row); an entry's values are its Gaussian's."""
    table = np.empty((6, len(store)))
    table[:3] = store.colors.T
    table[DRAW] = skel["depth"]
    table[ALPHA] = 1.0
    table[INS] = counted
    return table


def _work(skel: dict) -> tuple[np.ndarray, np.ndarray]:
    """Two rows of 6 * m floats, m the most entries a block of the skeleton
    holds (BLOCK, or its longest segment), and the same memory as intp.
    Every block's (6, m) arrays, its bincount index and its np.add.at index
    are views of them, so a render or an evaluation allocates them once."""
    longest = (skel["seg_ends"] - skel["seg_starts"]).max(initial=-1) + 1
    work = np.empty((2, 6 * min(len(skel["row"]), max(BLOCK, longest))))
    return work, work.view(np.intp)


def _image_rows(contrib: np.ndarray, local: np.ndarray, size: int,
                bins: np.ndarray) -> np.ndarray:
    """(6, size) sums of a block's (6, m) `contrib` into the pixels `local`
    (0 to size - 1) of its tile: one bincount over each entry's pixel plus
    its row times `size`, so each pixel of each row adds its entries in
    entry order, as one bincount per row does.  The index is written into
    the flat intp buffer `bins`."""
    index = bins[:contrib.size]
    np.add(local, np.arange(0, 6 * size, size)[:, None], out=index.reshape(contrib.shape))
    return np.bincount(index, contrib.reshape(-1), 6 * size).reshape(6, size)


def render(
    store: GaussianStore,
    camera: CameraModel,
    instance_ref: np.ndarray | None = None,
) -> RenderOutput:
    """Composite the full map into color/depth/instance/alpha images.

    With `instance_ref` (an (H,W) id map) each pixel of the instance channel
    accumulates the opaque Gaussians of its reference id, so
    `np.full((H, W), k)` gives object k's channel; without it, the opaque
    Gaussians of all foreground objects.
    Raises InvalidParameterError when `instance_ref` is not (H,W).
    """
    h, w = camera.height, camera.width
    if instance_ref is not None and np.shape(instance_ref) != (h, w):
        raise InvalidParameterError(
            f"instance_ref of shape {np.shape(instance_ref)} does not match "
            f"the {h}x{w} camera"
        )
    skel = footprint_skeleton(store, camera)
    counted = store.kinds == KIND_OPAQUE
    if instance_ref is None:
        counted &= store.object_ids > 0
    table = _value_table(store, skel, counted)
    img, log_tn = np.zeros((6, h * w)), np.zeros(h * w)
    work, iwork = _work(skel)
    for blk in _composite(skel, store.opacities):
        row, pix = skel["row"][blk["e"]], skel["pix"][blk["e"]]
        contrib = work[0, :6 * len(row)].reshape(6, -1)
        table.take(row, axis=1, out=contrib, mode="clip")
        if instance_ref is not None:
            contrib[INS] *= store.object_ids[row] == instance_ref.reshape(-1)[pix]
        contrib *= blk["weight"]
        first, stop = pix[0], pix[-1] + 1
        img[:, first:stop] = _image_rows(contrib, pix - first, stop - first, iwork[1])
        log_tn[pix[blk["ends"]]] = blk["seg_log_tn"]
        del contrib  # a view of the work rows, which are freed before the outputs are made
    del work, iwork
    alpha, draw = img[ALPHA], img[DRAW]
    depth = np.where(alpha >= DEPTH_ALPHA_MIN, draw / np.maximum(alpha, DEPTH_ALPHA_MIN), 0.0)
    return RenderOutput(
        color=np.clip(img[:3].T, 0.0, 1.0).reshape(h, w, 3),
        depth=depth.reshape(h, w),
        instance=np.clip(img[INS], 0.0, 1.0).reshape(h, w),
        alpha=np.clip(alpha, 0.0, 1.0).reshape(h, w),
        transmittance=np.exp(log_tn).reshape(h, w),  # 1 where no entry falls
    )


@dataclass
class GaussianGradients:
    colors: np.ndarray
    opacities: np.ndarray


def _loss_upstream(img: np.ndarray, tile: slice, targets: tuple, lam: float,
                   terms: np.ndarray, eps: float = 1e-12) -> None:
    """The loss at the pixels `tile`, whose six image rows are `img`: each
    pixel's color residual norm, absolute depth residual and absolute
    instance residual go to `terms[:, tile]`, and each row's upstream
    gradient is written over that row of `img`.  `targets` are the frame's
    flat rgb (HW, 3), depth, invalid-depth mask and instance-target mask.

    Every value is per pixel and each in-place step keeps the operation
    order of the plain expression, so any split of the image into tiles
    gives the same bits.  A dark pixel (alpha below DEPTH_ALPHA_MIN) divides
    by infinity instead of by its clipped alpha: its rendered depth and both
    of its depth upstreams come out as zeros, as the plain expression's
    masks make them for any finite image.  The upstreams' zeros may carry
    either sign; the backward adds them only into sums that start at +0.0,
    where the sign of a zero term is lost.
    """
    rgb, depth, invalid, ins = targets
    term = terms[:, tile]
    r_c, draw, r_d, r_i = img[:3], img[DRAW], img[ALPHA], img[INS]
    r_di = img[ALPHA:]  # the depth residual and r_i: adjacent rows
    r_c -= rgb[tile].T
    den = np.square(r_c)
    n_c = den.sum(axis=0, initial=0.0, out=term[0])  # (r0^2 + r1^2) + r2^2, as norm(axis=1)
    np.sqrt(n_c, out=n_c)

    clipped = np.where(r_d >= DEPTH_ALPHA_MIN, r_d, np.inf)
    np.divide(draw, clipped, out=r_d)  # the rendered depth, in the alpha row
    r_d -= depth[tile]
    r_d[invalid[tile]] = 0.0
    r_i -= ins[tile]
    np.abs(r_di, out=term[1:])

    np.maximum(term, eps, out=den)
    r_c /= den[0]
    r_i *= lam
    r_di /= den[1:]  # r_d becomes the depth upstream g
    tmp = np.negative(r_d, out=den[0])
    tmp *= draw
    np.divide(r_d, clipped, out=draw)  # DRAW upstream g / alpha
    np.square(clipped, out=clipped)
    np.divide(tmp, clipped, out=r_d)  # ALPHA upstream -g * draw / alpha^2


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
    matter); gradients are reported only for `trainable_idx`.  It composites
    over `skeleton`, which defaults to `footprint_skeleton(store,
    frame.camera)`; pass the frame's skeleton to build it once for many
    evaluations.  Raises InvalidParameterError for stale indices and for a
    skeleton built for another store size or image size.

    The composite, loss and backward run in one pass over the blocks: a
    pixel's loss depends only on its own images, so every pixel first gets
    the loss terms of an empty pixel, and each block then takes the loss of
    the pixels from its first to its last (its tile) and its backward.
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
        skeleton = footprint_skeleton(store, frame.camera)
    if skeleton["size"] != (n, h, w):
        raise InvalidParameterError(
            f"footprint skeleton of {skeleton['size']} (Gaussians, height, width) "
            f"does not fit a store of {n} at {h}x{w}"
        )

    terms = np.empty((3, h * w))  # per-pixel loss terms: rgb, depth, ins
    sums = np.zeros((4, n))  # per-Gaussian sums: color (3), opacity
    flat_sums, sum_rows = sums.reshape(-1), np.arange(4)[:, None] * n
    table = _value_table(store, skeleton, (store.kinds == KIND_OPAQUE)
                         & (store.object_ids == object_id))
    rgb, depth = frame.rgb.reshape(-1, 3), frame.depth.reshape(-1)
    targets = (rgb, depth, ~(depth > 0), frame.instance.reshape(-1) == object_id)
    # every pixel's terms as if no entry fell on it (its six images 0, so
    # its residuals are the targets negated); each block's tile then
    # overwrites the terms of the pixels from its first entry's to its last
    np.square(rgb.T, out=terms)
    terms[0] += terms[1]
    terms[0] += terms[2]
    np.sqrt(terms[0], out=terms[0])
    terms[1] = depth
    terms[1, targets[2]] = 0.0
    terms[2] = targets[3]
    row_all, pix_all, raw_all = skeleton["row"], skeleton["pix"], skeleton["raw"]
    work, iwork = _work(skeleton)
    carry = np.full((6, 1), -0.0)  # the six channels' running sums
    for blk in _composite(skeleton, store.opacities):
        # loss at the pixels of the tile, which ends at the block's last
        # pixel, then the block's backward; row k of the (6, m) arrays is
        # the one-channel dL_dalpha += g_e * (value * T - after / (1 -
        # alpha)), `after` the weight * value of the entries behind each
        # entry at its pixel
        e, T, weight = blk["e"], blk["T"], blk["weight"]
        row, pix = row_all[e], pix_all[e]
        m, tile = len(row), slice(pix[0], pix[-1] + 1)
        contrib, after = work[:, :6 * m].reshape(2, 6, m)
        # mode="clip" lets take write to `out` unbuffered; every index is valid
        table.take(row, axis=1, out=contrib, mode="clip")
        contrib *= weight
        local = pix - tile.start
        upstream = _image_rows(contrib, local, tile.stop - tile.start, iwork[1])
        _loss_upstream(upstream, tile, targets, lam, terms)

        one_minus = blk["alpha"]  # the composite's own array: 1 - alpha in place
        np.subtract(1.0, one_minus, out=one_minus)
        first = contrib[:, :1]
        first += carry
        contrib.cumsum(axis=1, out=contrib)
        carry = contrib[:, -1:].copy()
        contrib.take(blk["ends"].repeat(blk["seg_len"]), axis=1, out=after, mode="clip")
        after -= contrib
        after /= one_minus
        values = table.take(row, axis=1, out=contrib, mode="clip")
        values *= T
        values -= after
        g_e = upstream.take(local, axis=1, out=after, mode="clip")
        del upstream, local
        values *= g_e
        # per-Gaussian values: color g_e * weight (rows 0-2) and opacity
        # dL_dalpha * raw (row 3), 0 where alpha was clamped
        dL_dalpha = values.sum(axis=0, initial=0.0, out=g_e[3])  # 0.0 + row 0 + row 1 ..
        color = g_e[:3]
        color *= weight
        dL_dalpha *= raw_all[e]
        dL_dalpha[blk["clamped"]] = 0.0
        index = iwork[0, :4 * m]  # the values' rows are spent: their memory as intp
        np.add(row, sum_rows, out=index.reshape(4, m))
        np.add.at(flat_sums, index, work[1, :4 * m])  # adds in entry order
    del work, iwork

    loss_rgb, loss_depth, loss_ins = (float(t.sum()) for t in terms)
    sel = trainable_idx
    grads = GaussianGradients(colors=sums[:3, sel].T.copy(), opacities=sums[3, sel])
    loss = loss_rgb + loss_depth + lam * loss_ins
    return loss, grads, {"rgb": loss_rgb, "depth": loss_depth, "ins": loss_ins}


def optimize_object(
    store: GaussianStore,
    object_id: int,
    frame: FrameBundle,
    trainable_idx: np.ndarray,
    config: PipelineConfig | None = None,
    skeleton: dict | None = None,
) -> list[float]:
    """Momentum descent on the trainable Gaussians of one object at one frame.

    `config` (default `PipelineConfig()`) sets the steps (`gaussian_iters`),
    the loss weight `lam` and the rates `lr_color` and `lr_opacity`.  Each
    step takes an RMS-normalized step per parameter group and rejects
    (reverts, halves the rate, resets momentum) any step that increases the
    loss, so the returned trace of accepted losses is non-increasing.  Each
    step evaluates once, at the trial point; a rejected step keeps the
    gradients it had.  Only the rows at `trainable_idx` are written.

    The Gaussians' geometry stays fixed, so every evaluation composites over
    one `footprint_skeleton` of the frame's camera: `skeleton` when given
    (built from a store with this store's geometry), else built here; a frame
    where nothing rasterizes gets a skeleton with no entries.
    """
    config = config or PipelineConfig()
    trainable_idx = np.asarray(trainable_idx, dtype=int)
    if len(trainable_idx) == 0:
        logger.warning("optimize_object %d: no trainable Gaussians, skipping", object_id)
        return []
    if skeleton is None:
        skeleton = footprint_skeleton(store, frame.camera)

    def loss_grads():
        return loss_and_gradients(store, trainable_idx, frame, lam=config.lam,
                                  object_id=object_id, skeleton=skeleton)[:2]

    sel = trainable_idx
    vel = {name: np.zeros((len(sel),) + getattr(store, name).shape[1:]) for name in TRAINABLE}
    lrs = {"colors": config.lr_color, "opacities": config.lr_opacity}
    scale_down = 1.0
    loss, grads = loss_grads()
    trace = [loss]

    for _ in range(config.gaussian_iters):
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
        new_loss, new_grads = loss_grads()
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
