"""Persistent object map and coarse-to-fine 3D-2D association.

Per frame: live tracks are projected to image boxes and gated against
detections by class and 2D IoU (coarse); surviving pairs are re-checked by
the quadric-distance similarity between the track and a provisional quadric
initialized from the detection (fine).  Unmatched detections spawn new
tracks, and an occlusion pass merges redundant tracks of the same class
whose current projections are nested.

Track ids are the only object ids.  `associate_frame` reports each
detection's track id after the frame's merges, so the caller can rename the
frame's instance segments, which may change ids from frame to frame.

Two merge routes are tried for every same-class pair:
  - fragment: the nested track's quadric is very DISSIMILAR (similarity
    below `merge_d`), the signature of a piece of an occlusion-split object;
  - duplicate: the two quadrics describe the same volume (near-zero raw
    distance, overlapping ellipsoid boxes, or one center inside the other's
    box), the signature of a twin hypothesis of one object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BehindCameraError,
    CannotInitializeError,
    DegenerateConicError,
    InvalidParameterError,
)
from .frames import Detection2D, FrameBundle, bbox_pixel_rect, dominant_instance_id
from .quadrics import (
    BBox2D,
    CameraModel,
    DualQuadric,
    conic_to_bbox,
    iou_2d,
    iou_3d,
    project_to_conic,
    quadric_distance,
    quadric_raw_distance,
)

MODES = ("iou", "qd", "qd+iou")

STATUS_CANDIDATE = "candidate"
STATUS_INITIALIZED = "initialized"
STATUS_STABLE = "stable"
STATUSES = (STATUS_CANDIDATE, STATUS_INITIALIZED, STATUS_STABLE)
STABLE_OBS = 5  # observations after which an initialized track counts as stable


@dataclass
class AssocConfig:
    mode: str = "qd+iou"
    iou_gate: float = 0.3
    qd_accept: float = 0.6
    tau: float = 1.0
    t_thre: float = 0.85
    merge_d: float = 0.1
    merge_duplicate_raw: float = 0.1
    merge_iou3d: float = 0.2

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidParameterError(f"association mode must be one of {MODES}")


@dataclass
class TrackObservation:
    frame_index: int
    bbox: BBox2D
    camera: CameraModel
    depth_hint: float = 0.0


@dataclass
class ObjectTrack:
    object_id: int
    class_id: int
    quadric: DualQuadric | None = None
    observations: list[TrackObservation] = field(default_factory=list)
    status: str = STATUS_CANDIDATE
    last_seen: int = -1

    def add_observation(self, obs: TrackObservation) -> None:
        self.observations.append(obs)
        self.last_seen = obs.frame_index
        if self.quadric is not None:
            self.status = (
                STATUS_STABLE if len(self.observations) >= STABLE_OBS else STATUS_INITIALIZED
            )


@dataclass
class AssociationResult:
    matches: list[tuple[int, int]] = field(default_factory=list)
    new_tracks: list[int] = field(default_factory=list)
    merges: list[tuple[int, int]] = field(default_factory=list)
    track_ids: list[int] = field(default_factory=list)  # per detection, after merges


class ObjectMap:
    """Track registry; ids are serial and unique forever (popped ids are never reused)."""

    def __init__(self):
        self.tracks: dict[int, ObjectTrack] = {}
        self._next_id = 1

    def new_track(self, class_id: int) -> ObjectTrack:
        track = ObjectTrack(object_id=self._next_id, class_id=class_id)
        self.tracks[track.object_id] = track
        self._next_id += 1
        return track

    def pop_track(self, object_id: int) -> ObjectTrack:
        return self.tracks.pop(object_id)

    def live_tracks(self) -> list[ObjectTrack]:
        return [self.tracks[i] for i in sorted(self.tracks)]

    def __len__(self) -> int:
        return len(self.tracks)


def initialize_track(
    detections: list[tuple[BBox2D, CameraModel]],
    depth_hints: float | list[float] | None = None,
) -> DualQuadric:
    """Initial quadric from one or more (bbox, camera) observations.

    Single view: bbox center back-projected at the depth hint.  Two views:
    midpoint of closest approach of the two center rays (fallback to the
    depth hint when near-parallel).  Three or more views with hints: the
    component-wise median of the single-view estimates, which shrugs off
    occlusion slivers in the history.  Semi-axes come from the per-view
    pixel extents scaled by depth over focal length (median across views,
    z extent = mean of x and y); rotation starts at identity.  Raises
    CannotInitializeError when underconstrained.
    """
    if not detections:
        raise CannotInitializeError("no observations")
    n = len(detections)
    if depth_hints is None:
        hints = [0.0] * n
    elif np.isscalar(depth_hints):
        hints = [float(depth_hints)] * n
    else:
        hints = [float(h) for h in depth_hints]
        if len(hints) != n:
            raise CannotInitializeError("depth_hints length mismatch")

    center = None
    singles = [
        cam.backproject(np.array([bbox.center]), np.array([hint]))[0]
        for (bbox, cam), hint in zip(detections, hints)
        if hint > 0
    ]
    if n >= 3 and len(singles) >= 3:
        center = np.median(np.asarray(singles), axis=0)
    if center is None and n >= 2:
        center = _triangulate_center(detections)
    if center is None and singles:
        center = singles[0]
    if center is None:
        raise CannotInitializeError(
            "need a positive depth hint or two views with a usable baseline"
        )

    sx_all, sy_all = [], []
    for bbox, cam in detections:
        z = cam.to_camera(center)[0, 2]
        if z <= 0:
            continue
        sx_all.append(bbox.width / 2.0 * z / cam.fx)
        sy_all.append(bbox.height / 2.0 * z / cam.fy)
    if not sx_all:
        raise CannotInitializeError("estimated center is behind every observing camera")
    sx = float(np.median(sx_all))
    sy = float(np.median(sy_all))
    sz = 0.5 * (sx + sy)
    axes = np.maximum([sx, sy, sz], 1e-4)
    return DualQuadric(center, np.eye(3), axes)


def _triangulate_center(
    detections: list[tuple[BBox2D, CameraModel]], min_sin: float = 5e-3
) -> np.ndarray | None:
    """Closest-approach midpoint of two bbox-center rays, None if degenerate."""
    rays = []
    for bbox, cam in detections:
        d = cam.pixel_rays(np.array([bbox.center]))[0]
        rays.append((cam.translation, d))
    order = [(0, len(rays) - 1)] + [
        (i, j) for i in range(len(rays)) for j in range(i + 1, len(rays))
    ]
    for i, j in order:
        o1, d1 = rays[i]
        o2, d2 = rays[j]
        b = d1 @ d2
        denom = 1.0 - b * b  # sin^2 of the ray angle
        if denom < min_sin**2:
            continue
        w0 = o1 - o2
        d = d1 @ w0
        e = d2 @ w0
        t1 = (b * e - d) / denom
        t2 = (e - b * d) / denom
        if t1 <= 0 or t2 <= 0:
            continue
        return 0.5 * (o1 + t1 * d1 + o2 + t2 * d2)
    return None


def _project_track(track: ObjectTrack, camera: CameraModel) -> BBox2D | None:
    """Current-frame box for a track: projected quadric, else last seen bbox."""
    if track.quadric is not None:
        try:
            return conic_to_bbox(project_to_conic(track.quadric, camera))
        except (BehindCameraError, DegenerateConicError):
            return None
    if track.observations:
        return track.observations[-1].bbox
    return None


def center_depth_hint(frame: FrameBundle, bbox: BBox2D, min_pixels: int = 6) -> float:
    """Estimated depth of the OBJECT CENTER behind a detection box.

    Depth samples come from the segment the detection owns (its dominant
    nonzero instance id) when the frame carries instance labels (the usual
    case: instance frames are a system input), which keeps occluder and
    background pixels out of the estimate.  The median measures the visible
    front surface; the center sits about 0.7 box-implied radii further away.
    """
    x0, x1, y0, y1 = bbox_pixel_rect(frame, bbox)
    depth = frame.depth[y0:y1, x0:x1]
    depths = None
    segment = dominant_instance_id(frame, bbox)
    if segment > 0:
        sel = depth[(frame.instance[y0:y1, x0:x1] == segment) & (depth > 0)]
        if sel.size >= min_pixels:
            depths = sel
    if depths is None:
        depths = depth[depth > 0]
    if depths.size == 0:
        return 0.0
    surface = float(np.median(depths))
    size = 0.25 * (bbox.width / frame.camera.fx + bbox.height / frame.camera.fy) * surface
    # the area-median depth of a convex front surface sits ~0.7 radii ahead
    # of the center (exact for a sphere)
    return surface + 0.707 * size


def _observation_quadric(
    det: Detection2D, camera: CameraModel, hint: float
) -> DualQuadric | None:
    if hint <= 0:
        return None
    try:
        return initialize_track([(det.bbox, camera)], hint)
    except CannotInitializeError:
        return None


def associate_frame(
    obj_map: ObjectMap, frame: FrameBundle, config: AssocConfig
) -> AssociationResult:
    """Run one frame of coarse-to-fine association and occlusion merging."""
    result = AssociationResult()
    dets = frame.detections
    if not dets and len(obj_map) == 0:
        return result
    track_ids = [0] * len(dets)
    # one center depth per detection, read by the fine filter and the commit
    hints = [center_depth_hint(frame, det.bbox) for det in dets]

    tracks = obj_map.live_tracks()
    proj: dict[int, BBox2D] = {}
    for track in tracks:
        box = _project_track(track, frame.camera)
        if box is not None:
            proj[track.object_id] = box

    obs_quadric: dict[int, DualQuadric | None] = {}

    def get_obs_quadric(d_idx: int) -> DualQuadric | None:
        if d_idx not in obs_quadric:
            obs_quadric[d_idx] = _observation_quadric(dets[d_idx], frame.camera, hints[d_idx])
        return obs_quadric[d_idx]

    # coarse candidates: (score, track_id, det_idx)
    candidates: list[tuple[float, int, int]] = []
    for track in tracks:
        tid = track.object_id
        if tid not in proj:
            continue
        for d_idx, det in enumerate(dets):
            if det.class_id != track.class_id:
                continue
            if config.mode in ("iou", "qd+iou"):
                overlap = iou_2d(proj[tid], det.bbox)
                if overlap < config.iou_gate:
                    continue
                candidates.append((overlap, tid, d_idx))
            else:  # qd only: rank every same-class pair by QD
                if track.quadric is None:
                    continue
                obs_q = get_obs_quadric(d_idx)
                if obs_q is None:
                    continue
                qd = quadric_distance(obs_q, track.quadric, config.tau)
                candidates.append((qd, tid, d_idx))

    # greedy one-to-one in descending score; the fine filter rejects pairs,
    # leaving both track and detection available for later candidates
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    used_tracks: set[int] = set()
    used_dets: set[int] = set()
    for score, tid, d_idx in candidates:
        if tid in used_tracks or d_idx in used_dets:
            continue
        track = obj_map.tracks[tid]
        if config.mode == "qd+iou" and track.quadric is not None:
            obs_q = get_obs_quadric(d_idx)
            if obs_q is not None:
                qd = quadric_distance(obs_q, track.quadric, config.tau)
                if qd < config.qd_accept:
                    continue  # rejected pair; both sides stay available
        elif config.mode == "qd" and score < config.qd_accept:
            continue
        used_tracks.add(tid)
        used_dets.add(d_idx)
        result.matches.append((tid, d_idx))
        track_ids[d_idx] = tid

    # commit matches
    for tid, d_idx in result.matches:
        track = obj_map.tracks[tid]
        track.add_observation(
            TrackObservation(frame.index, dets[d_idx].bbox, frame.camera, hints[d_idx]))
        if track.quadric is None:
            _try_initialize(track)

    # unmatched detections become new candidate tracks
    for d_idx, det in enumerate(dets):
        if d_idx in used_dets:
            continue
        track = obj_map.new_track(det.class_id)
        track.add_observation(
            TrackObservation(frame.index, det.bbox, frame.camera, hints[d_idx]))
        _try_initialize(track)
        result.new_tracks.append(d_idx)
        track_ids[d_idx] = track.object_id

    if config.mode in ("qd", "qd+iou"):
        result.merges = merge_occluded(obj_map, frame, config)
    # in merge order, so a keeper popped later passes its detections on
    for keeper, popped in result.merges:
        track_ids = [keeper if t == popped else t for t in track_ids]
    result.track_ids = track_ids
    return result


def _try_initialize(track: ObjectTrack) -> None:
    obs = track.observations
    try:
        track.quadric = initialize_track(
            [(o.bbox, o.camera) for o in obs], [o.depth_hint for o in obs]
        )
        track.status = STATUS_INITIALIZED
    except CannotInitializeError:
        track.quadric = None
        track.status = STATUS_CANDIDATE


def merge_occluded(
    obj_map: ObjectMap, frame: FrameBundle, config: AssocConfig
) -> list[tuple[int, int]]:
    """Pop redundant same-class tracks (occlusion fragments and twins).

    Two routes, the duplicate one tried first for each pair:
      - fragment: projections nest this frame (for the pair with
        Area(box_j) < Area(box_i), t = overlap / Area(box_j) exceeds t_thre)
        and the quadrics are very dissimilar (QD similarity < merge_d) --
        the signature of a piece of an occlusion-split object;
      - duplicate: the ellipsoids overlap substantially in 3D
        (iou_3d > merge_iou3d, or raw distance < merge_duplicate_raw) --
        two hypotheses of one object, which distinct rigid neighbors of the
        same class never produce.
    The survivor keeps the union of both observation histories and its
    quadric is re-initialized from it.  Returns the (keeper, popped) pairs
    in merge order; a keeper may be popped by a later pair.
    """
    merges: list[tuple[int, int]] = []
    live = [t for t in obj_map.live_tracks() if t.quadric is not None]
    proj = {}
    for track in live:
        box = _project_track(track, frame.camera)
        if box is not None:
            proj[track.object_id] = box

    removed: set[int] = set()
    for tj in live:
        j = tj.object_id
        if j in removed:
            continue
        best_i = None
        for ti in live:
            i = ti.object_id
            if i == j or i in removed:
                continue
            if ti.class_id != tj.class_id:
                continue
            raw = quadric_raw_distance(tj.quadric, ti.quadric)
            # a same-class track whose center falls inside the other's
            # ellipsoid box is a second hypothesis of the same object
            center_inside = bool(
                ti.quadric.contains(tj.quadric.center[None, :])[0]
                or tj.quadric.contains(ti.quadric.center[None, :])[0]
            )
            if (
                raw < config.merge_duplicate_raw
                or center_inside
                or iou_3d(tj.quadric, ti.quadric) > config.merge_iou3d
            ):
                best_i = i
                break
            if i not in proj or j not in proj:
                continue
            area_i, area_j = proj[i].area, proj[j].area
            if not area_j < area_i or area_j <= 0:
                continue
            bi, bj = proj[i], proj[j]
            ix = min(bi.x_max, bj.x_max) - max(bi.x_min, bj.x_min)
            iy = min(bi.y_max, bj.y_max) - max(bi.y_min, bj.y_min)
            overlap = max(0.0, ix) * max(0.0, iy)
            t_score = overlap / area_j
            if t_score <= config.t_thre:
                continue
            qd = quadric_distance(tj.quadric, ti.quadric, config.tau)
            if qd < config.merge_d:
                best_i = i
                break
        if best_i is not None:
            # survivor = the track with the longer history (tie: older id);
            # keeps object identity stable when a fresh twin triggers a merge
            a, b = obj_map.tracks[best_i], obj_map.tracks[j]
            if (len(b.observations), -b.object_id) > (len(a.observations), -a.object_id):
                a, b = b, a
            keeper, popped_track = a, b
            popped = obj_map.pop_track(popped_track.object_id)
            removed.add(popped_track.object_id)
            keeper.observations.extend(popped.observations)
            keeper.observations.sort(key=lambda o: o.frame_index)
            keeper.last_seen = max(keeper.last_seen, popped.last_seen)
            _try_initialize(keeper)
            merges.append((keeper.object_id, popped.object_id))
    return merges
