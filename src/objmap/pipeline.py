"""Per-frame orchestration: associate, densify, optimize, evaluate, export.

The coordinator owns the object map and the Gaussian store.  Each frame is
processed as: associate detections to tracks (spawning / merging as needed),
periodically refine track quadrics against their observation histories, then
render, mask, densify and optimize the Gaussians of each masked object.
Gaussians carry track ids: each frame's instance segments are renamed to the
track ids of the detections that claim them (unclaimed ones are not mapped),
and a track merge moves the popped track's Gaussians to the keeper.
Everything runs on the calling thread.  Each object of a frame trains in
place on the one store and then gets its frame-start colours and opacities
back; the trained values are committed only once every object has trained,
so no object's result depends on another's this frame.
"""

from __future__ import annotations

import json
import logging
import math
import operator
import os
import time
import zipfile
import zlib
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .association import STATUSES, ObjectMap, ObjectTrack, associate_frame
from .config import PipelineConfig
from .errors import (
    BehindCameraError,
    DatasetError,
    DegenerateConicError,
    InvalidParameterError,
    UnoptimizableError,
)
from .frames import FrameBundle, relabel_instances
from .gaussians import (
    KIND_OPAQUE,
    KIND_TRANSPARENT,
    STORE_ARRAYS,
    TRAINABLE,
    GaussianStore,
    compute_update_masks,
    densify_from_mask,
    export_object_ply,
    select_trainable,
)
from .quadric_fit import optimize_quadric
from .quadrics import DualQuadric, conic_to_bbox, iou_2d, iou_3d, project_to_conic
from .renderer import footprint_skeleton, render
from .simulator import load, quadric_from_json, quadric_to_json
from .simulator import dataset_cameras  # noqa: F401  (part of the pipeline API)

logger = logging.getLogger(__name__)


@dataclass
class FrameLog:
    index: int
    matches: int
    new_tracks: int
    merges: int
    live_tracks: int
    gaussians: int
    trainable: int
    assoc_seconds: float
    quadric_seconds: float
    mapping_seconds: float


@dataclass
class PipelineResult:
    object_map: ObjectMap
    store: GaussianStore
    logs: list[FrameLog]
    config: PipelineConfig

    def track_count(self) -> int:
        return len(self.object_map)


def _optimize_dirty_tracks(obj_map: ObjectMap, dirty: list[int],
                           config: PipelineConfig, iters: int | None = None) -> None:
    """Refine quadrics of the given tracks in ascending id.

    A refinement reads only its own track, so committing each one before
    the next runs changes no other track's result."""
    for tid in sorted(set(dirty)):
        track = obj_map.tracks.get(tid)
        if (track is None or track.quadric is None
                or len(track.observations) < config.quadric_min_obs):
            continue
        obs = [(o.bbox, o.camera) for o in track.observations]
        try:
            res = optimize_quadric(track.quadric, obs, config.quadric_optim(iters))
        except UnoptimizableError as e:
            logger.warning("track %d: pose optimization failed (%s), continuing",
                           track.object_id, e)
            continue
        if res.loss <= res.initial_loss:
            track.quadric = res.params.to_quadric()


def run_pipeline(dataset_dir: str, config: PipelineConfig | None = None):
    """Process a dataset; returns PipelineResult with per-frame logs."""
    config = config or PipelineConfig()
    obj_map = ObjectMap()
    store = GaussianStore()
    logs: list[FrameLog] = []

    for frame in load(dataset_dir):
        t0 = time.perf_counter()
        result = associate_frame(obj_map, frame, config)
        for keeper, popped in result.merges:
            store.rewrite_object_id(popped, keeper)
        t_assoc = time.perf_counter() - t0

        t0 = time.perf_counter()
        if config.quadric_every > 0 and frame.index % config.quadric_every == config.quadric_every - 1:
            dirty = [tid for tid, _ in result.matches]
            _optimize_dirty_tracks(obj_map, dirty, config)
        t_quadric = time.perf_counter() - t0

        t0 = time.perf_counter()
        trainable_total = 0
        if config.enable_gaussians:
            trainable_total = _map_frame(store, relabel_instances(frame, result.track_ids), config)
        t_map = time.perf_counter() - t0

        logs.append(
            FrameLog(
                index=frame.index,
                matches=len(result.matches),
                new_tracks=len(result.new_tracks),
                merges=len(result.merges),
                live_tracks=len(obj_map),
                gaussians=len(store),
                trainable=trainable_total,
                assoc_seconds=t_assoc,
                quadric_seconds=t_quadric,
                mapping_seconds=t_map,
            )
        )
        # released before the next frame is decoded, so two frames are never alive at once
        del frame, result

    if config.quadric_final_iters > 0:
        _optimize_dirty_tracks(
            obj_map, list(obj_map.tracks), config, iters=config.quadric_final_iters
        )
    return PipelineResult(object_map=obj_map, store=store, logs=logs, config=config)


def _map_frame(store: GaussianStore, frame: FrameBundle, config: PipelineConfig) -> int:
    """Render -> masks -> densify -> per-object optimize; returns trainable count.

    `frame.instance` holds track ids (see `relabel_instances`).
    """
    from .renderer import optimize_object  # looked up per call: tracing swaps it

    out = render(store, frame.camera, instance_ref=frame.instance)
    masks = compute_update_masks(frame, out, config)
    store.extend(densify_from_mask(frame, masks, out, config))

    if config.train_all:
        # ablation mode: every object's gaussians train every frame
        object_ids = sorted(k for k in store.present_ids() if k != 0 or config.include_background)
    else:
        object_ids = sorted(k for k in masks.per_object if k != 0 or config.include_background)
    selections: dict[int, np.ndarray] = {}
    for k in object_ids:
        if config.train_all:
            sel = store.object_indices(k)
        else:
            sel = select_trainable(store, masks, k, frame.camera)
        if len(sel):
            selections[k] = sel
    del out, masks  # the frame-start render is not needed while the objects train

    # every object trains, in ascending id, on `store` itself and then gets
    # its frame-start colours and opacities back; the selections are
    # disjoint and training writes only the selected rows, so every object
    # sees the frame-start store, and the trained rows are committed only
    # once every object has trained.  The map therefore does not depend on
    # the training order.  The geometry is fixed, so the objects share one
    # footprint skeleton of that store.
    skeleton = footprint_skeleton(store, frame.camera) if selections else None
    trained = []
    for k, sel in selections.items():
        start = [getattr(store, name)[sel] for name in TRAINABLE]
        optimize_object(store, k, frame, sel, config, skeleton=skeleton)
        trained.append((sel, [getattr(store, name)[sel] for name in TRAINABLE]))
        for name, value in zip(TRAINABLE, start):
            getattr(store, name)[sel] = value
    for sel, values in trained:
        for name, value in zip(TRAINABLE, values):
            getattr(store, name)[sel] = value
    return sum(len(s) for s in selections.values())


# ---------------------------------------------------------------------------
# State serialization


def save_state(result: PipelineResult, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    tracks = []
    for track in result.object_map.live_tracks():
        entry = {
            "object_id": track.object_id,
            "class_id": track.class_id,
            "status": track.status,
            "last_seen": track.last_seen,
            "n_observations": len(track.observations),
        }
        if track.quadric is not None:
            entry.update(quadric_to_json(track.quadric))
        tracks.append(entry)
    state = {
        "tracks": tracks,
        "next_id": result.object_map._next_id,
        "config": asdict(result.config),
        "frame_logs": [asdict(lg) for lg in result.logs],
    }
    with open(os.path.join(out_dir, "state.json"), "w") as f:
        json.dump(state, f, indent=1, sort_keys=True)
        f.write("\n")
    s = result.store
    np.savez(
        os.path.join(out_dir, "gaussians.npz"),
        **{name: getattr(s, name) for name in STORE_ARRAYS},
    )
    return out_dir


def _frame_log(raw: dict) -> FrameLog:
    """A saved frame log: counts must be integers and timings finite reals
    of at least 0 (a bool is no timing); raises TypeError or ValueError."""
    log = FrameLog(**raw)
    for f in fields(FrameLog):
        value = getattr(log, f.name)
        if not f.name.endswith("_seconds"):
            setattr(log, f.name, operator.index(value))
        elif (isinstance(value, bool) or not isinstance(value, (int, float))
              or not (math.isfinite(value) and value >= 0)):
            raise ValueError(f"frame log {f.name} must be a finite number >= 0, got {value!r}")
    return log


def load_state(state_dir: str) -> PipelineResult:
    """Read a directory written by save_state.

    Raises DatasetError naming state.json when it is missing, is not JSON,
    lacks a required key (also in a track entry), carries config keys
    PipelineConfig does not know or config values it refuses (see
    `PipelineConfig.from_dict`), or holds
    non-integer ids or frames, an unknown track status, a frame log with an
    unknown key, a non-integer count or a timing that is not a finite real
    of at least 0, a duplicate track id or a track id outside [1, next_id);
    and naming gaussians.npz when it is not a readable archive, lacks a store
    array, its arrays differ in length, a Gaussian's object id is neither 0
    nor a track id, or it holds a value the mapper never writes: an object
    id or kind that is not an integer the store's int32 ids and uint8 kinds
    hold exactly, a kind other than opaque (0) or transparent (1), a mean
    or quaternion that is not finite, a scale that is not finite and
    positive, or an opacity or colour outside [0, 1].
    """
    path = os.path.join(state_dir, "state.json")
    if not os.path.isfile(path):
        raise DatasetError(f"missing state file: {path}")
    obj_map = ObjectMap()
    try:
        with open(path) as f:
            state = json.load(f)
        entries = state["tracks"]
        obj_map._next_id = operator.index(state["next_id"])
        logs = [_frame_log(lg) for lg in state.get("frame_logs", [])]
        config = PipelineConfig.from_dict(state.get("config", {}))
        for entry in entries:
            track = ObjectTrack(
                object_id=operator.index(entry["object_id"]),
                class_id=operator.index(entry["class_id"]),
                status=entry["status"],
                last_seen=operator.index(entry["last_seen"]),
            )
            if track.status not in STATUSES:
                raise ValueError(f"unknown track status {track.status!r}")
            if track.object_id in obj_map.tracks:
                raise ValueError(f"duplicate track id {track.object_id}")
            if not 0 < track.object_id < obj_map._next_id:
                raise ValueError(
                    f"track id {track.object_id} outside [1, next_id={obj_map._next_id})"
                )
            if "center" in entry:
                track.quadric = quadric_from_json(entry)
            obj_map.tracks[track.object_id] = track
    # JSON and config errors included
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise DatasetError(f"malformed state file {path}: {e}") from e
    store = GaussianStore()
    gz = os.path.join(state_dir, "gaussians.npz")
    if os.path.isfile(gz):
        try:
            with np.load(gz) as data:
                store = _checked_store({name: data[name] for name in STORE_ARRAYS})
        # what a damaged archive raises from zipfile, zlib and numpy's reader
        except (KeyError, ValueError, EOFError, OSError, RuntimeError, NotImplementedError,
                zipfile.BadZipFile, zlib.error) as e:
            raise DatasetError(f"malformed Gaussian file {gz}: {e}") from e
        stray = set(store.present_ids()) - {0} - set(obj_map.tracks)
        if stray:
            raise DatasetError(
                f"malformed Gaussian file {gz}: object ids {sorted(stray)} name no track"
            )
    return PipelineResult(object_map=obj_map, store=store, logs=logs, config=config)


def _checked_store(arrays: dict) -> GaussianStore:
    """The store of `arrays`; ValueError when their lengths differ or they
    hold a value the mapper never writes (see `load_state`)."""
    for name in ("object_ids", "kinds"):
        if arrays[name].dtype.kind not in "iu":
            raise ValueError(f"{name} hold {arrays[name].dtype} values, not integers")
    store = GaussianStore(**arrays)
    if len({len(getattr(store, name)) for name in STORE_ARRAYS}) > 1:
        raise ValueError("arrays differ in length")
    kinds = arrays["kinds"].reshape(-1)  # before uint8 wraps 256 to 0
    rules = (
        ("object_ids", store.object_ids == arrays["object_ids"].reshape(-1), "int32"),
        ("kinds", (kinds == KIND_OPAQUE) | (kinds == KIND_TRANSPARENT),
         f"{KIND_OPAQUE} (opaque) or {KIND_TRANSPARENT} (transparent)"),
        ("means", np.isfinite(store.means), "finite"),
        ("quats", np.isfinite(store.quats), "finite"),
        ("scales", (store.scales > 0) & (store.scales < np.inf), "finite and positive"),
        ("opacities", (store.opacities >= 0) & (store.opacities <= 1), "in [0, 1]"),
        ("colors", (store.colors >= 0) & (store.colors <= 1), "in [0, 1]"),
    )
    for name, ok, rule in rules:
        if not ok.all():
            value = arrays[name].reshape(-1)[np.argmin(ok.reshape(-1))]
            raise ValueError(f"{name} hold {value}, not {rule}")
    return store


# ---------------------------------------------------------------------------
# Evaluation


@dataclass
class ObjectPoseEval:
    gt_id: int
    track_id: int | None
    iou_3d: float
    iou_2d: float
    cde_cm: float | None


@dataclass
class EvalReport:
    per_object: list[ObjectPoseEval] = field(default_factory=list)
    mean_iou_3d: float = 0.0
    mean_iou_2d: float = 0.0
    mean_cde_cm: float = 0.0
    track_count: int = 0
    gt_count: int = 0
    mean_tracking_seconds: float = 0.0
    mean_mapping_seconds: float = 0.0
    fps: float = 0.0

    def table(self) -> str:
        lines = ["object  track   3D-IoU   2D-IoU   CDE(cm)"]
        for o in self.per_object:
            cde = f"{o.cde_cm:8.2f}" if o.cde_cm is not None else "    miss"
            tid = f"{o.track_id:5d}" if o.track_id is not None else " none"
            lines.append(f"{o.gt_id:6d}  {tid}  {o.iou_3d:7.3f}  {o.iou_2d:7.3f}  {cde}")
        lines.append(
            f"mean    3D-IoU {self.mean_iou_3d:.3f}  2D-IoU {self.mean_iou_2d:.3f}  "
            f"CDE {self.mean_cde_cm:.2f} cm"
        )
        lines.append(f"tracks {self.track_count} vs GT {self.gt_count}")
        if self.fps > 0:
            lines.append(
                f"runtime: tracking {self.mean_tracking_seconds*1e3:.1f} ms/frame  "
                f"mapping {self.mean_mapping_seconds*1e3:.1f} ms/frame  {self.fps:.2f} fps"
            )
        return "\n".join(lines)


def _visible_bbox(quadric: DualQuadric, camera) -> object | None:
    try:
        box = conic_to_bbox(project_to_conic(quadric, camera))
    except (BehindCameraError, DegenerateConicError):
        return None
    if box.x_max < 0 or box.y_max < 0 or box.x_min > camera.width or box.y_min > camera.height:
        return None
    return box


def eval_pose(result: PipelineResult, gt: dict, cameras: list) -> EvalReport:
    """Greedy 3D-IoU matching of tracks to GT, then pose metrics.

    Unmatched GT objects count as misses with IoU 0 and no CDE; mean CDE
    averages matched objects only.
    """
    tracks = [t for t in result.object_map.live_tracks() if t.quadric is not None]
    gt_objects = gt["objects"]
    pairs = []
    for g in gt_objects:
        for t in tracks:
            pairs.append((iou_3d(g["quadric"], t.quadric), g["id"], t.object_id))
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    matched_gt: dict[int, tuple[int, float]] = {}  # gt id -> (track id, 3D IoU)
    used_tracks: set[int] = set()
    for score, gid, tid in pairs:
        if gid in matched_gt or tid in used_tracks or score <= 0.0:
            continue
        matched_gt[gid] = (tid, score)
        used_tracks.add(tid)

    track_by_id = {t.object_id: t for t in tracks}
    per_object = []
    for g in gt_objects:
        gid = g["id"]
        if gid not in matched_gt:
            per_object.append(ObjectPoseEval(gid, None, 0.0, 0.0, None))
            continue
        tid, i3 = matched_gt[gid]
        tq = track_by_id[tid].quadric
        i2s = []
        for cam in cameras:
            gt_box = _visible_bbox(g["quadric"], cam)
            if gt_box is None:
                continue
            est_box = _visible_bbox(tq, cam)
            i2s.append(0.0 if est_box is None else iou_2d(gt_box, est_box))
        i2 = float(np.mean(i2s)) if i2s else 0.0
        cde = float(np.linalg.norm(np.asarray(g["quadric"].center) - tq.center) * 100.0)
        per_object.append(ObjectPoseEval(gid, tid, i3, i2, cde))

    cdes = [o.cde_cm for o in per_object if o.cde_cm is not None]
    report = EvalReport(
        per_object=per_object,
        mean_iou_3d=float(np.mean([o.iou_3d for o in per_object])) if per_object else 0.0,
        mean_iou_2d=float(np.mean([o.iou_2d for o in per_object])) if per_object else 0.0,
        mean_cde_cm=float(np.mean(cdes)) if cdes else 0.0,
        track_count=result.track_count(),
        gt_count=len(gt_objects),
    )
    if result.logs:
        t_track = float(np.mean([lg.assoc_seconds + lg.quadric_seconds for lg in result.logs]))
        t_map = float(np.mean([lg.mapping_seconds for lg in result.logs]))
        report.mean_tracking_seconds = t_track
        report.mean_mapping_seconds = t_map
        total = t_track + t_map
        report.fps = 1.0 / total if total > 0 else 0.0
    return report


def check_threshold_cm(threshold_cm: float) -> None:
    """Raise InvalidParameterError unless threshold_cm is finite and above 0."""
    if not (math.isfinite(threshold_cm) and threshold_cm > 0):
        raise InvalidParameterError(
            f"threshold_cm must be finite and above 0, got {threshold_cm!r}"
        )


def eval_recon(
    est_points: np.ndarray, gt_points: np.ndarray, threshold_cm: float = 5.0
) -> tuple[float, float, float]:
    """(Accuracy cm, Completion cm, Completion-Ratio %) via exact NN search.

    Raises InvalidParameterError when a point set is empty or the threshold
    is not a finite number above 0.
    """
    from scipy.spatial import cKDTree  # deferred: mapping needs no SciPy

    est = np.asarray(est_points, dtype=float)
    gt = np.asarray(gt_points, dtype=float)
    if len(est) == 0 or len(gt) == 0:
        raise InvalidParameterError("eval_recon requires non-empty point sets")
    check_threshold_cm(threshold_cm)
    d_est_gt = cKDTree(gt).query(est, k=1)[0]
    d_gt_est = cKDTree(est).query(gt, k=1)[0]
    accuracy = float(d_est_gt.mean() * 100.0)
    completion = float(d_gt_est.mean() * 100.0)
    ratio = float(np.mean(d_gt_est * 100.0 < threshold_cm) * 100.0)
    return accuracy, completion, ratio


def export_objects(result: PipelineResult, out_dir: str) -> dict:
    """One PLY per live track plus a manifest; returns the manifest dict."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"objects": []}
    for track in result.object_map.live_tracks():
        k = track.object_id
        ply_name = f"object_{k:03d}.ply"
        count = export_object_ply(result.store, k, os.path.join(out_dir, ply_name))
        entry = {"id": k, "class_id": track.class_id, "gaussians": count, "ply": ply_name}
        if track.quadric is not None:
            entry.update(quadric_to_json(track.quadric))
        manifest["objects"].append(entry)
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")
    return manifest
