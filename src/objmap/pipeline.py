"""Per-frame orchestration: associate, densify, optimize, evaluate, export.

The coordinator owns the object map and the Gaussian store.  Each frame is
processed as: associate detections to tracks (spawning / merging as needed),
periodically refine track quadrics against their observation histories, then
render, mask, densify and optimize the Gaussians of each masked object.
Gaussians carry track ids: each frame's instance segments are renamed to the
track ids of the detections that claim them (unclaimed ones are not mapped),
and a track merge moves the popped track's Gaussians to the keeper.
Per-object optimizations run against a frame-start snapshot and are committed
in ascending object id, so results are identical for any worker count.
"""

from __future__ import annotations

import json
import logging
import operator
import os
import time
import zipfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .association import STATUSES, AssocConfig, ObjectMap, ObjectTrack, associate_frame
from .errors import (
    BehindCameraError,
    DatasetError,
    DegenerateConicError,
    InvalidParameterError,
    UnoptimizableError,
)
from .frames import FrameBundle, relabel_instances
from .gaussians import (
    STORE_ARRAYS,
    TRAINABLE,
    DensifyConfig,
    GaussianStore,
    MaskThresholds,
    compute_update_masks,
    densify_from_mask,
    export_object_ply,
    select_trainable,
)
from .quadric_fit import OptimConfig, optimize_quadric
from .quadrics import DualQuadric, conic_to_bbox, iou_2d, iou_3d, project_to_conic
from .renderer import TrainConfig, render
from .simulator import load, quadric_from_json, quadric_to_json
from .simulator import dataset_cameras  # noqa: F401  (part of the pipeline API)

logger = logging.getLogger(__name__)


_AT_LEAST_0 = ("at least 0", lambda v: v >= 0)
_UNIT = ("in [0, 1]", lambda v: 0 <= v <= 1)

# allowed values of the numeric PipelineConfig fields; those not listed
# (learning rates, loss weight, distances, counts) must be at least 0
_RANGES = {
    **dict.fromkeys(
        ("iou_gate", "qd_accept", "t_thre", "merge_d", "merge_iou3d", "theta_alpha"), _UNIT
    ),
    "tau": ("above 0", lambda v: v > 0),
    **dict.fromkeys(("stride", "workers"), ("at least 1", lambda v: v >= 1)),
}


@dataclass
class PipelineConfig:
    """Every tunable of the mapping loop; serializable as flat JSON."""

    # association
    assoc_mode: str = "qd+iou"
    iou_gate: float = 0.3
    qd_accept: float = 0.6
    tau: float = 1.0
    t_thre: float = 0.85
    merge_d: float = 0.1
    merge_duplicate_raw: float = 0.1
    merge_iou3d: float = 0.2
    # update masks
    theta_alpha: float = 0.9
    theta_d: float = 0.1
    theta_c: float = 0.1
    include_background: bool = False
    # gaussians
    enable_gaussians: bool = True
    stride: int = 4
    max_new_per_frame: int = 0
    gaussian_iters: int = 30
    lam: float = 0.5
    lr_mean: float = 0.004
    lr_color: float = 0.04
    lr_opacity: float = 0.02
    train_all: bool = False
    # quadric optimization
    quadric_min_obs: int = 3
    quadric_every: int = 10
    quadric_iters: int = 60
    quadric_final_iters: int = 200
    yaw_only: bool = False
    # runtime
    workers: int = 1

    def assoc(self) -> AssocConfig:
        return AssocConfig(
            mode=self.assoc_mode,
            iou_gate=self.iou_gate,
            qd_accept=self.qd_accept,
            tau=self.tau,
            t_thre=self.t_thre,
            merge_d=self.merge_d,
            merge_duplicate_raw=self.merge_duplicate_raw,
            merge_iou3d=self.merge_iou3d,
        )

    def thresholds(self) -> MaskThresholds:
        return MaskThresholds(
            theta_alpha=self.theta_alpha,
            theta_d=self.theta_d,
            theta_c=self.theta_c,
            include_background=self.include_background,
        )

    def densify(self) -> DensifyConfig:
        return DensifyConfig(stride=self.stride, max_new_per_frame=self.max_new_per_frame)

    def training(self, iters: int | None = None) -> TrainConfig:
        return TrainConfig(
            iters=self.gaussian_iters if iters is None else iters,
            lam=self.lam,
            lr_mean=self.lr_mean,
            lr_color=self.lr_color,
            lr_opacity=self.lr_opacity,
        )

    def quadric_optim(self, iters: int | None = None) -> OptimConfig:
        return OptimConfig(
            max_iters=self.quadric_iters if iters is None else iters,
            yaw_only=self.yaw_only,
        )

    def to_json(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(asdict(self), f, indent=1, sort_keys=True)
            f.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "PipelineConfig":
        try:
            with open(path) as f:
                raw = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise InvalidParameterError(f"cannot read config {path}: {e}") from e
        return cls.from_dict(raw)

    def check(self) -> None:
        """Raise InvalidParameterError naming the first value out of range.

        Every float must be finite and every number lie in its `_RANGES`
        entry.  `run_pipeline` and `from_dict` call this, so a value set on a
        constructed config (as the CLI flags are) is checked too.
        """
        for name, f in self.__dataclass_fields__.items():
            value = getattr(self, name)
            kind = type(f.default)
            if kind is float and not np.isfinite(value):
                raise InvalidParameterError(f"config key {name!r} must be finite, got {value!r}")
            if kind in (int, float):
                text, ok = _RANGES.get(name, _AT_LEAST_0)
                if not ok(value):
                    raise InvalidParameterError(
                        f"config key {name!r} must be {text}, got {value!r}"
                    )

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        """Config from a flat dict.

        Raises InvalidParameterError on unknown keys, on values whose type
        differs from the field's (a bool is no int, an int is a float) and on
        values out of range (see `check`).
        """
        known = cls.__dataclass_fields__
        unknown = set(raw) - set(known)
        if unknown:
            raise InvalidParameterError(f"unknown config keys: {sorted(unknown)}")
        for name, value in raw.items():
            want = type(known[name].default)
            accepted = (int, float) if want is float else want
            if isinstance(value, bool) != (want is bool) or not isinstance(value, accepted):
                raise InvalidParameterError(
                    f"config key {name!r} must be {want.__name__}, got {value!r}"
                )
        config = cls(**raw)
        config.check()
        return config


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


def _ordered_map(fn, items: list, workers: int) -> list:
    """[fn(x) for x in items], on a thread pool when workers > 1 and there
    is more than one item; results come back in item order either way.
    """
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _optimize_dirty_tracks(obj_map: ObjectMap, dirty: list[int],
                           config: PipelineConfig, iters: int | None = None) -> None:
    """Refine quadrics of the given tracks; parallel-safe, committed by id."""
    tracks = [obj_map.tracks[t] for t in sorted(dirty) if t in obj_map.tracks]
    jobs = []
    for track in tracks:
        if track.quadric is None or len(track.observations) < config.quadric_min_obs:
            continue
        obs = [(o.bbox, o.camera) for o in track.observations]
        jobs.append((track, obs))

    def run(job):
        track, obs = job
        try:
            return optimize_quadric(track.quadric, obs, config.quadric_optim(iters))
        except UnoptimizableError as e:
            logger.warning("track %d: pose optimization failed (%s), continuing",
                           track.object_id, e)
            return None

    for (track, _), res in zip(jobs, _ordered_map(run, jobs, config.workers)):
        if res is not None and res.loss <= res.initial_loss:
            track.quadric = res.params.to_quadric()


def run_pipeline(dataset_dir: str, config: PipelineConfig | None = None):
    """Process a dataset; returns PipelineResult with per-frame logs.

    Raises InvalidParameterError when a config value is out of range.
    """
    config = config or PipelineConfig()
    config.check()
    obj_map = ObjectMap()
    store = GaussianStore()
    logs: list[FrameLog] = []
    assoc_cfg = config.assoc()
    thresholds = config.thresholds()
    densify_cfg = config.densify()

    for frame in load(dataset_dir):
        t0 = time.perf_counter()
        result = associate_frame(obj_map, frame, assoc_cfg)
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
            trainable_total = _map_frame(
                store, relabel_instances(frame, result.track_ids), config, thresholds, densify_cfg
            )
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

    if config.quadric_final_iters > 0:
        _optimize_dirty_tracks(
            obj_map, list(obj_map.tracks), config, iters=config.quadric_final_iters
        )
    return PipelineResult(object_map=obj_map, store=store, logs=logs, config=config)


def _map_frame(store: GaussianStore, frame: FrameBundle, config: PipelineConfig,
               thresholds: MaskThresholds, densify_cfg: DensifyConfig) -> int:
    """Render -> masks -> densify -> per-object optimize; returns trainable count.

    `frame.instance` holds track ids (see `relabel_instances`).
    """
    from .renderer import optimize_object  # looked up per call: tracing swaps it

    out = render(store, frame.camera, instance_ref=frame.instance)
    masks = compute_update_masks(frame, out, thresholds)
    store.extend(densify_from_mask(frame, masks, out, densify_cfg))

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

    # every object trains on its own copy of the frame-start store, which
    # nothing writes to until all jobs have returned; results are committed
    # in ascending id order so any worker count gives identical maps
    train_cfg = config.training()

    def run(k):
        local = store.copy()
        optimize_object(local, k, [frame], selections[k], train_cfg)
        return {name: getattr(local, name)[selections[k]] for name in TRAINABLE}

    order = sorted(selections)
    for k, trained in zip(order, _ordered_map(run, order, config.workers)):
        for name in TRAINABLE:
            getattr(store, name)[selections[k]] = trained[name]
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


def load_state(state_dir: str) -> PipelineResult:
    """Read a directory written by save_state.

    Raises DatasetError naming state.json when it is missing, is not JSON,
    lacks a required key (also in a track entry), carries config keys
    PipelineConfig does not know or config values of the wrong type, or holds
    non-integer ids or frames, an unknown track status, malformed frame logs,
    a duplicate track id or a track id outside [1, next_id); and naming
    gaussians.npz when it is not a readable archive, lacks a store array, its
    arrays differ in length or a Gaussian's object id is neither 0 nor a
    track id.
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
        logs = [FrameLog(**lg) for lg in state.get("frame_logs", [])]
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
                store = GaussianStore(**{name: data[name] for name in STORE_ARRAYS})
        # what a damaged archive raises from zipfile, zlib and numpy's reader
        except (KeyError, ValueError, EOFError, OSError, RuntimeError, NotImplementedError,
                zipfile.BadZipFile, zlib.error) as e:
            raise DatasetError(f"malformed Gaussian file {gz}: {e}") from e
        if len({len(getattr(store, name)) for name in STORE_ARRAYS}) > 1:
            raise DatasetError(f"malformed Gaussian file {gz}: arrays differ in length")
        stray = set(store.present_ids()) - {0} - set(obj_map.tracks)
        if stray:
            raise DatasetError(
                f"malformed Gaussian file {gz}: object ids {sorted(stray)} name no track"
            )
    return PipelineResult(object_map=obj_map, store=store, logs=logs, config=config)


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
    accuracy_cm: float | None = None
    completion_cm: float | None = None
    completion_ratio_pct: float | None = None
    track_count: int = 0
    gt_count: int = 0
    mean_tracking_seconds: float = 0.0
    mean_mapping_seconds: float = 0.0
    fps: float = 0.0

    def to_dict(self) -> dict:
        d = asdict(self)
        return d

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
        if self.accuracy_cm is not None:
            lines.append(
                f"recon: acc {self.accuracy_cm:.2f} cm  comp {self.completion_cm:.2f} cm  "
                f"ratio {self.completion_ratio_pct:.1f}%"
            )
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


def eval_recon(
    est_points: np.ndarray, gt_points: np.ndarray, threshold_cm: float = 5.0
) -> tuple[float, float, float]:
    """(Accuracy cm, Completion cm, Completion-Ratio %) via exact NN search."""
    from scipy.spatial import cKDTree  # deferred: mapping needs no SciPy

    est = np.asarray(est_points, dtype=float)
    gt = np.asarray(gt_points, dtype=float)
    if len(est) == 0 or len(gt) == 0:
        raise InvalidParameterError("eval_recon requires non-empty point sets")
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
