import io
import json
import os
import shutil
import threading
import tracemalloc
import weakref
from copy import deepcopy
from dataclasses import asdict, replace

import numpy as np
import pytest

import objmap.pipeline as pipeline
import objmap.renderer as renderer
from objmap.cli import main as cli_main
from objmap.errors import DatasetError, InvalidParameterError
from objmap.gaussians import (
    STORE_ARRAYS,
    TRAINABLE,
    GaussianStore,
)
from objmap.pipeline import (
    PipelineConfig,
    dataset_cameras,
    eval_pose,
    eval_recon,
    export_objects,
    load_state,
    run_pipeline,
    save_state,
)
from objmap.png import read_png, write_png
from objmap.quadrics import DualQuadric
from objmap.renderer import footprint_skeleton
from objmap.scenes import ablation_config, make_scene
from objmap.simulator import ObjectSpec, OrbitTrajectory, SceneSpec, generate, load_gt
from oracles import brute_force_nn_means


def npz_arrays(n_scales=2, drop=None):
    """gaussians.npz arrays of two Gaussians but n_scales scales, without `drop`."""
    arrays = {
        "means": np.zeros((2, 3)),
        "scales": np.full((n_scales, 3), 0.01),
        "quats": np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)),
        "opacities": np.full(2, 0.9),
        "colors": np.zeros((2, 3)),
        "object_ids": np.ones(2, dtype=np.int32),
        "kinds": np.zeros(2, dtype=np.uint8),
    }
    arrays.pop(drop, None)
    return arrays


def half_npz() -> bytes:
    """The first half of a valid gaussians.npz."""
    buf = io.BytesIO()
    np.savez(buf, **npz_arrays())
    return buf.getvalue()[: len(buf.getvalue()) // 2]


# a well-formed state.json track entry, and the fields of its quadric
TRACK = {"object_id": 7, "class_id": 2, "status": "stable", "last_seen": 0}
QUADRIC = {"center": [0, 0, 1], "rotation_wxyz": [1, 0, 0, 0], "semi_axes": [0.2, 0.2, 0.2]}
LOG = {"index": 0, "matches": 1, "new_tracks": 0, "merges": 0, "live_tracks": 1,
       "gaussians": 10, "trainable": 4, "assoc_seconds": 0.01, "quadric_seconds": 0.0,
       "mapping_seconds": 0.5}


def small_scene(**kw):
    args = dict(
        objects=[
            ObjectSpec(class_id=1, shape="sphere", center=(0, 0, 0.4),
                       semi_axes=(0.3, 0.3, 0.3), albedo=(0.8, 0.3, 0.2)),
            ObjectSpec(class_id=2, shape="ellipsoid", center=(0.8, 0.4, 0.3),
                       semi_axes=(0.25, 0.2, 0.22), albedo=(0.2, 0.6, 0.8)),
        ],
        n_frames=12,
        width=96, height=72, fx=85, fy=85,
        trajectory=OrbitTrajectory(target=(0.3, 0.2, 0.35), radius=2.0, height=0.9),
    )
    args.update(kw)
    return SceneSpec(**args)


def fast_config(**kw):
    cfg = ablation_config("qd+iou")
    cfg.enable_gaussians = True
    cfg.stride = 3
    cfg.gaussian_iters = 4
    cfg.quadric_every = 6
    cfg.quadric_final_iters = 60
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("small") / "ds"
    generate(small_scene(), str(d))
    return str(d)


class TestRunPipeline:
    def test_tracks_and_gaussians(self, small_dataset):
        # noiseless replay with non-overlapping objects: track count equals
        # the GT object count and gaussian ids follow the GT instance ids
        res = run_pipeline(small_dataset, fast_config())
        assert res.track_count() == 2
        assert len(res.store) > 0
        assert set(res.store.present_ids()) == {1, 2}
        assert sorted(res.object_map.tracks) == [1, 2]

    def test_single_worker_rerun_identical(self, small_dataset):
        cfg = fast_config()
        a = run_pipeline(small_dataset, cfg)
        b = run_pipeline(small_dataset, cfg)
        assert np.array_equal(a.store.means, b.store.means)
        assert np.array_equal(a.store.colors, b.store.colors)
        ta = {t.object_id: t.quadric.center for t in a.object_map.live_tracks()}
        tb = {t.object_id: t.quadric.center for t in b.object_map.live_tracks()}
        assert ta.keys() == tb.keys()
        for k in ta:
            assert np.array_equal(ta[k], tb[k])

    def test_worker_count_does_not_change_results(self, small_dataset):
        # `workers` is accepted and has no effect
        one = map_bytes(run_pipeline(small_dataset, fast_config(workers=1)))
        for workers in (2, 3, 8):
            assert map_bytes(run_pipeline(small_dataset, fast_config(workers=workers))) == one

    def test_mapping_starts_no_thread(self, small_dataset, monkeypatch):
        """Every object trains and every track refines on the calling
        thread, whatever the worker count."""
        one = map_bytes(run_pipeline(small_dataset, fast_config(workers=1)))

        def refuse(thread):
            raise AssertionError(f"mapping started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert map_bytes(run_pipeline(small_dataset, fast_config(workers=3))) == one

    def test_default_config_fixes_geometry_at_spawn(self, small_dataset, monkeypatch):
        """Under the default config every Gaussian keeps the mean, scale and
        rotation it was spawned with, and the map is the same for 1 and 3
        workers."""
        spawned = GaussianStore()
        densify = pipeline.densify_from_mask

        def recording(*args, **kwargs):
            batch = densify(*args, **kwargs)
            spawned.extend(batch)
            return batch

        monkeypatch.setattr(pipeline, "densify_from_mask", recording)
        one = run_pipeline(small_dataset, PipelineConfig(workers=1))
        monkeypatch.undo()
        assert len(spawned) > 0
        for name in ("means", "scales", "quats"):
            assert getattr(one.store, name).tobytes() == getattr(spawned, name).tobytes(), name
        three = run_pipeline(small_dataset, PipelineConfig(workers=3))
        assert map_bytes(one) == map_bytes(three)

    def test_shared_skeleton_matches_uncached_training(self, small_dataset, monkeypatch):
        """Each frame's object jobs share the one footprint skeleton built
        after densify; evaluating without it gives the same map bytes, at 1
        and at 3 workers."""
        evaluate = renderer.loss_and_gradients
        built, seen = [], []

        def building(*args):
            skel = footprint_skeleton(*args)
            built.append(skel)
            return skel

        def recording(*args, **kwargs):
            seen.append(kwargs["skeleton"])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(pipeline, "footprint_skeleton", building)
        monkeypatch.setattr(renderer, "loss_and_gradients", recording)
        cached = [map_bytes(run_pipeline(small_dataset, fast_config(workers=w))) for w in (1, 3)]
        assert seen and all(s is not None for s in seen)
        # every skeleton built stays alive in `built`, so one that a job
        # built for itself would show here as seen but not built
        assert {id(s) for s in seen} == {id(s) for s in built}
        assert len(built) <= 2 * small_scene().n_frames  # at most one per frame and run

        monkeypatch.setattr(renderer, "loss_and_gradients",
                            lambda *a, **kw: evaluate(*a, **dict(kw, skeleton=None)))
        uncached = [map_bytes(run_pipeline(small_dataset, fast_config(workers=w)))
                    for w in (1, 3)]
        assert cached[0] == cached[1] == uncached[0] == uncached[1]

    def test_every_object_starts_from_the_frame_start_store(self, small_dataset,
                                                             monkeypatch):
        """Within a frame, every object trains from the same colour and
        opacity bytes: an earlier object's trained values are put back
        before the next object trains."""
        optimize = renderer.optimize_object
        starts: dict[int, list] = {}

        def recording(store, object_id, frame, *args, **kwargs):
            starts.setdefault(frame.index, []).append(
                [getattr(store, name).tobytes() for name in TRAINABLE])
            return optimize(store, object_id, frame, *args, **kwargs)

        monkeypatch.setattr(renderer, "optimize_object", recording)
        run_pipeline(small_dataset, fast_config())
        assert any(len(calls) >= 2 for calls in starts.values())
        for index, calls in starts.items():
            assert all(c == calls[0] for c in calls), index

    def test_empty_dataset(self, tmp_path):
        d = tmp_path / "empty"
        generate(small_scene(n_frames=1), str(d))
        # remove the single frame from the pose list -> zero frames stream
        with open(d / "poses.txt", "w") as f:
            f.write("")
        res = run_pipeline(str(d), fast_config())
        assert res.track_count() == 0
        assert len(res.store) == 0

    def test_corrupt_colour_fails_a_run_without_gaussians(self, tmp_path):
        d = tmp_path / "bad_rgb"
        generate(small_scene(n_frames=2), str(d))
        bad = d / "rgb" / "000001.png"
        blob = bytearray(bad.read_bytes())
        blob[blob.index(b"IDAT") + 4] ^= 0xFF  # the first IDAT payload byte
        bad.write_bytes(bytes(blob))
        with pytest.raises(DatasetError, match=r"rgb/000001\.png: CRC mismatch"):
            run_pipeline(str(d), fast_config(enable_gaussians=False))

    def test_detections_withheld(self, tmp_path):
        d = tmp_path / "nodet"
        generate(small_scene(detection_dropout=1.0), str(d))
        res = run_pipeline(str(d), fast_config())
        assert res.track_count() == 0
        assert len(res.store) == 0  # nothing detected -> nothing mapped

    def test_detections_withheld_background_only(self, tmp_path):
        d = tmp_path / "nodet_bg"
        generate(small_scene(detection_dropout=1.0, n_frames=2), str(d))
        res = run_pipeline(str(d), fast_config(include_background=True,
                                               max_new_per_frame=200))
        assert res.track_count() == 0
        assert len(res.store) > 0
        assert set(res.store.present_ids()) == {0}


def permute_instance_ids(dataset_dir: str, seed: int) -> None:
    """Rename every frame's instance ids through its own random one-to-one
    map onto 1..65535, as a segmenter without stable ids would."""
    rng = np.random.default_rng(seed)
    inst_dir = os.path.join(dataset_dir, "instance")
    for name in sorted(os.listdir(inst_dir)):
        path = os.path.join(inst_dir, name)
        inst = read_png(path)
        lut = np.zeros(65536, dtype=np.uint16)
        lut[1:] = rng.permutation(np.arange(1, 65536))
        write_png(path, lut[inst])


def map_bytes(result) -> list:
    """The final store arrays and every live track, as bytes."""
    out = [getattr(result.store, name).tobytes() for name in STORE_ARRAYS]
    for t in result.object_map.live_tracks():
        out.append((t.object_id, t.class_id, t.status))
        if t.quadric is not None:
            out += [a.tobytes() for a in (t.quadric.center, t.quadric.rotation,
                                          t.quadric.semi_axes)]
    return out


class TestMappingMemory:
    """Peak traced heap of one warm `run_pipeline` pass on a 4-frame 96x72
    pose4 set, map-pose4's scene.  Measured 1,603 KB at workers=1 and 1,601
    KB at workers=2, since every object trains on the calling thread, one
    evaluation at a time; the bound leaves about 18%.  While each skeleton
    sorted its entries by a lexsort of three keys and kept 64-bit indices,
    the two passes peaked at 1,761 and 1,758 KB.  Frames that keep their
    8-bit colour until the Gaussians read it add one 20 KB image (1,758 KB at
    workers=1, before the one-key sort).  With a pool of workers=2 threads tracemalloc saw both object
    jobs' evaluations at once and the workers=2 pass peaked at 2,649 KB.
    With blocks of 8,192 entries the two passes peaked at 2,295 and 3,744 KB.
    The workers=1 pass peaked at 2,815 KB when each evaluation composited,
    took the loss and ran the backward over the whole frame at once, and at
    3,843 KB when footprints were also expanded all at once, the frame-start
    render stayed alive through training and each object job copied the
    whole store."""

    PEAK_BOUND_KB = 1890
    # a pass without Gaussians on a 4-frame 200x150 ablation8 set, the
    # assoc-ablation8 scene: 526 KB, and 1,204 KB while every frame was
    # decoded to float colour through a row-by-row PNG decoder
    NO_GAUSSIANS_PEAK_BOUND_KB = 620

    @staticmethod
    def _warm_pass_peak(ds: str, config: PipelineConfig) -> int:
        run_pipeline(ds, config)  # warm: first-call imports and caches stay out
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = run_pipeline(ds, config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(result.object_map) > 0
        assert (len(result.store) > 0) == config.enable_gaussians
        return peak

    def _pose4_peak(self, tmp_path, workers: int) -> int:
        ds = str(tmp_path / "ds")
        generate(make_scene("pose4", n_frames=4, width=96, height=72), ds)
        config = PipelineConfig(tau=0.25, qd_accept=0.2, stride=2, workers=workers)
        return self._warm_pass_peak(ds, config)

    def test_warm_pass_peak_bounded(self, tmp_path):
        peak = self._pose4_peak(tmp_path, workers=1)
        assert peak <= self.PEAK_BOUND_KB * 1024, peak / 1024

    def test_warm_two_worker_pass_peak_bounded(self, tmp_path):
        peak = self._pose4_peak(tmp_path, workers=2)
        assert peak <= self.PEAK_BOUND_KB * 1024, peak / 1024

    def test_warm_pass_without_gaussians_peak_bounded(self, tmp_path):
        ds = str(tmp_path / "ds")
        generate(make_scene("ablation8", seed=2, n_frames=4, width=200, height=150), ds)
        peak = self._warm_pass_peak(ds, ablation_config("qd+iou"))
        assert peak <= self.NO_GAUSSIANS_PEAK_BOUND_KB * 1024, peak / 1024

    def test_run_without_gaussians_keeps_colour_8_bit(self, tmp_path, monkeypatch):
        """No frame of a run without Gaussians builds its float colour."""
        ds = str(tmp_path / "ds")
        generate(make_scene("ablation8", seed=2, n_frames=4, width=64, height=48), ds)
        load, frames = pipeline.load, []

        def recorded(dataset_dir):
            for frame in load(dataset_dir):
                frames.append(frame)
                yield frame

        monkeypatch.setattr(pipeline, "load", recorded)
        config = ablation_config("qd+iou")
        assert not config.enable_gaussians
        run_pipeline(ds, config)
        assert len(frames) == 4
        assert all("rgb" not in vars(frame) for frame in frames)

    def test_frame_released_before_next_is_decoded(self, tmp_path, monkeypatch):
        """Neither the loader nor the mapping loop holds frame k while frame
        k+1 is decoded: on a 200x150 ablation8 set that halved the traced
        peak of a pass without Gaussians (2.46 -> 1.41 MB)."""
        ds = str(tmp_path / "ds")
        generate(make_scene("ablation8", seed=2, n_frames=4, width=200, height=150), ds)
        load, decoded, alive = pipeline.load, [], []

        def watched(dataset_dir):
            frames = load(dataset_dir)
            while True:
                alive.append(sum(ref() is not None for ref in decoded))
                frame = next(frames, None)
                if frame is None:
                    return
                decoded.append(weakref.ref(frame.rgb8))  # frame.rgb would build a float copy
                yield frame
                del frame

        monkeypatch.setattr(pipeline, "load", watched)
        run_pipeline(ds, ablation_config("qd+iou"))
        assert len(decoded) == 4
        assert alive == [0] * 5


class TestObjectIds:
    @pytest.mark.parametrize("preset, scene_kw, config", [
        ("pose4", dict(n_frames=4, width=96, height=72),
         dict(tau=0.25, qd_accept=0.2, stride=2)),
        ("sphere", dict(seed=3, n_frames=6, width=64, height=48),
         dict(tau=0.25, qd_accept=0.2, stride=2, gaussian_iters=5,
              lr_opacity=0.04, quadric_every=3)),
    ])
    def test_permuted_instance_ids_give_the_same_map(self, tmp_path, preset, scene_kw,
                                                     config):
        # instance ids name segments only within one frame: renaming them
        # per frame leaves every Gaussian and every track byte-identical
        ds = str(tmp_path / "ds")
        generate(make_scene(preset, **scene_kw), ds)
        permuted = str(tmp_path / "permuted")
        shutil.copytree(ds, permuted)
        permute_instance_ids(permuted, seed=7)
        a = run_pipeline(ds, PipelineConfig(**config))
        b = run_pipeline(permuted, PipelineConfig(**config))
        assert len(a.store) > 0
        assert map_bytes(a) == map_bytes(b)

    def test_merge_moves_gaussians_to_keeper(self, tmp_path, monkeypatch):
        # the first three frames of the ablation8 orbit: at frame 2 the
        # duplicate route merges a track spawned at frame 1, which already
        # owns Gaussians, into an older track
        spec = make_scene("ablation8", seed=2, n_frames=30, width=200, height=150)
        spec.trajectory = replace(spec.trajectory, sweep=spec.trajectory.sweep * 3 / 30)
        spec.n_frames = 3
        ds = str(tmp_path / "ds")
        generate(spec, ds)
        seen = {"store": None, "moved": 0}
        associate_frame, map_frame = pipeline.associate_frame, pipeline._map_frame

        def associate(obj_map, frame, config):
            store = seen["store"]
            seen["before"] = np.empty(0, np.int32) if store is None else store.object_ids.copy()
            seen["map"], seen["result"] = obj_map, associate_frame(obj_map, frame, config)
            return seen["result"]

        def map_checked(store, frame, *args):
            seen["store"] = store
            expected = seen["before"].copy()
            for keeper, popped in seen["result"].merges:
                seen["moved"] += int(np.count_nonzero(expected == popped))
                expected[expected == popped] = keeper
            assert np.array_equal(store.object_ids[: len(expected)], expected)
            trainable = map_frame(store, frame, *args)
            assert set(store.present_ids()) <= {0} | set(seen["map"].tracks)
            return trainable

        monkeypatch.setattr(pipeline, "associate_frame", associate)
        monkeypatch.setattr(pipeline, "_map_frame", map_checked)
        config = fast_config(stride=4, gaussian_iters=2)
        res = run_pipeline(ds, config)
        assert seen["moved"] > 0
        assert set(res.store.present_ids()) <= set(res.object_map.tracks)


class TestPosePipeline:
    def test_end_to_end_four_objects(self, tmp_path):
        # full replay: association + periodic refinement recovers all four
        # objects with sound 3D boxes
        from objmap.scenes import pose_scene

        d = str(tmp_path / "pose")
        generate(pose_scene(seed=5, width=200, height=150, n_frames=60), d)
        cfg = ablation_config("qd+iou")
        res = run_pipeline(d, cfg)
        gt = load_gt(d)
        report = eval_pose(res, gt, dataset_cameras(d))
        assert res.track_count() == 4
        assert all(o.iou_3d >= 0.5 for o in report.per_object)
        assert all(o.cde_cm is not None and o.cde_cm < 5.0 for o in report.per_object)
        assert report.mean_iou_2d > 0.7


class TestEvalPose:
    def _result_with_tracks(self, quadrics):
        from objmap.association import ObjectMap
        from objmap.gaussians import GaussianStore
        from objmap.pipeline import PipelineResult

        obj_map = ObjectMap()
        for q in quadrics:
            t = obj_map.new_track(class_id=1)
            t.quadric = q
            t.status = "stable"
        return PipelineResult(obj_map, GaussianStore(), [], PipelineConfig())

    def _gt(self, quadrics):
        return {
            "objects": [
                {"id": i + 1, "class_id": 1, "shape": "sphere", "quadric": q,
                 "albedo": np.array([0.5, 0.5, 0.5])}
                for i, q in enumerate(quadrics)
            ],
            "points": {},
        }

    def test_exact_match(self):
        qs = [DualQuadric([0, 0, 1], np.eye(3), [0.3, 0.3, 0.3]),
              DualQuadric([1, 0, 1], np.eye(3), [0.2, 0.25, 0.3])]
        report = eval_pose(self._result_with_tracks(qs), self._gt(qs), [])
        assert report.mean_iou_3d == pytest.approx(1.0, abs=1e-9)
        assert report.mean_cde_cm == pytest.approx(0.0, abs=1e-9)

    def test_one_cm_offset(self):
        gt_q = DualQuadric([0, 0, 1], np.eye(3), [0.3, 0.3, 0.3])
        est_q = DualQuadric([0.01, 0, 1], np.eye(3), [0.3, 0.3, 0.3])
        report = eval_pose(self._result_with_tracks([est_q]), self._gt([gt_q]), [])
        assert report.per_object[0].cde_cm == pytest.approx(1.0, abs=1e-9)

    def test_unmatched_gt_is_miss(self):
        gt_qs = [DualQuadric([0, 0, 1], np.eye(3), [0.3, 0.3, 0.3]),
                 DualQuadric([5, 5, 1], np.eye(3), [0.3, 0.3, 0.3])]
        report = eval_pose(self._result_with_tracks(gt_qs[:1]), self._gt(gt_qs), [])
        misses = [o for o in report.per_object if o.track_id is None]
        assert len(misses) == 1
        assert misses[0].iou_3d == 0.0
        assert misses[0].cde_cm is None
        assert report.mean_iou_3d == pytest.approx(0.5, abs=1e-9)


class TestEvalRecon:
    def test_identical_sets(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(500, 3))
        acc, comp, ratio = eval_recon(pts, pts, threshold_cm=1.0)
        assert acc == 0.0 and comp == 0.0 and ratio == 100.0

    def test_translated_plane(self):
        # plane grids offset by 2 cm along the normal; threshold 1 cm
        xs, ys = np.meshgrid(np.linspace(0, 1, 32), np.linspace(0, 1, 32))
        gt = np.stack([xs.ravel(), ys.ravel(), np.zeros(xs.size)], axis=1)
        est = gt + np.array([0, 0, 0.02])
        acc, comp, ratio = eval_recon(est, gt, threshold_cm=1.0)
        assert acc == pytest.approx(2.0, abs=1e-9)
        assert comp == pytest.approx(2.0, abs=1e-9)
        assert ratio == pytest.approx(0.0, abs=1e-9)
        # brute-force oracle agreement
        b_acc, b_comp = brute_force_nn_means(est, gt)
        assert acc == pytest.approx(b_acc * 100, abs=1e-9)
        assert comp == pytest.approx(b_comp * 100, abs=1e-9)

    def test_subset_completion(self):
        rng = np.random.default_rng(1)
        gt = rng.normal(size=(300, 3))
        est = np.vstack([gt, rng.normal(size=(100, 3)) + 5.0])
        acc, comp, ratio = eval_recon(est, gt, threshold_cm=1.0)
        assert comp == 0.0
        assert ratio == 100.0
        assert acc > 0.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            eval_recon(np.empty((0, 3)), np.ones((5, 3)))

    @pytest.mark.parametrize("threshold", [float("nan"), -3.0, 0.0, float("inf")])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        pts = np.zeros((4, 3))
        with pytest.raises(InvalidParameterError, match="threshold_cm"):
            eval_recon(pts, pts, threshold_cm=threshold)


class TestExportAndState:
    def test_export_objects(self, small_dataset, tmp_path):
        res = run_pipeline(small_dataset, fast_config())
        manifest = export_objects(res, str(tmp_path / "objs"))
        ids = [o["id"] for o in manifest["objects"]]
        assert sorted(ids) == sorted(set(ids))
        from objmap.plyio import read_point_ply

        for entry in manifest["objects"]:
            ply = read_point_ply(tmp_path / "objs" / entry["ply"])
            assert len(ply["points"]) == entry["gaussians"]

    def test_export_empty_map(self, tmp_path):
        from objmap.association import ObjectMap
        from objmap.gaussians import GaussianStore
        from objmap.pipeline import PipelineResult

        res = PipelineResult(ObjectMap(), GaussianStore(), [], PipelineConfig())
        manifest = export_objects(res, str(tmp_path / "objs"))
        assert manifest["objects"] == []

    def test_state_roundtrip(self, small_dataset, tmp_path):
        res = run_pipeline(small_dataset, fast_config())
        save_state(res, str(tmp_path / "state"))
        back = load_state(str(tmp_path / "state"))
        assert back.logs == res.logs
        assert back.track_count() == res.track_count()
        assert np.array_equal(back.store.means, res.store.means)
        assert np.array_equal(back.store.object_ids, res.store.object_ids)
        for ta, tb in zip(res.object_map.live_tracks(), back.object_map.live_tracks()):
            assert ta.object_id == tb.object_id
            assert ta.class_id == tb.class_id
            assert np.allclose(ta.quadric.center, tb.quadric.center)

    def test_config_json_roundtrip(self, tmp_path):
        cfg = fast_config(tau=0.33, workers=2)
        path = tmp_path / "cfg.json"
        cfg.to_json(str(path))
        back = PipelineConfig.from_json(str(path))
        assert back == cfg

    def test_config_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"no_such_threshold": 1.0}))
        with pytest.raises(InvalidParameterError):
            PipelineConfig.from_json(str(path))

    @pytest.mark.parametrize("raw", [
        {"stride": "2"}, {"stride": True}, {"stride": 2.0}, {"tau": "1"}, {"tau": False},
        {"enable_gaussians": 0}, {"enable_gaussians": "false"}, {"assoc_mode": 3},
        {"stride": 2.5}, {"tau": "x"}, {"gaussian_iters": True}, {"include_background": 3},
    ], ids=["str-for-int", "bool-for-int", "float-for-int", "str-for-float", "bool-for-float",
            "int-for-bool", "str-for-bool", "int-for-str", "fraction-for-int",
            "word-for-float", "bool-for-count", "int-for-flag"])
    def test_config_rejects_wrong_value_types(self, raw):
        name = next(iter(raw))
        with pytest.raises(InvalidParameterError, match=name):
            PipelineConfig.from_dict(raw)
        with pytest.raises(InvalidParameterError, match=name):
            PipelineConfig(**raw)
        with pytest.raises(InvalidParameterError, match=name):
            setattr(PipelineConfig(), name, raw[name])

    def test_config_accepts_int_for_float(self):
        assert PipelineConfig.from_dict({"tau": 1, "stride": 2}).tau == 1

    @pytest.mark.parametrize("name, value", [
        ("theta_d", float("nan")), ("iou_gate", float("nan")), ("tau", float("inf")),
        ("lr_color", float("-inf")), ("stride", 0), ("workers", -3), ("workers", 0),
        ("gaussian_iters", -2), ("max_new_per_frame", -1), ("quadric_min_obs", -1),
        ("quadric_every", -1), ("quadric_iters", -1), ("quadric_final_iters", -1),
        ("iou_gate", 2.0), ("qd_accept", -0.1), ("t_thre", 1.5), ("merge_d", -1e-9),
        ("merge_iou3d", 1.01), ("theta_alpha", -0.5), ("tau", 0.0), ("tau", -1.0),
        ("lr_color", -0.5), ("lr_mean", -1e-3), ("lr_opacity", -1.0), ("lam", -0.5),
        ("theta_d", -0.1), ("theta_c", -0.1), ("merge_duplicate_raw", -0.1),
        ("lr_mean", 0.004),  # Gaussian means are fixed at spawn
        ("assoc_mode", "bogus"), ("assoc_mode", ""),
    ])
    def test_config_rejects_out_of_range_values(self, name, value):
        with pytest.raises(InvalidParameterError, match=name):
            PipelineConfig.from_dict({name: value})
        # a value set after construction is refused by the assignment itself
        config = PipelineConfig()
        with pytest.raises(InvalidParameterError, match=name):
            setattr(config, name, value)
        assert config == PipelineConfig()

    @pytest.mark.parametrize("name, value", [
        # optimize_object reads these: a bare TypeError, silent NaN training, and
        # a flipped instance term
        ("gaussian_iters", 2.5), ("lr_color", float("nan")), ("lam", -1.0),
        # densify_from_mask and compute_update_masks read these: densified at
        # stride 1, a bare TypeError, and no geometry pixel flagged
        ("stride", 0), ("stride", 2.5), ("theta_d", float("nan")),
    ])
    def test_config_refuses_what_a_layer_would_misread(self, name, value):
        with pytest.raises(InvalidParameterError, match=name):
            PipelineConfig(**{name: value})
        config = PipelineConfig()
        with pytest.raises(InvalidParameterError, match=name):
            setattr(config, name, value)

    def test_refused_assignment_keeps_old_value(self):
        config = PipelineConfig(stride=2, tau=0.5)
        with pytest.raises(InvalidParameterError, match="stride"):
            config.stride = -1
        with pytest.raises(InvalidParameterError, match="tau"):
            config.tau = float("inf")
        assert (config.stride, config.tau) == (2, 0.5)
        config.stride = 3
        assert config.stride == 3

    def test_config_refuses_unknown_name(self):
        config = PipelineConfig()
        with pytest.raises(InvalidParameterError, match="strid"):
            config.strid = 3  # a misspelt field is no new attribute
        assert not hasattr(config, "strid")

    def test_config_replace_checks_values(self):
        with pytest.raises(InvalidParameterError, match="theta_c"):
            replace(PipelineConfig(), theta_c=-1.0)
        assert replace(PipelineConfig(), theta_c=0.2).theta_c == 0.2

    def test_config_copies_roundtrip(self):
        cfg = fast_config(assoc_mode="qd", tau=0.33, include_background=True)
        assert deepcopy(cfg) == cfg
        assert PipelineConfig.from_dict(asdict(cfg)) == cfg

    def test_config_accepts_range_edges(self):
        edges = {"stride": 1, "workers": 1, "gaussian_iters": 0, "max_new_per_frame": 0,
                 "quadric_min_obs": 0, "quadric_every": 0, "quadric_iters": 0,
                 "quadric_final_iters": 0, "tau": 1e-300, "lam": 0.0, "lr_mean": 0.0,
                 "lr_color": 0.0, "lr_opacity": 0.0, "theta_d": 0.0, "theta_c": 0.0,
                 "merge_duplicate_raw": 0.0}
        assert PipelineConfig.from_dict(edges).stride == 1
        for name in ("iou_gate", "qd_accept", "t_thre", "merge_d", "merge_iou3d",
                     "theta_alpha"):
            for value in (0.0, 1.0):
                assert getattr(PipelineConfig.from_dict({name: value}), name) == value

    @pytest.mark.parametrize("name, sign, digits", [("tau", 1, 400), ("lr_color", -1, 400),
                                                    ("theta_d", 1, 5000)])
    def test_config_rejects_int_too_large_for_float(self, name, sign, digits):
        with pytest.raises(InvalidParameterError, match=name):
            PipelineConfig.from_dict({name: sign * 10**digits})

    def test_config_json_rejects_nan(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"theta_d": NaN}')
        with pytest.raises(InvalidParameterError, match="theta_d"):
            PipelineConfig.from_json(str(path))


    @pytest.mark.parametrize("content, arrays, bad_file", [
        ("{\"tracks\": [", None, "state.json"),
        (json.dumps({"next_id": 1}), None, "state.json"),
        (json.dumps({"tracks": []}), None, "state.json"),
        (json.dumps({"tracks": [], "next_id": 1, "config": {"og_opacity": 0.9}}), None,
         "state.json"),
        (json.dumps({"tracks": [{"object_id": 1, "status": "stable", "last_seen": 0}],
                     "next_id": 2}), None, "state.json"),
        (json.dumps({"tracks": [], "next_id": 1}), npz_arrays(drop="scales"), "gaussians.npz"),
        (json.dumps({"tracks": [], "next_id": 1}), npz_arrays(n_scales=5), "gaussians.npz"),
        (json.dumps({"tracks": [], "next_id": "2"}), None, "state.json"),
        (json.dumps({"tracks": [], "next_id": 1, "frame_logs": [{"bogus": 1}]}), None,
         "state.json"),
        (json.dumps({"tracks": [], "next_id": 1,
                     "frame_logs": [LOG, dict(LOG, assoc_seconds="fast")]}), None,
         "state.json"),
        (json.dumps({"tracks": [], "next_id": 1, "frame_logs": [dict(LOG, matches=1.5)]}),
         None, "state.json"),
        (json.dumps({"tracks": [], "next_id": 1, "frame_logs": [dict(LOG, gaussians=None)]}),
         None, "state.json"),
        *[(json.dumps({"tracks": [], "next_id": 1, "frame_logs": [dict(LOG, **bad)]}), None,
           "state.json")
          for bad in ({"assoc_seconds": None}, {"assoc_seconds": True},
                      {"quadric_seconds": -0.5}, {"mapping_seconds": float("inf")},
                      {"mapping_seconds": 10**400})],
        (json.dumps({"tracks": [dict(TRACK, object_id="7")], "next_id": 8}), None,
         "state.json"),
        (json.dumps({"tracks": [dict(TRACK, class_id="2")], "next_id": 8}), None,
         "state.json"),
        (json.dumps({"tracks": [dict(TRACK, status="weird")], "next_id": 8}), None,
         "state.json"),
        (json.dumps({"tracks": [dict(TRACK, last_seen="x")], "next_id": 8}), None,
         "state.json"),
        (json.dumps({"tracks": [], "next_id": 1, "config": {"stride": "2"}}), None,
         "state.json"),
        (json.dumps({"tracks": [], "next_id": 1, "config": {"theta_d": float("nan")}}), None,
         "state.json"),
        (json.dumps({"tracks": [], "next_id": 1, "config": {"lr_mean": 0.004}}), None,
         "state.json"),
        (json.dumps({"tracks": [], "next_id": 1, "config": {"assoc_mode": "bogus"}}), None,
         "state.json"),
        (json.dumps({"tracks": [TRACK, TRACK], "next_id": 8}), None, "state.json"),
        (json.dumps({"tracks": [TRACK], "next_id": 7}), None, "state.json"),
        (json.dumps({"tracks": [dict(TRACK, object_id=0)], "next_id": 8}), None,
         "state.json"),
        (json.dumps({"tracks": [TRACK], "next_id": 8}), npz_arrays(), "gaussians.npz"),
        (json.dumps({"tracks": [], "next_id": 1}), half_npz(), "gaussians.npz"),
        (json.dumps({"tracks": [{**TRACK, **QUADRIC, "rotation_wxyz": [0, 0, 0, 0]}],
                     "next_id": 8}), None, "state.json"),
        (json.dumps({"tracks": [{**TRACK, **QUADRIC, "center": [10**400, 0, 0]}],
                     "next_id": 8}), None, "state.json"),
    ], ids=["not-json", "no-tracks", "no-next-id", "unknown-config-key",
            "track-without-class-id", "npz-without-scales", "npz-length-mismatch",
            "next-id-not-int", "frame-log-unknown-key", "frame-log-seconds-not-number",
            "frame-log-count-not-int", "frame-log-count-null", "frame-log-seconds-null",
            "frame-log-seconds-bool", "frame-log-seconds-negative", "frame-log-seconds-inf",
            "frame-log-seconds-huge-int",
            "object-id-not-int", "class-id-not-int", "unknown-status", "last-seen-not-int",
            "config-value-not-int", "config-value-nan", "config-lr-mean-nonzero",
            "config-assoc-mode-unknown",
            "duplicate-track-id",
            "next-id-not-above-track-id", "track-id-not-positive", "npz-id-not-a-track",
            "npz-truncated", "zero-quaternion", "huge-center"])
    def test_load_state_rejects_malformed(self, tmp_path, content, arrays, bad_file):
        (tmp_path / "state.json").write_text(content)
        if isinstance(arrays, bytes):
            (tmp_path / "gaussians.npz").write_bytes(arrays)
        elif arrays is not None:
            np.savez(tmp_path / "gaussians.npz", **arrays)
        with pytest.raises(DatasetError, match=bad_file):
            load_state(str(tmp_path))

    @pytest.mark.parametrize("name, value", [
        ("kinds", np.array([0, 7], np.uint8)),
        ("kinds", np.array([256, 0], np.int64)),  # uint8 would read 0
        ("means", np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])),
        ("quats", np.array([[1.0, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]])),
        ("opacities", np.array([0.9, 5.0])),
        ("opacities", np.array([-0.1, 0.9])),
        ("object_ids", np.array([1.0, 1.5])),
        ("object_ids", np.array([1, 2**32 + 1], np.int64)),  # int32 would read 1
        ("scales", np.array([[0.01, 0.0, 0.01], [0.01, 0.01, 0.01]])),
        ("scales", np.array([[0.01, 0.01, 0.01], [0.01, -0.01, 0.01]])),
        ("scales", np.array([[0.01, 0.01, np.inf], [0.01, 0.01, 0.01]])),
        ("colors", np.array([[0.0, 0.0, 0.0], [0.0, 1.5, 0.0]])),
        ("colors", np.array([[0.0, -0.5, 0.0], [0.0, 0.0, 0.0]])),
        ("colors", np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])),
    ], ids=["kind-7", "kind-beyond-uint8", "mean-nan", "quat-inf", "opacity-5", "opacity-negative",
            "object-id-fractional", "object-id-beyond-int32", "scale-zero",
            "scale-negative", "scale-inf", "color-above-1", "color-negative", "color-nan"])
    def test_load_state_rejects_values_the_mapper_never_writes(self, tmp_path, name, value):
        (tmp_path / "state.json").write_text(
            json.dumps({"tracks": [dict(TRACK, object_id=1)], "next_id": 2}))
        np.savez(tmp_path / "gaussians.npz", **npz_arrays())
        assert len(load_state(str(tmp_path)).store) == 2
        np.savez(tmp_path / "gaussians.npz", **dict(npz_arrays(), **{name: value}))
        with pytest.raises(DatasetError, match=f"gaussians.npz: {name} hold"):
            load_state(str(tmp_path))

    def test_load_state_accepts_the_range_ends(self, tmp_path):
        """Opacities and colours of exactly 0 and 1, both kinds, any finite
        mean and the largest int32 id load unchanged."""
        top = np.iinfo(np.int32).max
        (tmp_path / "state.json").write_text(
            json.dumps({"tracks": [dict(TRACK, object_id=top)], "next_id": top + 1}))
        arrays = dict(npz_arrays(), opacities=np.array([0.0, 1.0]),
                      colors=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]),
                      means=np.array([[-1e300, 0.0, 0.0], [0.0, 1e300, 2.0]]),
                      object_ids=np.array([0, top], np.int64),
                      kinds=np.array([0, 1], np.int64))
        np.savez(tmp_path / "gaussians.npz", **arrays)
        store = load_state(str(tmp_path)).store
        for key, value in arrays.items():
            assert np.array_equal(getattr(store, key), value), key

    def test_load_state_keeps_every_track(self, tmp_path):
        # tracks listed out of id order all load, and the next new track
        # takes next_id, not the id of a loaded one
        tracks = [dict(TRACK, object_id=2), dict(TRACK, object_id=1, class_id=3)]
        (tmp_path / "state.json").write_text(json.dumps({"tracks": tracks, "next_id": 5}))
        np.savez(tmp_path / "gaussians.npz", **npz_arrays())
        back = load_state(str(tmp_path))
        assert {k: t.class_id for k, t in back.object_map.tracks.items()} == {1: 3, 2: 2}
        assert back.object_map.new_track(1).object_id == 5
        assert len(back.object_map) == 3


class TestCli:
    def test_full_cycle(self, tmp_path):
        ds = str(tmp_path / "ds")
        state = str(tmp_path / "state")
        assert cli_main(["simulate", "--preset", "sphere", "--frames", "6",
                         "--width", "64", "--height", "48", "--out", ds]) == 0
        assert cli_main([
            "run", "--dataset", ds, "--out-state", state,
            "--tau", "0.25", "--qd-accept", "0.2", "--stride", "3",
            "--gaussian-iters", "3",
        ]) == 0
        assert cli_main(["eval-pose", "--state", state, "--dataset", ds,
                         "--out", str(tmp_path / "pose.json")]) == 0
        assert cli_main(["eval-recon", "--state", state, "--dataset", ds,
                         "--out", str(tmp_path / "recon.json")]) == 0
        assert cli_main(["export", "--state", state, "--out", str(tmp_path / "objs")]) == 0
        assert cli_main(["render-frame", "--state", state, "--dataset", ds,
                         "--frame", "2", "--out-prefix", str(tmp_path / "f2")]) == 0
        report = json.loads((tmp_path / "pose.json").read_text())
        assert report["gt_count"] == 1
        track_id = report["per_object"][0]["track_id"]
        assert track_id in load_state(state).object_map.tracks
        (recon,) = json.loads((tmp_path / "recon.json").read_text())["objects"]
        assert recon["matched"] and recon["track_id"] == track_id
        assert recon["points"] > 0

    def test_exit_codes(self, tmp_path, small_dataset, capsys):
        assert cli_main(["run", "--dataset", "/does/not/exist",
                         "--out-state", str(tmp_path / "s")]) == 1
        bad_state = tmp_path / "bad_state"
        bad_state.mkdir()
        (bad_state / "state.json").write_text(json.dumps(
            {"tracks": [], "next_id": 1, "frame_logs": [dict(LOG, assoc_seconds="fast")]}))
        capsys.readouterr()
        assert cli_main(["eval-pose", "--state", str(bad_state), "--dataset", small_dataset,
                         "--out", str(tmp_path / "pose.json")]) == 1
        assert str(bad_state / "state.json") in capsys.readouterr().err
        assert cli_main(["run", "--dataset", str(tmp_path)]) == 2  # missing flag
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text("{\"bogus\": 1}")
        assert cli_main(["run", "--dataset", str(tmp_path), "--out-state",
                         str(tmp_path / "s"), "--config", str(bad_cfg)]) == 2
        assert cli_main(["run", "--dataset", str(tmp_path), "--out-state",
                         str(tmp_path / "s"), "--assoc-mode", "bogus"]) == 2
        # wrong value types on a readable dataset: refused before mapping
        bad_cfg.write_text("{\"stride\": \"2\"}")
        assert cli_main(["run", "--dataset", small_dataset, "--out-state",
                         str(tmp_path / "s"), "--config", str(bad_cfg)]) == 2
        assert cli_main(["run", "--dataset", small_dataset, "--out-state",
                         str(tmp_path / "s"), "--enable-gaussians", "flase"]) == 2
        # a scene value out of range names its field
        for flag, value, name in (("--frames", "-2", "n_frames"), ("--seed", "-1", "seed"),
                                  ("--width", "0", "width"), ("--height", "0", "height")):
            capsys.readouterr()
            assert cli_main(["simulate", "--preset", "sphere", flag, value,
                             "--out", str(tmp_path / "sim")]) == 2, flag
            assert name in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()
        # a map whose one track matches ground-truth object 1 of small_dataset
        state = tmp_path / "one_track"
        state.mkdir()
        (state / "state.json").write_text(json.dumps({"tracks": [dict(
            TRACK, object_id=1, class_id=1,
            **dict(QUADRIC, center=[0, 0, 0.4], semi_axes=[0.3, 0.3, 0.3]))], "next_id": 2}))
        np.savez(state / "gaussians.npz", **npz_arrays())
        recon = ["eval-recon", "--state", str(state), "--dataset", small_dataset]
        assert cli_main(recon + ["--threshold-cm", "5"]) == 0
        for value in ("nan", "-3", "0", "inf"):
            assert cli_main(recon + ["--threshold-cm", value]) == 2, value
        # the threshold is refused also when no object is matched
        no_track = tmp_path / "no_track"
        no_track.mkdir()
        (no_track / "state.json").write_text(json.dumps({"tracks": [], "next_id": 1}))
        assert cli_main(["eval-recon", "--state", str(no_track), "--dataset", small_dataset,
                         "--threshold-cm", "5"]) == 0
        assert cli_main(["eval-recon", "--state", str(no_track), "--dataset", small_dataset,
                         "--threshold-cm", "nan"]) == 2

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_config_with_huge_int_exits_2(self, tmp_path, small_dataset, digits):
        cfg = tmp_path / "huge.json"
        cfg.write_text('{"tau": 1' + "0" * digits + "}")
        assert cli_main(["run", "--dataset", small_dataset, "--out-state",
                         str(tmp_path / "s"), "--config", str(cfg)]) == 2
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--theta-d", "nan"), ("--iou-gate", "nan"), ("--stride", "0"), ("--workers", "-3"),
        ("--gaussian-iters", "-2"), ("--iou-gate", "2.0"), ("--lr-color", "-0.5"),
        ("--tau", "0"), ("--lr-mean", "0.004"),
    ])
    def test_out_of_range_flag_exits_2(self, tmp_path, small_dataset, flag, value):
        assert cli_main(["run", "--dataset", small_dataset, "--out-state",
                         str(tmp_path / "s"), flag, value]) == 2
        assert not (tmp_path / "s").exists()
