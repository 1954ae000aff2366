import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from objmap.errors import DatasetError, InvalidParameterError
from objmap.png import write_png
from objmap.quadrics import conic_to_bbox, project_to_conic
from objmap.simulator import (
    ObjectSpec,
    OrbitTrajectory,
    SceneSpec,
    WaypointTrajectory,
    dataset_cameras,
    frame_bundles,
    generate,
    load,
    load_gt,
    render_scene_frame,
    sample_surface_points,
)


def one_sphere_spec(**kw):
    args = dict(
        objects=[
            ObjectSpec(class_id=1, shape="sphere", center=(0, 0, 0.5), semi_axes=(0.3, 0.3, 0.3))
        ],
        n_frames=5,
        width=160,
        height=120,
    )
    args.update(kw)
    return SceneSpec(**args)


def multi_shape_spec(**kw):
    args = dict(
        objects=[
            ObjectSpec(class_id=1, shape="sphere", center=(0, 0, 0.5), semi_axes=(0.3, 0.3, 0.3)),
            ObjectSpec(class_id=2, shape="box", center=(0.8, 0.3, 0.25), semi_axes=(0.25, 0.2, 0.25)),
            ObjectSpec(class_id=3, shape="ellipsoid", center=(-0.7, 0.5, 0.3), semi_axes=(0.35, 0.2, 0.3)),
            ObjectSpec(class_id=4, shape="superellipsoid", center=(-0.2, -0.8, 0.3), semi_axes=(0.3, 0.3, 0.3)),
        ],
        n_frames=3,
        width=160,
        height=120,
    )
    args.update(kw)
    return SceneSpec(**args)


def tree_hash(d):
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(d)):
        for fn in sorted(files):
            p = os.path.join(root, fn)
            h.update(os.path.relpath(p, d).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


class TestRendering:
    def test_depth_matches_analytic_intersection(self):
        spec = multi_shape_spec()
        cam = spec.camera_at(0)
        _, depth, inst = render_scene_frame(spec, cam)
        for k, obj in enumerate(spec.objects, start=1):
            ys, xs = np.nonzero(inst == k)
            assert len(xs) > 0
            pts = cam.backproject(np.stack([xs + 0.5, ys + 0.5], axis=1), depth[ys, xs])
            local = (pts - np.asarray(obj.center)) @ obj.rotation
            s = np.asarray(obj.semi_axes)
            if obj.shape in ("sphere", "ellipsoid"):
                vals = np.sum((local / s) ** 2, axis=1)
                assert np.abs(vals - 1).max() < 1e-6
            elif obj.shape == "box":
                assert np.abs(np.abs(local / s).max(axis=1) - 1).max() < 1e-6
            else:
                vals = np.sum(np.abs(local / s) ** obj.power, axis=1)
                assert np.abs(vals - 1).max() < 1e-6

    def test_gt_quadric_tangent_to_rendered_bbox(self):
        # zero-noise: back-projected edge planes of each detection box are
        # tangent to the GT quadric up to the half-pixel rasterization bound
        spec = one_sphere_spec(width=320, height=240, fx=260.0, fy=260.0)
        q = spec.objects[0].quadric()
        Q = q.matrix()
        for bundle, _ in frame_bundles(spec):
            from objmap.quadrics import backproject_bbox_planes

            for det in bundle.detections:
                planes = backproject_bbox_planes(det.bbox, bundle.camera)
                for plane in planes:
                    n = plane / np.linalg.norm(plane[:3])
                    # tangency residual scales with pixel quantization
                    assert abs(n @ Q @ n) < 5e-3

    def test_analytic_tangency_exact(self):
        # with the analytic projected bbox instead of the rasterized one the
        # closure identity holds to 1e-6
        from objmap.quadrics import backproject_bbox_planes

        spec = one_sphere_spec()
        q = spec.objects[0].quadric()
        Q = q.matrix()
        for i in range(spec.n_frames):
            cam = spec.camera_at(i)
            bb = conic_to_bbox(project_to_conic(q, cam))
            for plane in backproject_bbox_planes(bb, cam):
                n = plane / np.linalg.norm(plane[:3])
                assert abs(n @ Q @ n) <= 1e-6

    def test_instance_ids_reference_objects(self):
        spec = multi_shape_spec()
        _, _, inst = render_scene_frame(spec, spec.camera_at(0))
        assert set(np.unique(inst)) <= set(range(len(spec.objects) + 1))


class TestDetections:
    def test_detection_matches_projection_bbox(self):
        spec = one_sphere_spec(n_frames=8)
        q = spec.objects[0].quadric()
        for bundle, _ in frame_bundles(spec):
            assert len(bundle.detections) == 1
            bb = conic_to_bbox(project_to_conic(q, bundle.camera))
            err = np.abs(bb.as_array() - bundle.detections[0].bbox.as_array()).max()
            assert err <= 0.5

    def test_full_dropout(self, tmp_path):
        spec = one_sphere_spec(detection_dropout=1.0)
        for bundle, _ in frame_bundles(spec):
            assert bundle.detections == []

    def test_occluder_splits_object(self):
        # a thin box in front of a wide sphere produces two detections
        spec = SceneSpec(
            objects=[
                ObjectSpec(class_id=1, shape="sphere", center=(0, 0, 0.5), semi_axes=(0.5, 0.5, 0.4)),
                ObjectSpec(class_id=9, shape="box", center=(1.2, 0, 0.5), semi_axes=(0.02, 0.08, 0.6)),
            ],
            n_frames=1,
            trajectory=OrbitTrajectory(target=(0, 0, 0.5), radius=2.5, height=0.6, start_angle=0.0),
            width=160,
            height=120,
        )
        bundle, _ = next(frame_bundles(spec))
        sphere_dets = [d for d in bundle.detections if d.class_id == 1]
        assert len(sphere_dets) == 2

    def test_detect_from_delays_detections(self):
        spec = one_sphere_spec()
        spec.objects[0].detect_from = 3
        for bundle, _ in frame_bundles(spec):
            if bundle.index < 3:
                assert bundle.detections == []
            else:
                assert len(bundle.detections) == 1


class TestDataset:
    def test_generate_deterministic(self, tmp_path):
        spec = multi_shape_spec(bbox_jitter_sigma=1.0, depth_noise_sigma=0.01, detection_dropout=0.1)
        d1 = generate(spec, str(tmp_path / "a"))
        d2 = generate(spec, str(tmp_path / "b"))
        assert tree_hash(d1) == tree_hash(d2)

    def test_roundtrip_exact(self, tmp_path):
        spec = multi_shape_spec()
        d = generate(spec, str(tmp_path / "ds"))
        loaded = list(load(d))
        mem = [b for b, _ in frame_bundles(spec)]
        assert len(loaded) == len(mem)
        for fa, fb in zip(loaded, mem):
            assert np.array_equal(fa.rgb, fb.rgb)
            assert np.array_equal(fa.depth, fb.depth)
            assert np.array_equal(fa.instance, fb.instance)
            assert len(fa.detections) == len(fb.detections)
            for da, db in zip(fa.detections, fb.detections):
                assert da.class_id == db.class_id
                assert np.array_equal(da.bbox.as_array(), db.bbox.as_array())
            assert np.allclose(fa.camera.rotation, fb.camera.rotation, atol=1e-14)
            assert np.allclose(fa.camera.translation, fb.camera.translation, atol=1e-14)

    def test_missing_intrinsics(self, tmp_path):
        spec = one_sphere_spec(n_frames=1)
        d = generate(spec, str(tmp_path / "ds"))
        os.remove(os.path.join(d, "intrinsics.json"))
        with pytest.raises(DatasetError, match="intrinsics"):
            load(d)

    @pytest.mark.parametrize("replace", [
        {4: "0.1x"},
        {4: "0", 5: "0", 6: "0", 7: "0"},
        {2: "nan"},
        {4: "1e-200", 5: "0", 6: "0", 7: "0"},
        {0: "0"},
    ], ids=["non-numeric", "zero-quaternion", "nan", "underflowing-quaternion",
            "repeated-index"])
    def test_non_numeric_pose_field(self, tmp_path, replace):
        d = generate(one_sphere_spec(n_frames=3), str(tmp_path / "ds"))
        path = os.path.join(d, "poses.txt")
        with open(path) as f:
            lines = f.read().splitlines()
        fields = lines[1].split()  # index tx ty tz qx qy qz qw
        for i, value in replace.items():
            fields[i] = value
        lines[1] = " ".join(fields)
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        for read in (load, dataset_cameras):
            with pytest.raises(DatasetError, match=r"poses\.txt:2"):
                read(d)

    @pytest.mark.parametrize("field, value", [
        ("fx", None), ("fx", -120.0), ("fy", 0), ("depth_scale", 0),
        ("depth_scale", float("inf")), ("width", 0), ("width", -5), ("height", float("inf")),
        ("cx", float("nan")), ("cy", float("inf")), ("width", 2.7), ("width", True),
        ("height", 72.0),
    ], ids=["null-fx", "negative-fx", "zero-fy", "zero-depth-scale", "infinite-depth-scale",
            "zero-width", "negative-width", "infinite-height", "nan-cx", "infinite-cy",
            "fractional-width", "bool-width", "float-height"])
    def test_bad_intrinsics_field(self, tmp_path, field, value):
        d = generate(one_sphere_spec(n_frames=1), str(tmp_path / "ds"))
        path = os.path.join(d, "intrinsics.json")
        with open(path) as f:
            intr = json.load(f)
        intr[field] = value
        with open(path, "w") as f:
            json.dump(intr, f)
        for read in (load, dataset_cameras):
            with pytest.raises(DatasetError, match=r"intrinsics\.json"):
                read(d)

    @pytest.mark.parametrize("content", [
        "[{", '[{"class_id": 1, "score": 1.0}]',
        '[{"bbox": [1, 2, 3, 4], "class_id": 1e400, "score": 1.0}]',
        '[{"bbox": [1, 2, 3, 4], "class_id": 1, "score": 2.0}]',
    ], ids=["not-json", "no-bbox", "huge-class-id", "score-above-1"])
    def test_malformed_detections(self, tmp_path, content):
        d = generate(one_sphere_spec(n_frames=1), str(tmp_path / "ds"))
        with open(os.path.join(d, "detections", "000000.json"), "w") as f:
            f.write(content)
        with pytest.raises(DatasetError, match=r"detections/000000\.json"):
            list(load(d))

    def test_image_size_mismatch_names_frame_files(self, tmp_path):
        d = generate(one_sphere_spec(n_frames=2), str(tmp_path / "ds"))
        write_png(os.path.join(d, "depth", "000001.png"), np.zeros((120, 50), np.uint16))
        stream = load(d)
        assert next(stream).index == 0
        with pytest.raises(DatasetError, match=r"depth/000001\.png") as err:
            next(stream)
        assert os.path.join(d, "rgb", "000001.png") in str(err.value)

    def test_dataset_cameras_read_only_poses(self, tmp_path):
        d = generate(one_sphere_spec(n_frames=3), str(tmp_path / "ds"))
        expected = [f.camera for f in load(d)]
        for sub in ("rgb", "depth", "instance"):
            shutil.rmtree(os.path.join(d, sub))
        cams = dataset_cameras(d)
        assert len(cams) == len(expected) == 3
        for a, b in zip(cams, expected):
            assert (a.fx, a.fy, a.cx, a.cy, a.width, a.height) == (
                b.fx, b.fy, b.cx, b.cy, b.width, b.height)
            assert np.array_equal(a.rotation, b.rotation)
            assert np.array_equal(a.translation, b.translation)

    def test_truncated_depth_png_stops_after_prior_frames(self, tmp_path):
        spec = one_sphere_spec(n_frames=3)
        d = generate(spec, str(tmp_path / "ds"))
        bad = os.path.join(d, "depth", "000002.png")
        with open(bad, "rb") as f:
            blob = f.read()
        with open(bad, "wb") as f:
            f.write(blob[: len(blob) // 2])
        stream = load(d)
        got = []
        with pytest.raises(DatasetError, match="000002"):
            for frame in stream:
                got.append(frame.index)
        assert got == [0, 1]

    def test_gt_loadable(self, tmp_path):
        spec = multi_shape_spec()
        d = generate(spec, str(tmp_path / "ds"))
        gt = load_gt(d)
        assert len(gt["objects"]) == 4
        for entry in gt["objects"]:
            assert gt["points"][entry["id"]].shape == (10_000, 3)

    @pytest.mark.parametrize("content", [
        "{\"objects\": [", json.dumps({"objects": 1}),
        '[{"id": 1e400, "class_id": 1, "shape": "sphere", "center": [0, 0, 0], '
        '"rotation_wxyz": [1, 0, 0, 0], "semi_axes": [1, 1, 1], "albedo": [1, 1, 1]}]',
    ], ids=["not-json", "objects-not-list", "huge-id"])
    def test_malformed_gt(self, tmp_path, content):
        d = generate(one_sphere_spec(n_frames=1), str(tmp_path / "ds"))
        with open(os.path.join(d, "gt", "objects.json"), "w") as f:
            f.write(content)
        with pytest.raises(DatasetError, match=r"objects\.json"):
            load_gt(d)

    def test_degenerate_spec_rejected(self):
        with pytest.raises(InvalidParameterError):
            ObjectSpec(class_id=1, shape="cone", center=(0, 0, 0), semi_axes=(1, 1, 1))
        with pytest.raises(InvalidParameterError):
            ObjectSpec(class_id=1, shape="box", center=(0, 0, 0), semi_axes=(1, 0, 1))
        with pytest.raises(InvalidParameterError):
            generate(SceneSpec(objects=[], n_frames=1), "/tmp/unused")


class TestSurfaceSampling:
    def test_points_on_surface(self):
        for shape, power in (("sphere", 2), ("box", 0), ("ellipsoid", 2), ("superellipsoid", 4)):
            obj = ObjectSpec(class_id=1, shape=shape, center=(1, 2, 0.5), semi_axes=(0.3, 0.2, 0.4))
            pts = sample_surface_points(obj, 500, seed=3)
            local = (pts - np.asarray(obj.center)) @ obj.rotation
            rel = local / np.asarray(obj.semi_axes)
            if shape == "box":
                assert np.abs(np.abs(rel).max(axis=1) - 1).max() < 1e-9
            else:
                p = power if power else 2
                assert np.abs(np.sum(np.abs(rel) ** p, axis=1) - 1).max() < 1e-9

    def test_deterministic(self):
        obj = ObjectSpec(class_id=1, shape="sphere", center=(0, 0, 0), semi_axes=(1, 1, 1))
        a = sample_surface_points(obj, 100, seed=5)
        b = sample_surface_points(obj, 100, seed=5)
        assert np.array_equal(a, b)


class TestTrajectories:
    def test_orbit_keeps_object_visible(self):
        spec = one_sphere_spec(n_frames=12)
        for bundle, _ in frame_bundles(spec):
            assert np.any(bundle.instance == 1)

    def test_waypoints(self):
        spec = one_sphere_spec(
            trajectory=WaypointTrajectory(
                waypoints=[(2.5, 0, 1.0), (0, 2.5, 1.0)], target=(0, 0, 0.5)
            ),
            n_frames=4,
        )
        cams = [spec.camera_at(i) for i in range(4)]
        assert not np.allclose(cams[0].translation, cams[-1].translation)
        assert np.allclose(cams[0].translation, [2.5, 0, 1.0])
        assert np.allclose(cams[-1].translation, [0, 2.5, 1.0])
