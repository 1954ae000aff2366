import numpy as np
import pytest

from objmap import association
from objmap.association import (
    ObjectMap,
    associate_frame,
    initialize_track,
    merge_occluded,
)
from objmap.config import PipelineConfig
from objmap.errors import CannotInitializeError, InvalidParameterError
from objmap.frames import UNCLAIMED, Detection2D, FrameBundle, relabel_instances
from objmap.gaussians import GaussianStore, compute_update_masks
from objmap.quadrics import BBox2D, CameraModel, DualQuadric, conic_to_bbox, project_to_conic
from objmap.renderer import render
from oracles import camera_looking_at


def make_camera(**kw):
    args = dict(fx=100.0, fy=100.0, cx=100.0, cy=100.0, width=200, height=200)
    args.update(kw)
    return CameraModel(**args)


def make_frame(camera, detections, depth_value=4.0, index=0):
    h, w = camera.height, camera.width
    return FrameBundle(
        rgb8=np.zeros((h, w, 3), dtype=np.uint8),
        depth=np.full((h, w), depth_value),
        instance=np.zeros((h, w), dtype=np.int32),
        camera=camera,
        detections=detections,
        index=index,
    )


class TestInitializeTrack:
    def test_single_view_with_depth(self):
        cam = make_camera()
        bbox = BBox2D(74.18, 74.18, 125.82, 125.82)
        q = initialize_track([(bbox, cam)], 4.0)
        assert np.allclose(q.center, [0, 0, 4], atol=1e-6)
        assert q.semi_axes[0] == pytest.approx(1.0328, abs=1e-3)
        assert q.semi_axes[1] == pytest.approx(1.0328, abs=1e-3)
        assert np.allclose(q.rotation, np.eye(3))

    def test_single_view_no_depth_fails(self):
        cam = make_camera()
        with pytest.raises(CannotInitializeError):
            initialize_track([(BBox2D(10, 10, 50, 50), cam)], 0.0)

    def test_no_observations_fails(self):
        with pytest.raises(CannotInitializeError):
            initialize_track([])

    def test_two_views_ray_midpoint(self):
        target = np.array([0.2, -0.1, 0.4])
        cams = [
            camera_looking_at(np.array([3.0, 0.0, 1.0]), target),
            camera_looking_at(np.array([0.0, 3.0, 1.0]), target),
        ]
        dets = []
        for cam in cams:
            px, _ = cam.project_points(target[None, :])
            u, v = px[0]
            dets.append((BBox2D(u - 10, v - 10, u + 10, v + 10), cam))
        q = initialize_track(dets)  # no depth hints at all
        assert np.allclose(q.center, target, atol=1e-6)

    def test_parallel_views_fall_back_to_depth(self):
        cam1 = make_camera()
        cam2 = make_camera(translation=np.array([0.0, 0.0, -1.0]))
        bbox = BBox2D(90, 90, 110, 110)
        q = initialize_track([(bbox, cam1), (bbox, cam2)], [4.0, 5.0])
        assert q.center[2] == pytest.approx(4.0)

    def test_parallel_views_no_depth_fails(self):
        cam1 = make_camera()
        cam2 = make_camera(translation=np.array([0.0, 0.0, -1.0]))
        bbox = BBox2D(90, 90, 110, 110)
        with pytest.raises(CannotInitializeError):
            initialize_track([(bbox, cam1), (bbox, cam2)])


class TestAssociateFrame:
    def test_perfect_match(self):
        # track built from an identical first frame: the provisional quadric
        # of the repeated detection coincides with it, so QD = 1
        cam = make_camera()
        obj_map = ObjectMap()
        quadric = DualQuadric([0, 0, 4], np.eye(3), [1, 1, 1])
        bbox = conic_to_bbox(project_to_conic(quadric, cam))
        det = Detection2D(bbox=bbox, class_id=7)
        first = associate_frame(obj_map, make_frame(cam, [det], index=0), PipelineConfig())
        assert first.new_tracks == [0]
        tid = obj_map.live_tracks()[0].object_id
        res = associate_frame(obj_map, make_frame(cam, [det], index=1), PipelineConfig())
        assert res.matches == [(tid, 0)]
        assert res.new_tracks == []
        assert len(obj_map) == 1

    def test_one_depth_hint_per_detection(self, monkeypatch):
        # one detection passes the fine filter and matches, one spawns: each
        # detection's center depth is computed once for the frame
        cam = make_camera()
        obj_map = ObjectMap()
        quadric = DualQuadric([0, 0, 4], np.eye(3), [1, 1, 1])
        match = Detection2D(bbox=conic_to_bbox(project_to_conic(quadric, cam)), class_id=7)
        spawn = Detection2D(bbox=BBox2D(0, 0, 20, 20), class_id=7)
        associate_frame(obj_map, make_frame(cam, [match], index=0), PipelineConfig())
        calls = []
        original = association.center_depth_hint

        def counting(frame, bbox, *args, **kwargs):
            calls.append(bbox)
            return original(frame, bbox, *args, **kwargs)

        monkeypatch.setattr(association, "center_depth_hint", counting)
        res = associate_frame(obj_map, make_frame(cam, [match, spawn], index=1), PipelineConfig())
        assert len(res.matches) == 1 and res.new_tracks == [1]
        assert calls == [match.bbox, spawn.bbox]

    def test_disjoint_detection_spawns_track(self):
        cam = make_camera()
        obj_map = ObjectMap()
        quadric = DualQuadric([0, 0, 4], np.eye(3), [1, 1, 1])
        track = obj_map.new_track(class_id=7)
        track.quadric = quadric
        track.status = "initialized"
        det = Detection2D(bbox=BBox2D(0, 0, 20, 20), class_id=7)
        frame = make_frame(cam, [det])
        res = associate_frame(obj_map, frame, PipelineConfig())
        assert res.matches == []
        assert res.new_tracks == [0]
        assert len(obj_map) == 2

    def test_new_track_ids_are_serial(self):
        # the instance id under a detection is a segmenter label: it never
        # becomes the track id, which is the next serial id
        cam = make_camera()
        dets = [Detection2D(bbox=BBox2D(40, 40, 80, 80), class_id=3),
                Detection2D(bbox=BBox2D(120, 120, 160, 160), class_id=4)]
        frame = make_frame(cam, dets)
        frame.instance[40:80, 40:80] = 4
        frame.instance[120:160, 120:160] = 9
        obj_map = ObjectMap()
        res = associate_frame(obj_map, frame, PipelineConfig())
        assert list(obj_map.tracks) == [1, 2]
        assert res.track_ids == [1, 2]

    def test_track_ids_follow_merges(self):
        # a second detection of the same object spawns a twin that the
        # duplicate route merges away: both detections report the keeper
        cam = make_camera()
        quadric = DualQuadric([0, 0, 4], np.eye(3), [1, 1, 1])
        bbox = conic_to_bbox(project_to_conic(quadric, cam))
        obj_map = ObjectMap()
        associate_frame(obj_map, make_frame(cam, [Detection2D(bbox=bbox, class_id=7)]),
                        PipelineConfig())
        twin = BBox2D(bbox.x_min + 1, bbox.y_min + 1, bbox.x_max + 1, bbox.y_max + 1)
        dets = [Detection2D(bbox=bbox, class_id=7), Detection2D(bbox=twin, class_id=7)]
        res = associate_frame(obj_map, make_frame(cam, dets, index=1), PipelineConfig())
        assert res.matches == [(1, 0)] and res.new_tracks == [1]
        assert res.merges == [(1, 2)]
        assert res.track_ids == [1, 1]
        assert list(obj_map.tracks) == [1]

    def test_empty_frame(self):
        obj_map = ObjectMap()
        frame = make_frame(make_camera(), [])
        res = associate_frame(obj_map, frame, PipelineConfig())
        assert res.matches == [] and res.new_tracks == [] and res.merges == []

    def test_unknown_mode_refused(self):
        """An unknown assoc_mode is refused when the config is built or
        assigned, so it never reaches the map or falls through to the
        quadric-only branch."""
        with pytest.raises(InvalidParameterError, match="assoc_mode"):
            PipelineConfig(assoc_mode="bogus")
        config = PipelineConfig()
        with pytest.raises(InvalidParameterError, match="assoc_mode"):
            config.assoc_mode = "bogus"
        assert config.assoc_mode == "qd+iou"

    def test_class_gating(self):
        cam = make_camera()
        obj_map = ObjectMap()
        quadric = DualQuadric([0, 0, 4], np.eye(3), [1, 1, 1])
        track = obj_map.new_track(class_id=7)
        track.quadric = quadric
        bbox = conic_to_bbox(project_to_conic(quadric, cam))
        det = Detection2D(bbox=bbox, class_id=8)  # wrong class
        res = associate_frame(obj_map, make_frame(cam, [det]), PipelineConfig())
        assert res.matches == []
        assert res.new_tracks == [0]

    def test_one_to_one_assignment(self):
        cam = make_camera()
        obj_map = ObjectMap()
        quadric = DualQuadric([0, 0, 4], np.eye(3), [1, 1, 1])
        bbox = conic_to_bbox(project_to_conic(quadric, cam))
        det = Detection2D(bbox=bbox, class_id=7)
        associate_frame(obj_map, make_frame(cam, [det], index=0), PipelineConfig())
        assert len(obj_map) == 1
        dets = [
            det,
            Detection2D(bbox=BBox2D(bbox.x_min + 3, bbox.y_min + 3, bbox.x_max + 3, bbox.y_max + 3), class_id=7),
        ]
        res = associate_frame(obj_map, make_frame(cam, dets, index=1), PipelineConfig())
        matched_dets = [d for _, d in res.matches]
        assert len(matched_dets) == len(set(matched_dets)) == 1
        assert set(res.new_tracks) | set(matched_dets) == {0, 1}
        assert not (set(res.new_tracks) & set(matched_dets))

    def test_fine_filter_rejects_wrong_depth_match(self):
        # detection projects onto the track but its median depth implies a
        # much closer object: the provisional quadric disagrees -> rejected
        cam = make_camera()
        obj_map = ObjectMap()
        quadric = DualQuadric([0, 0, 4], np.eye(3), [1, 1, 1])
        track = obj_map.new_track(class_id=7)
        track.quadric = quadric
        bbox = conic_to_bbox(project_to_conic(quadric, cam))
        det = Detection2D(bbox=bbox, class_id=7)
        frame = make_frame(cam, [det], depth_value=1.0)  # wrong depth everywhere
        res = associate_frame(obj_map, frame, PipelineConfig(qd_accept=0.6, tau=1.0))
        assert res.matches == []
        assert res.new_tracks == [0]

    def test_track_ids_never_reused(self):
        obj_map = ObjectMap()
        t1 = obj_map.new_track(1)
        obj_map.pop_track(t1.object_id)
        t2 = obj_map.new_track(1)
        assert t2.object_id != t1.object_id


class TestMergeOccluded:
    def _tracked_pair(self, qa, qb, class_id=7):
        obj_map = ObjectMap()
        for q in (qa, qb):
            t = obj_map.new_track(class_id)
            t.quadric = q
            t.status = "initialized"
        return obj_map

    def test_fragment_merge(self):
        # small fragment quadric sitting on the parent surface, nested box
        cam = make_camera()
        parent = DualQuadric([0, 0, 4], np.eye(3), [1, 1, 1])
        fragment = DualQuadric([0.3, 0, 3.3], np.eye(3), [0.3, 0.3, 0.3])
        obj_map = self._tracked_pair(parent, fragment)
        frame = make_frame(cam, [])
        merges = merge_occluded(obj_map, frame, PipelineConfig(tau=1.0))
        assert merges == [(1, 2)]
        assert len(obj_map) == 1

    def test_adjacent_objects_not_merged(self):
        cam = make_camera()
        a = DualQuadric([-0.8, 0, 4], np.eye(3), [0.5, 0.5, 0.5])
        b = DualQuadric([0.8, 0, 4], np.eye(3), [0.5, 0.5, 0.5])
        obj_map = self._tracked_pair(a, b)
        merges = merge_occluded(obj_map, make_frame(cam, []), PipelineConfig())
        assert merges == []
        assert len(obj_map) == 2

    def test_duplicate_merge(self):
        cam = make_camera()
        a = DualQuadric([0, 0, 4], np.eye(3), [1, 1, 1])
        b = DualQuadric([0.02, 0, 4], np.eye(3), [1.001, 1.0, 1.0])
        obj_map = self._tracked_pair(a, b)
        merges = merge_occluded(obj_map, make_frame(cam, []), PipelineConfig())
        assert len(merges) == 1
        assert len(obj_map) == 1

    def test_different_class_never_merges(self):
        cam = make_camera()
        parent = DualQuadric([0, 0, 4], np.eye(3), [1, 1, 1])
        fragment = DualQuadric([0.3, 0, 3.3], np.eye(3), [0.3, 0.3, 0.3])
        obj_map = ObjectMap()
        for q, cls in ((parent, 1), (fragment, 2)):
            t = obj_map.new_track(cls)
            t.quadric = q
        merges = merge_occluded(obj_map, make_frame(cam, []), PipelineConfig())
        assert merges == []


class TestRelabelInstances:
    def _frame(self):
        # segments 5 and 8 side by side, 3 in a corner; background elsewhere
        cam = make_camera()
        dets = [Detection2D(bbox=BBox2D(20, 20, 60, 60), class_id=1),
                Detection2D(bbox=BBox2D(22, 22, 58, 58), class_id=1),
                Detection2D(bbox=BBox2D(100, 20, 140, 60), class_id=2)]
        frame = make_frame(cam, dets)
        frame.instance[20:60, 20:60] = 5
        frame.instance[20:60, 100:140] = 8
        frame.instance[150:170, 150:170] = 3
        return frame

    def test_segments_take_detection_labels(self):
        frame = self._frame()
        out = relabel_instances(frame, [11, 12, 13])
        # the first detection claims the segment both detections own
        assert set(np.unique(out.instance[20:60, 20:60])) == {11}
        assert set(np.unique(out.instance[20:60, 100:140])) == {13}
        assert set(np.unique(out.instance[150:170, 150:170])) == {UNCLAIMED}
        assert np.array_equal(out.instance == 0, frame.instance == 0)
        assert frame.instance[30, 30] == 5  # the input frame is unchanged

    @pytest.mark.parametrize("include_background", [False, True])
    def test_unclaimed_segment_never_masked(self, include_background):
        frame = relabel_instances(self._frame(), [11, 12, 13])
        out = render(GaussianStore(), frame.camera, instance_ref=frame.instance)
        masks = compute_update_masks(
            frame, out, PipelineConfig(include_background=include_background))
        unclaimed = frame.instance == UNCLAIMED
        assert not (masks.geo_mask & unclaimed).any()
        assert not (masks.rgb_mask & unclaimed).any()
        assert sorted(masks.per_object) == ([0] if include_background else []) + [11, 13]
        assert masks.geo_mask[frame.instance == 0].all() == include_background


class TestMedian:
    """`association._median` gives np.median's bits without importing
    numpy.ma."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 25, 26])
    def test_matches_np_median(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 1e5):
            x = rng.normal(size=n) * scale
            assert np.asarray(association._median(x)).tobytes() == np.median(x).tobytes()
            assert float(association._median(list(x))) == float(np.median(list(x)))
            a = rng.normal(size=(n, 3)) * scale
            got = association._median(a, axis=0)
            assert got.shape == (3,) and got.tobytes() == np.median(a, axis=0).tobytes()

    @pytest.mark.parametrize("n", [3, 4])
    def test_nan(self, n):
        x = np.arange(n, dtype=float)
        x[1] = np.nan
        assert np.isnan(association._median(x)) and np.isnan(np.median(x))
        a = np.arange(3.0 * n).reshape(n, 3)
        a[0, 1] = np.nan
        got, ref = association._median(a, axis=0), np.median(a, axis=0)
        assert got.tobytes() == ref.tobytes() and np.isnan(got[1]) and not np.isnan(got[0])
