import numpy as np
import pytest

from objmap.config import PipelineConfig
from objmap.errors import InvalidParameterError
from objmap.frames import FrameBundle
from objmap.gaussians import (
    KIND_OPAQUE,
    KIND_TRANSPARENT,
    STORE_ARRAYS,
    GaussianStore,
    UpdateMasks,
    compute_update_masks,
    densify_from_mask,
    export_object_ply,
    extract_object,
    import_object_ply,
    select_trainable,
)
from objmap.quadrics import CameraModel
from objmap.renderer import RenderOutput
from objmap.simulator import ObjectSpec, OrbitTrajectory, SceneSpec, frame_bundles
from oracles import per_gaussian_select_trainable, store_of

IDENTITY = np.array([1.0, 0, 0, 0])


def camera(w=80, h=60, f=70.0):
    return CameraModel(fx=f, fy=f, cx=w / 2, cy=h / 2, width=w, height=h)


def synthetic_frame(cam, depth_value=2.0, object_box=None):
    h, w = cam.height, cam.width
    rgb8 = np.full((h, w, 3), 128, dtype=np.uint8)
    depth = np.full((h, w), depth_value)
    instance = np.zeros((h, w), dtype=np.int32)
    if object_box:
        x0, y0, x1, y1 = object_box
        instance[y0:y1, x0:x1] = 1
    return FrameBundle(rgb8=rgb8, depth=depth, instance=instance, camera=cam,
                       detections=[], index=0)


def perfect_render(frame):
    h, w = frame.shape
    return RenderOutput(
        color=frame.rgb.copy(),
        depth=frame.depth.copy(),
        instance=np.ones((h, w)),
        alpha=np.ones((h, w)) * 0.99,
        transmittance=np.ones((h, w)) * 0.01,
    )


def empty_render(frame):
    h, w = frame.shape
    return RenderOutput(
        color=np.zeros((h, w, 3)),
        depth=np.zeros((h, w)),
        instance=np.zeros((h, w)),
        alpha=np.zeros((h, w)),
        transmittance=np.ones((h, w)),
    )


class TestStore:
    def test_extend_and_extract(self):
        store = GaussianStore()
        store.extend(store_of([
            (np.zeros(3), np.full(3, 0.01), IDENTITY, 0.9, np.zeros(3), 1, KIND_OPAQUE)
            for _ in range(10)
        ]))
        store.extend(store_of([
            (np.ones(3), np.full(3, 0.01), IDENTITY, 0.1, np.ones(3), 2, KIND_TRANSPARENT)
            for _ in range(5)
        ]))
        store.means[:] = np.arange(45).reshape(15, 3)  # tell the rows apart
        assert len(extract_object(store, 2)) == 5
        assert len(extract_object(store, 1)) == 10
        # the object's rows, in order, as a store of their own
        for k, rows in ((1, slice(0, 10)), (2, slice(10, 15))):
            obj = extract_object(store, k)
            assert isinstance(obj, GaussianStore)
            for name in STORE_ARRAYS:
                assert np.array_equal(getattr(obj, name), getattr(store, name)[rows]), name
        empty = extract_object(store, 99)
        assert isinstance(empty, GaussianStore) and len(empty) == 0
        # appended in order, with the store's dtypes
        assert np.array_equal(store.object_ids, [1] * 10 + [2] * 5)
        assert np.array_equal(store.kinds, [KIND_OPAQUE] * 10 + [KIND_TRANSPARENT] * 5)
        assert np.array_equal(store.opacities, [0.9] * 10 + [0.1] * 5)
        assert store.object_ids.dtype == np.int32 and store.kinds.dtype == np.uint8
        assert store.means.shape == (15, 3) and store.quats.shape == (15, 4)

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        store = store_of([
            (rng.normal(size=3), np.full(3, 0.01), IDENTITY, 0.9, rng.uniform(0, 1, 3),
             int(rng.integers(0, 4)), KIND_OPAQUE)
            for _ in range(40)
        ])
        total = sum(len(extract_object(store, k)) for k in store.present_ids())
        assert total == len(store)

    def test_rewrite_object_id_atomic(self):
        store = store_of([
            (np.zeros(3), np.full(3, 0.01), IDENTITY, 0.9, np.zeros(3), 3, KIND_OPAQUE)
            for _ in range(7)
        ])
        moved = store.rewrite_object_id(3, 8)
        assert moved == 7
        assert len(extract_object(store, 3)) == 0
        assert len(extract_object(store, 8)) == 7

    def test_clamp_keeps_classes(self):
        store = store_of([
            (np.zeros(3), np.full(3, 0.01), IDENTITY, 0.9, np.zeros(3), 1, KIND_OPAQUE),
            (np.zeros(3), np.full(3, 0.01), IDENTITY, 0.1, np.zeros(3), 1, KIND_TRANSPARENT),
        ])
        store.opacities[0] = 0.2   # drifted below the class band
        store.opacities[1] = 0.8   # drifted above
        store.clamp_parameters()
        assert store.opacities[0] >= 0.5
        assert store.opacities[1] <= 0.5


class TestMasks:
    def test_perfect_render_empty_masks(self):
        cam = camera()
        frame = synthetic_frame(cam, object_box=(10, 10, 40, 40))
        masks = compute_update_masks(frame, perfect_render(frame), PipelineConfig())
        assert masks.masked_counts() == (0, 0)

    def test_fresh_map_masks_all_object_pixels(self):
        cam = camera()
        frame = synthetic_frame(cam, object_box=(10, 10, 40, 40))
        masks = compute_update_masks(frame, empty_render(frame), PipelineConfig())
        assert np.count_nonzero(masks.geo_mask) == 30 * 30
        assert set(masks.per_object) == {1}

    def test_include_background_widens_geo(self):
        cam = camera()
        frame = synthetic_frame(cam, object_box=(10, 10, 40, 40))
        masks = compute_update_masks(
            frame, empty_render(frame), PipelineConfig(include_background=True)
        )
        assert np.count_nonzero(masks.geo_mask) == 80 * 60

    def test_threshold_arithmetic(self):
        cam = camera()
        frame = synthetic_frame(cam, object_box=(0, 0, 80, 60))
        render_out = perfect_render(frame)
        render_out.depth[5, 5] += 0.05        # below theta_d: fine
        render_out.depth[6, 6] += 0.2         # above theta_d: geo
        render_out.instance[7, 7] = 0.95      # fine
        render_out.instance[8, 8] = 0.5       # below theta_alpha: geo
        render_out.color[9, 9, 0] += 0.2      # above theta_c: rgb
        masks = compute_update_masks(frame, render_out, PipelineConfig())
        assert not masks.geo_mask[5, 5]
        assert masks.geo_mask[6, 6]
        assert not masks.geo_mask[7, 7]
        assert masks.geo_mask[8, 8]
        assert masks.rgb_mask[9, 9]
        assert not masks.geo_mask[9, 9]

    def test_invalid_depth_excluded(self):
        cam = camera()
        frame = synthetic_frame(cam, object_box=(0, 0, 80, 60))
        frame.depth[20, 20] = 0.0
        masks = compute_update_masks(frame, empty_render(frame), PipelineConfig())
        assert not masks.geo_mask[20, 20]

    def test_dimension_mismatch_rejected(self):
        cam = camera()
        frame = synthetic_frame(cam)
        other = synthetic_frame(camera(w=40, h=30))
        with pytest.raises(InvalidParameterError):
            compute_update_masks(frame, empty_render(other), PipelineConfig())


class TestDensify:
    def test_count_matches_stride_grid(self):
        # 100x100 object at stride 4 -> about 625 opaque gaussians
        cam = camera(w=160, h=120, f=100.0)
        frame = synthetic_frame(cam, object_box=(10, 10, 110, 110))
        masks = compute_update_masks(frame, empty_render(frame), PipelineConfig())
        new = densify_from_mask(frame, masks, empty_render(frame), PipelineConfig(stride=4))
        assert len(new) == pytest.approx(625, abs=60)
        assert np.all(new.object_ids == 1) and new.object_ids.dtype == np.int32
        assert np.all(new.kinds == KIND_OPAQUE) and new.kinds.dtype == np.uint8
        assert np.all(new.opacities == 0.9)

    def test_empty_masks_no_spawn(self):
        cam = camera()
        frame = synthetic_frame(cam, object_box=(10, 10, 40, 40))
        masks = compute_update_masks(frame, perfect_render(frame), PipelineConfig())
        assert len(densify_from_mask(frame, masks, perfect_render(frame), PipelineConfig())) == 0

    def test_backprojection_at_principal_point(self):
        cam = camera(w=80, h=60, f=100.0)
        frame = synthetic_frame(cam, depth_value=2.0, object_box=(0, 0, 80, 60))
        masks = compute_update_masks(frame, empty_render(frame), PipelineConfig())
        new = densify_from_mask(frame, masks, empty_render(frame), PipelineConfig(stride=2))
        # gaussian spawned at the principal point pixel: mean on the optical axis
        best = new.means[np.argmin(np.abs(new.means[:, 0]) + np.abs(new.means[:, 1]))]
        assert np.allclose(best[2], 2.0, atol=1e-9)
        assert abs(best[0]) < 2.0 / 100.0  # within one pixel of the axis

    def test_zero_depth_pixels_skipped(self):
        cam = camera()
        frame = synthetic_frame(cam, object_box=(0, 0, 80, 60))
        frame.depth[:, :40] = 0.0
        masks = compute_update_masks(frame, empty_render(frame), PipelineConfig())
        new = densify_from_mask(frame, masks, empty_render(frame), PipelineConfig(stride=2))
        px, _ = frame.camera.project_points(new.means)
        assert np.all(px[:, 0] >= 39.0)

    def test_transparent_spawned_at_rendered_depth(self):
        cam = camera()
        frame = synthetic_frame(cam, object_box=(0, 0, 80, 60))
        rout = perfect_render(frame)
        rout.color[:, :, 0] += 0.3  # color error everywhere -> rgb mask
        rout.depth[:] = 1.95        # within theta_d, so not a geometry error
        masks = compute_update_masks(frame, rout, PipelineConfig())
        assert masks.masked_counts()[0] == 0  # no geo pixels
        new = densify_from_mask(frame, masks, rout, PipelineConfig(stride=4))
        tg = new.kinds == KIND_TRANSPARENT
        assert np.any(tg)
        assert np.all(new.opacities[tg] == 0.1)
        cam_depth = cam.to_camera(new.means[tg])[:, 2]
        assert np.allclose(cam_depth, 1.95, atol=1e-9)

    def test_spawn_budget(self):
        cam = camera()
        frame = synthetic_frame(cam, object_box=(0, 0, 80, 60))
        masks = compute_update_masks(frame, empty_render(frame), PipelineConfig())
        new = densify_from_mask(frame, masks, empty_render(frame),
                                PipelineConfig(stride=1, max_new_per_frame=100))
        assert len(new) == 100
        # the cap keeps the first spawns in scan order
        full = densify_from_mask(frame, masks, empty_render(frame), PipelineConfig(stride=1))
        for name in STORE_ARRAYS:
            assert np.array_equal(getattr(new, name), getattr(full, name)[:100])

    def test_geometry_spawns_before_color(self):
        cam = camera()
        frame = synthetic_frame(cam, object_box=(0, 0, 80, 60))
        rout = perfect_render(frame)
        rout.color[:, :, 0] += 0.3       # color error everywhere
        rout.depth[:, :40] = 1.5         # depth error on the left half only
        masks = compute_update_masks(frame, rout, PipelineConfig())
        new = densify_from_mask(frame, masks, rout, PipelineConfig(stride=2))
        n_geo = np.count_nonzero(new.kinds == KIND_OPAQUE)
        assert 0 < n_geo < len(new)
        assert np.all(new.kinds[:n_geo] == KIND_OPAQUE)
        assert np.all(new.kinds[n_geo:] == KIND_TRANSPARENT)
        assert np.all(new.opacities[:n_geo] == 0.9) and np.all(new.opacities[n_geo:] == 0.1)


class TestSelectTrainable:
    def _scene_with_two_objects(self):
        spec = SceneSpec(
            objects=[
                ObjectSpec(class_id=1, shape="sphere", center=(-0.5, 0, 0.4),
                           semi_axes=(0.25, 0.25, 0.25)),
                ObjectSpec(class_id=2, shape="box", center=(0.6, 0, 0.3),
                           semi_axes=(0.2, 0.2, 0.3)),
            ],
            n_frames=1, width=120, height=90, fx=90, fy=90,
            trajectory=OrbitTrajectory(target=(0, 0, 0.35), radius=2.0, height=1.0),
        )
        bundle, _ = next(frame_bundles(spec))
        store = GaussianStore()
        out = empty_render(bundle)
        masks = compute_update_masks(bundle, out, PipelineConfig())
        store.extend(densify_from_mask(bundle, masks, out, PipelineConfig(stride=2)))
        return bundle, store

    def test_empty_masks_select_nothing(self):
        bundle, store = self._scene_with_two_objects()
        pr = perfect_render(bundle)
        masks = compute_update_masks(bundle, pr, PipelineConfig())
        for k in (1, 2):
            assert len(select_trainable(store, masks, k, bundle.camera)) == 0

    def test_full_mask_selects_visible_gaussians(self):
        bundle, store = self._scene_with_two_objects()
        masks = compute_update_masks(bundle, empty_render(bundle), PipelineConfig())
        sel = select_trainable(store, masks, 1, bundle.camera)
        assert len(sel) == len(store.object_indices(1))

    def test_disjoint_objects_never_cross_select(self):
        bundle, store = self._scene_with_two_objects()
        masks = compute_update_masks(bundle, empty_render(bundle), PipelineConfig())
        # mask only object 1's pixels
        masks.per_object.pop(2, None)
        sel1 = set(select_trainable(store, masks, 1, bundle.camera).tolist())
        sel2 = set(select_trainable(store, masks, 2, bundle.camera).tolist())
        ids = store.object_ids
        assert all(ids[i] == 1 for i in sel1)
        assert sel2 == set()

    def test_unknown_object_empty(self):
        bundle, store = self._scene_with_two_objects()
        masks = compute_update_masks(bundle, empty_render(bundle), PipelineConfig())
        assert len(select_trainable(store, masks, 42, bundle.camera)) == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_gaussian_reference(self, seed):
        """Random stores with Gaussians behind the camera and off the image;
        object 3 has no masked pixels and object 4 no Gaussians."""
        rng = np.random.default_rng(seed)
        cam = camera()
        n = 300
        store = GaussianStore(
            means=np.column_stack([rng.uniform(-3, 3, n), rng.uniform(-3, 3, n),
                                   rng.uniform(-1, 4, n)]),
            scales=rng.uniform(0.01, 0.5, (n, 3)),
            quats=rng.normal(size=(n, 4)),
            opacities=np.full(n, 0.9),
            colors=np.full((n, 3), 0.5),
            object_ids=rng.integers(1, 4, n),
            kinds=np.full(n, KIND_OPAQUE),
        )
        # the camera sits at the origin looking down +z
        x, z = store.means[:, 0], store.means[:, 2]
        u = cam.fx * x / np.where(z > 0, z, 1.0) + cam.cx
        assert np.any(z < 0) and np.any((z > 0) & ((u < 0) | (u > cam.width)))

        h, w = cam.height, cam.width
        geo = rng.random(h * w) < 0.02
        rgb = (rng.random(h * w) < 0.02) & ~geo
        owner = rng.integers(1, 3, h * w)
        per_object = {k: (np.flatnonzero(geo & (owner == k)), np.flatnonzero(rgb & (owner == k)))
                      for k in (1, 2)}
        per_object[3] = (np.empty(0, dtype=int), np.empty(0, dtype=int))
        masks = UpdateMasks(geo_mask=geo.reshape(h, w), rgb_mask=rgb.reshape(h, w),
                            per_object=per_object)
        for k in (1, 2, 3, 4):
            want = per_gaussian_select_trainable(store, masks, k, cam)
            got = select_trainable(store, masks, k, cam)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            if k in (1, 2):  # the sparse mask catches some footprints, not all
                assert 0 < len(want) < len(store.object_indices(k))


class TestPlyRoundtrip:
    def test_export_import_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        store = store_of([
            (rng.normal(size=3), np.full(3, 0.02), IDENTITY, 0.9, rng.uniform(0, 1, 3),
             4, KIND_OPAQUE)
            for _ in range(20)
        ])
        path = tmp_path / "obj4.ply"
        n = export_object_ply(store, 4, path)
        assert n == 20
        back = import_object_ply(path)
        assert len(back) == 20
        # float32 payload round-trips bit-exactly on re-export
        path2 = tmp_path / "obj4_again.ply"
        export_object_ply(back, 4, path2)
        assert path.read_bytes() == path2.read_bytes()
        assert np.allclose(store.means[store.object_indices(4)], back.means, atol=1e-6)
        assert np.all(back.scales == 0.01) and np.all(back.quats == IDENTITY)
        assert np.all(back.kinds == KIND_OPAQUE)
