import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from objmap import renderer
from objmap.config import PipelineConfig
from objmap.errors import InvalidParameterError
from objmap.frames import FrameBundle
from objmap.gaussians import (
    KIND_OPAQUE,
    KIND_TRANSPARENT,
    STORE_ARRAYS,
    TRAINABLE,
    GaussianStore,
)
from objmap.quadrics import CameraModel
from objmap.renderer import (
    RenderOutput,
    dump_render_pngs,
    loss_and_gradients,
    optimize_object,
    render,
)
from oracles import (
    reference_flat_entries,
    reference_loss_and_gradients,
    reference_render,
    store_of,
)


def camera_64():
    return CameraModel(fx=80.0, fy=80.0, cx=32.0, cy=32.0, width=64, height=64)


def prim(mean, scale=0.05, opacity=0.9, color=(1.0, 0.0, 0.0), object_id=1,
         kind=KIND_OPAQUE, rotation=(1.0, 0.0, 0.0, 0.0)):
    """One store_of row."""
    return (mean, np.broadcast_to(scale, 3), rotation, opacity, color, object_id, kind)


def random_scene(rng, n, image_cam=None):
    rows = []
    for i in range(n):
        z = 1.5 + 0.25 * i + rng.uniform(0, 0.1)
        rows.append((
            np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), z]),
            rng.uniform(0.05, 0.12, 3),
            _rand_quat(rng),
            rng.uniform(0.3, 0.9),
            rng.uniform(0.2, 0.8, 3),
            1 if i % 2 == 0 else 2,
            KIND_OPAQUE if i % 3 != 2 else KIND_TRANSPARENT,
        ))
    return store_of(rows)


def array_scene(rng, n, near_opaque=0.3):
    """n random Gaussians in front of camera_64-like views, objects 1-3; a
    `near_opaque` share is large with opacity within 5e-4 of 1, so their
    alphas clamp at ALPHA_CAP near the centre."""
    quats = rng.normal(size=(n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    opacities = rng.uniform(0.3, 0.99, n)
    scales = rng.uniform(0.01, 0.06, (n, 3))
    opaque = rng.uniform(size=n) < near_opaque
    opacities[opaque] = rng.uniform(0.9995, 1.0, opaque.sum())
    scales[opaque] = rng.uniform(0.1, 0.2, (opaque.sum(), 3))
    return GaussianStore(
        means=np.column_stack([rng.uniform(-0.5, 0.5, n), rng.uniform(-0.4, 0.4, n),
                               rng.uniform(1.5, 2.5, n)]),
        scales=scales,
        quats=quats,
        opacities=opacities,
        colors=rng.uniform(0.0, 1.0, (n, 3)),
        object_ids=rng.integers(1, 4, n).astype(np.int32),
        kinds=np.where(rng.uniform(size=n) < 0.7, KIND_OPAQUE, KIND_TRANSPARENT).astype(np.uint8),
    )


def _rand_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def to_rgb8(color: np.ndarray) -> np.ndarray:
    """A float image in [0, 1] as a frame's 8-bit colour."""
    return np.round(color * 255.0).astype(np.uint8)


def gradcheck_frame(store, cam, k):
    """Target images with residuals bounded away from the abs-kinks."""
    out = render(store, cam)
    h, w = cam.height, cam.width
    xx, yy = np.meshgrid(np.arange(w), np.arange(h))
    rgb = np.stack(
        [0.5 + 0.3 * np.sin(2 * np.pi * xx / 17),
         0.5 + 0.3 * np.cos(2 * np.pi * yy / 23),
         np.ones((h, w))],
        axis=2,
    )
    depth = np.where(out.alpha > 0.5, out.depth + 0.5, 0.0)
    inst = np.where(out.instance > 0.5, k, 0).astype(np.int32)
    return FrameBundle(rgb8=to_rgb8(rgb), depth=depth, instance=inst, camera=cam,
                       detections=[], index=0)


class TestForward:
    def test_empty_map_renders_zeros(self):
        out = render(GaussianStore(), camera_64())
        assert not out.color.any()
        assert not out.depth.any()
        assert not out.alpha.any()
        assert np.all(out.transmittance == 1.0)

    def test_single_gaussian_on_pixel_center(self):
        # mean projects exactly onto pixel center (32,32): u = 80*x/z + 32 = 32.5
        cam = camera_64()
        z = 2.0
        store = store_of([prim([0.5 / 80 * z, 0.5 / 80 * z, z], opacity=0.9)])
        out = render(store, cam)
        assert out.alpha[32, 32] == pytest.approx(0.9, abs=1e-12)
        assert out.depth[32, 32] == pytest.approx(2.0, abs=1e-12)

    def test_two_layer_transmittance(self):
        cam = camera_64()
        z1, z2 = 2.0, 3.0
        store = store_of([
            prim([0.5 / 80 * z1, 0.5 / 80 * z1, z1], opacity=0.9),
            prim([0.5 / 80 * z2, 0.5 / 80 * z2, z2], opacity=0.9, color=(0, 1, 0)),
        ])
        out = render(store, cam)
        assert out.alpha[32, 32] == pytest.approx(0.99, abs=1e-12)

    def test_alpha_plus_transmittance_is_one(self):
        store = random_scene(np.random.default_rng(3), 30)
        out = render(store, camera_64())
        assert np.abs(out.alpha + out.transmittance - 1.0).max() <= 1e-6

    def test_instance_channel_bounds_and_support(self):
        store = random_scene(np.random.default_rng(4), 20)
        out = render(store, camera_64(), instance_ref=np.full((64, 64), 1))
        assert out.instance.min() >= 0.0
        assert out.instance.max() <= 1.0
        # zero where no object-1 gaussian projects: check far corner
        assert out.instance[0, 0] == 0.0

    def test_depth_zero_below_alpha_floor(self):
        store = random_scene(np.random.default_rng(5), 10)
        out = render(store, camera_64())
        assert np.all(out.depth[out.alpha < 1e-4] == 0.0)

    def test_deterministic_bit_identical(self):
        store = random_scene(np.random.default_rng(6), 25)
        a = render(store, camera_64())
        b = render(store, camera_64())
        assert np.array_equal(a.color, b.color)
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(a.instance, b.instance)
        assert np.array_equal(a.alpha, b.alpha)

    def test_instance_restricted_to_opaque(self):
        cam = camera_64()
        z = 2.0
        store = store_of([
            prim([0.5 / 80 * z, 0.5 / 80 * z, z], opacity=0.4, kind=KIND_TRANSPARENT,
                 object_id=1),
        ])
        out = render(store, cam, instance_ref=np.full((cam.height, cam.width), 1))
        assert out.instance.max() == 0.0  # transparent gaussians excluded
        assert out.alpha.max() > 0.0

    @pytest.mark.parametrize("shape", [(32, 24), (48, 64), (2, 2)],
                             ids=["transposed", "larger", "smaller"])
    def test_instance_ref_of_another_shape_refused(self, shape):
        """A 24x32 camera takes only a (24, 32) reference map: a transposed
        or larger one would be read by flat index and a smaller one would
        fail on an index."""
        cam = CameraModel(fx=40.0, fy=40.0, cx=16.0, cy=12.0, width=32, height=24)
        store = random_scene(np.random.default_rng(2), 10)
        ones = np.ones((24, 32), np.int32)
        assert render(store, cam, instance_ref=ones).instance.any()
        with pytest.raises(InvalidParameterError, match="instance_ref"):
            render(store, cam, instance_ref=np.ones(shape, np.int32))


class TestGradients:
    def test_color_gradient_single_gaussian(self):
        # color target differs -> analytic color gradient matches FD at 1e-4
        cam = camera_64()
        store = store_of(
            [prim([0.0125 * 2, 0.0125 * 2, 2.0], color=(0.5, 0.5, 0.5))])
        frame = gradcheck_frame(store, cam, 1)
        _, grads, _ = loss_and_gradients(store, np.arange(1), frame, lam=0.5, object_id=1)
        h = 1e-4
        for ch in range(3):
            store.colors[0, ch] += h
            lp, _, _ = loss_and_gradients(store, np.empty(0, int), frame, lam=0.5, object_id=1)
            store.colors[0, ch] -= 2 * h
            lm, _, _ = loss_and_gradients(store, np.empty(0, int), frame, lam=0.5, object_id=1)
            store.colors[0, ch] += h
            fd = (lp - lm) / (2 * h)
            assert abs(grads.colors[0, ch] - fd) <= 1e-3 * max(abs(fd), abs(grads.colors[0, ch]), 1e-6)

    @pytest.mark.parametrize("seed,n", [(100, 1), (104, 1), (110, 5), (114, 5)])
    def test_gradcheck_random_scene(self, seed, n):
        cam = camera_64()
        rng = np.random.default_rng(seed)
        store = random_scene(rng, n)
        frame = gradcheck_frame(store, cam, 1)
        _, grads, _ = loss_and_gradients(store, np.arange(len(store)), frame,
                                         lam=0.5, object_id=1)

        def fd_loss():
            l, _, _ = loss_and_gradients(store, np.empty(0, int), frame, lam=0.5, object_id=1)
            return l

        def check(arr_get, arr_set, analytic, h):
            x0 = arr_get()
            arr_set(x0 + h)
            lp = fd_loss()
            arr_set(x0 - h)
            lm = fd_loss()
            arr_set(x0)
            fd = (lp - lm) / (2 * h)
            assert abs(analytic - fd) <= 1e-3 * max(abs(analytic), abs(fd), 1e-6)

        for i in range(len(store)):
            for ch in range(3):
                check(lambda: store.colors[i, ch],
                      lambda val: store.colors.__setitem__((i, ch), val),
                      grads.colors[i, ch], 1e-4)
            check(lambda: store.opacities[i],
                  lambda val: store.opacities.__setitem__(i, val),
                  grads.opacities[i], 1e-4)

    def test_converged_scene_zero_gradients(self):
        cam = camera_64()
        store = random_scene(np.random.default_rng(42), 3)
        out = render(store, cam)
        frame = FrameBundle(
            rgb8=to_rgb8(out.color),
            depth=np.zeros_like(out.depth),  # no valid target depth
            instance=np.zeros(out.depth.shape, dtype=np.int32),
            camera=cam, detections=[], index=0,
        )
        frame.rgb = out.color.copy()  # the render itself, finer than 8 bits
        loss, grads, _ = loss_and_gradients(store, np.arange(len(store)), frame,
                                            lam=0.0, object_id=1)
        assert loss == pytest.approx(0.0, abs=1e-9)
        assert np.abs(grads.colors).max() == pytest.approx(0.0, abs=1e-9)
        assert np.abs(grads.opacities).max() == pytest.approx(0.0, abs=1e-9)

    def test_lambda_zero_drops_instance_term(self):
        cam = camera_64()
        store = random_scene(np.random.default_rng(2), 4)
        frame = gradcheck_frame(store, cam, 1)
        l0, _, parts0 = loss_and_gradients(store, np.empty(0, int), frame, lam=0.0, object_id=1)
        l5, _, parts5 = loss_and_gradients(store, np.empty(0, int), frame, lam=0.5, object_id=1)
        assert l0 == pytest.approx(parts0["rgb"] + parts0["depth"], rel=1e-12)
        assert l5 == pytest.approx(l0 + 0.5 * parts5["ins"], rel=1e-12)

    def test_stale_indices_rejected(self):
        cam = camera_64()
        store = random_scene(np.random.default_rng(1), 2)
        frame = gradcheck_frame(store, cam, 1)
        with pytest.raises(InvalidParameterError):
            loss_and_gradients(store, np.array([5]), frame)


def assert_same_render(got: RenderOutput, ref: RenderOutput):
    for f in fields(RenderOutput):
        assert getattr(got, f.name).tobytes() == getattr(ref, f.name).tobytes(), f.name


def assert_same_evaluation(got, ref):
    """Loss, parts and every gradient of two evaluations, byte for byte."""
    assert got[0] == ref[0] and got[2] == ref[2]
    for name in TRAINABLE:
        assert getattr(got[1], name).tobytes() == getattr(ref[1], name).tobytes(), name


class TestLeanExpansion:
    """The in-place, blocked renderer gives the same bits as the plain
    expressions of the oracles (TestSkeleton compares an evaluation over a
    prebuilt footprint skeleton with one that builds its own)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_render_matches_reference_expansion(self, seed):
        cam = camera_64()
        rng = np.random.default_rng(seed)
        store = array_scene(rng, 80)
        ref_ids = rng.integers(0, 4, (cam.height, cam.width))
        proj = renderer.project_gaussian_subset(store, np.arange(len(store)), cam)
        assert reference_flat_entries(proj, store.opacities, cam.height, cam.width)[
            "clamped"].any()
        assert_same_render(render(store, cam, instance_ref=ref_ids),
                           reference_render(store, cam, instance_ref=ref_ids))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_backward_matches_reference_expansion(self, seed):
        cam = camera_64()
        store = array_scene(np.random.default_rng(seed), 80)
        frame = gradcheck_frame(store, cam, 1)
        idx = store.object_indices(1)
        assert_same_evaluation(loss_and_gradients(store, idx, frame, object_id=1),
                               reference_loss_and_gradients(store, idx, frame, object_id=1))


def memory_scene():
    """TestMemory's camera and 2,000-Gaussian scene (68,100 kept entries)."""
    cam = CameraModel(fx=100.0, fy=100.0, cx=64.0, cy=48.0, width=128, height=96)
    store = array_scene(np.random.default_rng(0), 2000, near_opaque=0.0)
    store.scales *= 0.5
    return cam, store


class TestBlockedExpansion:
    """`_skeleton` expands footprints in blocks of whole Gaussians; every
    skeleton array is byte for byte what the unblocked plain expressions of
    `reference_flat_entries` give."""

    KEYS = ("row", "pix", "raw", "seg_starts", "seg_ends")

    @staticmethod
    def _blocks(monkeypatch) -> list:
        """Record the pre-cut entry count of every block expanded."""
        expand = renderer._expand
        blocks = []

        def recording(proj, rows, x0, y0, widths, counts, w):
            blocks.append(int(counts.sum()))
            return expand(proj, rows, x0, y0, widths, counts, w)

        monkeypatch.setattr(renderer, "_expand", recording)
        return blocks

    def _check(self, store, cam):
        """The skeleton matches the reference; returns the entry count."""
        proj = renderer.project_gaussian_subset(store, np.arange(len(store)), cam)
        ref = reference_flat_entries(proj, store.opacities, cam.height, cam.width)
        skel = renderer._skeleton(proj, cam.height, cam.width)
        assert set(skel) == set(self.KEYS) | {"depth", "size"}
        assert skel["depth"].tobytes() == proj["z"].tobytes()
        for key in self.KEYS:
            if ref is None:
                assert len(skel[key]) == 0, key
                continue
            want = ref[key]
            if key in ("row", "pix"):  # the skeleton keeps its indices 32-bit
                assert skel[key].dtype == np.int32, key
                want = want.astype(np.int32)
            assert skel[key].dtype == want.dtype, key
            assert skel[key].tobytes() == want.tobytes(), key
        if ref is not None:  # an entry's depth is its Gaussian's
            assert skel["depth"][skel["row"]].tobytes() == ref["z"].tobytes()
        return 0 if ref is None else len(ref["row"])

    @pytest.mark.parametrize("block", [None, 1, 700])
    def test_many_blocks(self, block, monkeypatch):
        cam, store = memory_scene()
        if block is not None:
            monkeypatch.setattr(renderer, "BLOCK", block)
        blocks = self._blocks(monkeypatch)
        assert self._check(store, cam) == 68100
        assert len(blocks) >= 3 and sum(blocks) > 2 * renderer.BLOCK
        assert max(blocks) <= renderer.BLOCK or block == 1

    def test_footprint_larger_than_a_block(self, monkeypatch):
        """A Gaussian at MAX_RADIUS has a 193x193 box; with a budget below
        that it is expanded as a block of its own, between the blocks of its
        neighbours in index order."""
        cam = CameraModel(fx=100.0, fy=100.0, cx=128.0, cy=128.0, width=256, height=256)
        rng = np.random.default_rng(3)
        small = [prim([x, y, 2.0], scale=0.03, opacity=0.6, color=rng.uniform(0, 1, 3))
                 for x, y in rng.uniform(-0.8, 0.8, (30, 2))]
        store = store_of(small[:15] + [prim([0.0, 0.0, 1.0], scale=0.5, opacity=0.3)]
                         + small[15:])
        proj = renderer.project_gaussian_subset(store, np.arange(len(store)), cam)
        assert proj["radii"][15] == renderer.MAX_RADIUS
        kept = self._check(store, cam)
        assert kept > 193 * 193 // 2
        monkeypatch.setattr(renderer, "BLOCK", 1 << 15)
        blocks = self._blocks(monkeypatch)
        assert self._check(store, cam) == kept
        assert blocks == [blocks[0], 193 * 193, blocks[2]]
        assert max(blocks[0], blocks[2]) <= renderer.BLOCK < 193 * 193

    def test_equal_depths_come_out_in_index_order(self):
        """Gaussians at one camera depth that share pixels are sorted by
        index at each pixel, whatever their order in x."""
        cam = camera_64()
        xs = [0.1, -0.05, 0.0, 0.05, -0.1, 0.02]
        store = store_of([prim([x, 0.01 * i, 2.0], scale=0.08) for i, x in enumerate(xs)])
        proj = renderer.project_gaussian_subset(store, np.arange(len(store)), cam)
        assert np.all(proj["z"] == 2.0)
        assert self._check(store, cam) > 0
        skel = renderer._skeleton(proj, cam.height, cam.width)
        shared = 0
        for s0, s1 in zip(skel["seg_starts"], skel["seg_ends"] + 1):
            rows = skel["row"][s0:s1]
            assert np.all(np.diff(rows) > 0), rows
            shared += len(rows) == len(xs)
        assert shared > 0  # some pixel holds every Gaussian

    def test_invalid_gaussians_skipped(self):
        """Gaussians behind the near plane, among valid ones, have no entry
        and leave the others' order and bits as the reference gives them."""
        cam = camera_64()
        store = array_scene(np.random.default_rng(4), 60)
        store.means[::3, 2] = np.linspace(-1.0, renderer.Z_NEAR, 20)
        proj = renderer.project_gaussian_subset(store, np.arange(len(store)), cam)
        assert (~proj["valid"]).sum() == 20
        assert self._check(store, cam) > 0
        skel = renderer._skeleton(proj, cam.height, cam.width)
        assert proj["valid"][skel["row"]].all()

    def test_empty_store_and_nothing_rasterizes(self):
        cam = camera_64()
        assert self._check(GaussianStore(), cam) == 0
        store = array_scene(np.random.default_rng(0), 20)
        assert self._check(store, away_frame(cam).camera) == 0
        # in front of the camera but projected beside the image: every box is empty
        beside = CameraModel(fx=cam.fx, fy=cam.fy, cx=cam.cx, cy=cam.cy, width=cam.width,
                             height=cam.height, translation=np.array([5.0, 0.0, 0.0]))
        proj = renderer.project_gaussian_subset(store, np.arange(len(store)), beside)
        assert proj["valid"].all()
        assert self._check(store, beside) == 0


def away_frame(cam):
    """A frame seen from 5 m further along +z, so every Gaussian of
    `array_scene` is behind the camera and nothing rasterizes."""
    away = CameraModel(fx=cam.fx, fy=cam.fy, cx=cam.cx, cy=cam.cy, width=cam.width,
                       height=cam.height, translation=np.array([0.0, 0.0, 5.0]))
    h, w = cam.height, cam.width
    return FrameBundle(rgb8=np.full((h, w, 3), 102, np.uint8), depth=np.zeros((h, w)),
                       instance=np.zeros((h, w), np.int32), camera=away,
                       detections=[], index=1)


class TestSkeleton:
    """Compositing over a prebuilt footprint skeleton gives the bits of the
    uncached path: loss, gradients and trained stores."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_evaluation_matches_uncached(self, seed):
        """A prebuilt skeleton gives the loss, parts and color and opacity
        gradients of the uncached evaluation."""
        cam = camera_64()
        store = array_scene(np.random.default_rng(seed), 80)
        frame = gradcheck_frame(store, cam, 1)
        skel = renderer.footprint_skeleton(store, cam)
        assert any(blk["clamped"].any() for blk in renderer._composite(skel, store.opacities))
        idx = store.object_indices(1)
        for object_id in (1, 2):
            ref = loss_and_gradients(store, idx, frame, object_id=object_id)
            got = loss_and_gradients(store, idx, frame, object_id=object_id, skeleton=skel)
            assert got[0] == ref[0] and got[2] == ref[2]
            for name in TRAINABLE:
                assert getattr(got[1], name).tobytes() == getattr(ref[1], name).tobytes(), name

    @staticmethod
    def _assert_empty(skel, size):
        assert skel["size"] == size and len(skel["depth"]) == size[0]
        for key in ("row", "pix", "raw", "seg_starts", "seg_ends"):
            assert len(skel[key]) == 0, key

    def test_nothing_rasterizes_and_empty_store(self):
        cam = camera_64()
        store = array_scene(np.random.default_rng(0), 20)
        frame = away_frame(cam)
        self._assert_empty(renderer.footprint_skeleton(store, frame.camera), (20, 64, 64))
        empty = GaussianStore()
        self._assert_empty(renderer.footprint_skeleton(empty, cam), (0, 64, 64))
        loss, grads, _ = loss_and_gradients(empty, np.empty(0, int), frame)
        assert loss > 0 and grads.colors.shape == (0, 3) and grads.opacities.shape == (0,)
        out = render(store, frame.camera)
        assert out.alpha.dtype == float and not out.alpha.any()
        assert np.all(out.transmittance == 1.0)
        for skeleton in (None, renderer.footprint_skeleton(store, frame.camera)):
            loss, grads, _ = loss_and_gradients(store, store.object_indices(1), frame,
                                                object_id=1, skeleton=skeleton)
            assert loss > 0
            for name in TRAINABLE:
                g = getattr(grads, name)
                assert g.dtype == float and not g.any(), name

    def test_nothing_rasterizes_projects_once(self, monkeypatch):
        """Training over a frame where nothing rasterizes projects the store
        once, for its skeleton, and never again at a step."""
        store = array_scene(np.random.default_rng(0), 20)
        frame = away_frame(camera_64())
        idx = store.object_indices(1)
        config = PipelineConfig(gaussian_iters=3)
        project = renderer.project_gaussian_subset
        calls = []

        def counting(*args):
            calls.append(len(args[1]))
            return project(*args)

        monkeypatch.setattr(renderer, "project_gaussian_subset", counting)
        trace = optimize_object(store.copy(), 1, frame, idx, config)
        assert len(trace) == config.gaussian_iters + 1
        assert calls == [len(store)]
        skel = renderer.footprint_skeleton(store, frame.camera)
        calls.clear()
        optimize_object(store.copy(), 1, frame, idx, config, skeleton=skel)
        assert calls == []

    def test_training_matches_uncached(self, monkeypatch):
        """A skeleton passed in, one built by optimize_object and none at all
        give the same store bytes, rejected steps included, in one run at a
        frame that sees the object and in another at a frame where nothing
        rasterizes."""
        cam = camera_64()
        store = array_scene(np.random.default_rng(7), 80)
        store.colors[:] = 0.5
        idx = store.object_indices(1)
        config = PipelineConfig(gaussian_iters=12, lr_color=0.3, lr_opacity=0.2)
        evaluate = renderer.loss_and_gradients
        for seen, frame in ((True, gradcheck_frame(store, cam, 1)), (False, away_frame(cam))):
            skeleton = renderer.footprint_skeleton(store, frame.camera)
            assert bool(len(skeleton["row"])) == seen

            passed = store.copy()
            passed_trace = optimize_object(passed, 1, frame, idx, config, skeleton=skeleton)
            built = store.copy()
            built_trace = optimize_object(built, 1, frame, idx, config)
            used = []

            def uncached(*args, **kwargs):
                used.append(kwargs["skeleton"])
                return evaluate(*args, **dict(kwargs, skeleton=None))

            monkeypatch.setattr(renderer, "loss_and_gradients", uncached)
            plain = store.copy()
            plain_trace = optimize_object(plain, 1, frame, idx, config)
            monkeypatch.undo()
            assert used and all(bool(len(s["row"])) == seen for s in used)
            assert passed_trace == built_trace == plain_trace
            if seen:
                assert any(plain_trace[i + 1] == plain_trace[i]
                           for i in range(len(plain_trace) - 1))
            for name in STORE_ARRAYS:
                ref = getattr(plain, name).tobytes()
                assert getattr(passed, name).tobytes() == ref == getattr(built, name).tobytes(), name

    def test_misuse_refused(self):
        cam = camera_64()
        store = array_scene(np.random.default_rng(0), 40)
        frame = gradcheck_frame(store, cam, 1)
        idx = store.object_indices(1)
        skel = renderer.footprint_skeleton(store, cam)
        assert not skel["raw"].flags.writeable
        grown = store.copy()
        grown.extend(store)
        with pytest.raises(InvalidParameterError, match="does not fit"):
            loss_and_gradients(grown, idx, frame, object_id=1, skeleton=skel)
        away = away_frame(cam)
        empty_skel = renderer.footprint_skeleton(store, away.camera)
        assert not len(empty_skel["row"])
        with pytest.raises(InvalidParameterError, match="does not fit"):
            loss_and_gradients(grown, idx, away, object_id=1, skeleton=empty_skel)


def first_pixel_scene():
    """40 Gaussians near the image centre of camera_64 plus one of opacity
    0 alone over the top-left pixels, so the first entry of the first
    pixel segment, a segment of one entry, has alpha exactly 0."""
    store = array_scene(np.random.default_rng(5), 40, near_opaque=0.0)
    store.means[:, :2] *= 0.5
    store.extend(store_of([prim([(1.5 - 32.0) / 40.0, (1.5 - 32.0) / 40.0, 2.0], scale=0.002,
                                opacity=0.0)]))
    return store


def tower_scene(n):
    """n tiny Gaussians on the optical axis of camera_64 at increasing
    depth, so the centre pixel's segment has n entries, plus a few others."""
    rng = np.random.default_rng(9)
    axis = [prim([0.5 / 80 * z, 0.5 / 80 * z, z], scale=0.001, opacity=0.002,
                 color=rng.uniform(0, 1, 3), object_id=1 + i % 2)
            for i, z in enumerate(1.0 + 0.001 * np.arange(n))]
    others = [prim([x, y, 1.8], scale=0.02, opacity=0.7, color=rng.uniform(0, 1, 3))
              for x, y in rng.uniform(-0.3, 0.3, (20, 2))]
    return store_of(axis + others)


def blocked_composite(skel, opacities) -> dict:
    """The arrays of every block of `_composite`, joined."""
    parts = {}
    for blk in renderer._composite(skel, opacities):
        for key in ("alpha", "clamped", "T", "weight", "seg_log_tn"):
            parts.setdefault(key, []).append(blk[key])
    return {key: np.concatenate(arrs) for key, arrs in parts.items()}


def oracle_training(*args, skeleton, **kwargs):
    """`loss_and_gradients` as `optimize_object` calls it, answered by the
    oracle, which expands the footprints itself."""
    return reference_loss_and_gradients(*args, **kwargs)


class TestBlockedEvaluation:
    """The composite, image sums, loss and backward run in blocks of whole
    pixel segments; loss, parts, gradients, render outputs and trained
    stores are byte for byte those of the unblocked plain expressions of the
    oracles, at a block of 1 entry, of 700 and at the module's BLOCK."""

    @pytest.fixture(params=[1, 700, None], ids=["block1", "block700", "module"])
    def block(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(renderer, "BLOCK", request.param)
        return renderer.BLOCK

    @staticmethod
    def _check(store, frame, object_id=1):
        """Renders and both evaluations (with and without a footprint
        skeleton) match the oracles; returns the reference entries."""
        cam = frame.camera
        ref_ids = np.random.default_rng(1).integers(0, 4, (cam.height, cam.width))
        only_object = np.full((cam.height, cam.width), object_id)
        for kw, ref_kw in (({}, {}),
                           ({"instance_ref": only_object}, {"instance_id": object_id}),
                           ({"instance_ref": ref_ids}, {"instance_ref": ref_ids})):
            assert_same_render(render(store, cam, **kw), reference_render(store, cam, **ref_kw))
        idx = store.object_indices(object_id)
        skel = renderer.footprint_skeleton(store, cam)
        for skeleton in (None, skel):
            assert_same_evaluation(
                loss_and_gradients(store, idx, frame, object_id=object_id, skeleton=skeleton),
                reference_loss_and_gradients(store, idx, frame, object_id=object_id))
        proj = renderer.project_gaussian_subset(store, np.arange(len(store)), cam)
        ref = reference_flat_entries(proj, store.opacities, cam.height, cam.width)
        if ref is not None:
            got = blocked_composite(skel, store.opacities)
            for key in got:
                assert got[key].tobytes() == ref[key].tobytes(), key
        return ref

    def test_one_bincount_and_one_add_at_per_block(self, block, monkeypatch):
        """A block sums its six image rows with one np.bincount and adds its
        color and opacity values to the per-Gaussian sums with one
        np.add.at."""
        cam, store = memory_scene()
        frame = gradcheck_frame(store, cam, 1)
        skel = renderer.footprint_skeleton(store, cam)
        blocks = sum(1 for _ in renderer._composite(skel, store.opacities))
        calls = {"bincount": 0, "add.at": 0}
        bincount, add = np.bincount, np.add

        def counting_bincount(*args, **kwargs):
            calls["bincount"] += 1
            return bincount(*args, **kwargs)

        class CountingAdd:
            def __call__(self, *args, **kwargs):
                return add(*args, **kwargs)

            def at(self, *args, **kwargs):
                calls["add.at"] += 1
                return add.at(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", counting_bincount)
        monkeypatch.setattr(np, "add", CountingAdd())
        loss_and_gradients(store, store.object_indices(1), frame, object_id=1, skeleton=skel)
        assert blocks >= 3
        assert calls == {"bincount": blocks, "add.at": blocks}

    @pytest.mark.parametrize("seed", [0, 1])
    def test_clamped_alphas(self, block, seed):
        cam = camera_64()
        store = array_scene(np.random.default_rng(seed), 80)
        ref = self._check(store, gradcheck_frame(store, cam, 1))
        assert ref["clamped"].any() and len(ref["row"]) > 2 * 700

    def test_first_entry_alpha_zero(self, block):
        """The first block adds no carry: adding 0.0 would make the first
        pixel's log transmittance +0.0 instead of the oracle's -0.0."""
        cam = camera_64()
        store = first_pixel_scene()
        ref = self._check(store, gradcheck_frame(store, cam, 1))
        assert ref["seg_starts"][1] == 1 and ref["alpha"][0] == 0.0
        assert ref["seg_log_tn"][0] == 0.0 and np.signbit(ref["seg_log_tn"][0])

    def test_segment_longer_than_a_block(self, block):
        cam = camera_64()
        store = tower_scene(8300)
        ref = self._check(store, gradcheck_frame(store, cam, 1))
        assert (ref["seg_ends"] - ref["seg_starts"]).max() + 1 > block

    def test_empty_skeleton(self, block):
        cam = camera_64()
        store = array_scene(np.random.default_rng(0), 20)
        assert self._check(store, away_frame(cam)) is None
        assert self._check(GaussianStore(), gradcheck_frame(store, cam, 1)) is None

    def test_trained_stores(self, block, monkeypatch):
        """Training leaves the bytes of oracle-driven training, rejected
        steps included."""
        cam = camera_64()
        store = array_scene(np.random.default_rng(7), 80)
        frame = gradcheck_frame(store, cam, 1)
        store.colors[:] = 0.5
        idx = store.object_indices(1)
        config = PipelineConfig(gaussian_iters=6, lr_color=0.3, lr_opacity=0.2)
        blocked = store.copy()
        blocked_trace = optimize_object(blocked, 1, frame, idx, config)
        assert any(a == b for a, b in zip(blocked_trace, blocked_trace[1:]))  # a rejected step
        monkeypatch.setattr(renderer, "loss_and_gradients", oracle_training)
        plain = store.copy()
        assert optimize_object(plain, 1, frame, idx, config) == blocked_trace
        for name in STORE_ARRAYS:
            assert getattr(blocked, name).tobytes() == getattr(plain, name).tobytes(), name


class TestMemory:
    """Peak traced heap of one render, of one evaluation given no skeleton
    (it builds its own), of one evaluation given a prebuilt skeleton and of
    the skeleton build alone, in units of kept entries x 8 bytes, on a fixed
    2,000-Gaussian scene with 68,100 kept entries.  Measured 4.9 (render),
    4.9 (build and evaluation), 2.2 (evaluation given the skeleton) and 3.2
    (skeleton); the bounds leave 18%.  While the skeleton sorted its entries
    by a lexsort of three keys and permuted three 64-bit arrays by the order
    it gave, the four peaked at 5.9, 5.6, 2.2 and 5.6.  With blocks of 8,192
    entries and six bincounts and four np.add.at per block the first three
    peaked at 6.1, 6.3 and 3.2 (the skeleton at 6.1 while the projection
    also kept the mean gradient's camera-space terms).  While Gaussian means trained, an
    evaluation given no skeleton also ran the mean gradient and peaked at
    9.3 (11.5 when the skeleton kept each entry's du, dv and d raw / d q).
    With whole-frame compositing, loss and backward (and expansion blocks of
    65,536 pre-cut entries) the four peaked at 10.5, 12.8, 8.7 and 8.2;
    expanding every footprint at once, with a per-entry segment id and an
    out-of-place backward, at 17.6, 17.8, 12.7 and 17.6."""

    RENDER_BOUND = 5.7
    EVAL_BOUND = 5.7
    SKELETON_EVAL_BOUND = 2.6
    SKELETON_BOUND = 3.7

    @staticmethod
    def _peak(fn) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_peak_bounded_by_kept_entries(self):
        cam, store = memory_scene()
        frame = gradcheck_frame(store, cam, 1)
        idx = store.object_indices(1)
        unit = 8 * len(renderer.footprint_skeleton(store, cam)["row"])
        render_peak = self._peak(lambda: render(store, cam))
        eval_peak = self._peak(lambda: loss_and_gradients(store, idx, frame, object_id=1))
        skel = renderer.footprint_skeleton(store, cam)
        skel_eval_peak = self._peak(
            lambda: loss_and_gradients(store, idx, frame, object_id=1, skeleton=skel))
        skel_peak = self._peak(lambda: renderer.footprint_skeleton(store, cam))
        assert render_peak <= self.RENDER_BOUND * unit, render_peak / unit
        assert eval_peak <= self.EVAL_BOUND * unit, eval_peak / unit
        assert skel_eval_peak <= self.SKELETON_EVAL_BOUND * unit, skel_eval_peak / unit
        assert skel_peak <= self.SKELETON_BOUND * unit, skel_peak / unit

    def test_evaluation_peak_does_not_grow_with_entries(self):
        """Given its skeleton, an evaluation holds blocks, per-pixel and
        per-Gaussian arrays, none of them sized by the entry count: scaling
        every Gaussian by 1.5 takes the scene from 68,100 to 129,924 kept
        entries and moves the peak by less than 5% (measured 1,170 and 1,197
        KB; 1,699 and 1,681 KB with blocks of 8,192 entries; with
        whole-frame compositing 4,610 and 8,125 KB)."""
        peaks, entries = [], []
        for factor in (1.0, 1.5):
            cam, store = memory_scene()
            store.scales *= factor
            frame = gradcheck_frame(store, cam, 1)
            idx = store.object_indices(1)
            skel = renderer.footprint_skeleton(store, cam)
            entries.append(len(skel["row"]))
            peaks.append(self._peak(
                lambda: loss_and_gradients(store, idx, frame, object_id=1, skeleton=skel)))
        assert entries[1] > 1.9 * entries[0]
        assert abs(peaks[1] - peaks[0]) <= 0.05 * peaks[0], peaks


class TestOptimizeObject:
    def _target_setup(self, rng):
        cam = camera_64()
        target = store_of([
            prim([0.0, 0.0, 2.0], scale=0.12, opacity=0.95, color=(0.2, 0.8, 0.3)),
        ])
        t_out = render(target, cam, instance_ref=np.full((cam.height, cam.width), 1))
        frame = FrameBundle(
            rgb8=to_rgb8(t_out.color),
            depth=np.where(t_out.alpha > 0.5, t_out.depth, 0.0),
            instance=(t_out.instance > 0.5).astype(np.int32),
            camera=cam, detections=[], index=0,
        )
        fit = store_of([
            prim([0.05, -0.04, 2.1], scale=0.1, opacity=0.9, color=(0.5, 0.5, 0.5)),
        ])
        return cam, frame, fit

    def test_loss_trace_non_increasing(self):
        cam, frame, fit = self._target_setup(np.random.default_rng(0))
        trace = optimize_object(fit, 1, frame, np.array([0]), PipelineConfig(gaussian_iters=40))
        assert len(trace) == 41
        assert all(trace[i + 1] <= trace[i] + 1e-9 for i in range(len(trace) - 1))
        assert trace[-1] < trace[0]

    def test_zero_iterations_is_noop(self):
        cam, frame, fit = self._target_setup(np.random.default_rng(0))
        before = fit.copy()
        optimize_object(fit, 1, frame, np.array([0]), PipelineConfig(gaussian_iters=0))
        for name in STORE_ARRAYS:
            assert getattr(fit, name).tobytes() == getattr(before, name).tobytes(), name

    def test_empty_trainable_noop(self):
        cam, frame, fit = self._target_setup(np.random.default_rng(0))
        before = fit.copy()
        trace = optimize_object(fit, 1, frame, np.empty(0, int), PipelineConfig(gaussian_iters=5))
        assert trace == []
        for name in STORE_ARRAYS:
            assert getattr(fit, name).tobytes() == getattr(before, name).tobytes(), name

    def test_frozen_gaussians_bit_identical(self):
        cam = camera_64()
        store = random_scene(np.random.default_rng(11), 12)
        frame = gradcheck_frame(store, cam, 1)
        before = {name: getattr(store, name).copy() for name in STORE_ARRAYS}
        train = store.object_indices(1)[:3]
        frozen = np.setdiff1d(np.arange(len(store)), train)
        optimize_object(store, 1, frame, train, PipelineConfig(gaussian_iters=10))
        for name in TRAINABLE:
            after = getattr(store, name)
            assert after[frozen].tobytes() == before[name][frozen].tobytes(), name
            assert not np.array_equal(after[train], before[name][train]), name
        assert np.array_equal(store.object_ids, before["object_ids"])
        assert np.array_equal(store.kinds, before["kinds"])

    def test_default_config_keeps_shape(self):
        """The default config moves colors and opacities; every
        Gaussian keeps its mean, scale and rotation bytes."""
        cam = camera_64()
        store = random_scene(np.random.default_rng(11), 12)
        frame = gradcheck_frame(store, cam, 1)
        store.means[:, :2] += 0.02  # start away from the target
        before = store.copy()
        train = store.object_indices(1)
        optimize_object(store, 1, frame, train, PipelineConfig())
        for name in ("means", "scales", "quats"):
            assert getattr(store, name).tobytes() == getattr(before, name).tobytes(), name
        for name in TRAINABLE:
            assert not np.array_equal(getattr(store, name)[train],
                                      getattr(before, name)[train]), name

    def test_one_evaluation_per_step(self, monkeypatch):
        """The frame is evaluated once at the start and once per step,
        accepted or rejected."""
        cam = camera_64()
        store = random_scene(np.random.default_rng(5), 12)
        frame = gradcheck_frame(store, cam, 1)
        store.means[:, :2] += 0.02  # start away from the target
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return loss_and_gradients(*args, **kwargs)

        monkeypatch.setattr(renderer, "loss_and_gradients", counting)
        trace = optimize_object(store, 1, frame, store.object_indices(1),
                                PipelineConfig(gaussian_iters=20, lr_color=0.2))
        rejected = sum(trace[i + 1] == trace[i] for i in range(len(trace) - 1))
        assert len(trace) == 21 and 0 < rejected < 20
        assert len(calls) == len(trace)

    def test_opacity_class_preserved(self):
        cam, frame, fit = self._target_setup(np.random.default_rng(0))
        fit.extend(store_of([
            prim([0.0, 0.0, 2.05], opacity=0.1, kind=KIND_TRANSPARENT, color=(0.9, 0.1, 0.1)),
        ]))
        optimize_object(fit, 1, frame, np.arange(2), PipelineConfig(gaussian_iters=30))
        assert fit.opacities[0] >= 0.5   # opaque stays opaque
        assert fit.opacities[1] <= 0.5   # transparent stays transparent

    def test_transparent_only_improves_color(self):
        cam = camera_64()
        target = store_of(
            [prim([0.0, 0.0, 2.0], scale=0.12, opacity=0.95, color=(0.9, 0.2, 0.2))])
        t_out = render(target, cam, instance_ref=np.full((cam.height, cam.width), 1))
        frame = FrameBundle(
            rgb8=to_rgb8(t_out.color),
            depth=np.where(t_out.alpha > 0.5, t_out.depth, 0.0),
            instance=(t_out.instance > 0.5).astype(np.int32),
            camera=cam, detections=[], index=0,
        )
        # opaque base with wrong color, frozen; transparent correctors trainable
        fit = store_of(
            [prim([0.0, 0.0, 2.0], scale=0.12, opacity=0.95, color=(0.4, 0.4, 0.4))])
        rng = np.random.default_rng(0)
        tg = []
        for _ in range(12):
            offset = rng.uniform(-0.1, 0.1, 2)
            tg.append(prim([offset[0], offset[1], 1.98], scale=0.05, opacity=0.1,
                           kind=KIND_TRANSPARENT, color=(0.5, 0.5, 0.5)))
        fit.extend(store_of(tg))
        depth_before = render(fit, cam).depth.copy()
        l0, _, p0 = loss_and_gradients(fit, np.empty(0, int), frame, lam=0.0, object_id=1)
        optimize_object(fit, 1, frame, np.arange(1, 13), PipelineConfig(gaussian_iters=40))
        l1, _, p1 = loss_and_gradients(fit, np.empty(0, int), frame, lam=0.0, object_id=1)
        depth_after = render(fit, cam).depth
        assert p1["rgb"] < p0["rgb"]  # color improves
        # geometry barely moves: depth image change stays small
        assert np.abs(depth_after - depth_before).max() < 0.05


class TestPngDump:
    def test_dump_channels(self, tmp_path):
        store = random_scene(np.random.default_rng(8), 6)
        out = render(store, camera_64(), instance_ref=np.full((64, 64), 1))
        paths = dump_render_pngs(out, str(tmp_path / "frame"))
        assert len(paths) == 3
        from objmap.png import read_png

        color = read_png(paths[0])
        depth = read_png(paths[1])
        inst = read_png(paths[2])
        assert color.shape == (64, 64, 3) and color.dtype == np.uint8
        assert depth.shape == (64, 64) and depth.dtype == np.uint16
        assert inst.shape == (64, 64) and inst.dtype == np.uint8
