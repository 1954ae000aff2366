import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from objmap import renderer
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
    TrainConfig,
    dump_render_pngs,
    loss_and_gradients,
    optimize_object,
    render,
)
from oracles import reference_flat_entries, store_of


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
    return FrameBundle(rgb=rgb, depth=depth, instance=inst, camera=cam,
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
        out = render(store, camera_64(), instance_id=1)
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
        out = render(store, cam, instance_id=1)
        assert out.instance.max() == 0.0  # transparent gaussians excluded
        assert out.alpha.max() > 0.0


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
            for ax in range(3):
                check(lambda: store.means[i, ax],
                      lambda val: store.means.__setitem__((i, ax), val),
                      grads.means[i, ax], 1e-5)

    def test_converged_scene_zero_gradients(self):
        cam = camera_64()
        store = random_scene(np.random.default_rng(42), 3)
        out = render(store, cam)
        frame = FrameBundle(
            rgb=out.color.copy(),
            depth=np.zeros_like(out.depth),  # no valid target depth
            instance=np.zeros(out.depth.shape, dtype=np.int32),
            camera=cam, detections=[], index=0,
        )
        loss, grads, _ = loss_and_gradients(store, np.arange(len(store)), frame,
                                            lam=0.0, object_id=1)
        assert loss == pytest.approx(0.0, abs=1e-9)
        assert np.abs(grads.colors).max() == pytest.approx(0.0, abs=1e-9)
        assert np.abs(grads.means).max() == pytest.approx(0.0, abs=1e-9)

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


class TestLeanExpansion:
    """The in-place footprint expansion and the skipped geometry backward
    give the same bits as the plain expressions and the full backward."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_render_matches_reference_expansion(self, seed, monkeypatch):
        cam = camera_64()
        rng = np.random.default_rng(seed)
        store = array_scene(rng, 80)
        ref_ids = rng.integers(0, 4, (cam.height, cam.width))
        proj = renderer.project_gaussian_subset(store, np.arange(len(store)), cam)
        assert reference_flat_entries(proj, store.opacities, cam.height, cam.width)[
            "clamped"].any()
        lean = render(store, cam, instance_ref=ref_ids)
        monkeypatch.setattr(renderer, "_flat_entries", reference_flat_entries)
        ref = render(store, cam, instance_ref=ref_ids)
        for f in fields(RenderOutput):
            assert getattr(lean, f.name).tobytes() == getattr(ref, f.name).tobytes(), f.name

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_backward_matches_reference_expansion(self, seed, monkeypatch):
        cam = camera_64()
        store = array_scene(np.random.default_rng(seed), 80)
        frame = gradcheck_frame(store, cam, 1)
        idx = store.object_indices(1)
        lean = loss_and_gradients(store, idx, frame, object_id=1)
        monkeypatch.setattr(renderer, "_flat_entries", reference_flat_entries)
        ref = loss_and_gradients(store, idx, frame, object_id=1)
        assert lean[0] == ref[0] and lean[2] == ref[2]
        for name in TRAINABLE:
            assert getattr(lean[1], name).tobytes() == getattr(ref[1], name).tobytes(), name

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_frozen_geometry_matches_full_backward(self, seed):
        cam = camera_64()
        store = array_scene(np.random.default_rng(seed), 80)
        frame = gradcheck_frame(store, cam, 2)
        idx = store.object_indices(2)
        loss, grads, parts = loss_and_gradients(store, idx, frame, object_id=2)
        f_loss, f_grads, f_parts = loss_and_gradients(store, idx, frame, object_id=2,
                                                      geometry=False)
        assert f_loss == loss and f_parts == parts
        for name in ("colors", "opacities"):
            assert getattr(f_grads, name).tobytes() == getattr(grads, name).tobytes(), name
        assert f_grads.means.shape == grads.means.shape and not f_grads.means.any()

    def test_frozen_geometry_training_matches_full_backward(self, monkeypatch):
        """Zero geometry rates skip the geometry backward; forcing it back on
        gives the same store bytes, rejected steps included."""
        cam = camera_64()
        store = array_scene(np.random.default_rng(7), 80)
        frame = gradcheck_frame(store, cam, 1)
        store.colors[:] = 0.5
        idx = store.object_indices(1)
        config = TrainConfig(iters=12, lr_mean=0.0, lr_color=0.3, lr_opacity=0.2)
        seen = []

        def recording(*args, **kwargs):
            seen.append(kwargs["geometry"])
            return loss_and_gradients(*args, **kwargs)

        monkeypatch.setattr(renderer, "loss_and_gradients", recording)
        frozen = store.copy()
        frozen_trace = optimize_object(frozen, 1, [frame], idx, config)
        assert seen and not any(seen)

        monkeypatch.setattr(renderer, "loss_and_gradients",
                            lambda *a, **kw: loss_and_gradients(*a, **dict(kw, geometry=True)))
        full = store.copy()
        full_trace = optimize_object(full, 1, [frame], idx, config)
        assert frozen_trace == full_trace
        assert any(frozen_trace[i + 1] == frozen_trace[i] for i in range(len(frozen_trace) - 1))
        for name in STORE_ARRAYS:
            assert getattr(frozen, name).tobytes() == getattr(full, name).tobytes(), name


class TestMemory:
    """Peak traced heap of one render and one frozen-geometry evaluation, in
    units of kept entries x 8 bytes, on a fixed 2,000-Gaussian scene with
    68,100 kept entries.  Measured 18.5 (render) and 19.9 (evaluation); the
    bounds leave about 20%.  With the plain expansion of
    `reference_flat_entries` both peak at 48.6."""

    RENDER_BOUND = 22.0
    EVAL_BOUND = 24.0

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
        cam = CameraModel(fx=100.0, fy=100.0, cx=64.0, cy=48.0, width=128, height=96)
        store = array_scene(np.random.default_rng(0), 2000, near_opaque=0.0)
        store.scales *= 0.5
        frame = gradcheck_frame(store, cam, 1)
        idx = store.object_indices(1)
        proj = renderer.project_gaussian_subset(store, np.arange(len(store)), cam)
        unit = 8 * len(renderer._flat_entries(proj, store.opacities, 96, 128)["row"])
        del proj
        render_peak = self._peak(lambda: render(store, cam))
        eval_peak = self._peak(
            lambda: loss_and_gradients(store, idx, frame, object_id=1, geometry=False))
        assert render_peak <= self.RENDER_BOUND * unit, render_peak / unit
        assert eval_peak <= self.EVAL_BOUND * unit, eval_peak / unit


class TestOptimizeObject:
    def _target_setup(self, rng):
        cam = camera_64()
        target = store_of([
            prim([0.0, 0.0, 2.0], scale=0.12, opacity=0.95, color=(0.2, 0.8, 0.3)),
        ])
        t_out = render(target, cam, instance_id=1)
        frame = FrameBundle(
            rgb=t_out.color,
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
        trace = optimize_object(fit, 1, [frame], np.array([0]), TrainConfig(iters=40))
        assert len(trace) == 41
        assert all(trace[i + 1] <= trace[i] + 1e-9 for i in range(len(trace) - 1))
        assert trace[-1] < trace[0]

    def test_zero_iterations_is_noop(self):
        cam, frame, fit = self._target_setup(np.random.default_rng(0))
        before = fit.means.copy()
        optimize_object(fit, 1, [frame], np.array([0]), TrainConfig(iters=0))
        assert np.array_equal(fit.means, before)

    def test_empty_trainable_noop(self):
        cam, frame, fit = self._target_setup(np.random.default_rng(0))
        before = fit.means.copy()
        trace = optimize_object(fit, 1, [frame], np.empty(0, int), TrainConfig(iters=5))
        assert trace == []
        assert np.array_equal(fit.means, before)

    def test_frozen_gaussians_bit_identical(self):
        cam = camera_64()
        store = random_scene(np.random.default_rng(11), 12)
        frame = gradcheck_frame(store, cam, 1)
        before = {name: getattr(store, name).copy() for name in STORE_ARRAYS}
        train = store.object_indices(1)[:3]
        frozen = np.setdiff1d(np.arange(len(store)), train)
        optimize_object(store, 1, [frame], train, TrainConfig(iters=10))
        for name in TRAINABLE:
            after = getattr(store, name)
            assert after[frozen].tobytes() == before[name][frozen].tobytes(), name
            assert not np.array_equal(after[train], before[name][train]), name
        assert np.array_equal(store.object_ids, before["object_ids"])
        assert np.array_equal(store.kinds, before["kinds"])

    def test_default_config_keeps_shape(self):
        """The default TrainConfig moves means, colors and opacities; every
        Gaussian keeps its scale and rotation bytes."""
        cam = camera_64()
        store = random_scene(np.random.default_rng(11), 12)
        frame = gradcheck_frame(store, cam, 1)
        store.means[:, :2] += 0.02  # start away from the target
        before = store.copy()
        train = store.object_indices(1)
        optimize_object(store, 1, [frame], train, TrainConfig())
        for name in ("scales", "quats"):
            assert getattr(store, name).tobytes() == getattr(before, name).tobytes(), name
        for name in TRAINABLE:
            assert not np.array_equal(getattr(store, name)[train],
                                      getattr(before, name)[train]), name

    def test_one_evaluation_per_step(self, monkeypatch):
        """Every frame of the window is evaluated once at the start and once
        per step, accepted or rejected."""
        cam = camera_64()
        store = random_scene(np.random.default_rng(5), 12)
        frames = [gradcheck_frame(store, cam, 1) for _ in range(3)]
        store.means[:, :2] += 0.02  # start away from the target
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return loss_and_gradients(*args, **kwargs)

        monkeypatch.setattr(renderer, "loss_and_gradients", counting)
        trace = optimize_object(store, 1, frames, store.object_indices(1),
                                TrainConfig(iters=20, lr_mean=0.05, lr_color=0.2))
        rejected = sum(trace[i + 1] == trace[i] for i in range(len(trace) - 1))
        assert len(trace) == 21 and 0 < rejected < 20
        assert len(calls) == len(frames) * len(trace)

    def test_opacity_class_preserved(self):
        cam, frame, fit = self._target_setup(np.random.default_rng(0))
        fit.extend(store_of([
            prim([0.0, 0.0, 2.05], opacity=0.1, kind=KIND_TRANSPARENT, color=(0.9, 0.1, 0.1)),
        ]))
        optimize_object(fit, 1, [frame], np.arange(2), TrainConfig(iters=30))
        assert fit.opacities[0] >= 0.5   # opaque stays opaque
        assert fit.opacities[1] <= 0.5   # transparent stays transparent

    def test_transparent_only_improves_color(self):
        cam = camera_64()
        target = store_of(
            [prim([0.0, 0.0, 2.0], scale=0.12, opacity=0.95, color=(0.9, 0.2, 0.2))])
        t_out = render(target, cam, instance_id=1)
        frame = FrameBundle(
            rgb=t_out.color,
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
        optimize_object(fit, 1, [frame], np.arange(1, 13), TrainConfig(iters=40))
        l1, _, p1 = loss_and_gradients(fit, np.empty(0, int), frame, lam=0.0, object_id=1)
        depth_after = render(fit, cam).depth
        assert p1["rgb"] < p0["rgb"]  # color improves
        # geometry barely moves: depth image change stays small
        assert np.abs(depth_after - depth_before).max() < 0.05


class TestPngDump:
    def test_dump_channels(self, tmp_path):
        store = random_scene(np.random.default_rng(8), 6)
        out = render(store, camera_64(), instance_id=1)
        paths = dump_render_pngs(out, str(tmp_path / "frame"))
        assert len(paths) == 3
        from objmap.png import read_png

        color = read_png(paths[0])
        depth = read_png(paths[1])
        inst = read_png(paths[2])
        assert color.shape == (64, 64, 3) and color.dtype == np.uint8
        assert depth.shape == (64, 64) and depth.dtype == np.uint16
        assert inst.shape == (64, 64) and inst.dtype == np.uint8
