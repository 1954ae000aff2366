"""Benchmark acceptance suite.

One test per exit criterion; each prints a single [PASS]/[FAIL] line with
the measured values (run with `pytest tests/test_acceptance.py -v -s` to see
them).  Expensive artifacts (datasets, pipeline runs) are shared through
module-scoped fixtures.
"""

import logging
import os
import time

import numpy as np
import pytest

logging.disable(logging.WARNING)

from objmap.gaussians import KIND_OPAQUE
from objmap.pipeline import PipelineConfig, eval_pose, eval_recon, run_pipeline
from objmap.quadric_fit import OptimConfig, optimize_quadric
from objmap.quadrics import (
    DualQuadric,
    assemble_dual_quadric,
    backproject_bbox_planes,
    conic_to_bbox,
    iou_3d,
    project_to_conic,
)
from objmap.renderer import loss_and_gradients, render
from objmap.scenes import ablation_config, ablation_scene, pose_scene, sphere_scene, static_scene
from objmap.simulator import frame_bundles, generate, load_gt
from objmap.frames import FrameBundle
from objmap.quadrics import CameraModel
from oracles import (
    camera_looking_at,
    monte_carlo_box_iou,
    random_quadric,
    sampled_projection_bbox,
    store_of,
)


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. quadric algebra closure


def test_criterion_1_quadric_algebra_closure():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst_bbox = 0.0
    worst_plane = 0.0
    for i in range(100):
        q = random_quadric(rng)
        eye = q.center + rng.uniform(6.0, 10.0) * _unit(rng.normal(size=3))
        cam = camera_looking_at(eye, q.center)
        bbox = conic_to_bbox(project_to_conic(q, cam))
        ref = sampled_projection_bbox(q, cam, n=1_000_000, seed=i)
        worst_bbox = max(worst_bbox, float(np.abs(bbox.as_array() - ref.as_array()).max()))
        Q = q.matrix()
        for plane in backproject_bbox_planes(bbox, cam):
            n = plane / np.linalg.norm(plane[:3])
            worst_plane = max(worst_plane, float(abs(n @ Q @ n)))
    dt = time.monotonic() - t0
    ok = worst_bbox <= 0.1 and worst_plane <= 1e-6 and dt < 30.0
    verdict(
        "criterion 1 (quadric algebra closure)",
        ok,
        f"bbox err {worst_bbox:.4f} px (<=0.1), tangency {worst_plane:.2e} (<=1e-6), "
        f"{dt:.1f}s (<30s)",
    )


def _unit(v):
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# 2. 3D IoU correctness


def test_criterion_2_iou3d_vs_monte_carlo():
    t0 = time.monotonic()
    a = assemble_dual_quadric([0, 0, 0], np.eye(3), [0.5, 0.5, 0.5])
    b = assemble_dual_quadric([0.5, 0, 0], np.eye(3), [0.5, 0.5, 0.5])
    hand_ok = abs(iou_3d(a, b) - 1.0 / 3.0) <= 1e-9
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(100):
        qa, qb = random_quadric(rng), random_quadric(rng)
        worst = max(worst, abs(iou_3d(qa, qb) - monte_carlo_box_iou(qa, qb, n=1_000_000, seed=i)))
    dt = time.monotonic() - t0
    ok = hand_ok and worst <= 0.01 and dt < 60.0
    verdict(
        "criterion 2 (3D IoU correctness)",
        ok,
        f"half-offset cubes exact={hand_ok}, MC err {worst:.4f} (<=0.01), {dt:.1f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# 3. association strategy ablation


@pytest.fixture(scope="module")
def ablation_counts(tmp_path_factory):
    root = tmp_path_factory.mktemp("ablation")
    counts = {}
    for n, seed in ((4, 1), (8, 2), (12, 3)):
        d = generate(ablation_scene(n, seed=seed), str(root / f"ds{n}"))
        counts[n] = {
            mode: run_pipeline(d, ablation_config(mode)).track_count()
            for mode in ("iou", "qd", "qd+iou")
        }
    return counts


def test_criterion_3_association_ablation(ablation_counts):
    lines = []
    ok = True
    for n, c in ablation_counts.items():
        ordering = c["iou"] >= c["qd"] >= c["qd+iou"]
        target = c["qd+iou"] == n if n == 4 else abs(c["qd+iou"] - n) <= 1
        ok &= ordering and target
        lines.append(f"{n}-obj: iou={c['iou']} qd={c['qd']} qd+iou={c['qd+iou']} (GT {n})")
    verdict("criterion 3 (association ablation)", ok, "; ".join(lines))


# ---------------------------------------------------------------------------
# 4. pose recovery from perturbed initialization


def _pose_recovery(jitter: float):
    spec = pose_scene(seed=5, bbox_jitter=jitter)
    # the four objects have distinct classes, so a detection's class names
    # its object
    object_of_class = {obj.class_id: k for k, obj in enumerate(spec.objects, start=1)}
    obs = {k: [] for k in range(1, 5)}
    for bundle, _ in frame_bundles(spec):
        for det in bundle.detections:
            obs[object_of_class[det.class_id]].append((det.bbox, bundle.camera))
    rng = np.random.default_rng(42)
    rows = []
    for k, obj in enumerate(spec.objects, start=1):
        gt = obj.quadric()
        d = _unit(rng.normal(size=3))
        init = DualQuadric(
            np.asarray(gt.center) + 0.2 * d, np.eye(3), np.asarray(gt.semi_axes) * 1.25
        )
        res = optimize_quadric(init, obs[k], OptimConfig(max_iters=300, patience=8))
        rec = res.params.to_quadric()
        rows.append((np.linalg.norm(rec.center - gt.center) * 100.0, iou_3d(rec, gt)))
    return rows


def test_criterion_4_pose_recovery():
    t0 = time.monotonic()
    clean = _pose_recovery(0.0)
    noisy = _pose_recovery(2.0)
    dt = time.monotonic() - t0
    ok = all(cde <= 3.0 and iou >= 0.5 for cde, iou in clean)
    ok &= all(cde <= 10.0 for cde, _ in noisy)
    ok &= dt < 300.0
    detail = (
        "zero-noise CDE " + "/".join(f"{c:.2f}" for c, _ in clean) + " cm (<=3), "
        "IoU " + "/".join(f"{i:.2f}" for _, i in clean) + " (>=0.5); "
        "jitter CDE " + "/".join(f"{c:.2f}" for c, _ in noisy) + f" cm (<=10); {dt:.0f}s (<300s)"
    )
    verdict("criterion 4 (pose recovery)", ok, detail)


# ---------------------------------------------------------------------------
# 5. renderer gradient check


def _gradcheck_scene(rng, n_gauss):
    rows = []
    for i in range(n_gauss):
        z = 1.5 + 0.25 * i + rng.uniform(0, 0.1)
        q = rng.normal(size=4)
        rows.append((
            np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), z]),
            rng.uniform(0.05, 0.12, 3),
            q / np.linalg.norm(q),
            rng.uniform(0.3, 0.9),
            rng.uniform(0.2, 0.8, 3),
            1 if i % 2 == 0 else 2,
            KIND_OPAQUE if i % 3 != 2 else 1,
        ))
    return store_of(rows)


def test_criterion_5_renderer_gradients():
    t0 = time.monotonic()
    cam = CameraModel(fx=80.0, fy=80.0, cx=32.0, cy=32.0, width=64, height=64)
    worst = {"color": 0.0, "opacity": 0.0}
    for scene_i in range(20):
        rng = np.random.default_rng(500 + scene_i)
        store = _gradcheck_scene(rng, 1 if scene_i < 10 else 5)
        out = render(store, cam)
        h, w = 64, 64
        xx, yy = np.meshgrid(np.arange(w), np.arange(h))
        frame = FrameBundle(
            rgb8=np.round(255 * np.stack([0.5 + 0.3 * np.sin(2 * np.pi * xx / 17),
                                          0.5 + 0.3 * np.cos(2 * np.pi * yy / 23),
                                          np.ones((h, w))], axis=2)).astype(np.uint8),
            depth=np.where(out.alpha > 0.5, out.depth + 0.5, 0.0),
            instance=np.where(out.instance > 0.5, 1, 0).astype(np.int32),
            camera=cam, detections=[], index=0,
        )
        _, grads, _ = loss_and_gradients(store, np.arange(len(store)), frame,
                                         lam=0.5, object_id=1)

        def fd():
            l, _, _ = loss_and_gradients(store, np.empty(0, int), frame,
                                         lam=0.5, object_id=1)
            return l

        def rel(a, f):
            m = max(abs(a), abs(f))
            return 0.0 if m < 1e-6 else abs(a - f) / m

        for i in range(len(store)):
            for ch in range(3):
                hstep = 1e-4
                store.colors[i, ch] += hstep
                lp = fd()
                store.colors[i, ch] -= 2 * hstep
                lm = fd()
                store.colors[i, ch] += hstep
                worst["color"] = max(worst["color"], rel(grads.colors[i, ch], (lp - lm) / (2 * hstep)))
            hstep = 1e-4
            store.opacities[i] += hstep
            lp = fd()
            store.opacities[i] -= 2 * hstep
            lm = fd()
            store.opacities[i] += hstep
            worst["opacity"] = max(worst["opacity"], rel(grads.opacities[i], (lp - lm) / (2 * hstep)))
    dt = time.monotonic() - t0
    ok = all(v <= 1e-3 for v in worst.values()) and dt < 120.0
    verdict(
        "criterion 5 (renderer gradients)",
        ok,
        f"rel err color {worst['color']:.2e}, opacity {worst['opacity']:.2e} (<=1e-3); "
        f"{dt:.1f}s (<120s)",
    )


# ---------------------------------------------------------------------------
# 6. compositing invariants


def test_criterion_6_compositing_invariants():
    cam = CameraModel(fx=80.0, fy=80.0, cx=32.0, cy=32.0, width=64, height=64)
    rng = np.random.default_rng(606)
    store = _gradcheck_scene(rng, 25)
    out = render(store, cam, instance_id=1)
    unity = float(np.abs(out.alpha + out.transmittance - 1.0).max())
    ins_ok = out.instance.min() >= 0.0 and out.instance.max() <= 1.0

    z = 2.0
    single = store_of([(
        np.array([0.5 / 80 * z, 0.5 / 80 * z, z]),
        np.full(3, 0.05),
        np.array([1.0, 0, 0, 0]),
        0.9,
        np.array([1.0, 0, 0]),
        1,
        KIND_OPAQUE,
    )])
    o1 = render(single, cam)
    depth_exact = abs(o1.depth[32, 32] - 2.0) <= 1e-12 and abs(o1.alpha[32, 32] - 0.9) <= 1e-12
    ok = unity <= 1e-6 and ins_ok and depth_exact
    verdict(
        "criterion 6 (compositing invariants)",
        ok,
        f"|alpha+T-1| {unity:.2e} (<=1e-6), instance in [0,1]={ins_ok}, "
        f"single-gaussian depth/alpha exact={depth_exact}",
    )


# ---------------------------------------------------------------------------
# 7. reconstruction progress


@pytest.fixture(scope="module")
def recon_run(tmp_path_factory):
    d = generate(sphere_scene(seed=3), str(tmp_path_factory.mktemp("recon") / "ds"))
    cfg = PipelineConfig(
        tau=0.25, qd_accept=0.2, stride=1, gaussian_iters=15,
        lr_opacity=0.04, quadric_every=10,
    )
    return d, run_pipeline(d, cfg)


def test_criterion_7_reconstruction(recon_run):
    d, res = recon_run
    store = res.store
    sel = (store.object_ids == 1) & (store.kinds == KIND_OPAQUE)
    est = store.means[sel]
    gt = load_gt(d)
    acc, comp, ratio = eval_recon(est, gt["points"][1], threshold_cm=5.0)
    ok = acc <= 2.0 and comp <= 2.0 and ratio >= 90.0
    verdict(
        "criterion 7 (reconstruction progress)",
        ok,
        f"accuracy {acc:.2f} cm (<=2), completion {comp:.2f} cm (<=2), "
        f"ratio<5cm {ratio:.1f}% (>=90)",
    )


def test_photometric_example_masked_mae(recon_run):
    # companion example on the same 50-frame run: masked-pixel color error
    from objmap.simulator import load

    d, res = recon_run
    maes = []
    for frame in list(load(d))[::10]:
        out = render(res.store, frame.camera, instance_ref=frame.instance)
        obj = frame.instance == 1
        maes.append(float(np.abs(out.color - frame.rgb).mean(axis=2)[obj].mean()))
    mae = float(np.mean(maes))
    verdict("photometric example (masked MAE)", mae <= 0.05, f"MAE {mae:.4f} (<=0.05)")


# ---------------------------------------------------------------------------
# 8. incremental-update efficiency


def test_criterion_8_incremental_efficiency(tmp_path):
    d = generate(static_scene(seed=7, n_frames=10), str(tmp_path / "static"))
    base = dict(
        tau=0.25, qd_accept=0.2, stride=1, gaussian_iters=8,
        lr_opacity=0.05, quadric_every=0, quadric_final_iters=0,
        theta_alpha=0.97,
    )
    inc = run_pipeline(d, PipelineConfig(**base))
    sel = [lg.trainable for lg in inc.logs]
    # strictly decreasing once mapping starts, down to empty masks
    start = next(i for i, s in enumerate(sel) if s > 0)
    tail = sel[start:]
    zero_at = next((i for i, s in enumerate(tail) if s == 0), None)
    shrinking = zero_at is not None and all(
        tail[i + 1] < tail[i] for i in range(zero_at)
    ) and all(s == 0 for s in tail[zero_at:])

    full = run_pipeline(d, PipelineConfig(**base, train_all=True))
    late = slice(len(sel) // 2, len(sel))
    t_inc = float(np.mean([lg.mapping_seconds for lg in inc.logs][late]))
    t_all = float(np.mean([lg.mapping_seconds for lg in full.logs][late]))
    ratio = t_all / t_inc if t_inc > 0 else float("inf")
    ok = shrinking and ratio > 1.5
    verdict(
        "criterion 8 (incremental-update efficiency)",
        ok,
        f"selected per frame {sel} strictly shrinking to empty={shrinking}; "
        f"train-all/incremental time ratio {ratio:.1f} (>1.5)",
    )


# ---------------------------------------------------------------------------
# 9. determinism and round-trips


def test_criterion_9_determinism_roundtrips(tmp_path, recon_run):
    import hashlib

    def tree_hash(dd):
        h = hashlib.sha256()
        for root, _, files in sorted(os.walk(dd)):
            for fn in sorted(files):
                p = os.path.join(root, fn)
                h.update(os.path.relpath(p, dd).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
        return h.hexdigest()

    spec = sphere_scene(seed=11, n_frames=6)
    d1 = generate(spec, str(tmp_path / "a"))
    d2 = generate(spec, str(tmp_path / "b"))
    dataset_identical = tree_hash(d1) == tree_hash(d2)

    d, first = recon_run
    cfg = first.config
    second = run_pipeline(d, cfg)
    gt = load_gt(d)
    ra = eval_pose(first, gt, [])
    rb = eval_pose(second, gt, [])
    report_identical = (
        ra.mean_iou_3d == rb.mean_iou_3d
        and ra.mean_cde_cm == rb.mean_cde_cm
        and ra.track_count == rb.track_count
    )

    from objmap.gaussians import export_object_ply, import_object_ply

    p1 = tmp_path / "o1.ply"
    export_object_ply(first.store, 1, p1)
    p2 = tmp_path / "o2.ply"
    export_object_ply(import_object_ply(p1), 1, p2)
    ply_roundtrip = p1.read_bytes() == p2.read_bytes()

    ok = dataset_identical and report_identical and ply_roundtrip
    verdict(
        "criterion 9 (determinism and round-trips)",
        ok,
        f"dataset byte-identical={dataset_identical}, rerun report identical={report_identical}, "
        f"PLY round-trip exact={ply_roundtrip}",
    )
