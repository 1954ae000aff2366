import numpy as np
import pytest

from objmap.config import PipelineConfig
from objmap.errors import InvalidParameterError, UnoptimizableError
from objmap.quadric_fit import (
    FD_EPS,
    _gradient,
    _losses,
    _prepare,
    _vector,
    axis_angle_to_rotation,
    observation_geometry_rank,
    optimize_quadric,
    rotation_to_axis_angle,
)
from objmap.quadrics import (
    BBox2D,
    CameraModel,
    DualQuadric,
    conic_to_bbox,
    iou_3d,
    project_to_conic,
)
from oracles import (
    _fast_terms,
    camera_looking_at,
    per_observation_prep,
    random_rotation,
    sampled_projection_bbox,
)


def ring_observations(quadric, n=20, radius=2.5, height=1.3, **cam_kw):
    obs = []
    for i in range(n):
        th = 2 * np.pi * i / n
        eye = np.array([radius * np.cos(th), radius * np.sin(th), height])
        cam = camera_looking_at(
            eye, np.asarray(quadric.center), fx=120, fy=120, width=160, height=120, **cam_kw
        )
        obs.append((conic_to_bbox(project_to_conic(quadric, cam)), cam))
    return obs


GT = DualQuadric([0.1, -0.2, 0.5], np.eye(3), [0.3, 0.25, 0.35])


class TestAxisAngle:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.normal(size=3) * rng.uniform(0, 3)
            R = axis_angle_to_rotation(w)
            assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
            R2 = axis_angle_to_rotation(rotation_to_axis_angle(R))
            assert np.allclose(R, R2, atol=1e-8)

    def test_matrix_roundtrip_random_rotations(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            R = random_rotation(rng)
            R2 = axis_angle_to_rotation(rotation_to_axis_angle(R))
            assert np.allclose(R, R2, atol=1e-7)

    def test_zero(self):
        assert np.allclose(axis_angle_to_rotation(np.zeros(3)), np.eye(3))
        assert np.allclose(rotation_to_axis_angle(np.eye(3)), np.zeros(3))


class TestPoseLoss:
    """The loss a refinement of no step reports: that of the quadric it is given."""

    def test_zero_at_ground_truth(self):
        obs = ring_observations(GT)
        assert optimize_quadric(GT, obs, iters=0).loss <= 1e-6

    def test_equals_count_when_disjoint(self):
        obs = ring_observations(GT)
        far = DualQuadric(np.asarray(GT.center) + [50.0, 0, 0], np.eye(3), GT.semi_axes)
        # projections far off-image: every term contributes its full miss
        assert optimize_quadric(far, obs, iters=0).loss == pytest.approx(len(obs))

    def test_empty_observations_rejected(self):
        with pytest.raises(InvalidParameterError):
            optimize_quadric(GT, [], iters=0)

    def test_permutation_invariant(self):
        obs = ring_observations(GT, n=10)
        p = DualQuadric(np.asarray(GT.center) + [0.05, 0, 0], np.eye(3), GT.semi_axes)
        a = optimize_quadric(p, obs, iters=0).loss
        b = optimize_quadric(p, obs[::-1], iters=0).loss
        assert a == pytest.approx(b, rel=1e-12)

    def test_matches_sampling_oracle(self):
        # perturbed quadric: loss recomputed with the dense projection oracle
        rng = np.random.default_rng(5)
        q = DualQuadric(
            np.asarray(GT.center) + rng.normal(0, 0.05, 3),
            np.eye(3),
            np.asarray(GT.semi_axes) * 1.1,
        )
        obs = ring_observations(GT, n=6)
        expected = 0.0
        for bbox_obs, cam in obs:
            ref = sampled_projection_bbox(q, cam, n=300_000, seed=1)
            ix = min(ref.x_max, bbox_obs.x_max) - max(ref.x_min, bbox_obs.x_min)
            iy = min(ref.y_max, bbox_obs.y_max) - max(ref.y_min, bbox_obs.y_min)
            inter = max(0, ix) * max(0, iy)
            union = ref.area + bbox_obs.area - inter
            expected += 1.0 - inter / union
        got = optimize_quadric(q, obs, iters=0).loss
        assert got == pytest.approx(expected, abs=1e-3)


class TestOptimize:
    def test_ground_truth_is_fixed_point(self):
        obs = ring_observations(GT)
        res = optimize_quadric(GT, obs, iters=200)
        assert res.loss <= 1e-6
        rec = res.quadric
        assert np.allclose(rec.center, GT.center, atol=1e-4)

    def test_recovers_perturbed_center(self):
        obs = ring_observations(GT)
        bad = DualQuadric(
            np.asarray(GT.center) + np.array([0.13, -0.11, 0.09]),
            np.eye(3),
            np.asarray(GT.semi_axes) * 1.3,
        )
        res = optimize_quadric(bad, obs, iters=200)
        rec = res.quadric
        assert np.linalg.norm(rec.center - GT.center) <= 0.03
        assert iou_3d(rec, GT) >= 0.5
        assert res.loss <= res.initial_loss

    def test_empty_observations_rejected(self):
        with pytest.raises(InvalidParameterError):
            optimize_quadric(GT, [], iters=200)

    def test_zero_iterations_return_the_input(self):
        q = DualQuadric(np.asarray(GT.center) + [0.1, 0, -0.05],
                        axis_angle_to_rotation([0.3, -0.2, 0.5]), np.asarray(GT.semi_axes) * 1.2)
        res = optimize_quadric(q, ring_observations(GT), iters=0)
        assert res.iterations == 0 and res.loss == res.initial_loss > 0
        assert res.quadric.center.tolist() == q.center.tolist()
        assert np.allclose(res.quadric.rotation, q.rotation, rtol=0, atol=1e-12)
        assert np.allclose(res.quadric.semi_axes, q.semi_axes, rtol=1e-12, atol=0)

    def test_config_bounds_the_iterations(self):
        obs = ring_observations(GT)
        bad = DualQuadric(np.asarray(GT.center) + [0.13, -0.11, 0.09], np.eye(3),
                          np.asarray(GT.semi_axes) * 1.3)
        config = PipelineConfig(quadric_iters=4)
        assert optimize_quadric(bad, obs, iters=200).iterations > 4
        assert optimize_quadric(bad, obs, config).iterations == 4
        assert optimize_quadric(bad, obs, config, iters=6).iterations == 6

    def test_all_behind_camera_unoptimizable(self):
        obs = ring_observations(GT, n=4)
        # move the quadric far behind every ring camera
        behind = DualQuadric([0, 0, 100.0], np.eye(3), [0.3, 0.3, 0.3])
        bad_obs = [(b, c) for b, c in obs]
        with pytest.raises(UnoptimizableError):
            optimize_quadric(behind, bad_obs, iters=200)

    def test_loss_non_increasing_trace(self):
        # monotonicity is enforced by backtracking; spot-check final <= initial
        rng = np.random.default_rng(2)
        obs = ring_observations(GT, n=12)
        for _ in range(3):
            bad = DualQuadric(
                np.asarray(GT.center) + rng.normal(0, 0.1, 3),
                np.eye(3),
                np.asarray(GT.semi_axes) * rng.uniform(0.7, 1.4),
            )
            res = optimize_quadric(bad, obs, iters=40)
            assert res.loss <= res.initial_loss

    def test_degenerate_geometry_flagged(self):
        q = DualQuadric([0, 0, 0.5], np.eye(3), [0.3, 0.3, 0.3])
        obs = []
        for d in (2.0, 3.0, 4.0):
            cam = camera_looking_at(np.array([d, 0, 0.5]), np.asarray(q.center),
                                    fx=120, fy=120, width=160, height=120)
            obs.append((conic_to_bbox(project_to_conic(q, cam)), cam))
        res = optimize_quadric(q, obs, iters=200)
        assert res.degenerate_geometry

    def test_gradient_slope_consistency(self):
        # directional secants with halved steps converge toward a stable slope
        obs = ring_observations(GT, n=12)
        prep = _prepare(obs)
        x0 = _vector(DualQuadric(np.asarray(GT.center) + [0.06, -0.04, 0.05], np.eye(3),
                                 np.asarray(GT.semi_axes) * 1.15))
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(10):
            d = rng.normal(size=9)
            d /= np.linalg.norm(d)
            slopes = []
            for h in (1e-3, 5e-4, 2.5e-4):
                lp, lm = _losses(np.stack([x0 + h * d, x0 - h * d]), prep)[0]
                slopes.append((lp - lm) / (2 * h))
            if abs(slopes[-1]) < 1e-3:
                continue  # flat kink region, skip
            ratio = slopes[1] / slopes[2]
            assert ratio == pytest.approx(1.0, abs=0.05)
            checked += 1
        assert checked >= 5


# identity camera at the origin: P = [I | 0], so a quadric's conic is its
# upper-left 3x3 block and every branch of the loss can be hit exactly
ORIGIN_CAM = CameraModel(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=4, height=4)
UNIT_AT_2 = np.array([0, 0, 2.0, 0, 0, 0, 0, 0, 0])  # unit sphere at depth 2: box +-sqrt(1/3)


def random_track(rng):
    """A random quadric seen from cameras at mixed distances, some inside it."""
    center = rng.uniform(-1, 1, 3)
    q = DualQuadric(center, random_rotation(rng), rng.uniform(0.1, 0.6, 3))
    obs = []
    for _ in range(rng.integers(1, 16)):
        eye = center + rng.normal(size=3) * rng.uniform(0.2, 4.0)
        cam = camera_looking_at(eye, center + rng.normal(size=3) * 0.3,
                                fx=120, fy=120, width=160, height=120)
        try:
            box = conic_to_bbox(project_to_conic(q, cam))
        except ValueError:  # behind the camera or no real ellipse
            box = BBox2D(10, 10, 50, 60)
        obs.append((box, cam))
    return _vector(q), obs


class TestLossKernel:
    """_losses against the per-observation loop in oracles._fast_terms, bit for bit."""

    def assert_matches_loop(self, X, obs):
        losses, counts = _losses(X, _prepare(obs))
        ref = [_fast_terms(x, per_observation_prep(obs)) for x in X]
        assert losses.tolist() == [loss for loss, _ in ref]
        assert counts.tolist() == [count for _, count in ref]
        return ref

    def test_random_tracks(self):
        rng = np.random.default_rng(11)
        skipped = 0
        for _ in range(40):
            x0, obs = random_track(rng)
            X = x0 + rng.normal(size=(20, 9)) * rng.uniform(0, 0.5, (20, 1))
            skipped += sum(count for _, count in self.assert_matches_loop(X, obs))
        assert skipped > 0

    @pytest.mark.parametrize("x, box, loss, count", [
        ([0, 0, -2.0, 0, 0, 0, 0, 0, 0], (-1, -1, 1, 1), 1.0, 1),  # camera behind the center
        ([0, 0, 1.0, 0, 0, 0, 0, 0, 0], (-1, -1, 1, 1), 1.0, 1),   # degenerate conic: c22 = 0
        ([0, 0, 0.5, 0, 0, 0, 0, 0, 0], (-1, -1, 1, 1), 1.0, 1),   # camera inside: no ellipse
        (UNIT_AT_2, (5, 5, 6, 6), 1.0, 0),                         # disjoint boxes
        (UNIT_AT_2, (np.sqrt(1 / 3), -1, 2, 1), 1.0, 0),           # touching: ix == 0
        (UNIT_AT_2, (-0.5, -0.5, 0.5, 0.5), None, 0),              # overlapping
    ], ids=["behind", "degenerate-conic", "camera-inside", "disjoint", "touching", "overlap"])
    def test_branches(self, x, box, loss, count):
        obs = [(BBox2D(*box), ORIGIN_CAM)]
        [(ref_loss, ref_count)] = self.assert_matches_loop(np.array([x], dtype=float), obs)
        assert ref_count == count
        if loss is None:
            assert 0.0 < ref_loss < 1.0
        else:
            assert ref_loss == loss

    def test_mixed_branches_in_one_track(self):
        rng = np.random.default_rng(3)
        x0, obs = random_track(rng)
        boxes = [(-1, -1, 1, 1), (5, 5, 6, 6), (np.sqrt(1 / 3), -1, 2, 1), (-0.5, -0.5, 0.5, 0.5)]
        obs += [(BBox2D(*b), ORIGIN_CAM) for b in boxes]
        X = np.array([x0, UNIT_AT_2, [0, 0, 1.0, 0, 0, 0, 0, 0, 0], [0, 0, -2.0, 0, 0, 0, 0, 0, 0]])
        self.assert_matches_loop(X, obs)

    def test_gradient_rows(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x0, obs = random_track(rng)
            x = x0 + rng.normal(size=9) * 0.05
            ref_prep = per_observation_prep(obs)
            expected = np.zeros(9)
            for k in range(9):
                xp, xm = x.copy(), x.copy()
                xp[k] += FD_EPS
                xm[k] -= FD_EPS
                expected[k] = (_fast_terms(xp, ref_prep)[0]
                               - _fast_terms(xm, ref_prep)[0]) / (2 * FD_EPS)
            g = _gradient(x, _prepare(obs))
            assert g.tolist() == expected.tolist()


class TestGeometryRank:
    def test_ring_is_well_conditioned(self):
        obs = ring_observations(GT, n=8)
        assert observation_geometry_rank(obs, np.asarray(GT.center)) > 0.1

    def test_collinear_is_degenerate(self):
        q = DualQuadric([0, 0, 0.5], np.eye(3), [0.3, 0.3, 0.3])
        obs = []
        for d in (2.0, 3.0):
            cam = camera_looking_at(np.array([d, 0, 0.5]), np.asarray(q.center),
                                    fx=120, fy=120, width=160, height=120)
            obs.append((conic_to_bbox(project_to_conic(q, cam)), cam))
        assert observation_geometry_rank(obs, np.asarray(q.center)) < 1e-3
