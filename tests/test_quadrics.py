import warnings

import numpy as np
import pytest

from objmap.errors import (
    BehindCameraError,
    DegenerateConicError,
    DegenerateQuadricError,
    InvalidParameterError,
)
from objmap.quadrics import (
    BBox2D,
    CameraModel,
    DualConic,
    assemble_dual_quadric,
    backproject_bbox_planes,
    conic_to_bbox,
    decompose_dual_quadric,
    iou_2d,
    iou_3d,
    project_to_conic,
    quadric_distance,
    quadric_raw_distance,
)
from oracles import (
    camera_looking_at,
    convex_hull_box_iou,
    monte_carlo_box_iou,
    random_quadric,
    random_rotation,
    sampled_projection_bbox,
)


def default_camera(**kw):
    args = dict(fx=100.0, fy=100.0, cx=100.0, cy=100.0, width=200, height=200)
    args.update(kw)
    return CameraModel(**args)


class TestCameraModel:
    @pytest.mark.parametrize("name", ["fx", "fy", "cx", "cy"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_intrinsic_refused(self, name, value):
        with pytest.raises(InvalidParameterError, match=f"camera {name} must be finite"):
            default_camera(**{name: value})


class TestAssembleDecompose:
    def test_unit_sphere_at_origin(self):
        q = assemble_dual_quadric([0, 0, 0], np.eye(3), [1, 1, 1])
        assert np.allclose(q.matrix(), np.diag([1.0, 1.0, 1.0, -1.0]))

    def test_translated_sphere_matches_direct_multiplication(self):
        # Oracle: explicit T @ diag @ T.T (frozen from that computation).
        T = np.eye(4)
        T[:3, 3] = [1, 0, 0]
        expected = T @ np.diag([1.0, 1.0, 1.0, -1.0]) @ T.T
        q = assemble_dual_quadric([1, 0, 0], np.eye(3), [1, 1, 1])
        assert np.allclose(q.matrix(), expected)
        assert q.matrix()[0, 0] == pytest.approx(0.0)
        assert q.matrix()[0, 3] == pytest.approx(-1.0)
        assert q.matrix()[3, 0] == pytest.approx(-1.0)

    def test_matrix_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = random_quadric(rng)
            m = q.matrix()
            assert np.max(np.abs(m - m.T)) <= 1e-9

    def test_nonpositive_axis_rejected(self):
        with pytest.raises(InvalidParameterError):
            assemble_dual_quadric([0, 0, 0], np.eye(3), [1, 0, 1])
        with pytest.raises(InvalidParameterError):
            assemble_dual_quadric([0, 0, 0], np.eye(3), [1, -2, 1])

    def test_bad_rotation_rejected(self):
        with pytest.raises(InvalidParameterError):
            assemble_dual_quadric([0, 0, 0], np.diag([1.0, 1.0, -1.0]), [1, 1, 1])

    def test_decompose_diagonal(self):
        center, R, axes = decompose_dual_quadric(np.diag([4.0, 1.0, 1.0, -1.0]))
        assert np.allclose(center, 0)
        assert np.allclose(sorted(axes), [1, 1, 2])
        assert np.allclose(R @ R.T, np.eye(3))
        assert np.linalg.det(R) == pytest.approx(1.0)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            q = random_quadric(rng)
            center, R, axes = decompose_dual_quadric(q.matrix())
            assert np.allclose(center, q.center, atol=1e-9)
            # Eigendecomposition returns sorted axes with permuted/sign-flipped
            # columns; compare the re-assembled matrix and the axis multiset.
            assert np.allclose(sorted(axes), sorted(q.semi_axes), atol=1e-9)
            q2 = assemble_dual_quadric(center, R, axes)
            assert np.allclose(q2.matrix(), q.matrix(), atol=1e-9)

    def test_roundtrip_scale_invariant(self):
        q = assemble_dual_quadric([0.3, -0.2, 1.0], np.eye(3), [0.4, 0.2, 0.1])
        center, _, axes = decompose_dual_quadric(q.matrix() * 7.5)
        assert np.allclose(center, q.center, atol=1e-9)
        assert np.allclose(sorted(axes), sorted(q.semi_axes), atol=1e-9)

    def test_non_pd_block_rejected(self):
        with pytest.raises(DegenerateQuadricError):
            decompose_dual_quadric(np.diag([-1.0, 1.0, 1.0, -1.0]))


class TestProjection:
    def test_unit_sphere_bbox_frozen(self):
        # Frozen from the 1e6-point sampling oracle: center (100,100),
        # half-width 100/sqrt(15) = 25.8199.
        q = assemble_dual_quadric([0, 0, 4], np.eye(3), [1, 1, 1])
        bb = conic_to_bbox(project_to_conic(q, default_camera()))
        assert bb.x_min == pytest.approx(74.1801, abs=1e-3)
        assert bb.y_min == pytest.approx(74.1801, abs=1e-3)
        assert bb.x_max == pytest.approx(125.8199, abs=1e-3)
        assert bb.y_max == pytest.approx(125.8199, abs=1e-3)

    def test_behind_camera(self):
        q = assemble_dual_quadric([0, 0, -4], np.eye(3), [1, 1, 1])
        with pytest.raises(BehindCameraError):
            project_to_conic(q, default_camera())

    def test_conic_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = random_quadric(rng)
            cam = camera_looking_at(q.center + np.array([0, 0, -6.0]), q.center)
            c = project_to_conic(q, cam).matrix
            assert np.max(np.abs(c - c.T)) <= 1e-9

    def test_bbox_matches_sampling_oracle_random(self):
        rng = np.random.default_rng(11)
        for i in range(25):
            q = random_quadric(rng)
            eye = q.center + 8.0 * _unit(rng.normal(size=3))
            cam = camera_looking_at(eye, q.center)
            bb = conic_to_bbox(project_to_conic(q, cam))
            ref = sampled_projection_bbox(q, cam, n=200_000, seed=i)
            assert np.allclose(bb.as_array(), ref.as_array(), atol=0.2)


class TestConicBBox:
    def test_analytic_ellipse(self):
        # Axis-aligned ellipse, semi-axes (10, 20) px at (50, 60):
        # dual conic entries follow the translated-ellipse closed form.
        u0, v0, a, b = 50.0, 60.0, 10.0, 20.0
        C = np.array(
            [
                [a * a - u0 * u0, -u0 * v0, -u0],
                [-u0 * v0, b * b - v0 * v0, -v0],
                [-u0, -v0, -1.0],
            ]
        )
        bb = conic_to_bbox(DualConic(C))
        assert np.allclose(bb.as_array(), [40, 40, 60, 80])

    def test_hyperbola_rejected(self):
        with pytest.raises(DegenerateConicError):
            conic_to_bbox(DualConic(np.diag([1.0, -1.0, -1.0])))

    def test_asymmetric_matrix_rejected(self):
        m = np.diag([1.0, 1.0, -1.0])
        m[0, 1] = 0.5
        with pytest.raises(InvalidParameterError):
            DualConic(m)


class TestBackprojection:
    def test_edge_rays_lie_on_planes(self):
        cam = default_camera()
        bb = BBox2D(0, 0, 200, 200)
        planes = backproject_bbox_planes(bb, cam)
        edge_pixels = [
            [(0, 0), (0, 100), (0, 200)],        # x_min edge
            [(200, 0), (200, 100), (200, 200)],  # x_max edge
            [(0, 0), (100, 0), (200, 0)],        # y_min edge
            [(0, 200), (100, 200), (200, 200)],  # y_max edge
        ]
        for plane, pixels in zip(planes, edge_pixels):
            for px in pixels:
                ray = cam.pixel_rays(np.array([px], dtype=float))[0]
                for depth in (0.5, 2.0, 10.0):
                    X = np.append(cam.translation + depth * ray, 1.0)
                    assert abs(plane @ X) <= 1e-9 * max(1.0, np.abs(plane).max())

    def test_tangency_closure(self):
        q = assemble_dual_quadric([0, 0, 4], np.eye(3), [1, 1, 1])
        cam = default_camera()
        bb = conic_to_bbox(project_to_conic(q, cam))
        planes = backproject_bbox_planes(bb, cam)
        Q = q.matrix()
        for plane in planes:
            n = plane / np.linalg.norm(plane[:3])
            assert abs(n @ Q @ n) <= 1e-6

    def test_tangency_closure_random(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            q = random_quadric(rng)
            eye = q.center + 8.0 * _unit(rng.normal(size=3))
            cam = camera_looking_at(eye, q.center)
            bb = conic_to_bbox(project_to_conic(q, cam))
            Q = q.matrix()
            for plane in backproject_bbox_planes(bb, cam):
                n = plane / np.linalg.norm(plane[:3])
                assert abs(n @ Q @ n) <= 1e-6

    def test_zero_area_bbox_gives_paired_planes(self):
        cam = default_camera()
        planes = backproject_bbox_planes(BBox2D(50, 60, 50, 60), cam)
        assert np.allclose(planes[0], planes[1])
        assert np.allclose(planes[2], planes[3])


class TestIoU2D:
    def test_identical(self):
        b = BBox2D(3, 4, 10, 12)
        assert iou_2d(b, b) == 1.0

    def test_hand_case(self):
        assert iou_2d(BBox2D(0, 0, 2, 2), BBox2D(1, 1, 3, 3)) == pytest.approx(1 / 7)

    def test_disjoint(self):
        assert iou_2d(BBox2D(0, 0, 1, 1), BBox2D(5, 5, 6, 6)) == 0.0

    def test_invalid_box_rejected(self):
        with pytest.raises(InvalidParameterError):
            BBox2D(2, 0, 1, 1)


class TestIoU3D:
    def test_identical(self):
        rng = np.random.default_rng(1)
        q = random_quadric(rng)
        assert iou_3d(q, q) == pytest.approx(1.0, abs=1e-9)

    def test_half_offset_unit_cubes(self):
        a = assemble_dual_quadric([0, 0, 0], np.eye(3), [0.5, 0.5, 0.5])
        b = assemble_dual_quadric([0.5, 0, 0], np.eye(3), [0.5, 0.5, 0.5])
        assert iou_3d(a, b) == pytest.approx(1 / 3, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = random_quadric(rng), random_quadric(rng)
            assert iou_3d(a, b) == pytest.approx(iou_3d(b, a), abs=1e-12)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(7)
        for i in range(25):
            a, b = random_quadric(rng), random_quadric(rng)
            ref = monte_carlo_box_iou(a, b, n=300_000, seed=i)
            assert iou_3d(a, b) == pytest.approx(ref, abs=0.01)

    @pytest.mark.parametrize("center_scale", [0.5, 2.0])
    def test_matches_convex_hull_oracle(self, center_scale):
        rng = np.random.default_rng(11)
        overlapping = 0
        for _ in range(300):
            a, b = random_quadric(rng, center_scale), random_quadric(rng, center_scale)
            ref = convex_hull_box_iou(a, b)
            overlapping += ref > 0
            assert iou_3d(a, b) == pytest.approx(ref, abs=1e-12)
        assert overlapping >= 100

    def test_degenerate_intersections(self):
        def box(center, axes, rotation=np.eye(3)):
            return assemble_dual_quadric(center, rotation, axes)

        cube = box([0.5, 0.5, 0.5], [0.5, 0.5, 0.5])
        rotated = box([0.3, -0.2, 1.0], [0.5, 0.8, 1.1], random_rotation(np.random.default_rng(3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert iou_3d(rotated, rotated) == pytest.approx(1.0, abs=1e-12)
            # nested, sharing the bottom face and four side faces of the cube
            assert iou_3d(cube, box([0.5, 0.5, 0.2], [0.5, 0.5, 0.2])) == pytest.approx(0.4, abs=1e-12)
            assert iou_3d(cube, box([1.5, 1.5, 0.5], [0.5, 0.5, 0.5])) == 0.0  # edge
            assert iou_3d(cube, box([1.5, 1.5, 1.5], [0.5, 0.5, 0.5])) == 0.0  # corner
            assert iou_3d(cube, box([3.0, 3.0, 3.0], [0.5, 0.5, 0.5])) == 0.0  # disjoint


class TestQuadricDistance:
    def test_identical_is_one(self):
        rng = np.random.default_rng(9)
        q = random_quadric(rng)
        assert quadric_distance(q, q) == pytest.approx(1.0)

    def test_unit_center_offset(self):
        a = assemble_dual_quadric([0, 0, 0], np.eye(3), [1, 2, 3])
        b = assemble_dual_quadric([1, 0, 0], np.eye(3), [1, 2, 3])
        assert quadric_distance(a, b, tau=1.0) == pytest.approx(np.exp(-1.0))

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a, b = random_quadric(rng), random_quadric(rng)
            tau = rng.uniform(0.2, 3.0)
            d_mu = np.sqrt(np.sum((a.center - b.center) ** 2))
            sa = 1.0 / a.semi_axes**2
            sb = 1.0 / b.semi_axes**2
            d_s = np.sqrt(np.sum((sa - sb) ** 2))
            assert quadric_distance(a, b, tau) == pytest.approx(
                np.exp(-tau * (d_mu + d_s)), rel=1e-12
            )

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a, b = random_quadric(rng), random_quadric(rng)
            qd = quadric_distance(a, b)
            assert 0.0 < qd <= 1.0
            assert qd == pytest.approx(quadric_distance(b, a))

    def test_monotone_in_center_separation(self):
        base = assemble_dual_quadric([0, 0, 0], np.eye(3), [0.5, 0.7, 0.9])
        prev = 1.0
        for dist in (0.1, 0.5, 1.0, 2.0, 5.0):
            other = assemble_dual_quadric([dist, 0, 0], np.eye(3), [0.5, 0.7, 0.9])
            qd = quadric_distance(base, other)
            assert qd < prev
            prev = qd

    def test_raw_distance_zero_iff_equal(self):
        a = assemble_dual_quadric([1, 2, 3], random_rotation(np.random.default_rng(4)), [1, 1, 2])
        b = assemble_dual_quadric([1, 2, 3], np.eye(3), [1, 1, 2])
        # Rotation does not enter the shape term.
        assert quadric_raw_distance(a, b) == pytest.approx(0.0, abs=1e-12)


def _unit(v):
    return v / np.linalg.norm(v)
