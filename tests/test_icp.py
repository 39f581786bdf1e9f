"""Normal estimation and point-to-plane registration on synthetic scenes."""

import math
import re

import numpy as np
import pytest

from srfgo.icp import (PlanePatch, PointCloud, estimate_normals, gen_scene_cloud,
                       register, save_cloud, two_wall_scene)
from srfgo.liegroup import Pose, compose, exp, rotation_angle
from conftest import ominus


def _yaw(deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _grid_cloud(z=0.0, n=20, pitch=0.1):
    xs = np.arange(n) * pitch
    xx, yy = np.meshgrid(xs, xs)
    pts = np.stack([xx.ravel(), yy.ravel(), np.full(n * n, z)], axis=1)
    return PointCloud(pts)


class TestEstimateNormals:
    def test_plane_normals(self):
        cloud = estimate_normals(_grid_cloud(z=0.0), k_neighbors=10)
        for n in cloud.normals:
            assert abs(abs(n[2]) - 1.0) < 1e-6
            assert abs(n[0]) < 1e-6 and abs(n[1]) < 1e-6

    def test_viewpoint_orientation(self):
        # Sensor above the plane: normals should point up toward it.
        cloud = estimate_normals(_grid_cloud(z=-2.0), k_neighbors=10,
                                 viewpoint=(1.0, 1.0, 5.0))
        assert np.all(cloud.normals[:, 2] > 0.0)

    def test_sphere_normals_radial(self):
        rng = np.random.default_rng(3)
        dirs = rng.normal(size=(4000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        cloud = estimate_normals(PointCloud(5.0 * dirs), k_neighbors=10,
                                 viewpoint=(0.0, 0.0, 0.0))
        cosines = np.abs(np.einsum("ni,ni->n", cloud.normals, dirs))
        assert np.all(cosines > math.cos(math.radians(5.0)))

    def test_degenerate_line_flagged(self):
        line = np.zeros((50, 3))
        line[:, 0] = np.arange(50) * 0.1
        cloud = estimate_normals(PointCloud(line), k_neighbors=5)
        assert np.all(np.isnan(cloud.normals))

    def test_k_validation(self):
        cloud = _grid_cloud()
        with pytest.raises(ValueError):
            estimate_normals(cloud, k_neighbors=2)
        with pytest.raises(ValueError):
            estimate_normals(cloud, k_neighbors=len(cloud) + 1)


class TestSceneGeneration:
    def test_zero_noise_points_on_plane(self):
        patch = PlanePatch((0.0, 0.0, 2.0), (4.0, 0.0, 0.0), (0.0, 3.0, 0.0))
        cloud = gen_scene_cloud([patch], Pose.identity(), density=50.0,
                                noise_std=0.0, seed=9)
        assert np.all(cloud.points[:, 2] == 2.0)

    def test_seed_determinism(self):
        scene = two_wall_scene()
        a = gen_scene_cloud(scene, Pose.identity(), 20.0, 0.01, seed=4)
        b = gen_scene_cloud(scene, Pose.identity(), 20.0, 0.01, seed=4)
        assert np.array_equal(a.points, b.points)

    def test_density_scaling(self):
        scene = two_wall_scene()
        n1 = len(gen_scene_cloud(scene, Pose.identity(), 10.0, 0.0, seed=1))
        n2 = len(gen_scene_cloud(scene, Pose.identity(), 20.0, 0.0, seed=1))
        assert abs(n2 - 2 * n1) <= len(scene)  # rounding per patch

    def test_sensor_frame_convention(self):
        patch = PlanePatch((10.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        sensor = Pose(np.eye(3), np.array([9.0, 0.0, 0.0]))
        cloud = gen_scene_cloud([patch], sensor, 100.0, 0.0, seed=2)
        # Wall at x=10 seen from x=9 is one meter ahead.
        assert np.allclose(cloud.points[:, 0], 1.0)

    @pytest.mark.parametrize("rotation,translation,shown", [
        (_yaw(3.0), [math.inf, 0.0, 0.0], "translation [inf, 0.0, 0.0]"),
        (np.full((3, 3), math.nan), [0.5, 0.0, 0.0], "rotation [[nan, nan, nan]")])
    def test_refuses_non_finite_sensor_pose(self, rotation, translation, shown):
        with pytest.raises(ValueError, match=r"sensor pose must be finite, got .*"
                                              + re.escape(shown)):
            gen_scene_cloud(two_wall_scene(), Pose(rotation, np.array(translation)),
                            25.0, 0.0, seed=1)


class TestRegister:
    def _demo_clouds(self, displacement: Pose, noise=0.005, seed_t=10, seed_s=11):
        scene = two_wall_scene()
        target = gen_scene_cloud(scene, Pose.identity(), 25.0, noise, seed=seed_t)
        source = gen_scene_cloud(scene, displacement, 25.0, noise, seed=seed_s)
        return source, estimate_normals(target, 10)

    def test_identity_self_registration(self):
        scene = two_wall_scene()
        cloud = gen_scene_cloud(scene, Pose.identity(), 25.0, 0.0, seed=7)
        target = estimate_normals(cloud, 10)
        pose, report = register(cloud, target)
        assert report.reason == "converged"
        assert np.linalg.norm(pose.translation) < 1e-9
        assert rotation_angle(pose.rotation) < 1e-9
        assert report.objective_history[-1] < 1e-18

    def test_self_registration_from_offset_inits(self):
        scene = two_wall_scene()
        cloud = gen_scene_cloud(scene, Pose.identity(), 25.0, 0.0, seed=8)
        target = estimate_normals(cloud, 10)
        inits = [
            exp(np.array([0.0, 0.0, math.radians(2.0), 0.2, 0.0, 0.0])),
            exp(np.array([0.0, 0.0, -math.radians(1.5), -0.1, 0.15, 0.05])),
        ]
        for init in inits:
            pose, report = register(cloud, target, init=init)
            assert report.reason == "converged"
            assert np.linalg.norm(ominus(pose, Pose.identity())) < 1e-6

    def test_two_wall_displacement_recovered(self):
        displacement = Pose(_yaw(3.0), np.array([0.5, 0.0, 0.0]))
        source, target = self._demo_clouds(displacement)
        pose, report = register(source, target)
        assert report.reason == "converged"
        # Ground truth maps source-frame points into the target frame.
        truth = displacement  # target sensor at identity
        assert np.linalg.norm(pose.translation - truth.translation) < 0.05
        assert rotation_angle(pose.rotation.T @ truth.rotation) < math.radians(0.5)

    def test_objective_non_increasing(self):
        displacement = Pose(_yaw(3.0), np.array([0.5, 0.0, 0.0]))
        source, target = self._demo_clouds(displacement)
        _, report = register(source, target)
        hist = report.objective_history
        assert len(hist) >= 2
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_relative_transform_invariance(self):
        # Expressing the whole setup (scene and both sensors) in a different
        # world frame must not change the recovered relative transform.
        displacement = Pose(_yaw(3.0), np.array([0.5, 0.0, 0.0]))
        common = Pose(_yaw(20.0), np.array([3.0, -2.0, 0.5]))
        scene = two_wall_scene()

        def moved_patch(patch):
            o, u, v = patch.frame()
            return PlanePatch(tuple(common.rotation @ o + common.translation),
                              tuple(common.rotation @ u),
                              tuple(common.rotation @ v))

        moved_scene = [moved_patch(p) for p in scene]

        target_a = estimate_normals(
            gen_scene_cloud(scene, Pose.identity(), 25.0, 0.0, seed=10), 10)
        source_a = gen_scene_cloud(scene, displacement, 25.0, 0.0, seed=11)
        pose_a, _ = register(source_a, target_a)

        target_b = estimate_normals(
            gen_scene_cloud(moved_scene, common, 25.0, 0.0, seed=10), 10)
        source_b = gen_scene_cloud(moved_scene, compose(common, displacement),
                                   25.0, 0.0, seed=11)
        pose_b, _ = register(source_b, target_b)

        assert np.linalg.norm(ominus(pose_b, pose_a)) < 1e-6

    def test_zero_overlap_fails(self):
        scene = two_wall_scene()
        target = estimate_normals(
            gen_scene_cloud(scene, Pose.identity(), 25.0, 0.0, seed=1), 10)
        far = Pose(np.eye(3), np.array([500.0, 0.0, 0.0]))
        source = gen_scene_cloud(scene, far, 25.0, 0.0, seed=2)
        _, report = register(source, target)
        assert report.reason == "insufficient-correspondences"

    def test_requires_target_normals(self):
        cloud = gen_scene_cloud(two_wall_scene(), Pose.identity(), 25.0, 0.0, seed=1)
        with pytest.raises(ValueError):
            register(cloud, cloud)


def reference_cloud_lines(cloud: PointCloud) -> list:
    """The header, then one row per point, each value written as %.9f."""
    if cloud.normals is None:
        return ["x,y,z"] + [",".join("%.9f" % v for v in p) for p in cloud.points]
    return ["x,y,z,nx,ny,nz"] + [",".join("%.9f" % v for v in (*p, *n))
                                 for p, n in zip(cloud.points, cloud.normals)]


class TestCloudIo:
    def test_lines_with_normals(self, tmp_path):
        cloud = estimate_normals(
            gen_scene_cloud(two_wall_scene(), Pose.identity(), 5.0, 0.0, seed=1), 10)
        path = tmp_path / "c.csv"
        save_cloud(path, cloud)
        assert path.read_text() == "\n".join(reference_cloud_lines(cloud)) + "\n"

    def test_points_only(self, tmp_path):
        cloud = PointCloud(np.arange(30, dtype=float).reshape(10, 3) / 7.0)
        path = tmp_path / "p.csv"
        save_cloud(path, cloud)
        assert path.read_text() == "\n".join(reference_cloud_lines(cloud)) + "\n"
