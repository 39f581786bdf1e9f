"""Trajectory generation and I/O, constellation, measurement models."""

import math
import re
import warnings

import numpy as np
import pytest

from srfgo import simkit
from srfgo.liegroup import (Pose, PoseStack, compose, compose_arrays, exp, inverse,
                            se3_exp_arrays)
from srfgo.rngutil import (GPS_STREAM, ODOMETRY_STREAM, TRAJECTORY_STREAM, make_rng,
                           normal)
from srfgo.simkit import (CIRCUIT_RADIUS_M, EARTH_RADIUS_M, GPS_ORBIT_ALTITUDE_M,
                          GPS_ORBIT_RADIUS_M, SIGMA_ICP_DEFAULT, TRAJECTORY_KINDS,
                          Scenario, SpoofProfile, build_measurements, gen_odometry,
                          gen_pseudoranges, gen_trajectory, load_trajectory,
                          sat_positions, save_trajectory, spoof_bias)
from conftest import ominus


def _yaw_pose(heading: float, position: np.ndarray) -> Pose:
    c, s = math.cos(heading), math.sin(heading)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return Pose(rot, position)


def reference_trajectory(kind, duration_s, speed_mps, seed, dt):
    """Per-step build: one _yaw_pose and one position vector per step."""
    steps = int(round(duration_s / dt))
    times = np.arange(steps + 1) * dt
    if kind == "straight":
        return [_yaw_pose(0.0, np.array([speed_mps * t, 0.0, 0.0])) for t in times]
    if kind == "circuit":
        omega = speed_mps / CIRCUIT_RADIUS_M
        poses = []
        for t in times:
            theta = omega * t
            pos = CIRCUIT_RADIUS_M * np.array([math.sin(theta), 1.0 - math.cos(theta), 0.0])
            poses.append(_yaw_pose(theta, pos))
        return poses
    rng = make_rng(seed, TRAJECTORY_STREAM)
    decay = math.exp(-dt / 20.0)
    kick = 0.05 * math.sqrt(1.0 - decay * decay)
    yaw_rate = heading = 0.0
    position = np.zeros(3)
    poses = [_yaw_pose(heading, position.copy())]
    for draw in normal(rng, steps).tolist():
        position = position + speed_mps * dt * np.array(
            [math.cos(heading), math.sin(heading), 0.0])
        yaw_rate = decay * yaw_rate + kick * draw
        heading += yaw_rate * dt
        poses.append(_yaw_pose(heading, position.copy()))
    return poses


def pose_bytes(poses) -> tuple[bytes, bytes]:
    """Bytes of a list of Poses stacked, or of a PoseStack's own stacks."""
    if isinstance(poses, PoseStack):
        return poses.rotation.tobytes(), poses.translation.tobytes()
    return (np.stack([p.rotation for p in poses]).tobytes(),
            np.stack([p.translation for p in poses]).tobytes())


class TestGenTrajectory:
    def test_straight_kinematics(self):
        poses = gen_trajectory("straight", 200.0, 10.0, seed=1)
        assert len(poses) == 2001
        end = poses[-1].translation
        assert np.linalg.norm(end - poses[0].translation) == pytest.approx(2000.0, abs=1e-9)
        assert np.allclose(poses[0].rotation, np.eye(3))

    def test_circuit_on_circle(self):
        poses = gen_trajectory("circuit", 200.0, 10.0, seed=1)
        center = np.array([0.0, CIRCUIT_RADIUS_M, 0.0])
        for pose in poses[::50]:
            r = np.linalg.norm(pose.translation - center)
            assert abs(r - CIRCUIT_RADIUS_M) < 1e-6
            assert pose.translation[2] == 0.0

    def test_circuit_heading_tangent(self):
        poses = gen_trajectory("circuit", 200.0, 10.0, seed=1)
        # Body x-axis should be tangent to the circle (along velocity).
        p = poses[137]
        radial = p.translation - np.array([0.0, CIRCUIT_RADIUS_M, 0.0])
        body_x = p.rotation[:, 0]
        assert abs(float(radial @ body_x)) < 1e-6 * CIRCUIT_RADIUS_M

    def test_random_smooth_turn_step_length_and_planarity(self):
        pts = gen_trajectory("random-smooth-turn", 200.0, 10.0, seed=5).translation
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert np.allclose(steps, 1.0, atol=1e-9)  # speed * dt
        assert np.all(pts[:, 2] == 0.0)

    def test_determinism_and_seed_sensitivity(self):
        a = gen_trajectory("random-smooth-turn", 200.0, 10.0, seed=7)
        b = gen_trajectory("random-smooth-turn", 200.0, 10.0, seed=7)
        c = gen_trajectory("random-smooth-turn", 200.0, 10.0, seed=8)
        assert pose_bytes(a) == pose_bytes(b)
        assert not np.array_equal(a.rotation, c.rotation)
        assert not np.array_equal(a.translation, c.translation)

    @pytest.mark.parametrize("kind", TRAJECTORY_KINDS)
    @pytest.mark.parametrize("duration,speed,dt", [(200.0, 10.0, 0.1), (400.0, 3.7, 0.2)])
    def test_arrays_equal_per_step_reference(self, kind, duration, speed, dt):
        got = gen_trajectory(kind, duration, speed, seed=5, dt=dt)
        want = reference_trajectory(kind, duration, speed, seed=5, dt=dt)
        assert isinstance(got, PoseStack) and len(got) == len(want)
        assert got.rotation.shape == (len(want), 3, 3)
        assert pose_bytes(got) == pose_bytes(want)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            gen_trajectory("figure-eight", 200.0, 10.0, seed=1)

    @pytest.mark.parametrize("name,args", [
        ("duration", (math.nan, 10.0, 0.1)), ("duration", (math.inf, 10.0, 0.1)),
        ("speed", (200.0, math.nan, 0.1)), ("speed", (200.0, math.inf, 0.1)),
        ("dt", (200.0, 10.0, math.nan))])
    def test_non_finite_rejected(self, name, args):
        duration, speed, dt = args
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            gen_trajectory("circuit", duration, speed, seed=1, dt=dt)


class TestTrajectoryIo:
    def test_round_trip_bit_identical(self, tmp_path):
        poses = gen_trajectory("random-smooth-turn", 200.0, 10.0, seed=3)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        save_trajectory(first, poses)
        save_trajectory(second, load_trajectory(first))
        assert first.read_bytes() == second.read_bytes()

    def test_quantization_accuracy(self, tmp_path):
        poses = gen_trajectory("circuit", 200.0, 10.0, seed=3)
        path = tmp_path / "t.csv"
        save_trajectory(path, poses)
        loaded = load_trajectory(path)
        for orig, back in zip(poses[::100], loaded[::100]):
            assert np.linalg.norm(ominus(back, orig)) < 1e-7

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            load_trajectory(path)
        path.write_text("t,x,y,z,qx,qy,qz,qw\n")
        with pytest.raises(ValueError):
            load_trajectory(path)

    def test_bad_quaternion_norm_rejected(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("t,x,y,z,qx,qy,qz,qw\n"
                        "0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.9\n")
        with pytest.raises(ValueError):
            load_trajectory(path)

    def test_small_norm_error_renormalized(self, tmp_path):
        q = 1.0005 * np.array([0.0, 0.0, math.sin(0.3), math.cos(0.3)])
        path = tmp_path / "r.csv"
        path.write_text("t,x,y,z,qx,qy,qz,qw\n"
                        f"0.0,1.0,2.0,3.0,{q[0]:.9f},{q[1]:.9f},{q[2]:.9f},{q[3]:.9f}\n")
        pose = load_trajectory(path)[0]
        assert np.allclose(pose.rotation @ pose.rotation.T, np.eye(3), atol=1e-12)

    def test_non_monotone_time_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("t,x,y,z,qx,qy,qz,qw\n"
                        "0.0,0,0,0,0,0,0,1\n"
                        "0.0,1,0,0,0,0,0,1\n")
        with pytest.raises(ValueError):
            load_trajectory(path)

    def test_rows_must_lie_on_dt_grid(self, tmp_path):
        path = tmp_path / "g.csv"
        poses = gen_trajectory("straight", 20.0, 10.0, seed=1, dt=0.2)
        save_trajectory(path, poses, dt=0.2)
        assert len(load_trajectory(path, dt=0.2)) == 101
        with pytest.raises(ValueError, match="steps 0.2 s, but dt is 0.1 s"):
            load_trajectory(path)
        path.write_text("t,x,y,z,qx,qy,qz,qw\n5.0,0,0,0,0,0,0,1\n")
        with pytest.raises(ValueError, match="starts at 5 s"):
            load_trajectory(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x,y,z,qx,qy,qz,qw\n0.0,1,0,0,0,0,1\n")
        with pytest.raises(ValueError):
            load_trajectory(path)
        path.write_text("t,x,y,z,qx,qy,qz,qw\n0.0,a,0,0,0,0,0,1\n")
        with pytest.raises(ValueError):
            load_trajectory(path)


class TestConstellation:
    def test_orbit_radius(self):
        sats = sat_positions(0.0)
        assert sats.shape == (8, 3)
        radii = np.linalg.norm(sats, axis=1)
        assert GPS_ORBIT_RADIUS_M == EARTH_RADIUS_M + GPS_ORBIT_ALTITUDE_M
        assert np.all(np.abs(radii - GPS_ORBIT_RADIUS_M) < 0.01 * GPS_ORBIT_RADIUS_M)

    def test_continuity_bound(self):
        for t in np.arange(0.0, 200.0, 20.0):
            d = np.linalg.norm(sat_positions(t + 0.1) - sat_positions(t), axis=1)
            assert np.all(d < 5000.0)

    def test_pure_function(self):
        assert np.array_equal(sat_positions(42.0), sat_positions(42.0))

    def test_elevations_above_horizon(self):
        sats = sat_positions(123.0)
        assert np.all(sats[:, 2] > 0.0)

    def test_batched_times_equal_per_epoch_calls(self, rng):
        times = np.concatenate([np.arange(0, 3601) * 1.0, np.arange(0, 977) * 0.3,
                                rng.uniform(0.0, 1e6, 101)])
        batched = sat_positions(times)
        assert batched.shape == (len(times), 8, 3)
        per_epoch = np.stack([sat_positions(float(t)) for t in times])
        assert batched.tobytes() == per_epoch.tobytes()


def _stacked(poses):
    return (np.stack([p.rotation for p in poses]),
            np.stack([p.translation for p in poses]))


def whole_array_odometry(rot, t, sigma_icp, rng):
    """gen_odometry's arithmetic over the whole run at once."""
    rot_inv = np.swapaxes(rot[:-1], -1, -2)
    t_inv = -(rot_inv @ t[:-1, :, None])[..., 0]
    rel_rot, rel_t = compose_arrays(rot_inv, t_inv, rot[1:], t[1:])
    eps = np.asarray(sigma_icp, dtype=float) * normal(rng, (len(rel_t), 6))
    return compose_arrays(rel_rot, rel_t, *se3_exp_arrays(eps))


def reference_measurements(scenario):
    """Per-step synthesis: one odometry draw per step, one GPS draw per epoch."""
    rng_gps = make_rng(scenario.seed, GPS_STREAM)
    rng_odom = make_rng(scenario.seed, ODOMETRY_STREAM)
    spoof = scenario.spoof
    gps = {}
    for step in range(0, scenario.steps + 1, scenario.gps_every_steps):
        t = step * scenario.dt
        sats = sat_positions(t)
        position = scenario.truth[step].translation
        if spoof is not None and t >= spoof.t_start:
            position = position + (np.asarray(spoof.direction) * spoof.ramp_rate
                                   * (t - spoof.t_start))
        ranges = np.linalg.norm(position - sats, axis=1)
        gps[step] = (sats, ranges + scenario.sigma_gps * normal(rng_gps, len(sats)))
    odometry = []
    for a, b in zip(scenario.truth[:-1], scenario.truth[1:]):
        eps = np.asarray(scenario.sigma_icp) * normal(rng_odom, 6)
        odometry.append(compose(compose(inverse(a), b), exp(eps)))
    return odometry, gps


class TestStreamContract:
    def test_one_batched_draw_equals_sequential_draws(self):
        batched = normal(make_rng(3, ODOMETRY_STREAM), (500, 6))
        rng = make_rng(3, ODOMETRY_STREAM)
        sequential = np.stack([normal(rng, 6) for _ in range(500)])
        assert np.array_equal(batched, sequential)

    @pytest.mark.parametrize("kind, spoof", [
        ("circuit", None),
        ("random-smooth-turn",
         SpoofProfile(t_start=100.0, ramp_rate=1.3, direction=(0.6, 0.8, 0.0))),
    ], ids=["nominal", "spoofed"])
    def test_batched_stream_equals_per_step_reference(self, kind, spoof):
        scn = Scenario(truth=gen_trajectory(kind, 200.0, 10.0, seed=7), seed=7,
                       spoof=spoof)
        stream = build_measurements(scn)
        odometry, gps = reference_measurements(scn)
        assert len(stream.odometry) == len(odometry)
        for got, want in zip(stream.odometry, odometry):
            assert np.array_equal(got.rotation, want.rotation)
            assert np.array_equal(got.translation, want.translation)
        assert stream.gps_steps.tolist() == list(gps)
        assert len(stream.gps_sats) == len(stream.gps_ranges) == len(gps)
        for j, (sats, ranges) in enumerate(gps.values()):
            assert np.array_equal(stream.gps_sats[j], sats)
            assert np.array_equal(stream.gps_ranges[j], ranges)


class TestPseudoranges:
    def test_zero_sigma_exact(self):
        position = np.array([[100.0, -50.0, 3.0]])
        sats = sat_positions(0.0)[None]
        ranges = gen_pseudoranges(position, sats, 0.0, make_rng(1, GPS_STREAM))
        expected = np.linalg.norm(position[0] - sats[0], axis=1)
        assert ranges.shape == (1, len(expected))
        assert np.array_equal(ranges[0], expected)

    def test_noise_statistics(self):
        positions = np.zeros((1250, 3))
        sats = np.broadcast_to(sat_positions(0.0), (1250, 8, 3))
        rng = make_rng(11, GPS_STREAM)
        true_ranges = np.linalg.norm(positions[:, None, :] - sats, axis=-1)
        errs = gen_pseudoranges(positions, sats, 7.0, rng) - true_ranges
        assert errs.size == 10_000
        assert 6.8 <= float(np.std(errs)) <= 7.2
        assert abs(float(np.mean(errs))) <= 0.2

    def test_seed_determinism(self):
        positions = np.zeros((3, 3))
        sats = np.stack([sat_positions(t) for t in (0.0, 1.0, 2.0)])
        a = gen_pseudoranges(positions, sats, 7.0, make_rng(9, GPS_STREAM))
        b = gen_pseudoranges(positions, sats, 7.0, make_rng(9, GPS_STREAM))
        assert np.array_equal(a, b)


class TestSpoofing:
    def test_bias_profile_points(self):
        p = SpoofProfile(t_start=100.0, ramp_rate=2.0)
        bias = spoof_bias(np.array([100.0, 50.0, 200.0]), p)
        assert bias.shape == (3, 3)
        assert np.array_equal(bias[0], np.zeros(3))
        assert np.array_equal(bias[1], np.zeros(3))
        assert np.allclose(bias[2], [200.0, 0.0, 0.0])
        assert np.allclose(spoof_bias(np.array([150.0]), SpoofProfile(100.0, 1.0)),
                           [[50.0, 0.0, 0.0]])

    def test_validation(self):
        with pytest.raises(ValueError):
            SpoofProfile(direction=(1.0, 1.0, 0.0))

    @pytest.mark.parametrize("kwargs,name", [
        (dict(t_start=math.nan), "t_start"), (dict(t_start=math.inf), "t_start"),
        (dict(ramp_rate=math.nan), "ramp rate"), (dict(ramp_rate=math.inf), "ramp rate"),
        (dict(direction=(math.nan, 0.0, 0.0)), "direction")])
    def test_non_finite_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            SpoofProfile(**kwargs)
        with pytest.raises(ValueError):
            SpoofProfile(ramp_rate=-0.5)
        with pytest.raises(ValueError):
            spoof_bias(np.array([10.0, -1.0]), SpoofProfile())

    def test_pre_start_identical_to_nominal(self):
        positions = np.array([[5.0, 5.0, 0.0], [6.0, 5.0, 0.0]])
        times = np.array([12.0, 13.0])
        sats = np.stack([sat_positions(t) for t in times])
        profile = SpoofProfile(t_start=100.0, ramp_rate=2.0)
        nominal = gen_pseudoranges(positions, sats, 7.0, make_rng(4, GPS_STREAM))
        spoofed = gen_pseudoranges(positions + spoof_bias(times, profile), sats, 7.0,
                                   make_rng(4, GPS_STREAM))
        assert np.array_equal(nominal, spoofed)

    def test_bias_along_los_shifts_range_exactly(self):
        sat = np.array([[[2.0e7, 0.0, 0.0]]])
        profile = SpoofProfile(t_start=0.0, ramp_rate=1.0)  # east, toward sat
        biased = spoof_bias(np.array([30.0]), profile)
        rho = gen_pseudoranges(biased, sat, 0.0, make_rng(1, GPS_STREAM))
        assert rho[0, 0] == pytest.approx(2.0e7 - 30.0, abs=1e-9)

    def test_orthogonal_bias_second_order(self):
        r = 2.0e7
        sat = np.array([[[0.0, r, 0.0]]])  # LOS north, bias east
        b = 50.0
        profile = SpoofProfile(t_start=0.0, ramp_rate=1.0)
        biased = spoof_bias(np.array([b]), profile)
        rho = gen_pseudoranges(biased, sat, 0.0, make_rng(1, GPS_STREAM))
        delta = rho[0, 0] - r
        assert 0.0 <= delta <= b * b / (2.0 * r) * (1.0 + 1e-9)


class TestOdometry:
    def test_zero_sigma_exact(self, rng):
        from conftest import random_pose
        a, b = random_pose(rng), random_pose(rng)
        rot, t = gen_odometry(*_stacked([a, b]), np.zeros(6), make_rng(1, ODOMETRY_STREAM))
        assert rot.shape == (1, 3, 3) and t.shape == (1, 3)
        expected = compose(inverse(a), b)
        assert np.allclose(rot[0], expected.rotation, atol=1e-12)
        assert np.allclose(t[0], expected.translation, atol=1e-12)

    def test_zero_sigma_composes_to_truth(self):
        poses = gen_trajectory("circuit", 200.0, 10.0, seed=2)[:50]
        rot, t = gen_odometry(poses.rotation, poses.translation, np.zeros(6),
                              make_rng(1, ODOMETRY_STREAM))
        acc = Pose.identity()
        for r, v in zip(rot, t):
            acc = compose(acc, Pose(r, v))
        expected = compose(inverse(poses[0]), poses[49])
        assert np.allclose(acc.rotation, expected.rotation, atol=1e-9)
        assert np.allclose(acc.translation, expected.translation, atol=1e-9)

    def test_noise_statistics(self):
        # Unit steps along x: every true relative transform is (I, [1, 0, 0]).
        sigma = np.array([0.01, 0.01, 0.01, 0.05, 0.05, 0.05])
        rot = np.broadcast_to(np.eye(3), (10_001, 3, 3))
        t = np.zeros((10_001, 3))
        t[:, 0] = np.arange(10_001)
        meas_rot, meas_t = gen_odometry(rot, t, sigma, make_rng(21, ODOMETRY_STREAM))
        draws = np.array([ominus(Pose(r, v), Pose(np.eye(3), np.array([1.0, 0.0, 0.0])))
                          for r, v in zip(meas_rot, meas_t)])
        stds = draws.std(axis=0)
        assert np.all(np.abs(stds - sigma) <= 0.05 * sigma)


    @pytest.mark.parametrize("block_rows", [256, 7])
    @pytest.mark.parametrize("sigma", [SIGMA_ICP_DEFAULT, (1e-4,) * 3 + (0.05,) * 3])
    def test_blocks_equal_whole_array_reference(self, monkeypatch, block_rows, sigma):
        # 549 rows: whole blocks, block boundaries and a partial last block.
        # A rotation sigma of 1e-4 mixes series and closed-form rows within
        # a block, and the perturbed rotation makes two rows re-project.
        monkeypatch.setattr(simkit, "_ODOMETRY_BLOCK_ROWS", block_rows)
        truth = gen_trajectory("random-smooth-turn", 54.9, 10.0, seed=4)
        rot = truth.rotation.copy()
        rot[300, 0, 0] += 1e-10
        got = gen_odometry(rot, truth.translation, sigma, make_rng(9, ODOMETRY_STREAM))
        want = whole_array_odometry(rot, truth.translation, sigma,
                                    make_rng(9, ODOMETRY_STREAM))
        assert got[0].shape == (549, 3, 3) and got[1].shape == (549, 3)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


class TestScenario:
    def _truth(self, duration=200.0):
        return gen_trajectory("straight", duration, 10.0, seed=1)

    def test_duration_must_cover_epoch(self):
        with pytest.raises(ValueError):
            Scenario(truth=self._truth(100.0))

    def test_rates_must_align(self):
        # dt = 0.36 s divides the 180 s epoch but not the 1 s GPS period.
        with pytest.raises(ValueError, match="GPS rate must divide"):
            Scenario(truth=self._truth(), dt=0.36)

    def test_dt_must_divide_auth_epoch(self):
        with pytest.raises(ValueError, match="does not divide"):
            Scenario(truth=self._truth(), dt=0.35)

    @pytest.mark.parametrize("kwargs,name", [
        (dict(sigma_gps=math.nan), "sigma_gps"), (dict(sigma_gps=math.inf), "sigma_gps"),
        (dict(dt=math.nan), "dt"), (dict(dt=math.inf), "dt"),
        (dict(sigma_icp=(math.nan,) + (0.01,) * 5), "sigma_icp")])
    def test_non_finite_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            Scenario(truth=self._truth(), **kwargs)

    @pytest.mark.parametrize("kwargs,name", [
        (dict(sigma_gps=1e-200), "sigma_gps"), (dict(sigma_gps=1e-160), "sigma_gps"),
        (dict(sigma_icp=(1e-200,) * 6), "sigma_icp"),
        (dict(sigma_icp=(0.01,) * 5 + (1e-170,)), "sigma_icp")])
    def test_weight_must_be_finite(self, kwargs, name):
        # 1/sigma^2 overflows although sigma is finite and positive; no
        # numpy warning may print on the way to the error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"1/{name}\^2 is finite, got"):
                Scenario(truth=self._truth(), **kwargs)

    @pytest.mark.parametrize("step,position", [
        (0, (math.nan, 0.0, 0.0)), (1234, (0.0, math.inf, 0.0)),
        (2000, (0.0, 0.0, -math.inf)), (7, (GPS_ORBIT_RADIUS_M, 0.0, 0.0)),
        (99, (0.0, -3.0e7, 0.0)), (500, (1e200, 1e200, 0.0))])
    def test_truth_outside_orbit_rejected(self, step, position):
        # Non-finite, at or past the satellites' orbit, or with a norm that
        # overflows; no numpy warning may print on the way to the error.
        truth = self._truth()
        t = truth.translation.copy()
        t[step] = position
        t[step + 1:] = position  # the first bad step is named, not a later one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"truth position at step {step} must "
                               r"be finite and inside the 2\.6571e\+07 m"):
                Scenario(truth=PoseStack(truth.rotation, t))

    @pytest.mark.parametrize("speed,step", [(1e307, 1), (1e200, 1), (1e7, 27)])
    def test_overflowing_trajectory_rejected(self, speed, step):
        # At 1e7 m/s step 27 (2.7e7 m) is the first past the orbit; 1e200 m/s
        # squares to inf in the norm, and 1e307 m/s overflows the positions.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            truth = gen_trajectory("straight", 180.0, speed, seed=1)
            with pytest.raises(ValueError, match=f"truth position at step {step} "):
                Scenario(truth=truth)

    def test_truth_just_inside_orbit_allowed(self):
        truth = self._truth()
        t = truth.translation.copy()
        t[3] = (0.0, 0.0, np.nextafter(GPS_ORBIT_RADIUS_M, 0.0))
        Scenario(truth=PoseStack(truth.rotation, t))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            Scenario(truth=self._truth(), seed=-1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            gen_trajectory("random-smooth-turn", 200.0, 10.0, seed=-3)
        Scenario(truth=self._truth(), seed=0)

    def test_truth_must_be_pose_stack(self):
        poses = list(self._truth())
        with pytest.raises(TypeError, match="truth must be a PoseStack, got list"):
            Scenario(truth=poses)

    @pytest.mark.parametrize("duration,t_start,last", [
        (200.0, 200.0, 200.0), (200.0, 1e9, 200.0), (200.5, 200.2, 200.0),
        (200.5, 200.0, 200.0)])
    def test_spoof_onset_at_or_after_last_epoch_rejected(self, duration, t_start, last):
        # The bias is zero up to t_start, so no range would be spoofed; the
        # GPS epochs lie on whole seconds.
        with pytest.raises(ValueError, match=re.escape(
                f"spoof t_start {t_start:g} s must lie before the last GPS epoch, "
                f"at {last:g} s of the {duration:g} s trajectory")):
            Scenario(truth=self._truth(duration), spoof=SpoofProfile(t_start=t_start))

    def test_spoof_onset_before_last_epoch_biases_it(self):
        scn = Scenario(truth=self._truth(200.5), spoof=SpoofProfile(t_start=199.5,
                                                                    ramp_rate=4.0))
        stream = build_measurements(scn)
        assert stream.gps_steps[-1] * scn.dt == 200.0
        bias = spoof_bias(stream.gps_steps * scn.dt, scn.spoof)
        assert np.count_nonzero(bias) == 1 and bias[-1, 0] == 2.0

    def test_zero_and_tiny_sigma_allowed(self):
        Scenario(truth=self._truth(), sigma_gps=0.0, sigma_icp=(0.0,) * 6)
        Scenario(truth=self._truth(), sigma_gps=1e-150, sigma_icp=(1e-150,) + (0.0,) * 5)

    def test_measurement_stream_shapes(self):
        scn = Scenario(truth=self._truth(), seed=12)
        stream = build_measurements(scn)
        assert len(stream.odometry) == scn.steps
        assert stream.odometry.rotation.shape == (scn.steps, 3, 3)
        assert stream.gps_steps.tolist() == list(range(0, 2001, 10))
        assert stream.gps_sats.shape == (201, 8, 3)
        assert stream.gps_ranges.shape == (201, 8)
        assert np.all(stream.gps_ranges > 0.0)

    def test_spoofed_stream_aligned_before_start(self):
        truth = self._truth()
        nominal = build_measurements(Scenario(truth=truth, seed=5))
        spoofed = build_measurements(Scenario(
            truth=truth, seed=5, spoof=SpoofProfile(t_start=100.0, ramp_rate=2.0)))
        assert np.array_equal(nominal.gps_steps, spoofed.gps_steps)
        # Epoch j lies at step 10 j; rows 0..99 are strictly before t_start.
        assert np.array_equal(nominal.gps_ranges[:100], spoofed.gps_ranges[:100])
        differs = [j for j in range(101, 201)
                   if not np.array_equal(nominal.gps_ranges[j], spoofed.gps_ranges[j])]
        assert differs  # bias active after t_start

    def test_odometry_unaffected_by_spoof(self):
        truth = self._truth()
        nominal = build_measurements(Scenario(truth=truth, seed=5))
        spoofed = build_measurements(Scenario(
            truth=truth, seed=5, spoof=SpoofProfile(t_start=100.0, ramp_rate=2.0)))
        assert pose_bytes(nominal.odometry) == pose_bytes(spoofed.odometry)
