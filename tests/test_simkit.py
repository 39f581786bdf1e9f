"""Trajectory generation and I/O, constellation, measurement models."""

import math

import numpy as np
import pytest

from srfgo.liegroup import Pose, compose, exp, inverse, ominus
from srfgo.rngutil import GPS_STREAM, ODOMETRY_STREAM, make_rng, normal
from srfgo.simkit import (CIRCUIT_RADIUS_M, EARTH_RADIUS_M, GPS_ORBIT_ALTITUDE_M,
                          Constellation, MeasurementStream, Scenario, SpoofProfile,
                          build_measurements, gen_odometry, gen_pseudoranges,
                          gen_trajectory, load_trajectory, sat_positions,
                          save_trajectory, spoof_bias)


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
        poses = gen_trajectory("random-smooth-turn", 200.0, 10.0, seed=5)
        pts = np.array([p.translation for p in poses])
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert np.allclose(steps, 1.0, atol=1e-9)  # speed * dt
        assert np.all(pts[:, 2] == 0.0)

    def test_determinism_and_seed_sensitivity(self):
        a = gen_trajectory("random-smooth-turn", 200.0, 10.0, seed=7)
        b = gen_trajectory("random-smooth-turn", 200.0, 10.0, seed=7)
        c = gen_trajectory("random-smooth-turn", 200.0, 10.0, seed=8)
        assert all(np.array_equal(x.matrix(), y.matrix()) for x, y in zip(a, b))
        assert any(not np.array_equal(x.matrix(), y.matrix()) for x, y in zip(a, c))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            gen_trajectory("figure-eight", 200.0, 10.0, seed=1)


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
        sats = sat_positions(0.0, Constellation())
        assert sats.shape == (8, 3)
        radii = np.linalg.norm(sats, axis=1)
        nominal = EARTH_RADIUS_M + GPS_ORBIT_ALTITUDE_M
        assert np.all(np.abs(radii - nominal) < 0.01 * nominal)

    def test_continuity_bound(self):
        c = Constellation()
        for t in np.arange(0.0, 200.0, 20.0):
            d = np.linalg.norm(sat_positions(t + 0.1, c) - sat_positions(t, c), axis=1)
            assert np.all(d < 5000.0)

    def test_pure_function(self):
        c = Constellation()
        assert np.array_equal(sat_positions(42.0, c), sat_positions(42.0, c))

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Constellation(3)

    def test_elevations_above_horizon(self):
        sats = sat_positions(123.0, Constellation())
        assert np.all(sats[:, 2] > 0.0)


def _stacked(poses):
    return (np.stack([p.rotation for p in poses]),
            np.stack([p.translation for p in poses]))


def reference_measurements(scenario):
    """Per-step synthesis: one odometry draw per step, one GPS draw per epoch."""
    rng_gps = make_rng(scenario.seed, GPS_STREAM)
    rng_odom = make_rng(scenario.seed, ODOMETRY_STREAM)
    spoof = scenario.spoof
    gps = {}
    for step in range(0, scenario.steps + 1, scenario.gps_every_steps):
        t = step * scenario.dt
        sats = sat_positions(t, scenario.constellation)
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
        assert list(stream.gps_epochs) == list(gps)
        for step, (sats, ranges) in gps.items():
            assert np.array_equal(stream.gps_epochs[step][0], sats)
            assert np.array_equal(stream.gps_epochs[step][1], ranges)


class TestPseudoranges:
    def test_zero_sigma_exact(self):
        position = np.array([[100.0, -50.0, 3.0]])
        sats = sat_positions(0.0, Constellation())[None]
        ranges = gen_pseudoranges(position, sats, 0.0, make_rng(1, GPS_STREAM))
        expected = np.linalg.norm(position[0] - sats[0], axis=1)
        assert ranges.shape == (1, len(expected))
        assert np.array_equal(ranges[0], expected)

    def test_noise_statistics(self):
        positions = np.zeros((1250, 3))
        sats = np.broadcast_to(sat_positions(0.0, Constellation()), (1250, 8, 3))
        rng = make_rng(11, GPS_STREAM)
        true_ranges = np.linalg.norm(positions[:, None, :] - sats, axis=-1)
        errs = gen_pseudoranges(positions, sats, 7.0, rng) - true_ranges
        assert errs.size == 10_000
        assert 6.8 <= float(np.std(errs)) <= 7.2
        assert abs(float(np.mean(errs))) <= 0.2

    def test_seed_determinism(self):
        positions = np.zeros((3, 3))
        sats = np.stack([sat_positions(t, Constellation()) for t in (0.0, 1.0, 2.0)])
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
        with pytest.raises(ValueError):
            SpoofProfile(ramp_rate=-0.5)
        with pytest.raises(ValueError):
            spoof_bias(np.array([10.0, -1.0]), SpoofProfile())

    def test_pre_start_identical_to_nominal(self):
        positions = np.array([[5.0, 5.0, 0.0], [6.0, 5.0, 0.0]])
        times = np.array([12.0, 13.0])
        sats = np.stack([sat_positions(t, Constellation()) for t in times])
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
        assert np.allclose(Pose(rot[0], t[0]).matrix(), compose(inverse(a), b).matrix(),
                           atol=1e-12)

    def test_zero_sigma_composes_to_truth(self):
        poses = gen_trajectory("circuit", 200.0, 10.0, seed=2)[:50]
        rot, t = gen_odometry(*_stacked(poses), np.zeros(6), make_rng(1, ODOMETRY_STREAM))
        acc = Pose.identity()
        for r, v in zip(rot, t):
            acc = compose(acc, Pose(r, v))
        expected = compose(inverse(poses[0]), poses[49])
        assert np.allclose(acc.matrix(), expected.matrix(), atol=1e-9)

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


class TestScenario:
    def _truth(self, duration=200.0):
        return gen_trajectory("straight", duration, 10.0, seed=1)

    def test_duration_must_cover_epoch(self):
        with pytest.raises(ValueError):
            Scenario(truth=self._truth(100.0))

    def test_rates_must_align(self):
        truth = self._truth()
        with pytest.raises(ValueError):
            Scenario(truth=truth, gps_rate_hz=3.0)
        with pytest.raises(ValueError):
            Scenario(truth=truth, odom_rate_hz=5.0)

    def test_dt_must_divide_auth_epoch(self):
        # GPS and odometry rates agree with dt = 0.35 s, but 180 s is no
        # whole number of steps.
        with pytest.raises(ValueError, match="does not divide"):
            Scenario(truth=self._truth(), dt=0.35, gps_rate_hz=1 / 7,
                     odom_rate_hz=1 / 0.35)

    def test_measurement_stream_shapes(self):
        scn = Scenario(truth=self._truth(), seed=12)
        stream = build_measurements(scn)
        assert len(stream.odometry) == scn.steps
        assert sorted(stream.gps_epochs) == list(range(0, 2001, 10))
        sats, ranges = stream.gps_epochs[0]
        assert sats.shape == (8, 3) and ranges.shape == (8,)
        assert np.all(ranges > 0.0)

    def test_spoofed_stream_aligned_before_start(self):
        truth = self._truth()
        nominal = build_measurements(Scenario(truth=truth, seed=5))
        spoofed = build_measurements(Scenario(
            truth=truth, seed=5, spoof=SpoofProfile(t_start=100.0, ramp_rate=2.0)))
        for step in range(0, 1000, 10):  # strictly before t_start
            assert np.array_equal(nominal.gps_epochs[step][1],
                                  spoofed.gps_epochs[step][1])
        differs = [step for step in range(1010, 2001, 10)
                   if not np.array_equal(nominal.gps_epochs[step][1],
                                         spoofed.gps_epochs[step][1])]
        assert differs  # bias active after t_start

    def test_odometry_unaffected_by_spoof(self):
        truth = self._truth()
        nominal = build_measurements(Scenario(truth=truth, seed=5))
        spoofed = build_measurements(Scenario(
            truth=truth, seed=5, spoof=SpoofProfile(t_start=100.0, ramp_rate=2.0)))
        for a, b in zip(nominal.odometry[::100], spoofed.odometry[::100]):
            assert np.array_equal(a.matrix(), b.matrix())
