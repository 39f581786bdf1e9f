"""Factor residual and Jacobian tests, with a finite-difference oracle."""

from __future__ import annotations

import numpy as np
import pytest

from srfgo import factors, liegroup
from srfgo.factors import (
    COINCIDENT_EPSILON,
    AnchorFactor,
    DegenerateGeometryError,
    GpsFactor,
    OdometryFactor,
    linearize,
)
from srfgo.liegroup import Pose, compose, exp, inverse
from srfgo.solver import WindowGraph
from conftest import (ODOMETRY_INFORMATION, SIGMA_GPS, ominus, random_pose,
                      random_tangent)

FD_STEP = 1e-6


# -- per-pose reference residuals, independent of the batched kernels -------

def gps_predict(pose: Pose, sat_position: np.ndarray) -> float:
    """Expected pseudorange |t - s|."""
    diff = pose.translation - np.asarray(sat_position, dtype=float).reshape(3)
    r = float(np.linalg.norm(diff))
    if r < COINCIDENT_EPSILON:
        raise DegenerateGeometryError(
            f"receiver-satellite distance {r:.3e} m below {COINCIDENT_EPSILON:g} m")
    return r


def gps_residual(factor: GpsFactor, pose: Pose) -> float:
    """measured_range - gps_predict."""
    return factor.measured_range - gps_predict(pose, factor.sat_position)


def odom_predict(x_i: Pose, x_ip1: Pose) -> Pose:
    """Expected body-frame relative transform x_i^-1 * x_{i+1}."""
    return compose(inverse(x_i), x_ip1)


def odom_residual(factor: OdometryFactor, x_i: Pose, x_ip1: Pose) -> np.ndarray:
    """measured ominus predicted (6-vector)."""
    return ominus(factor.measured_transform, odom_predict(x_i, x_ip1))


def transl(x, y, z):
    return Pose(np.eye(3), np.array([x, y, z], dtype=float))


def fd_jacobian(residual_fn, states: dict, node: int, dim: int) -> np.ndarray:
    """Central finite differences of residual_fn w.r.t. node's right tangent."""
    out = np.zeros((dim, 6))
    for k in range(6):
        eps = np.zeros(6)
        eps[k] = FD_STEP
        up = dict(states)
        up[node] = compose(states[node], exp(eps))
        down = dict(states)
        down[node] = compose(states[node], exp(-eps))
        out[:, k] = (np.atleast_1d(residual_fn(up))
                     - np.atleast_1d(residual_fn(down))) / (2.0 * FD_STEP)
    return out


def assert_jacobian_matches(lin, residual_fn, states, rtol=1e-5):
    for node, jac in zip(lin.node_indices, lin.jacobians):
        ref = fd_jacobian(residual_fn, states, node, len(np.atleast_1d(lin.residual)))
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(jac - ref)) <= rtol * scale, (
            f"node {node}: max dev {np.max(np.abs(jac - ref)):.3e} vs scale {scale:.3e}")


def random_factor_case(rng, kind: int):
    """One random factor instance: (factor, states, residual closure)."""
    if kind == 0:
        # Range kept ~1e3 m so the FD quotient of |t - s| stays well
        # above its floating-point noise floor; the Jacobian formula
        # is scale-free and the orbit-scale case is checked
        # analytically in test_gps_at_truth.
        pose = random_pose(rng, max_angle=2.0)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        sat = pose.translation + direction * rng.uniform(5e2, 5e3)
        f = GpsFactor(0, sat, float(np.linalg.norm(sat - pose.translation))
                      + rng.normal() * 7)
        return f, {0: pose}, lambda st: gps_residual(f, st[0])
    if kind == 1:
        x_i = random_pose(rng, max_angle=1.2)
        x_j = compose(exp(random_tangent(rng, max_angle=0.8, max_trans=1.0)), x_i)
        meas = compose(odom_predict(x_i, x_j),
                       exp(random_tangent(rng, max_angle=0.5, max_trans=0.5)))
        f = OdometryFactor(0, 1, meas)
        return f, {0: x_i, 1: x_j}, lambda st: odom_residual(f, st[0], st[1])
    x = random_pose(rng, max_angle=1.5)
    prior = compose(x, exp(random_tangent(rng, max_angle=0.8, max_trans=1.0)))
    f = AnchorFactor(0, prior, np.eye(6))
    return f, {0: x}, lambda st: ominus(f.prior_pose, st[0])


class TestGpsPredict:
    def test_3_4_5(self):
        assert gps_predict(transl(0, 0, 0), np.array([3.0, 4.0, 0.0])) == pytest.approx(5.0)

    def test_offset_along_axis(self):
        s = np.array([10.0, -2.0, 7.0])
        for r in (0.5, 123.0, 2.02e7):
            p = Pose(np.eye(3), s + np.array([r, 0.0, 0.0]))
            assert gps_predict(p, s) == pytest.approx(r)

    def test_orbit_height(self):
        assert gps_predict(transl(0, 0, 0), np.array([0.0, 0.0, 2.02e7])) == pytest.approx(2.02e7)

    def test_coincident_raises(self):
        with pytest.raises(factors.DegenerateGeometryError):
            gps_predict(transl(1, 2, 3), np.array([1.0, 2.0, 3.0]))


class TestGpsResidual:
    def test_measured_minus_predicted(self):
        f = GpsFactor(0, np.array([3.0, 4.0, 0.0]), 5.5)
        assert gps_residual(f, transl(0, 0, 0)) == pytest.approx(0.5)

    def test_zero_at_truth(self):
        f = GpsFactor(0, np.array([3.0, 4.0, 0.0]), 5.0)
        assert gps_residual(f, transl(0, 0, 0)) == pytest.approx(0.0)

    def test_bias_along_los_passes_through(self, rng):
        # Spoof bias b added along the line of sight shows up 1:1 in the
        # residual when the pose sits at truth.
        truth = random_pose(rng, max_angle=1.0)
        sat = truth.translation + 2.0e7 * np.array([0.3, -0.5, 0.81]) / np.linalg.norm([0.3, -0.5, 0.81])
        b = 12.5
        f = GpsFactor(0, sat, gps_predict(truth, sat) + b)
        assert gps_residual(f, truth) == pytest.approx(b, abs=1e-6)

    def test_rotation_invariance(self, rng):
        sat = np.array([1.0e7, -5.0e6, 2.0e7])
        t = np.array([10.0, 20.0, 30.0])
        vals = [gps_residual(GpsFactor(0, sat, 2.1e7),
                             Pose(random_pose(rng).rotation, t)) for _ in range(5)]
        assert np.ptp(vals) < 1e-9


class TestOdomPredictResidual:
    def test_identity_base(self, rng):
        t = random_pose(rng)
        pred = odom_predict(Pose.identity(), t)
        assert np.allclose(pred.rotation, t.rotation, atol=1e-12)
        assert np.allclose(pred.translation, t.translation, atol=1e-12)

    def test_equal_poses(self, rng):
        x = random_pose(rng)
        pred = odom_predict(x, x)
        assert np.allclose(pred.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(pred.translation, 0.0, atol=1e-9)

    def test_translation_chain(self):
        pred = odom_predict(transl(1, 0, 0), transl(2, 0, 0))
        assert np.allclose(pred.translation, [1.0, 0.0, 0.0], atol=1e-12)

    def test_zero_residual_when_consistent(self, rng):
        x_i = random_pose(rng)
        x_j = random_pose(rng)
        f = OdometryFactor(0, 1, odom_predict(x_i, x_j))
        assert np.allclose(odom_residual(f, x_i, x_j), 0.0, atol=1e-9)

    def test_pure_translation_measurement(self):
        f = OdometryFactor(0, 1, transl(0.1, 0, 0))
        r = odom_residual(f, Pose.identity(), Pose.identity())
        assert np.allclose(r, [0, 0, 0, 0.1, 0, 0], atol=1e-12)

    def test_forward_substituted_perturbation(self, rng):
        # measurement = exp(nu) * prediction  =>  residual == nu
        x_i = random_pose(rng, max_angle=1.0)
        x_j = compose(exp(random_tangent(rng, max_angle=0.5)), x_i)
        nu = random_tangent(rng, max_angle=0.3, max_trans=0.5)
        pred = odom_predict(x_i, x_j)
        meas = compose(pred, exp(nu))
        f = OdometryFactor(4, 5, meas)
        assert np.allclose(odom_residual(f, x_i, x_j), nu, atol=1e-9)

    def test_residual_nonzero_iff_inconsistent(self, rng):
        x_i = random_pose(rng)
        x_j = random_pose(rng)
        f = OdometryFactor(0, 1, compose(odom_predict(x_i, x_j), exp(1e-3 * np.ones(6))))
        assert np.linalg.norm(odom_residual(f, x_i, x_j)) > 1e-4


class TestLinearize:
    def test_gps_at_truth(self, rng):
        truth = Pose(np.eye(3), np.array([5.0, -3.0, 2.0]))
        sat = np.array([1.2e7, 0.8e7, 1.9e7])
        noise = -1.7
        f = GpsFactor(3, sat, gps_predict(truth, sat) + noise)
        lin = linearize(f, {3: truth})
        assert lin.residual[0] == pytest.approx(noise)
        los = (sat - truth.translation) / np.linalg.norm(sat - truth.translation)
        assert np.allclose(lin.jacobians[0][0, 3:], los, atol=1e-9)
        assert np.allclose(lin.jacobians[0][0, :3], 0.0)

    def test_gps_rotational_block_zero(self, rng):
        for _ in range(10):
            pose = random_pose(rng)
            sat = pose.translation + rng.normal(size=3) * 1.0e7
            f = GpsFactor(0, sat, float(np.linalg.norm(sat - pose.translation)) + 1.0)
            lin = linearize(f, {0: pose})
            assert np.max(np.abs(lin.jacobians[0][0, :3])) <= 1e-10

    def test_odometry_consistent_full_rank(self, rng):
        x_i = random_pose(rng, max_angle=0.5)
        x_j = random_pose(rng, max_angle=0.5)
        f = OdometryFactor(0, 1, odom_predict(x_i, x_j))
        lin = linearize(f, {0: x_i, 1: x_j})
        assert np.allclose(lin.residual, 0.0, atol=1e-9)
        for jac in lin.jacobians:
            assert np.linalg.matrix_rank(jac) == 6

    def test_anchor_at_prior(self, rng):
        x = random_pose(rng)
        f = AnchorFactor(2, x, factors.anchor_information())
        lin = linearize(f, {2: x})
        assert np.allclose(lin.residual, 0.0, atol=1e-12)

    def test_odometry_jacobian_coupling(self, rng):
        # Two analytically equal routes for the from-node Jacobian:
        # -J_j Ad(pred^-1) and Jr^-1(e) Ad(z^-1).
        for _ in range(20):
            x_i = random_pose(rng, max_angle=1.0)
            x_j = compose(x_i, exp(random_tangent(rng, max_angle=0.8, max_trans=1.0)))
            meas = compose(odom_predict(x_i, x_j),
                           exp(random_tangent(rng, max_angle=0.5, max_trans=0.5)))
            f = OdometryFactor(0, 1, meas)
            lin = linearize(f, {0: x_i, 1: x_j})
            e = lin.residual
            meas_inv = liegroup.inverse(meas)
            alt = (liegroup.se3_left_jacobian_inv(-e)
                   @ liegroup.adjoint_arrays(meas_inv.rotation, meas_inv.translation))
            assert np.allclose(lin.jacobians[0], alt, atol=1e-11)
            pred_inv = liegroup.inverse(odom_predict(x_i, x_j))
            ad = liegroup.adjoint_arrays(pred_inv.rotation, pred_inv.translation)
            assert np.allclose(lin.jacobians[0], -lin.jacobians[1] @ ad, atol=1e-12)

    def test_jacobians_match_fd_100_random(self, rng):
        """Max relative deviation from central differences over 100 factors."""
        worst = 0.0
        for trial in range(100):
            f, states, fn = random_factor_case(rng, trial % 3)
            lin = linearize(f, states)
            dim = len(np.atleast_1d(lin.residual))
            for node, jac in zip(lin.node_indices, lin.jacobians):
                ref = fd_jacobian(fn, states, node, dim)
                scale = max(1.0, float(np.max(np.abs(ref))))
                worst = max(worst, float(np.max(np.abs(jac - ref))) / scale)
        assert worst <= 1e-5, f"worst relative Jacobian deviation {worst:.3e}"


def one_node_window(odometry_information=ODOMETRY_INFORMATION,
                    gps_sigma=SIGMA_GPS) -> WindowGraph:
    """A window built with the given noise model, which it validates."""
    return WindowGraph([(0, Pose.identity())], [], 1, odometry_information, gps_sigma)


class TestValidation:
    def test_gps_rejects_bad_sigma(self):
        # The sigma is the window's, so the window checks it.
        for sigma in (0.0, -7.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma"):
                one_node_window(gps_sigma=sigma)
        with pytest.raises(ValueError):
            GpsFactor(0, np.ones(3), -5.0)

    def test_odometry_rejects_nonconsecutive(self):
        with pytest.raises(ValueError):
            OdometryFactor(0, 2, Pose.identity())

    def test_odometry_rejects_non_spd(self):
        bad = np.eye(6)
        bad[0, 5] = 1.0
        for info in (-np.eye(6), bad, np.eye(5)):
            with pytest.raises(ValueError, match="odometry information"):
                one_node_window(info)

    def test_information_symmetry_tolerance(self):
        near = np.eye(6)
        near[0, 5] = 1e-12  # within the 1e-9 tolerance, not exactly symmetric
        accepted = [near]
        for scale in (1e4, 1e8):  # one ulp apart: roundoff at the entries' scale
            ulp = np.eye(6) * scale
            ulp[0, 5] = ulp[5, 0] = scale / 2.0
            ulp[5, 0] = np.nextafter(ulp[5, 0], np.inf)
            accepted.append(ulp)
        for info in accepted:
            assert np.array_equal(one_node_window(info).odometry_information, info)
        large = np.eye(6) * 1e4  # 0.04 apart: visible, though within rtol 1e-5
        large[0, 5], large[5, 0] = 5000.0, 5000.04
        with pytest.raises(ValueError, match="symmetric"):
            one_node_window(large)
        bad = np.eye(6)
        bad[0, 5] = 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            one_node_window(bad)

    def test_information_must_be_finite(self):
        # Symmetric or not, a NaN or inf entry is named, not solved with.
        with pytest.raises(ValueError, match=r"^x information must be finite, "
                                             r"got \[inf\] at \[\[5, 5\]\]$"):
            factors.check_information(np.diag([1.0] * 5 + [np.inf]), "x")
        with pytest.raises(ValueError, match=r"must be finite, got \[inf, .*, \[5, 5\]\]$"):
            factors.check_information(np.full((6, 6), np.inf), "x")
        for bad_value in ("nan", "inf"):
            bad = np.eye(6)
            bad[0, 5] = float(bad_value)
            with pytest.raises(ValueError, match=rf"^odometry information must be "
                                                 rf"finite, got \[{bad_value}\] at \[\[0, 5\]\]$"):
                one_node_window(bad)

    def test_anchor_rejects_non_spd(self):
        with pytest.raises(ValueError):
            AnchorFactor(0, Pose.identity(), np.zeros((6, 6)))

    def test_default_information_from_stds(self):
        sigma = np.array([0.01, 0.01, 0.01, 0.05, 0.05, 0.05])
        info = factors.default_odometry_information(sigma)
        assert np.allclose(np.diag(info), [1e4, 1e4, 1e4, 400.0, 400.0, 400.0])
        assert np.allclose(info, np.diag(np.diag(info)))
