"""Exp/log/compose/inverse/ominus kernel tests."""

from __future__ import annotations

import numpy as np
import pytest

from srfgo import liegroup
from srfgo.liegroup import (
    Pose,
    compose,
    exp,
    inverse,
    log,
    ominus,
)
from conftest import random_pose, random_tangent


def transl(x, y, z):
    return Pose(np.eye(3), np.array([x, y, z], dtype=float))


class TestExp:
    def test_zero_tangent_is_identity(self):
        p = exp(np.zeros(6))
        assert np.allclose(p.rotation, np.eye(3))
        assert np.allclose(p.translation, 0.0)

    def test_quarter_turn_about_z(self):
        p = exp(np.array([0.0, 0.0, np.pi / 2, 0.0, 0.0, 0.0]))
        assert np.allclose(p.rotation @ np.array([1.0, 0.0, 0.0]),
                           np.array([0.0, 1.0, 0.0]), atol=1e-12)
        assert np.allclose(p.translation, 0.0)
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(p.rotation, expected, atol=1e-12)

    def test_pure_translation(self):
        p = exp(np.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0]))
        assert np.allclose(p.rotation, np.eye(3))
        assert np.allclose(p.translation, [1.0, 2.0, 3.0])


class TestLog:
    def test_identity(self):
        assert np.allclose(log(Pose.identity()), 0.0)

    def test_pure_translation(self):
        assert np.allclose(log(transl(1.0, 2.0, 3.0)),
                           [0.0, 0.0, 0.0, 1.0, 2.0, 3.0])

    def test_roundtrip_10k(self, rng):
        nus = np.stack([random_tangent(rng, max_angle=3.0) for _ in range(10_000)])
        rot, t = liegroup.se3_exp_arrays(nus)
        back = liegroup.se3_log_arrays(rot, t)
        err = np.linalg.norm(back - nus, axis=-1)
        bound = 1e-9 * (1.0 + np.linalg.norm(nus, axis=-1))
        assert np.all(err <= bound)

    def test_tiny_angle_roundtrip(self):
        nu = np.array([1e-12, -2e-12, 5e-13, 0.5, -0.25, 0.125])
        assert np.allclose(log(exp(nu)), nu, atol=1e-15)

    def test_near_pi_raises(self):
        p = exp(np.array([0.0, 0.0, np.pi - 1e-9, 0.0, 0.0, 0.0]))
        with pytest.raises(liegroup.NearSingularLogError):
            log(p)

    def test_just_outside_margin_ok(self):
        nu = np.array([np.pi - 1e-5, 0.0, 0.0, 1.0, 0.0, 0.0])
        back = log(exp(nu))
        assert np.allclose(back, nu, atol=1e-8)


class TestComposeInverse:
    def test_identity_neutral(self, rng):
        t = random_pose(rng)
        c = compose(t, Pose.identity())
        assert np.allclose(c.rotation, t.rotation) and np.allclose(c.translation, t.translation)

    def test_inverse_cancels(self, rng):
        t = random_pose(rng)
        c = compose(t, inverse(t))
        assert np.allclose(c.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(c.translation, 0.0, atol=1e-9)

    def test_translation_addition(self):
        c = compose(transl(1, 0, 0), transl(0, 1, 0))
        assert np.allclose(c.translation, [1.0, 1.0, 0.0])

    def test_inverse_examples(self):
        ident = inverse(Pose.identity())
        assert np.allclose(ident.rotation, np.eye(3)) and np.allclose(ident.translation, 0.0)
        assert np.allclose(inverse(transl(1, 2, 3)).translation, [-1.0, -2.0, -3.0])

    def test_inverse_involution(self, rng):
        t = random_pose(rng)
        back = inverse(inverse(t))
        assert np.allclose(back.rotation, t.rotation, atol=1e-12)
        assert np.allclose(back.translation, t.translation, atol=1e-12)

    def test_associativity(self, rng):
        for _ in range(50):
            a, b, c = (random_pose(rng) for _ in range(3))
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            assert np.allclose(left.rotation, right.rotation, atol=1e-12)
            assert np.allclose(left.translation, right.translation, atol=1e-12)

    def test_rotation_validity_over_10k_compositions(self, rng):
        acc = random_pose(rng)
        step = random_pose(rng, max_angle=0.3, max_trans=0.1)
        for _ in range(10_000):
            acc = compose(acc, step)
        assert liegroup.orthonormality_drift(acc.rotation) < 1e-9
        assert abs(np.linalg.det(acc.rotation) - 1.0) < 1e-9


class TestOminus:
    def test_self_is_zero(self, rng):
        t = random_pose(rng)
        assert np.allclose(ominus(t, t), 0.0, atol=1e-12)

    def test_translation_case(self):
        assert np.allclose(ominus(transl(1, 0, 0), Pose.identity()),
                           [0.0, 0.0, 0.0, 1.0, 0.0, 0.0])

    def test_definition_at_identity(self, rng):
        nu = random_tangent(rng, max_angle=2.0)
        y = compose(exp(nu), Pose.identity())
        assert np.allclose(ominus(y, Pose.identity()), nu, atol=1e-9)

    def test_zero_iff_equal(self, rng):
        x = random_pose(rng)
        y = compose(x, exp(1e-3 * np.ones(6)))
        assert np.linalg.norm(ominus(y, x)) > 1e-4
        assert np.allclose(ominus(x, x), 0.0, atol=1e-12)


class TestJacobianHelpers:
    """Closed-form SE(3) Jacobian blocks against central finite differences."""

    @staticmethod
    def _fd_left_jacobian_inv(nu: np.ndarray, step: float = 1e-6) -> np.ndarray:
        # d/d eps log(exp(eps) * exp(nu)) at eps = 0
        base = exp(nu)
        out = np.zeros((6, 6))
        for k in range(6):
            eps = np.zeros(6)
            eps[k] = step
            plus = log(compose(exp(eps), base))
            minus = log(compose(exp(-eps), base))
            out[:, k] = (plus - minus) / (2.0 * step)
        return out

    def test_left_jacobian_inv_matches_fd(self, rng):
        for _ in range(25):
            nu = random_tangent(rng, max_angle=2.5, max_trans=2.0)
            closed = liegroup.se3_left_jacobian_inv(nu)
            fd = self._fd_left_jacobian_inv(nu)
            assert np.allclose(closed, fd, rtol=1e-5, atol=1e-6)

    def test_right_jacobian_inv_matches_fd(self, rng):
        for _ in range(10):
            nu = random_tangent(rng, max_angle=2.5, max_trans=2.0)
            base = exp(nu)
            fd = np.zeros((6, 6))
            step = 1e-6
            for k in range(6):
                eps = np.zeros(6)
                eps[k] = step
                fd[:, k] = (log(compose(base, exp(eps)))
                            - log(compose(base, exp(-eps)))) / (2.0 * step)
            closed = liegroup.se3_right_jacobian_inv(nu)
            assert np.allclose(closed, fd, rtol=1e-5, atol=1e-6)

    def test_adjoint_conjugation(self, rng):
        x = random_pose(rng, max_angle=2.0)
        nu = 1e-4 * random_tangent(rng, max_angle=1.0, max_trans=1.0)
        lhs = compose(compose(x, exp(nu)), inverse(x))
        rhs = exp(liegroup.adjoint(x) @ nu)
        assert np.allclose(lhs.matrix(), rhs.matrix(), atol=1e-10)


def scalar_rotation_to_quaternion(rot: np.ndarray) -> np.ndarray:
    """Per-rotation Shepperd reference for the batched conversion."""
    tr = rot[0, 0] + rot[1, 1] + rot[2, 2]
    if tr > max(rot[0, 0], rot[1, 1], rot[2, 2]):
        s = np.sqrt(tr + 1.0) * 2.0
        q = [(rot[2, 1] - rot[1, 2]) / s, (rot[0, 2] - rot[2, 0]) / s,
             (rot[1, 0] - rot[0, 1]) / s, 0.25 * s]
    elif rot[0, 0] >= rot[1, 1] and rot[0, 0] >= rot[2, 2]:
        s = np.sqrt(1.0 + rot[0, 0] - rot[1, 1] - rot[2, 2]) * 2.0
        q = [0.25 * s, (rot[0, 1] + rot[1, 0]) / s,
             (rot[0, 2] + rot[2, 0]) / s, (rot[2, 1] - rot[1, 2]) / s]
    elif rot[1, 1] >= rot[2, 2]:
        s = np.sqrt(1.0 + rot[1, 1] - rot[0, 0] - rot[2, 2]) * 2.0
        q = [(rot[0, 1] + rot[1, 0]) / s, 0.25 * s,
             (rot[1, 2] + rot[2, 1]) / s, (rot[0, 2] - rot[2, 0]) / s]
    else:
        s = np.sqrt(1.0 + rot[2, 2] - rot[0, 0] - rot[1, 1]) * 2.0
        q = [(rot[0, 2] + rot[2, 0]) / s, (rot[1, 2] + rot[2, 1]) / s,
             0.25 * s, (rot[1, 0] - rot[0, 1]) / s]
    q = np.array(q)
    if q[3] < 0:
        q = -q
    return q / np.linalg.norm(q)


class TestQuaternions:
    def test_batch_equals_scalar_reference_bit_for_bit(self, rng):
        axes = rng.normal(size=(3000, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = np.concatenate([
            rng.uniform(0.0, np.pi, 1000),                     # mostly qw largest
            np.pi - 10.0 ** rng.uniform(-9.0, -1.0, 1000),     # near pi: qx, qy, qz
            10.0 ** rng.uniform(-9.0, -3.0, 1000)])            # near identity
        rots = np.concatenate([
            liegroup.so3_exp(axes * angles[:, None]),
            [np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]),
             np.diag([-1.0, -1.0, 1.0])]])
        expected = np.array([scalar_rotation_to_quaternion(r) for r in rots])
        # Every Shepperd case is hit, qw largest or each of qx, qy, qz.
        largest = np.argmax(np.abs(expected), axis=1)
        assert set(largest.tolist()) == {0, 1, 2, 3}
        assert np.array_equal(liegroup.rotation_to_quaternion(rots), expected)
        assert np.array_equal(liegroup.rotation_to_quaternion(rots.reshape(2, -1, 3, 3)),
                              expected.reshape(2, -1, 4))
        assert np.array_equal(liegroup.rotation_to_quaternion(rots[-2]), expected[-2])

    def test_roundtrip_random(self, rng):
        for _ in range(200):
            rot = random_pose(rng, max_angle=3.1).rotation
            q = liegroup.rotation_to_quaternion(rot)
            assert abs(np.linalg.norm(q) - 1.0) < 1e-12
            back = liegroup.quaternion_to_rotation(q)
            assert np.allclose(back, rot, atol=1e-9)

    def test_norm_tolerance(self):
        q = np.array([0.0, 0.0, 0.0, 1.0005])
        rot = liegroup.quaternion_to_rotation(q)
        assert np.allclose(rot, np.eye(3), atol=1e-9)
        with pytest.raises(ValueError):
            liegroup.quaternion_to_rotation(np.array([0.0, 0.0, 0.0, 1.01]))


class TestPose:
    def test_matrix_roundtrip(self, rng):
        t = random_pose(rng)
        back = Pose.from_matrix(t.matrix())
        assert np.allclose(back.rotation, t.rotation)
        assert np.allclose(back.translation, t.translation)

    def test_apply(self):
        rot = exp(np.array([0.0, 0.0, np.pi / 2, 0.0, 0.0, 0.0])).rotation
        p = Pose(rot, np.array([1.0, 0.0, 0.0]))
        moved = p.apply(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(moved, [1.0, 1.0, 0.0], atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Pose(np.eye(4), np.zeros(3))
        with pytest.raises(ValueError):
            Pose(np.eye(3), np.zeros(2))
