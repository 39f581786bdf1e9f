"""Exp/log/compose/inverse kernel tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from srfgo import liegroup
from srfgo.liegroup import (
    Pose,
    compose,
    exp,
    inverse,
    log,
)
from conftest import ominus, random_pose, random_tangent


def transl(x, y, z):
    return Pose(np.eye(3), np.array([x, y, z], dtype=float))


def so3_exp(omega):
    """Rotations exp([w]_x) of the rows w, as se3_exp_arrays builds them."""
    return liegroup.se3_exp_arrays(np.concatenate([omega, 0 * omega], -1))[0]


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
            closed = liegroup.se3_left_jacobian_inv(-nu)  # J_r^-1(nu)
            assert np.allclose(closed, fd, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("theta", [1e-3, 3e-3])
    def test_series_branch_matches_closed_forms(self, rng, monkeypatch, theta):
        # The same inputs through the closed forms, then through the Taylor
        # series by raising SMALL_ANGLE and Q_SMALL_ANGLE above theta.  Both
        # branches are good to about 1e-10 here, while a wrong series term
        # shows at theta^2.
        axes = rng.normal(size=(8, 3))
        omega = theta * axes / np.linalg.norm(axes, axis=1, keepdims=True)
        nu = np.concatenate([omega, rng.uniform(-5.0, 5.0, (8, 3))], axis=1)
        rot, t = liegroup.se3_exp_arrays(nu)

        def kernels():
            return (*liegroup.se3_exp_arrays(nu), liegroup.se3_log_arrays(rot, t),
                    liegroup.se3_left_jacobian_inv(nu))

        monkeypatch.setattr(liegroup, "Q_SMALL_ANGLE", liegroup.SMALL_ANGLE)
        closed = kernels()
        monkeypatch.setattr(liegroup, "SMALL_ANGLE", 1.0)
        monkeypatch.setattr(liegroup, "Q_SMALL_ANGLE", 1.0)
        for got, want in zip(kernels(), closed):
            assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    def test_adjoint_conjugation(self, rng):
        x = random_pose(rng, max_angle=2.0)
        nu = 1e-4 * random_tangent(rng, max_angle=1.0, max_trans=1.0)
        lhs = compose(compose(x, exp(nu)), inverse(x))
        rhs = exp(liegroup.adjoint_arrays(x.rotation, x.translation) @ nu)
        assert np.allclose(lhs.rotation, rhs.rotation, atol=1e-10)
        assert np.allclose(lhs.translation, rhs.translation, atol=1e-10)


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


def mp_q_matrix(rho, omega):
    """The SE(3) Q block in 50-digit arithmetic, from its closed forms."""
    import mpmath as mp

    with mp.workdps(50):
        def sk(v):
            x, y, z = (mp.mpf(float(c)) for c in v)
            return mp.matrix([[0, -z, y], [z, 0, -x], [-y, x, 0]])

        rx, wx = sk(rho), sk(omega)
        t = mp.sqrt(sum(mp.mpf(float(w)) ** 2 for w in omega))
        c1 = (t - mp.sin(t)) / t ** 3
        c2 = (1 - t ** 2 / 2 - mp.cos(t)) / t ** 4
        c3 = (t - mp.sin(t) - t ** 3 / 6) / t ** 5
        wxrx, rxwx = wx * rx, rx * wx
        wxrxwx = wxrx * wx
        q = (rx / 2 + c1 * (wxrx + rxwx + wxrxwx)
             - c2 * (wx * wxrx + rxwx * wx - 3 * wxrxwx)
             - (c2 - 3 * c3) / 2 * (wxrxwx * wx + wx * wxrxwx))
        return [[q[i, j] for j in range(3)] for i in range(3)]


class TestQBlockAccuracy:
    def test_matches_high_precision_reference(self, rng):
        # Just above SMALL_ANGLE the closed forms lose up to 2.2e-9 to
        # cancellation; on both sides of Q's own switch both branches are
        # good to ~2e-14.
        import mpmath as mp

        switch = liegroup.Q_SMALL_ANGLE
        thetas = [1.01e-4, 2e-4, 1e-3, 1e-2, np.nextafter(switch, 0.0), switch,
                  np.nextafter(switch, 1.0), 1.01 * switch, 0.5]
        axes = rng.normal(size=(len(thetas) * 4, 3))
        omega = (np.repeat(thetas, 4)[:, None] * axes
                 / np.linalg.norm(axes, axis=1, keepdims=True))
        rho = rng.normal(size=omega.shape) * 10.0 ** rng.uniform(-3.0, 3.0, (len(omega), 1))
        theta, _, _, wx = liegroup._angle(omega)
        got = liegroup._q_matrix(rho, theta, wx)
        for q, r, w in zip(got, rho, omega):
            want = mp_q_matrix(r, w)
            err = mp.sqrt(sum((mp.mpf(float(q[i, j])) - want[i][j]) ** 2
                              for i in range(3) for j in range(3)))
            scale = mp.sqrt(sum(x ** 2 for row in want for x in row))
            assert err <= 1e-13 * scale, (np.linalg.norm(w), float(err / scale))


class TestQuaternions:
    def test_batch_equals_scalar_reference_bit_for_bit(self, rng):
        axes = rng.normal(size=(3000, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = np.concatenate([
            rng.uniform(0.0, np.pi, 1000),                     # mostly qw largest
            np.pi - 10.0 ** rng.uniform(-9.0, -1.0, 1000),     # near pi: qx, qy, qz
            10.0 ** rng.uniform(-9.0, -3.0, 1000)])            # near identity
        rots = np.concatenate([
            so3_exp(axes * angles[:, None]),
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
    def test_apply(self):
        rot = exp(np.array([0.0, 0.0, np.pi / 2, 0.0, 0.0, 0.0])).rotation
        p = Pose(rot, np.array([1.0, 0.0, 0.0]))
        moved = p.rotation @ np.array([1.0, 0.0, 0.0]) + p.translation
        assert np.allclose(moved, [1.0, 1.0, 0.0], atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Pose(np.eye(4), np.zeros(3))
        with pytest.raises(ValueError):
            Pose(np.eye(3), np.zeros(2))


# -- bit-for-bit oracle ------------------------------------------------------
# The kernels as they were written before they shared their sub-expressions:
# one function per quantity, both branches of every series switch evaluated.
# The shared-term kernels must return exactly these bits.

def ref_skew(v):
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def ref_vee(m):
    return np.stack([m[..., 2, 1], m[..., 0, 2], m[..., 1, 0]], axis=-1)


def ref_rodrigues_coeffs(theta):
    small = theta < liegroup.SMALL_ANGLE
    t = np.where(small, 1.0, theta)
    t2 = theta * theta
    a1 = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, np.sin(t) / t)
    half = np.sin(t / 2.0)
    a2 = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0, 2.0 * half * half / (t * t))
    a3 = np.where(small, 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0,
                  (t - np.sin(t)) / (t * t * t))
    return a1, a2, a3


def ref_so3_exp(omega):
    theta = np.linalg.norm(omega, axis=-1)
    a1, a2, _ = ref_rodrigues_coeffs(theta)
    k = ref_skew(omega)
    eye = np.broadcast_to(np.eye(3), k.shape)
    return eye + a1[..., None, None] * k + a2[..., None, None] * (k @ k)


def ref_rotation_angle(rot):
    s = np.linalg.norm(ref_vee(rot - np.swapaxes(rot, -1, -2)) / 2.0, axis=-1)
    c = np.clip((np.trace(rot, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    return np.arctan2(s, c)


def ref_so3_log(rot):
    s_vec = ref_vee(rot - np.swapaxes(rot, -1, -2)) / 2.0
    s = np.linalg.norm(s_vec, axis=-1)
    c = np.clip((np.trace(rot, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arctan2(s, c)
    if np.any(theta > np.pi - liegroup.NEAR_PI_MARGIN):
        raise liegroup.NearSingularLogError("near pi")
    small = theta < liegroup.SMALL_ANGLE
    t2 = theta * theta
    ratio = np.where(small, 1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0,
                     theta / np.where(small, 1.0, s))
    return s_vec * ratio[..., None]


def ref_so3_left_jacobian(omega):
    theta = np.linalg.norm(omega, axis=-1)
    _, a2, a3 = ref_rodrigues_coeffs(theta)
    k = ref_skew(omega)
    eye = np.broadcast_to(np.eye(3), k.shape)
    return eye + a2[..., None, None] * k + a3[..., None, None] * (k @ k)


def ref_so3_left_jacobian_inv(omega):
    theta = np.linalg.norm(omega, axis=-1)
    a1, a2, _ = ref_rodrigues_coeffs(theta)
    small = theta < liegroup.SMALL_ANGLE
    t2 = theta * theta
    b = np.where(small, 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0,
                 (1.0 - a1 / (2.0 * a2)) / np.where(small, 1.0, t2))
    k = ref_skew(omega)
    eye = np.broadcast_to(np.eye(3), k.shape)
    return eye - 0.5 * k + b[..., None, None] * (k @ k)


def ref_se3_exp_arrays(nu):
    omega, rho = nu[..., :3], nu[..., 3:]
    return (ref_so3_exp(omega),
            (ref_so3_left_jacobian(omega) @ rho[..., None])[..., 0])


def ref_se3_log_arrays(rot, t):
    omega = ref_so3_log(rot)
    rho = (ref_so3_left_jacobian_inv(omega) @ t[..., None])[..., 0]
    return np.concatenate([omega, rho], axis=-1)


def ref_q_matrix(rho, omega):
    theta = np.linalg.norm(omega, axis=-1)
    small = theta < liegroup.Q_SMALL_ANGLE
    t = np.where(small, 1.0, theta)
    t2 = theta * theta
    t4 = t2 * t2
    c1 = np.where(small, 1.0 / 6.0 - t2 / 120.0 + t4 / 5040.0 - t4 * t2 / 362880.0,
                  (t - np.sin(t)) / t ** 3)
    c2 = np.where(small, -1.0 / 24.0 + t2 / 720.0 - t4 / 40320.0 + t4 * t2 / 3628800.0,
                  (1.0 - t2 / 2.0 - np.cos(t)) / t ** 4)
    c3 = np.where(small,
                  -1.0 / 120.0 + t2 / 5040.0 - t4 / 362880.0 + t4 * t2 / 39916800.0,
                  (t - np.sin(t) - t ** 3 / 6.0) / t ** 5)
    rx, wx = ref_skew(rho), ref_skew(omega)
    wxrx, rxwx = wx @ rx, rx @ wx
    wxrxwx = wxrx @ wx
    c1, c2, c3 = c1[..., None, None], c2[..., None, None], c3[..., None, None]
    q = 0.5 * rx
    q = q + c1 * (wxrx + rxwx + wxrxwx)
    q = q - c2 * (wx @ wxrx + rxwx @ wx - 3.0 * wxrxwx)
    return q - 0.5 * (c2 - 3.0 * c3) * (wxrxwx @ wx + wx @ wxrxwx)


def ref_se3_left_jacobian_inv(nu):
    omega, rho = nu[..., :3], nu[..., 3:]
    jinv = ref_so3_left_jacobian_inv(omega)
    out = np.zeros(nu.shape[:-1] + (6, 6))
    out[..., :3, :3] = jinv
    out[..., 3:, 3:] = jinv
    out[..., 3:, :3] = -jinv @ ref_q_matrix(rho, omega) @ jinv
    return out


def ref_compose_arrays(rot_a, t_a, rot_b, t_b):
    rot = rot_a @ rot_b
    t = (rot_a @ t_b[..., None])[..., 0] + t_a
    drift = np.linalg.norm(np.swapaxes(rot, -1, -2) @ rot - np.eye(3), axis=(-2, -1))
    if np.any(drift > liegroup.ORTHONORMALITY_DRIFT):
        mask = (drift > liegroup.ORTHONORMALITY_DRIFT)[..., None, None]
        rot = np.where(mask, liegroup.project_rotation(rot), rot)
    return rot, t


def assert_same_bits(got, expected):
    """Equal shapes and bytes: signed zeros must match too."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


LAYOUTS = ("mixed", "small", "large", "empty", "single")


def tangent_batch(layout: str, n: int, seed: int) -> np.ndarray:
    """Tangents whose rotation angles all lie below SMALL_ANGLE ("small"),
    all at or above it ("large"), both ("mixed"), none ("empty"), or one
    unbatched (6,) vector of either kind ("single")."""
    rng = np.random.default_rng(seed)
    n = {"empty": 0, "single": 1}.get(layout, n)
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    small = 10.0 ** rng.uniform(-14.0, np.log10(liegroup.SMALL_ANGLE), n)
    small[rng.random(n) < 0.1] = 0.0
    large = rng.uniform(liegroup.SMALL_ANGLE, np.pi - 1e-4, n)
    pick = {"small": np.ones(n, bool), "large": np.zeros(n, bool)}.get(
        layout, rng.random(n) < 0.5)
    if layout == "mixed" and n >= 2:
        pick[:2] = (True, False)
    omega = axes * np.where(pick, small, large)[:, None]
    rho = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    nu = np.concatenate([omega, rho], axis=1)
    return nu[0] if layout == "single" else nu


class TestSharedTermKernelsBitForBit:
    @settings(max_examples=80, deadline=None)
    @example(layout="mixed", n=2, seed=0)
    @example(layout="empty", n=1, seed=0)
    @given(layout=st.sampled_from(LAYOUTS), n=st.integers(1, 40),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_function_kernels(self, layout, n, seed):
        nu = tangent_batch(layout, n, seed)
        omega = nu[..., :3]
        rot, t = ref_se3_exp_arrays(nu)
        got_rot, got_t = liegroup.se3_exp_arrays(nu)
        assert_same_bits(got_rot, rot)
        assert_same_bits(got_t, t)
        assert_same_bits(liegroup.se3_left_jacobian_inv(nu), ref_se3_left_jacobian_inv(nu))
        assert_same_bits(liegroup.rotation_angle(rot), ref_rotation_angle(rot))
        assert_same_bits(liegroup.orthonormality_drift(rot),
                         np.linalg.norm(np.swapaxes(rot, -1, -2) @ rot - np.eye(3),
                                        axis=(-2, -1)))

        e = ref_se3_log_arrays(rot, t)
        assert_same_bits(liegroup.se3_log_arrays(rot, t), e)
        got_e, terms = liegroup.se3_log_arrays(rot, t, True)
        assert_same_bits(got_e, e)
        assert_same_bits(terms.jinv, ref_so3_left_jacobian_inv(e[..., :3]))
        # The V^-1 and angle terms the log returns stand in for the ones the
        # Jacobian builds.
        assert_same_bits(liegroup.se3_left_jacobian_inv(e, terms),
                         ref_se3_left_jacobian_inv(e))

        if nu.ndim == 2 and len(nu):
            rot_b, t_b = rot[::-1].copy(), t[::-1].copy()
            expected = ref_compose_arrays(rot, t, rot_b, t_b)
            for got, want in zip(liegroup.compose_arrays(rot, t, rot_b, t_b), expected):
                assert_same_bits(got, want)
            single = liegroup.compose(Pose(rot[0], t[0]), Pose(rot_b[0], t_b[0]))
            assert_same_bits(single.rotation, expected[0][0])
            assert_same_bits(single.translation, expected[1][0])

    @pytest.mark.parametrize("batched", [False, True])
    def test_near_pi_log_still_raises(self, batched):
        nu = np.array([0.0, 0.0, np.pi - 1e-9, 1.0, 0.0, 0.0])
        if batched:  # one bad row among ordinary ones of both branches
            nu = np.stack([tangent_batch("single", 1, 3), nu, np.zeros(6),
                           tangent_batch("single", 1, 4)])
        rot, t = liegroup.se3_exp_arrays(nu)
        with pytest.raises(liegroup.NearSingularLogError):
            liegroup.se3_log_arrays(rot, t)
        with pytest.raises(liegroup.NearSingularLogError):
            liegroup.se3_log_arrays(rot, t, True)

    def test_pose_compose_matches_compose_arrays(self, rng):
        # compose is the per-step path, compose_arrays the batched one.
        rot = so3_exp(rng.normal(size=(300, 3)))
        rot[::7] *= 1.0 + 1e-9  # beyond ORTHONORMALITY_DRIFT
        t = rng.normal(size=(300, 3)) * 100.0
        rot_b, t_b = rot[::-1].copy(), t[::-1].copy()
        want_rot, want_t = liegroup.compose_arrays(rot, t, rot_b, t_b)
        reprojected = 0
        for k in range(len(rot)):
            got = compose(Pose(rot[k], t[k]), Pose(rot_b[k], t_b[k]))
            assert_same_bits(got.rotation, want_rot[k])
            assert_same_bits(got.translation, want_t[k])
            reprojected += not np.array_equal(got.rotation, rot[k] @ rot_b[k])
        assert reprojected == np.count_nonzero((np.arange(300) % 7 == 0)
                                               | (np.arange(300)[::-1] % 7 == 0))

    def test_drifted_rotation_reprojected_like_before(self, rng):
        rot = so3_exp(rng.normal(size=(5, 3)))
        rot[1:3] *= 1.0 + 1e-9  # beyond ORTHONORMALITY_DRIFT
        t = rng.normal(size=(5, 3))
        expected = ref_compose_arrays(rot, t, rot[::-1].copy(), t[::-1].copy())
        got = liegroup.compose_arrays(rot, t, rot[::-1].copy(), t[::-1].copy())
        for g, want in zip(got, expected):
            assert_same_bits(g, want)
        single = liegroup.compose(Pose(rot[1], t[1]), Pose(rot[2], t[2]))
        want = ref_compose_arrays(rot[1], t[1], rot[2], t[2])
        assert_same_bits(single.rotation, want[0])
        assert_same_bits(single.translation, want[1])
