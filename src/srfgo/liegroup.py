"""Rigid-body transform kernels on SO(3) and SE(3).

Conventions used everywhere in this package:

- Rotations are 3x3 orthonormal matrices with det = +1.
- A pose x = (R, t) acts on points as p' = R p + t.
- Tangent vectors are ordered rotation-first: nu = [w1 w2 w3 | r1 r2 r3],
  so exp(nu) has rotation exp([w]_x) and translation V(w) r.
- Perturbations are applied on the right: x <- x * exp(delta).
- ominus(y, x) = log(x^-1 * y), the tangent that carries x onto y.

All kernels accept stacked inputs (leading batch dimensions) so the window
optimizer can linearize whole factor sets without Python loops.  Quaternions
appear only as a file-interchange format (scalar-last Hamilton convention);
internally rotations stay matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Below this angle the closed-form Rodrigues/log coefficients hit 0/0 and we
# switch to their Taylor series.  1e-4 keeps every coefficient accurate to
# ~1e-13 through the series' leading terms.
SMALL_ANGLE = 1e-4

# log() is ill-conditioned as the rotation angle approaches pi (the axis
# becomes ambiguous).  Inside this margin we refuse to answer rather than
# return garbage.
NEAR_PI_MARGIN = 1e-6

# Orthonormality drift tolerated before compose() re-projects a rotation.
ORTHONORMALITY_DRIFT = 1e-12


class NearSingularLogError(ValueError):
    """Rotation angle within NEAR_PI_MARGIN of pi; log axis is unreliable."""


def skew(v: np.ndarray) -> np.ndarray:
    """[v]_x such that [v]_x u = v x u.  Batched over leading dims."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def vee(m: np.ndarray) -> np.ndarray:
    """Inverse of skew for antisymmetric m."""
    m = np.asarray(m, dtype=float)
    return np.stack([m[..., 2, 1], m[..., 0, 2], m[..., 1, 0]], axis=-1)


def _rodrigues_coeffs(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a1 = sin(t)/t, a2 = (1-cos t)/t^2, a3 = (t-sin t)/t^3 with series branches.

    a2 uses the half-angle form 2 sin^2(t/2)/t^2 which is cancellation-free.
    """
    small = theta < SMALL_ANGLE
    t = np.where(small, 1.0, theta)
    t2 = theta * theta
    a1 = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, np.sin(t) / t)
    half = np.sin(t / 2.0)
    a2 = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0, 2.0 * half * half / (t * t))
    a3 = np.where(small, 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0,
                  (t - np.sin(t)) / (t * t * t))
    return a1, a2, a3


def so3_exp(omega: np.ndarray) -> np.ndarray:
    """Rodrigues: R = I + sin(t)/t [w]_x + (1-cos t)/t^2 [w]_x^2, t = |w|."""
    omega = np.asarray(omega, dtype=float)
    theta = np.linalg.norm(omega, axis=-1)
    a1, a2, _ = _rodrigues_coeffs(theta)
    k = skew(omega)
    k2 = k @ k
    eye = np.broadcast_to(np.eye(3), k.shape)
    return eye + a1[..., None, None] * k + a2[..., None, None] * k2


def rotation_angle(rot: np.ndarray) -> np.ndarray:
    """Rotation angle in [0, pi] via atan2 of the antisymmetric part and trace."""
    rot = np.asarray(rot, dtype=float)
    s_vec = vee(rot - np.swapaxes(rot, -1, -2)) / 2.0
    s = np.linalg.norm(s_vec, axis=-1)
    c = np.clip((np.trace(rot, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    return np.arctan2(s, c)


def so3_log(rot: np.ndarray) -> np.ndarray:
    """Axis-angle vector w with exp([w]_x) = rot.

    Raises NearSingularLogError once the angle is within NEAR_PI_MARGIN of pi;
    there the axis extraction loses all precision and the caller must decide
    how to proceed.
    """
    rot = np.asarray(rot, dtype=float)
    s_vec = vee(rot - np.swapaxes(rot, -1, -2)) / 2.0
    s = np.linalg.norm(s_vec, axis=-1)
    c = np.clip((np.trace(rot, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arctan2(s, c)
    if np.any(theta > np.pi - NEAR_PI_MARGIN):
        bad = float(np.max(theta))
        raise NearSingularLogError(
            f"rotation angle {bad:.9f} rad within {NEAR_PI_MARGIN:g} of pi")
    small = theta < SMALL_ANGLE
    t2 = theta * theta
    # theta/sin(theta), series 1 + t^2/6 + 7 t^4/360 near zero
    ratio = np.where(small, 1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0,
                     theta / np.where(small, 1.0, s))
    return s_vec * ratio[..., None]


def so3_left_jacobian(omega: np.ndarray) -> np.ndarray:
    """V(w) = I + (1-cos t)/t^2 [w]_x + (t-sin t)/t^3 [w]_x^2."""
    omega = np.asarray(omega, dtype=float)
    theta = np.linalg.norm(omega, axis=-1)
    _, a2, a3 = _rodrigues_coeffs(theta)
    k = skew(omega)
    k2 = k @ k
    eye = np.broadcast_to(np.eye(3), k.shape)
    return eye + a2[..., None, None] * k + a3[..., None, None] * k2


def so3_left_jacobian_inv(omega: np.ndarray) -> np.ndarray:
    """V(w)^-1 = I - 1/2 [w]_x + b [w]_x^2, b = (1 - a1/(2 a2))/t^2."""
    omega = np.asarray(omega, dtype=float)
    theta = np.linalg.norm(omega, axis=-1)
    a1, a2, _ = _rodrigues_coeffs(theta)
    small = theta < SMALL_ANGLE
    t2 = theta * theta
    b = np.where(small, 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0,
                 (1.0 - a1 / (2.0 * a2)) / np.where(small, 1.0, t2))
    k = skew(omega)
    k2 = k @ k
    eye = np.broadcast_to(np.eye(3), k.shape)
    return eye - 0.5 * k + b[..., None, None] * k2


def se3_exp_arrays(nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp of nu = [w | r]: rotation exp([w]_x), translation V(w) r."""
    nu = np.asarray(nu, dtype=float)
    omega = nu[..., :3]
    rho = nu[..., 3:]
    rot = so3_exp(omega)
    t = (so3_left_jacobian(omega) @ rho[..., None])[..., 0]
    return rot, t


def se3_log_arrays(rot: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Inverse of se3_exp_arrays; raises NearSingularLogError near pi."""
    omega = so3_log(rot)
    rho = (so3_left_jacobian_inv(omega) @ np.asarray(t, dtype=float)[..., None])[..., 0]
    return np.concatenate([omega, rho], axis=-1)


def _q_matrix(rho: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Translation-rotation coupling block of the SE(3) left Jacobian."""
    theta = np.linalg.norm(omega, axis=-1)
    small = theta < SMALL_ANGLE
    t = np.where(small, 1.0, theta)
    t2 = theta * theta
    c1 = np.where(small, 1.0 / 6.0 - t2 / 120.0, (t - np.sin(t)) / t ** 3)
    c2 = np.where(small, 1.0 / 24.0 - t2 / 720.0,
                  (1.0 - t2 / 2.0 - np.cos(t)) / t ** 4)
    c3 = np.where(small, -1.0 / 120.0 + t2 / 5040.0,
                  (t - np.sin(t) - t ** 3 / 6.0) / t ** 5)
    rx = skew(rho)
    wx = skew(omega)
    wxrx = wx @ rx
    rxwx = rx @ wx
    wxrxwx = wxrx @ wx
    c1 = c1[..., None, None]
    c2 = c2[..., None, None]
    c3 = c3[..., None, None]
    q = 0.5 * rx
    q = q + c1 * (wxrx + rxwx + wxrxwx)
    q = q - c2 * (wx @ wxrx + rxwx @ wx - 3.0 * wxrxwx)
    q = q - 0.5 * (c2 - 3.0 * c3) * (wxrxwx @ wx + wx @ wxrxwx)
    return q


def se3_left_jacobian_inv(nu: np.ndarray) -> np.ndarray:
    """6x6 inverse left Jacobian: d log(exp(eps) exp(nu))/d eps at eps = 0."""
    nu = np.asarray(nu, dtype=float)
    omega = nu[..., :3]
    rho = nu[..., 3:]
    jinv = so3_left_jacobian_inv(omega)
    q = _q_matrix(rho, omega)
    out = np.zeros(nu.shape[:-1] + (6, 6))
    out[..., :3, :3] = jinv
    out[..., 3:, 3:] = jinv
    out[..., 3:, :3] = -jinv @ q @ jinv
    return out


def se3_right_jacobian_inv(nu: np.ndarray) -> np.ndarray:
    """d log(exp(nu) exp(eps))/d eps at eps = 0; equals J_l^-1(-nu)."""
    return se3_left_jacobian_inv(-np.asarray(nu, dtype=float))


def adjoint_arrays(rot: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Ad_(R,t) with exp(Ad_x nu) = x exp(nu) x^-1: [[R, 0], [[t]_x R, R]]."""
    rot = np.asarray(rot, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.zeros(rot.shape[:-2] + (6, 6))
    out[..., :3, :3] = rot
    out[..., 3:, 3:] = rot
    out[..., 3:, :3] = skew(t) @ rot
    return out


def project_rotation(rot: np.ndarray) -> np.ndarray:
    """Nearest orthonormal matrix (polar factor via SVD), det forced to +1."""
    u, _, vt = np.linalg.svd(np.asarray(rot, dtype=float))
    r = u @ vt
    det = np.linalg.det(r)
    # Flip the last singular direction for any reflection.
    flip = np.where(det < 0, -1.0, 1.0)
    u = u.copy()
    u[..., :, 2] = u[..., :, 2] * flip[..., None]
    return u @ vt


def orthonormality_drift(rot: np.ndarray) -> np.ndarray:
    """Frobenius norm of R^T R - I."""
    rot = np.asarray(rot, dtype=float)
    gram = np.swapaxes(rot, -1, -2) @ rot
    return np.linalg.norm(gram - np.eye(3), axis=(-2, -1))


def compose_arrays(rot_a: np.ndarray, t_a: np.ndarray,
                   rot_b: np.ndarray, t_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R_a, t_a) * (R_b, t_b), re-projecting rotations whose drift exceeds
    ORTHONORMALITY_DRIFT."""
    rot = np.asarray(rot_a, dtype=float) @ np.asarray(rot_b, dtype=float)
    t = (np.asarray(rot_a, dtype=float) @ np.asarray(t_b, dtype=float)[..., None])[..., 0] \
        + np.asarray(t_a, dtype=float)
    drift = orthonormality_drift(rot)
    if np.any(drift > ORTHONORMALITY_DRIFT):
        fixed = project_rotation(rot)
        mask = (drift > ORTHONORMALITY_DRIFT)[..., None, None]
        rot = np.where(mask, fixed, rot)
    return rot, t


@dataclass(eq=False)
class Pose:
    """Rigid transform (R, t); value semantics, treat instances as immutable."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        self.rotation = np.array(self.rotation, dtype=float)
        self.translation = np.array(self.translation, dtype=float)
        if self.rotation.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {self.rotation.shape}")
        if self.translation.shape != (3,):
            raise ValueError(f"translation must be length 3, got {self.translation.shape}")

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Pose":
        m = np.asarray(m, dtype=float)
        return cls(m[:3, :3], m[:3, 3])

    def matrix(self) -> np.ndarray:
        out = np.eye(4)
        out[:3, :3] = self.rotation
        out[:3, 3] = self.translation
        return out

    def apply(self, points: np.ndarray) -> np.ndarray:
        """R p + t for a point or stack of points."""
        points = np.asarray(points, dtype=float)
        return (self.rotation @ points[..., None])[..., 0] + self.translation


def exp(nu: np.ndarray) -> Pose:
    """Pose from a single [w | r] tangent vector."""
    rot, t = se3_exp_arrays(np.asarray(nu, dtype=float).reshape(6))
    return Pose(rot, t)


def log(pose: Pose) -> np.ndarray:
    """Tangent vector with exp(log(x)) = x; raises near a pi rotation."""
    return se3_log_arrays(pose.rotation, pose.translation)


def compose(a: Pose, b: Pose) -> Pose:
    """a * b (apply b first, then a)."""
    rot, t = compose_arrays(a.rotation, a.translation, b.rotation, b.translation)
    return Pose(rot, t)


def inverse(pose: Pose) -> Pose:
    rot = pose.rotation.T
    return Pose(rot, -(rot @ pose.translation))


def ominus(y: Pose, x: Pose) -> np.ndarray:
    """log(x^-1 y): the right-tangent displacement from x to y."""
    return log(compose(inverse(x), y))


def adjoint(pose: Pose) -> np.ndarray:
    return adjoint_arrays(pose.rotation, pose.translation)


def rotation_to_quaternion(rot: np.ndarray) -> np.ndarray:
    """Unit quaternion [qx, qy, qz, qw] (Hamilton, scalar-last), qw >= 0.

    Shepperd's method: pick the largest of (trace, R00, R11, R22) to keep the
    divisor well away from zero.
    """
    rot = np.asarray(rot, dtype=float)
    tr = rot[0, 0] + rot[1, 1] + rot[2, 2]
    if tr > max(rot[0, 0], rot[1, 1], rot[2, 2]):
        s = np.sqrt(tr + 1.0) * 2.0
        qw = 0.25 * s
        qx = (rot[2, 1] - rot[1, 2]) / s
        qy = (rot[0, 2] - rot[2, 0]) / s
        qz = (rot[1, 0] - rot[0, 1]) / s
    elif rot[0, 0] >= rot[1, 1] and rot[0, 0] >= rot[2, 2]:
        s = np.sqrt(1.0 + rot[0, 0] - rot[1, 1] - rot[2, 2]) * 2.0
        qx = 0.25 * s
        qw = (rot[2, 1] - rot[1, 2]) / s
        qy = (rot[0, 1] + rot[1, 0]) / s
        qz = (rot[0, 2] + rot[2, 0]) / s
    elif rot[1, 1] >= rot[2, 2]:
        s = np.sqrt(1.0 + rot[1, 1] - rot[0, 0] - rot[2, 2]) * 2.0
        qy = 0.25 * s
        qw = (rot[0, 2] - rot[2, 0]) / s
        qx = (rot[0, 1] + rot[1, 0]) / s
        qz = (rot[1, 2] + rot[2, 1]) / s
    else:
        s = np.sqrt(1.0 + rot[2, 2] - rot[0, 0] - rot[1, 1]) * 2.0
        qz = 0.25 * s
        qw = (rot[1, 0] - rot[0, 1]) / s
        qx = (rot[0, 2] + rot[2, 0]) / s
        qy = (rot[1, 2] + rot[2, 1]) / s
    q = np.array([qx, qy, qz, qw])
    if q[3] < 0:
        q = -q
    return q / np.linalg.norm(q)


def quaternion_to_rotation(q: np.ndarray, norm_tol: float = 1e-3) -> np.ndarray:
    """Rotation matrix from [qx, qy, qz, qw]; renormalizes when the norm is
    within norm_tol of one, rejects otherwise."""
    q = np.asarray(q, dtype=float).reshape(4)
    n = np.linalg.norm(q)
    if abs(n - 1.0) > norm_tol:
        raise ValueError(f"quaternion norm {n:.6f} outside 1 +/- {norm_tol:g}")
    x, y, z, w = q / n
    return np.array([
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - z * w), 2.0 * (x * z + y * w)],
        [2.0 * (x * y + z * w), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - x * w)],
        [2.0 * (x * z - y * w), 2.0 * (y * z + x * w), 1.0 - 2.0 * (x * x + y * y)],
    ])
