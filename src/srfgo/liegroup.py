"""Rigid-body transform kernels on SO(3) and SE(3).

Conventions used everywhere in this package:

- Rotations are 3x3 orthonormal matrices with det = +1.
- A pose x = (R, t) acts on points as p' = R p + t.
- Tangent vectors are ordered rotation-first: nu = [w1 w2 w3 | r1 r2 r3],
  so exp(nu) has rotation exp([w]_x) and translation V(w) r.
- Perturbations are applied on the right: x <- x * exp(delta).

All kernels accept stacked inputs (leading batch dimensions) so the window
optimizer can linearize whole factor sets without Python loops.  Quaternions
appear only as a file-interchange format (scalar-last Hamilton convention);
internally rotations stay matrices.

Each kernel evaluates a row's sub-expressions once and shares them: theta =
|w|, sin and cos of theta, [w]_x and [w]_x^2 serve every coefficient that
needs them, and a coefficient's Taylor series or closed form is evaluated
only when at least one row takes it.  se3_log_arrays can also return the
SO(3) V(w)^-1 its translation part needed, and se3_left_jacobian_inv takes
that in place of building it again, together with the angle terms (theta,
the small-angle split and [w]_x) of the same w, so the window optimizer
linearizes with the V^-1 and angle terms its residual logs computed.

compose, dead reckoning's per-step primitive, multiplies two Poses with
compose_arrays' matmuls, drift expression and reprojection rule, without
its batch conversions, so both return the same bits.

The kernels return the same bits as their one-function-per-quantity form,
kept as the oracle in tests/test_liegroup.py.  That rests on the exact
numpy calls, not only on the algebra: a batched matmul rounds differently
for a transposed view than for a contiguous copy, a scalar's t ** 3
differently from an array's, and t ** 3 differently from t * t * t.  So
every swapaxes view, operand order, power and summation order such as
(I + a [w]_x) + b [w]_x^2 stays as written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Below this angle the closed-form Rodrigues/log coefficients hit 0/0 and we
# switch to their Taylor series, which are accurate to ~1e-15 there.
SMALL_ANGLE = 1e-4

# The SE(3) Q block (_q_matrix) switches higher.  Its closed forms lose
# digits to cancellation in (t - sin t), (1 - t^2/2 - cos t) and
# (t - sin t - t^3/6), about eps/t^2 of Q: against a 50-digit reference,
# Q's Frobenius-relative error is 2.2e-9 at t = 2e-4, 4e-13 at 1e-2 and
# under 2e-14 at 0.1.  Below 0.1 its four-term series is good to ~1e-16.
Q_SMALL_ANGLE = 0.1

# log() is ill-conditioned as the rotation angle approaches pi (the axis
# becomes ambiguous).  Inside this margin we refuse to answer rather than
# return garbage.
NEAR_PI_MARGIN = 1e-6

# Orthonormality drift tolerated before compose() re-projects a rotation.
ORTHONORMALITY_DRIFT = 1e-12

# A quaternion whose norm lies further than this from one is rejected.
QUATERNION_NORM_TOL = 1e-3


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


_EYE3 = np.eye(3)
# (row, column) of w1, w2, w3 in [w]_x, and of their negatives.
_VEE = (np.array([2, 0, 1]), np.array([1, 2, 0]))
_VEE_T = _VEE[::-1]


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, by numpy.linalg.norm's own formula."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _split(theta: np.ndarray, divisor: np.ndarray, switch: float) -> tuple:
    """(small, t): small marks the rows whose angle theta lies below switch
    and takes the Taylor series, None when no row does; t is the divisor of
    the closed forms, set to 1 on the small rows.  t is an array even for
    one row: numpy computes a scalar's t ** 3 by another route than an
    array's, and rounds it differently."""
    small = theta < switch
    if not np.count_nonzero(small):
        return None, np.asarray(divisor)
    return small, np.where(small, 1.0, divisor)


def _angle(omega: np.ndarray) -> tuple:
    """(theta, small, t, [w]_x) of each row w, theta = |w|, with small and t
    as _split gives them."""
    theta = _norm(omega)
    return (theta, *_split(theta, theta, SMALL_ANGLE), skew(omega))


def _per_row(theta, small, t, series, closed) -> list:
    """series(theta^2) on the small rows, closed(t) on the rest, each a list
    of coefficients; a branch that no row takes is not evaluated."""
    if small is None:
        return closed(t)
    t2 = theta * theta
    if small.all():
        return series(t2)
    return [np.where(small, s, c) for s, c in zip(series(t2), closed(t))]


def _exp_series(t2):
    return [1.0 - t2 / 6.0 + t2 * t2 / 120.0,
            0.5 - t2 / 24.0 + t2 * t2 / 720.0,
            1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0]


def _exp_closed(t):
    """a1 = sin(t)/t, a2 = (1-cos t)/t^2 in the cancellation-free half-angle
    form 2 sin^2(t/2)/t^2, a3 = (t-sin t)/t^3."""
    sin = np.sin(t)
    half = np.sin(t / 2.0)
    return [sin / t, 2.0 * half * half / (t * t), (t - sin) / (t * t * t)]


def _log_angle(rot: np.ndarray) -> tuple:
    """(sin-weighted axis s_vec, |s_vec|, angle in [0, pi]) of rotations,
    the angle via atan2 of the antisymmetric part and the trace."""
    s_vec = (rot[(..., *_VEE)] - rot[(..., *_VEE_T)]) / 2.0
    s = _norm(s_vec)
    trace = rot[..., 0, 0] + rot[..., 1, 1] + rot[..., 2, 2]
    c = np.minimum(np.maximum((trace - 1.0) / 2.0, -1.0), 1.0)
    return s_vec, s, np.arctan2(s, c)


def rotation_angle(rot: np.ndarray) -> np.ndarray:
    """Rotation angle in [0, pi] via atan2 of the antisymmetric part and trace."""
    return _log_angle(np.asarray(rot, dtype=float))[2]


def so3_log(rot: np.ndarray) -> np.ndarray:
    """Axis-angle vector w with exp([w]_x) = rot.

    Raises NearSingularLogError once the angle is within NEAR_PI_MARGIN of pi;
    there the axis extraction loses all precision and the caller must decide
    how to proceed.
    """
    s_vec, s, theta = _log_angle(np.asarray(rot, dtype=float))
    if np.count_nonzero(theta > np.pi - NEAR_PI_MARGIN):
        bad = float(np.max(theta))
        raise NearSingularLogError(
            f"rotation angle {bad:.9f} rad within {NEAR_PI_MARGIN:g} of pi")
    # theta/sin(theta), series 1 + t^2/6 + 7 t^4/360 near zero
    ratio, = _per_row(theta, *_split(theta, s, SMALL_ANGLE),
                      lambda t2: [1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0],
                      lambda d: [theta / d])
    return s_vec * ratio[..., None]


def _jl_inv(theta, small, t, k) -> np.ndarray:
    """V(w)^-1 = I - 1/2 [w]_x + b [w]_x^2, b = (1 - a1/(2 a2))/t^2, from
    the terms _angle computed."""
    def closed(t):
        half = np.sin(t / 2.0)
        a1, a2 = np.sin(t) / t, 2.0 * half * half / (t * t)
        return [(1.0 - a1 / (2.0 * a2)) / (t * t)]

    b, = _per_row(theta, small, t,
                  lambda t2: [1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0], closed)
    return _EYE3 - 0.5 * k + b[..., None, None] * (k @ k)


def se3_exp_arrays(nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp of nu = [w | r]: rotation exp([w]_x), translation V(w) r with
    V(w) = I + (1-cos t)/t^2 [w]_x + (t-sin t)/t^3 [w]_x^2."""
    nu = np.asarray(nu, dtype=float)
    rho = nu[..., 3:]
    theta, small, t, k = _angle(nu[..., :3])
    a1, a2, a3 = _per_row(theta, small, t, _exp_series, _exp_closed)
    k2 = k @ k
    a1, a2, a3 = a1[..., None, None], a2[..., None, None], a3[..., None, None]
    rot = _EYE3 + a1 * k + a2 * k2
    v = _EYE3 + a2 * k + a3 * k2
    return rot, (v @ rho[..., None])[..., 0]


class LogTerms(NamedTuple):
    """What se3_log_arrays computed on the way to nu that J_l^-1(nu) needs:
    _angle's terms of w = nu[..., :3], and V(w)^-1."""

    theta: np.ndarray
    small: np.ndarray | None
    t: np.ndarray
    wx: np.ndarray
    jinv: np.ndarray


def se3_log_arrays(rot: np.ndarray, t: np.ndarray, with_terms: bool = False):
    """Inverse of se3_exp_arrays; raises NearSingularLogError near pi.  With
    with_terms, returns (nu, LogTerms) so se3_left_jacobian_inv(nu, ...) can
    reuse the angle terms and the SO(3) inverse Jacobian that the
    translation part needed."""
    omega = so3_log(rot)
    angle = _angle(omega)
    jinv = _jl_inv(*angle)
    rho = (jinv @ np.asarray(t, dtype=float)[..., None])[..., 0]
    nu = np.concatenate([omega, rho], axis=-1)
    return (nu, LogTerms(*angle, jinv)) if with_terms else nu


def _q_matrix(rho: np.ndarray, theta, wx) -> np.ndarray:
    """Translation-rotation coupling block of the SE(3) left Jacobian, with
    the series below Q_SMALL_ANGLE."""
    def closed(t):
        sin = np.sin(t)
        return [(t - sin) / t ** 3, (1.0 - t * t / 2.0 - np.cos(t)) / t ** 4,
                (t - sin - t ** 3 / 6.0) / t ** 5]

    def series(t2):
        t4 = t2 * t2
        t6 = t4 * t2
        return [1.0 / 6.0 - t2 / 120.0 + t4 / 5040.0 - t6 / 362880.0,
                -1.0 / 24.0 + t2 / 720.0 - t4 / 40320.0 + t6 / 3628800.0,
                -1.0 / 120.0 + t2 / 5040.0 - t4 / 362880.0 + t6 / 39916800.0]

    c1, c2, c3 = _per_row(theta, *_split(theta, theta, Q_SMALL_ANGLE), series, closed)
    rx = skew(rho)
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


def se3_left_jacobian_inv(nu: np.ndarray, terms: LogTerms | None = None) -> np.ndarray:
    """6x6 inverse left Jacobian: d log(exp(eps) exp(nu))/d eps at eps = 0.
    terms, when given, are those of w = nu[..., :3], as se3_log_arrays
    returns them."""
    nu = np.asarray(nu, dtype=float)
    if terms is None:
        theta, small, t, wx = _angle(nu[..., :3])
        jinv = _jl_inv(theta, small, t, wx)
    else:
        theta, small, t, wx, jinv = terms
    q = _q_matrix(nu[..., 3:], theta, wx)
    out = np.zeros(nu.shape[:-1] + (6, 6))
    out[..., :3, :3] = jinv
    out[..., 3:, 3:] = jinv
    out[..., 3:, :3] = -jinv @ q @ jinv
    return out


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
    """Frobenius norm of R^T R - I, by numpy.linalg.norm's own formula."""
    rot = np.asarray(rot, dtype=float)
    off = rot.swapaxes(-1, -2) @ rot - _EYE3
    return np.sqrt(np.add.reduce(off * off, axis=(-2, -1)))


def _compose(rot_a, t_a, rot_b, t_b) -> tuple[np.ndarray, np.ndarray]:
    rot = rot_a @ rot_b
    t = (rot_a @ t_b[..., None])[..., 0] + t_a
    drift = orthonormality_drift(rot)
    if np.count_nonzero(drift > ORTHONORMALITY_DRIFT):
        fixed = project_rotation(rot)
        mask = (drift > ORTHONORMALITY_DRIFT)[..., None, None]
        rot = np.where(mask, fixed, rot)
    return rot, t


def compose_arrays(rot_a: np.ndarray, t_a: np.ndarray,
                   rot_b: np.ndarray, t_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R_a, t_a) * (R_b, t_b), re-projecting rotations whose drift exceeds
    ORTHONORMALITY_DRIFT."""
    return _compose(*(np.asarray(x, dtype=float) for x in (rot_a, t_a, rot_b, t_b)))


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
    def _of(cls, rotation: np.ndarray, translation: np.ndarray) -> "Pose":
        """Pose over float arrays of the right shapes that the caller has
        just created: no copy, no check."""
        pose = cls.__new__(cls)
        pose.rotation, pose.translation = rotation, translation
        return pose

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))


@dataclass(frozen=True, eq=False)
class PoseStack:
    """n poses as one rotation stack (n, 3, 3) and one translation stack
    (n, 3).  stack[k] is a Pose view of row k, a slice a PoseStack of views;
    treat the rows as immutable."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.translation)
        if self.rotation.shape != (n, 3, 3) or self.translation.shape != (n, 3):
            raise ValueError(f"expected rotations (n, 3, 3) and translations (n, 3), "
                             f"got {self.rotation.shape} and {self.translation.shape}")

    def __len__(self) -> int:
        return len(self.translation)

    def __getitem__(self, k):
        rot, t = self.rotation[k], self.translation[k]
        return Pose._of(rot, t) if t.ndim == 1 else PoseStack(rot, t)


def exp(nu: np.ndarray) -> Pose:
    """Pose from a single [w | r] tangent vector."""
    rot, t = se3_exp_arrays(np.asarray(nu, dtype=float).reshape(6))
    return Pose(rot, t)


def log(pose: Pose) -> np.ndarray:
    """Tangent vector with exp(log(x)) = x; raises near a pi rotation."""
    return se3_log_arrays(pose.rotation, pose.translation)


def compose(a: Pose, b: Pose) -> Pose:
    """a * b (apply b first, then a): _compose's expressions on one pair."""
    rot_a = a.rotation
    rot = rot_a @ b.rotation
    t = (rot_a @ b.translation[..., None])[..., 0] + a.translation
    off = rot.swapaxes(-1, -2) @ rot - _EYE3
    if np.sqrt(np.add.reduce(off * off, axis=(-2, -1))) > ORTHONORMALITY_DRIFT:
        rot = project_rotation(rot)
    return Pose._of(rot, t)


def inverse(pose: Pose) -> Pose:
    rot = pose.rotation.T
    return Pose(rot, -(rot @ pose.translation))


def rotation_to_quaternion(rot: np.ndarray) -> np.ndarray:
    """Unit quaternions [qx, qy, qz, qw] (Hamilton, scalar-last), qw >= 0, of
    rotations (..., 3, 3).

    Shepperd's method: per rotation, pick the largest of (trace, R00, R11,
    R22) to keep the divisor well away from zero.
    """
    rot = np.asarray(rot, dtype=float)
    m = rot.reshape(-1, 3, 3)
    d0, d1, d2 = m[:, 0, 0], m[:, 1, 1], m[:, 2, 2]
    tr = d0 + d1 + d2
    # Index of the large component: qw, then qx, qy, qz, first case that holds.
    big = np.select([tr > np.maximum(np.maximum(d0, d1), d2),
                     (d0 >= d1) & (d0 >= d2), d1 >= d2], [3, 0, 1], 2)
    s = np.sqrt(np.choose(big, [1.0 + d0 - d1 - d2, 1.0 + d1 - d0 - d2,
                                1.0 + d2 - d0 - d1, tr + 1.0])) * 2.0
    wx, wy, wz = m[:, 2, 1] - m[:, 1, 2], m[:, 0, 2] - m[:, 2, 0], m[:, 1, 0] - m[:, 0, 1]
    xy, xz, yz = m[:, 0, 1] + m[:, 1, 0], m[:, 0, 2] + m[:, 2, 0], m[:, 1, 2] + m[:, 2, 1]
    # Numerators over s of each case; the large slot is overwritten below.
    cases = [(s, xy, xz, wx), (xy, s, yz, wy), (xz, yz, s, wz), (wx, wy, wz, s)]
    q = np.choose(big[:, None], [np.stack(c, axis=-1) for c in cases]) / s[:, None]
    q[np.arange(len(q)), big] = 0.25 * s
    q = np.where(q[:, 3:] < 0, -q, q)
    # Row-wise q.q as a 1x4 by 4x1 product: the same sum as the 1-D norm.
    q = q / np.sqrt((q[:, None, :] @ q[:, :, None])[:, 0])
    return q.reshape(rot.shape[:-2] + (4,))


def quaternion_to_rotation(q: np.ndarray, first_row: int = 0) -> np.ndarray:
    """Rotations (..., 3, 3) from quaternions (..., 4), [qx, qy, qz, qw].
    Each is renormalized when its norm is within QUATERNION_NORM_TOL of one;
    otherwise the first other one is rejected by its row, counted in the
    flattened stack from first_row."""
    q = np.ascontiguousarray(q, dtype=float)
    flat = q.reshape(-1, 4)
    # Row-wise q.q as a 1x4 by 4x1 product: the same sum as the 1-D norm.
    n = np.sqrt((flat[:, None, :] @ flat[:, :, None])[:, 0])
    far = np.abs(n[:, 0] - 1.0) > QUATERNION_NORM_TOL
    if far.any():
        row = int(far.argmax())
        raise ValueError(f"row {first_row + row}: quaternion norm {n[row, 0]:.6f} "
                         f"outside 1 +/- {QUATERNION_NORM_TOL:g}")
    x, y, z, w = (flat / n).T
    rot = np.stack([
        1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - z * w), 2.0 * (x * z + y * w),
        2.0 * (x * y + z * w), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - x * w),
        2.0 * (x * z - y * w), 2.0 * (y * z + x * w), 1.0 - 2.0 * (x * x + y * y),
    ], axis=-1)
    return rot.reshape(q.shape[:-1] + (3, 3))
