"""Measurement factors: GPS pseudorange, relative-pose odometry, anchor prior.

Residual conventions (all "measured minus predicted"):

- GPS:      e = rho_meas - |t_i - s|           (scalar, meters)
- odometry: e = log(pred^-1 * Z)               (6-vector), pred = x_i^-1 x_{i+1}
- anchor:   e = log(x^-1 * prior)              (6-vector)

Residuals and closed-form Jacobians (right perturbation x <- x * exp(delta))
exist once, as batched kernels over stacked arrays: ``gps_errors``/
``gps_jacobians``, ``odometry_errors``/``odometry_jacobians`` and
``anchor_errors``/``anchor_jacobians``.  The window optimizer runs them on a
whole window; ``linearize`` runs them on one factor, so the test suite's
finite-difference checks of ``linearize`` (against the per-pose references
``gps_residual`` and ``odom_residual``) cover the optimizer's Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from srfgo import liegroup
from srfgo.liegroup import Pose

# Receiver and satellite closer than this have no usable line of sight.
COINCIDENT_EPSILON = 1e-6

# Information placed on the window's oldest node so the graph stays full rank
# when every GPS factor has been stripped (pure odometry is invariant to a
# common right-composed rigid transform).
ANCHOR_INFORMATION_SCALE = 1e4


class DegenerateGeometryError(ValueError):
    """Receiver and satellite positions coincide; range direction undefined."""


def _check_spd(info: np.ndarray, name: str) -> np.ndarray:
    info = np.asarray(info, dtype=float)
    if info.shape != (6, 6):
        raise ValueError(f"{name} information must be 6x6, got {info.shape}")
    # Exact symmetry, the common case, skips the costlier tolerance test;
    # NaN and asymmetric input still reach allclose and are rejected.
    if not (np.array_equal(info, info.T) or np.allclose(info, info.T, atol=1e-9)):
        raise ValueError(f"{name} information must be symmetric")
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError as err:
        raise ValueError(f"{name} information must be positive definite") from err
    return info


@dataclass(eq=False)
class GpsFactor:
    """One pseudorange to one satellite at one node."""

    node_index: int
    sat_position: np.ndarray
    measured_range: float
    sigma: float

    def __post_init__(self) -> None:
        self.sat_position = np.asarray(self.sat_position, dtype=float).reshape(3)
        self.measured_range = float(self.measured_range)
        self.sigma = float(self.sigma)
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.measured_range <= 0:
            raise ValueError(f"measured_range must be positive, got {self.measured_range}")


@dataclass(eq=False)
class OdometryFactor:
    """Relative-pose constraint between consecutive nodes."""

    from_index: int
    to_index: int
    measured_transform: Pose
    information: np.ndarray

    def __post_init__(self) -> None:
        if self.to_index != self.from_index + 1:
            raise ValueError(
                f"odometry must link consecutive nodes, got {self.from_index}->{self.to_index}")
        self.information = _check_spd(self.information, "odometry")


@dataclass(eq=False)
class AnchorFactor:
    """Prior pinning one node to a fixed pose."""

    node_index: int
    prior_pose: Pose
    information: np.ndarray

    def __post_init__(self) -> None:
        self.information = _check_spd(self.information, "anchor")


@dataclass(eq=False)
class Linearization:
    """Residual and per-node Jacobians about the current estimates."""

    residual: np.ndarray
    node_indices: tuple[int, ...]
    jacobians: tuple[np.ndarray, ...]


def default_odometry_information(sigma_tangent: np.ndarray) -> np.ndarray:
    """diag(1/sigma^2) from per-component tangent standard deviations
    ([w1 w2 w3 | r1 r2 r3] ordering)."""
    sigma = np.asarray(sigma_tangent, dtype=float).reshape(6)
    if np.any(sigma <= 0):
        raise ValueError("tangent standard deviations must be positive")
    return np.diag(1.0 / sigma ** 2)


def anchor_information() -> np.ndarray:
    return ANCHOR_INFORMATION_SCALE * np.eye(6)


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
    """Expected body-frame relative transform x_i^-1 * x_{i+1}.

    The body-frame form keeps the residual a function of local pose
    differences only; the world-frame alternative couples rotation error to
    absolute position and turns near-degenerate at kilometre-scale
    coordinates."""
    return liegroup.compose(liegroup.inverse(x_i), x_ip1)


def odom_residual(factor: OdometryFactor, x_i: Pose, x_ip1: Pose) -> np.ndarray:
    """measured ominus predicted (6-vector)."""
    return liegroup.ominus(factor.measured_transform, odom_predict(x_i, x_ip1))


# -- batched kernels: leading axis = factor -------------------------------

def _between(rot_a, t_a, rot_b, t_b) -> tuple[np.ndarray, np.ndarray]:
    """Relative transforms a^-1 b."""
    rot_at = np.swapaxes(rot_a, -1, -2)
    return rot_at @ rot_b, (rot_at @ (t_b - t_a)[..., None])[..., 0]


def _log(rot: np.ndarray, t: np.ndarray) -> np.ndarray:
    return liegroup.se3_log_arrays(rot, t) if len(rot) else np.zeros((0, 6))


def gps_errors(t: np.ndarray, sat: np.ndarray, meas: np.ndarray) -> tuple:
    """(residuals, t - sat, ranges) of pseudoranges from receiver positions t;
    gps_jacobians reuses the last two."""
    diff = t - sat
    ranges = np.linalg.norm(diff, axis=-1)
    if ranges.size and np.min(ranges) < COINCIDENT_EPSILON:
        raise DegenerateGeometryError(
            f"receiver-satellite distance {np.min(ranges):.3e} m below {COINCIDENT_EPSILON:g} m")
    return meas - ranges, diff, ranges


def gps_jacobians(rot: np.ndarray, diff: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    """(m, 3) translational blocks; the rotational blocks are identically zero."""
    los = diff / ranges[..., None]
    # d|t + R dr - s|/d dr = los^T R; residual has opposite sign.
    return -np.einsum("ni,nij->nj", los, rot)


def odometry_errors(rot_i, t_i, rot_j, t_j, z_rot, z_t) -> tuple:
    """(residuals, pred rotations, pred translations), pred = x_i^-1 x_j;
    odometry_jacobians reuses pred."""
    rot_pred, t_pred = _between(rot_i, t_i, rot_j, t_j)
    return _log(*_between(rot_pred, t_pred, z_rot, z_t)), rot_pred, t_pred


def odometry_jacobians(e, rot_pred, t_pred) -> tuple[np.ndarray, np.ndarray]:
    """(J_i, J_j) of odometry residuals e about predictions pred."""
    # e(d_i, d_j) = log(exp(-d_j) pred^-1 exp(d_i) z): the j slot enters on
    # the left of exp(e), the i slot folds through Ad(pred^-1), so
    # J_i = -J_j Ad(pred^-1) exactly.
    rot_pi = np.swapaxes(rot_pred, -1, -2)
    t_pi = -(rot_pi @ t_pred[..., None])[..., 0]
    ad = liegroup.adjoint_arrays(rot_pi, t_pi)
    j_j = -liegroup.se3_left_jacobian_inv(e)
    return -j_j @ ad, j_j


def anchor_errors(rot, t, prior_rot, prior_t) -> np.ndarray:
    return _log(*_between(rot, t, prior_rot, prior_t))


def anchor_jacobians(e: np.ndarray) -> np.ndarray:
    return -liegroup.se3_left_jacobian_inv(e)


def _stacked(pose: Pose) -> tuple[np.ndarray, np.ndarray]:
    return pose.rotation[None], pose.translation[None]


def linearize(factor, current_states: Mapping[int, Pose]) -> Linearization:
    """Residual and Jacobians for one factor about the given node estimates,
    from the batched kernels on a stack of one."""
    if isinstance(factor, GpsFactor):
        rot, t = _stacked(current_states[factor.node_index])
        e, diff, ranges = gps_errors(t, factor.sat_position, factor.measured_range)
        jac = np.zeros((1, 6))
        jac[:, 3:] = gps_jacobians(rot, diff, ranges)
        return Linearization(e, (factor.node_index,), (jac,))
    if isinstance(factor, OdometryFactor):
        e, rot_pred, t_pred = odometry_errors(
            *_stacked(current_states[factor.from_index]),
            *_stacked(current_states[factor.to_index]),
            *_stacked(factor.measured_transform))
        j_i, j_j = odometry_jacobians(e, rot_pred, t_pred)
        return Linearization(e[0], (factor.from_index, factor.to_index), (j_i[0], j_j[0]))
    if isinstance(factor, AnchorFactor):
        e = anchor_errors(*_stacked(current_states[factor.node_index]),
                          *_stacked(factor.prior_pose))
        return Linearization(e[0], (factor.node_index,), (anchor_jacobians(e)[0],))
    raise TypeError(f"unknown factor type {type(factor).__name__}")
