"""Measurement factors: GPS pseudorange, relative-pose odometry, anchor prior.

Residual conventions (all "measured minus predicted"):

- GPS:      e = rho_meas - |t_i - s|           (scalar, meters)
- odometry: e = log(pred^-1 * Z)               (6-vector), pred = x_i^-1 x_{i+1}
- anchor:   e = log(x^-1 * prior)              (6-vector)

Residuals and closed-form Jacobians (right perturbation x <- x * exp(delta))
exist once, as batched kernels over stacked arrays: ``gps_errors``/
``gps_jacobians`` for pseudoranges, and ``relative_errors``/
``relative_jacobians`` for e = log(a^-1 b), which is the odometry residual
with a = pred, b = Z and the anchor residual with a = x, b = prior; so the
window optimizer evaluates both pose kinds in one call on stacked rows.
``relative_errors`` also returns the SO(3) V^-1 and angle terms its log
computed, and ``relative_jacobians`` takes them, so neither is evaluated
twice per row.
``odometry_jacobians`` turns the odometry rows' J_l^-1 into the Jacobians of
both linked nodes.  ``linearize`` runs the same kernels on one factor, so
the test suite's finite-difference checks of ``linearize`` (against
independent per-pose references kept in the tests) cover the optimizer's
Jacobians.

GPS and odometry factors carry no noise: each stream has one, held by the
window (srfgo.solver).  The anchor carries its own information.

The odometry prediction is the body-frame relative transform x_i^-1 x_{i+1}.
That form keeps the residual a function of local pose differences only; the
world-frame alternative couples rotation error to absolute position and turns
near-degenerate at kilometre-scale coordinates.
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


def check_information(info: np.ndarray, name: str) -> np.ndarray:
    """info as a float 6x6 array, once checked finite, symmetric and
    positive definite."""
    info = np.asarray(info, dtype=float)
    if info.shape != (6, 6):
        raise ValueError(f"{name} information must be 6x6, got {info.shape}")
    bad = ~np.isfinite(info)
    if bad.any():
        raise ValueError(f"{name} information must be finite, got "
                         f"{info[bad].tolist()} at {np.argwhere(bad).tolist()}")
    # The tolerance scales with the largest entry, so roundoff in a large
    # matrix passes and a visible asymmetry does not.
    if np.max(np.abs(info - info.T)) > 1e-9 * max(1.0, np.max(np.abs(info))):
        raise ValueError(f"{name} information must be symmetric")
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError as err:
        raise ValueError(f"{name} information must be positive definite") from err
    return info


@dataclass(eq=False)
class GpsFactor:
    """One pseudorange to one satellite at one node; its sigma is the
    window's."""

    node_index: int
    sat_position: np.ndarray
    measured_range: float

    def __post_init__(self) -> None:
        self.sat_position = np.asarray(self.sat_position, dtype=float).reshape(3)
        self.measured_range = float(self.measured_range)
        if self.measured_range <= 0:
            raise ValueError(f"measured_range must be positive, got {self.measured_range}")


@dataclass(eq=False)
class OdometryFactor:
    """Relative-pose constraint between consecutive nodes; its information
    is the window's."""

    from_index: int
    to_index: int
    measured_transform: Pose

    def __post_init__(self) -> None:
        if self.to_index != self.from_index + 1:
            raise ValueError(
                f"odometry must link consecutive nodes, got {self.from_index}->{self.to_index}")


@dataclass(eq=False)
class AnchorFactor:
    """Prior pinning one node to a fixed pose."""

    node_index: int
    prior_pose: Pose
    information: np.ndarray

    def __post_init__(self) -> None:
        self.information = check_information(self.information, "anchor")


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


# -- batched kernels: leading axis = factor -------------------------------

def between(rot_a, t_a, rot_b, t_b) -> tuple[np.ndarray, np.ndarray]:
    """Relative transforms a^-1 b."""
    rot_at = np.swapaxes(rot_a, -1, -2)
    return rot_at @ rot_b, (rot_at @ (t_b - t_a)[..., None])[..., 0]


def gps_errors(t: np.ndarray, sat: np.ndarray, meas: np.ndarray) -> tuple:
    """(residuals, t - sat, ranges) of pseudoranges from receiver positions t;
    gps_jacobians reuses the last two."""
    diff = t - sat
    ranges = np.sqrt(np.add.reduce(diff * diff, axis=-1))  # numpy.linalg.norm's formula
    if ranges.size and np.minimum.reduce(ranges) < COINCIDENT_EPSILON:
        raise DegenerateGeometryError(
            f"receiver-satellite distance {np.min(ranges):.3e} m below {COINCIDENT_EPSILON:g} m")
    return meas - ranges, diff, ranges


def gps_jacobians(rot: np.ndarray, diff: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    """(m, 3) translational blocks; the rotational blocks are identically zero."""
    los = diff / ranges[..., None]
    # d|t + R dr - s|/d dr = los^T R; residual has opposite sign.
    return -np.einsum("ni,nij->nj", los, rot)


def relative_errors(rot_a, t_a, rot_b, t_b) -> tuple:
    """(e, terms): e = log(a^-1 b) per row, and terms the liegroup.LogTerms
    of e's rotation part, which the log computed and relative_jacobians
    reuses; None when there is no row."""
    rot, t = between(rot_a, t_a, rot_b, t_b)
    if not len(rot):
        return np.zeros((0, 6)), None
    return liegroup.se3_log_arrays(rot, t, True)


def relative_jacobians(e: np.ndarray,
                       terms: liegroup.LogTerms | None = None) -> np.ndarray:
    """-J_l^-1(e), the Jacobian of e = log(a^-1 b) under a <- a exp(delta):
    e(delta) = log(exp(-delta) exp(e)).  terms as relative_errors returns
    them."""
    return -liegroup.se3_left_jacobian_inv(e, terms)


def odometry_jacobians(j_j, rot_pred, t_pred) -> tuple[np.ndarray, np.ndarray]:
    """(J_i, J_j) about predictions pred, from J_j = relative_jacobians(e)."""
    # e(d_i, d_j) = log(exp(-d_j) pred^-1 exp(d_i) z): the j slot enters on
    # the left of exp(e), the i slot folds through Ad(pred^-1), so
    # J_i = -J_j Ad(pred^-1) exactly.
    rot_pi = np.swapaxes(rot_pred, -1, -2)
    t_pi = -(rot_pi @ t_pred[..., None])[..., 0]
    return -j_j @ liegroup.adjoint_arrays(rot_pi, t_pi), j_j


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
        rot_pred, t_pred = between(*_stacked(current_states[factor.from_index]),
                                   *_stacked(current_states[factor.to_index]))
        e, _ = relative_errors(rot_pred, t_pred, *_stacked(factor.measured_transform))
        j_i, j_j = odometry_jacobians(relative_jacobians(e), rot_pred, t_pred)
        return Linearization(e[0], (factor.from_index, factor.to_index), (j_i[0], j_j[0]))
    if isinstance(factor, AnchorFactor):
        e, _ = relative_errors(*_stacked(current_states[factor.node_index]),
                               *_stacked(factor.prior_pose))
        return Linearization(e[0], (factor.node_index,), (relative_jacobians(e)[0],))
    raise TypeError(f"unknown factor type {type(factor).__name__}")
