"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from srfgo import liegroup
from srfgo.factors import default_odometry_information

# The test windows' noise model, WindowGraph's last two arguments: the
# odometry information of 0.01 rad and 0.05 m tangent stds, and a 7 m
# pseudorange sigma.
ODOMETRY_INFORMATION = default_odometry_information([0.01] * 3 + [0.05] * 3)
ODOMETRY_INFORMATION.setflags(write=False)
SIGMA_GPS = 7.0
NOISE = (ODOMETRY_INFORMATION, SIGMA_GPS)


def random_tangent(rng: np.random.Generator, max_angle: float = 3.0,
                   max_trans: float = 5.0) -> np.ndarray:
    """Tangent vector with rotation magnitude <= max_angle."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    omega = axis * rng.uniform(0.0, max_angle)
    rho = rng.uniform(-max_trans, max_trans, size=3)
    return np.concatenate([omega, rho])


def ominus(y: liegroup.Pose, x: liegroup.Pose) -> np.ndarray:
    """log(x^-1 y): the right-tangent displacement from x to y."""
    return liegroup.log(liegroup.compose(liegroup.inverse(x), y))


def random_pose(rng: np.random.Generator, max_angle: float = 3.0,
                max_trans: float = 5.0) -> liegroup.Pose:
    return liegroup.exp(random_tangent(rng, max_angle, max_trans))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
