"""Scenario generation: trajectories, satellites, spoofing, measurements.

Everything here is deterministic given a seed.  Measurement noise flows
through dedicated named streams (see rngutil) so that the GPS draw sequence
is identical whether or not a spoofer is active; the spoofed stream differs
from the nominal one only through the injected trajectory bias.

A run's measurements are synthesized in one batched pass per stream.  The
draw order is the contract that keeps run outputs reproducible:

- odometry: one (n, 6) draw, row i the tangent noise of step i -> i+1,
  applied on the right of the true relative transform x_i^-1 x_{i+1};
- GPS: one (epochs, m) draw, row j the range noise of the j-th epoch,
  satellites in constellation order, added to the range from the (possibly
  spoofed) receiver position.

One (n, k) draw equals n sequential k-sample draws bit for bit, so the
stream is the same as drawing step by step.

Scenarios are built from command-line settings by ``srfgo.cli``, and seed
sweeps run through ``srfgo sweep``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .chimera import SLOW_CHANNEL_PERIOD_S, slow_channel
# perfbench/tracing.py patches simkit.compose, so the name stays imported.
from .liegroup import (Pose, compose, compose_arrays,
                       quaternion_to_rotation, rotation_to_quaternion,
                       se3_exp_arrays)
from .rngutil import (GPS_STREAM, ODOMETRY_STREAM, TRAJECTORY_STREAM,
                      make_rng, normal)

DT_DEFAULT = 0.1
SIGMA_GPS_DEFAULT = 7.0
SIGMA_ICP_DEFAULT = (0.01, 0.01, 0.01, 0.05, 0.05, 0.05)

EARTH_RADIUS_M = 6.371e6
GPS_ORBIT_ALTITUDE_M = 2.02e7
# One revolution per sidereal half-day (11 h 58 m).
GPS_ANGULAR_RATE = 2.0 * math.pi / 43080.0

EAST = (1.0, 0.0, 0.0)

TRAJECTORY_KINDS = ("straight", "circuit", "random-smooth-turn")
CIRCUIT_RADIUS_M = 200.0

TRAJECTORY_HEADER = "t,x,y,z,qx,qy,qz,qw"


def _yaw_pose(heading: float, position: np.ndarray) -> Pose:
    c, s = math.cos(heading), math.sin(heading)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return Pose(rot, position)


def gen_trajectory(kind: str, duration_s: float, speed_mps: float, seed: int,
                   dt: float = DT_DEFAULT) -> list[Pose]:
    """Planar vehicle trajectory sampled at dt, body x-axis along velocity."""
    if kind not in TRAJECTORY_KINDS:
        raise ValueError(f"unknown trajectory kind {kind!r}; expected one of {TRAJECTORY_KINDS}")
    if duration_s < dt or speed_mps <= 0.0 or dt <= 0.0:
        raise ValueError("duration, speed, and dt must be positive (>= one step)")
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

    # random-smooth-turn: Ornstein-Uhlenbeck yaw rate, Euler-integrated.
    rng = make_rng(seed, TRAJECTORY_STREAM)
    correlation_s = 20.0
    stationary_rate = 0.05  # rad/s
    decay = math.exp(-dt / correlation_s)
    kick = stationary_rate * math.sqrt(1.0 - decay * decay)
    yaw_rate = 0.0
    heading = 0.0
    position = np.zeros(3)
    poses = [_yaw_pose(heading, position.copy())]
    for _ in range(steps):
        position = position + speed_mps * dt * np.array(
            [math.cos(heading), math.sin(heading), 0.0])
        yaw_rate = decay * yaw_rate + kick * float(normal(rng, 1)[0])
        heading += yaw_rate * dt
        poses.append(_yaw_pose(heading, position.copy()))
    return poses


def _snap_unit_quaternion(q: np.ndarray) -> np.ndarray:
    # Fixed point of quantize -> normalize -> quantize, so that a file written
    # at 1e-9 precision survives the loader's renormalization byte-for-byte.
    current = q
    quantized = np.round(current * 1e9) / 1e9
    for _ in range(10):
        renormalized = quantized / np.linalg.norm(quantized)
        again = np.round(renormalized * 1e9) / 1e9
        if np.array_equal(again, quantized):
            break
        quantized = again
    return quantized


def save_trajectory(path, poses: list[Pose], dt: float = DT_DEFAULT) -> None:
    lines = [TRAJECTORY_HEADER]
    for k, pose in enumerate(poses):
        q = _snap_unit_quaternion(rotation_to_quaternion(pose.rotation))
        x, y, z = pose.translation
        lines.append(",".join(f"{v:.9f}" for v in (k * dt, x, y, z, *q)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_trajectory(path) -> list[Pose]:
    """Parse a trajectory CSV; quaternions off unit norm by more than 1e-3
    are rejected, smaller deviations are renormalized."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != TRAJECTORY_HEADER:
        raise ValueError(f"expected header {TRAJECTORY_HEADER!r}")
    if len(lines) == 1:
        raise ValueError("trajectory file has no rows")
    poses = []
    last_t = -math.inf
    for row_num, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 8:
            raise ValueError(f"row {row_num}: expected 8 fields, got {len(parts)}")
        try:
            values = [float(p) for p in parts]
        except ValueError as err:
            raise ValueError(f"row {row_num}: {err}") from None
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"row {row_num}: non-finite value")
        t, x, y, z, qx, qy, qz, qw = values
        if t <= last_t:
            raise ValueError(f"row {row_num}: timestamps must increase")
        last_t = t
        rot = quaternion_to_rotation(np.array([qx, qy, qz, qw]))
        poses.append(Pose(rot, np.array([x, y, z])))
    return poses


@dataclass(frozen=True)
class Constellation:
    """Satellites on deterministic circular orbits around the scene origin,
    evenly spaced in azimuth with elevations alternating 30/60 degrees."""

    num_satellites: int = 8
    orbit_radius: float = EARTH_RADIUS_M + GPS_ORBIT_ALTITUDE_M
    angular_rate: float = GPS_ANGULAR_RATE
    phase: float = 0.0

    def __post_init__(self):
        if self.num_satellites < 4:
            raise ValueError(
                f"need >= 4 satellites for a well-posed fix, got {self.num_satellites}")
        if self.orbit_radius <= 0.0:
            raise ValueError("orbit radius must be positive")


def sat_positions(t: float, constellation: Constellation) -> np.ndarray:
    """(m, 3) ENU satellite positions at time t; pure function of t."""
    m = constellation.num_satellites
    azimuths = (constellation.phase + 2.0 * math.pi * np.arange(m) / m
                + constellation.angular_rate * t)
    elevations = np.where(np.arange(m) % 2 == 0, math.radians(30.0), math.radians(60.0))
    east = np.cos(elevations) * np.sin(azimuths)
    north = np.cos(elevations) * np.cos(azimuths)
    up = np.sin(elevations)
    return constellation.orbit_radius * np.stack([east, north, up], axis=1)


@dataclass(frozen=True)
class SpoofProfile:
    """Linearly ramping position bias starting at t_start."""

    t_start: float = 100.0
    ramp_rate: float = 1.0
    direction: tuple = EAST

    def __post_init__(self):
        if self.t_start < 0.0:
            raise ValueError("t_start must be >= 0")
        if self.ramp_rate < 0.0:
            raise ValueError("ramp rate must be >= 0")
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (3,) or abs(np.linalg.norm(d) - 1.0) > 1e-9:
            raise ValueError("direction must be a unit 3-vector")


def spoof_bias(times, profile: SpoofProfile) -> np.ndarray:
    """(..., 3) position bias at each time: zero before t_start, then a ramp."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0):
        raise ValueError("times must be >= 0")
    velocity = np.asarray(profile.direction, dtype=float) * profile.ramp_rate
    ramp = velocity * (times - profile.t_start)[..., None]
    return np.where((times < profile.t_start)[..., None], 0.0, ramp)


def gen_pseudoranges(positions: np.ndarray, sats: np.ndarray, sigma_gps: float,
                     rng) -> np.ndarray:
    """(k, m) pseudoranges from k receiver positions (k, 3) to their epochs'
    satellites (k, m, 3), plus one (k, m) noise draw.

    A spoofed stream passes biased positions; the noise sequence is the
    nominal one by construction.
    """
    ranges = np.linalg.norm(positions[:, None, :] - sats, axis=-1)
    return ranges + sigma_gps * normal(rng, ranges.shape)


def gen_odometry(rot: np.ndarray, t: np.ndarray, sigma_icp,
                 rng) -> tuple[np.ndarray, np.ndarray]:
    """Body-frame relative transforms x_i^-1 x_{i+1} of n+1 poses (rotations
    (n+1, 3, 3), translations (n+1, 3)), each corrupted by tangent noise on
    the right from one (n, 6) draw."""
    rot_inv = np.swapaxes(rot[:-1], -1, -2)
    t_inv = -(rot_inv @ t[:-1, :, None])[..., 0]
    # rot_inv stays a transposed view: liegroup.inverse keeps that layout
    # too, and BLAS rounds a product differently for the other one.
    rel_rot, rel_t = compose_arrays(rot_inv, t_inv, rot[1:], t[1:])
    eps = np.asarray(sigma_icp, dtype=float) * normal(rng, (len(rel_t), 6))
    return compose_arrays(rel_rot, rel_t, *se3_exp_arrays(eps))


@dataclass(frozen=True)
class Scenario:
    """Simulation setup: truth trajectory, sensors, optional spoofer, seed."""

    truth: tuple
    dt: float = DT_DEFAULT
    constellation: Constellation = field(default_factory=Constellation)
    gps_rate_hz: float = 1.0
    odom_rate_hz: float = 10.0
    sigma_gps: float = SIGMA_GPS_DEFAULT
    sigma_icp: tuple = SIGMA_ICP_DEFAULT
    spoof: Optional[SpoofProfile] = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "truth", tuple(self.truth))
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        slow_channel(self.dt)  # raises unless dt divides the authentication epoch
        duration = (len(self.truth) - 1) * self.dt
        if duration < SLOW_CHANNEL_PERIOD_S:
            raise ValueError(
                f"trajectory covers {duration:.1f} s; "
                f"need >= one {SLOW_CHANNEL_PERIOD_S:.0f} s epoch")
        # Nodes live on the odometry grid; GPS epochs must land on nodes.
        if abs(self.odom_rate_hz * self.dt - 1.0) > 1e-9:
            raise ValueError("odometry rate must equal the node rate 1/dt")
        gps_period = 1.0 / (self.gps_rate_hz * self.dt)
        if abs(gps_period - round(gps_period)) > 1e-9:
            raise ValueError("GPS rate must divide the node rate")
        if self.sigma_gps < 0.0:
            raise ValueError("sigma_gps must be >= 0")
        sig = np.asarray(self.sigma_icp, dtype=float)
        if sig.shape != (6,) or np.any(sig < 0.0):
            raise ValueError("sigma_icp must be six non-negative stds")

    @property
    def steps(self) -> int:
        return len(self.truth) - 1

    @property
    def gps_every_steps(self) -> int:
        return int(round(1.0 / (self.gps_rate_hz * self.dt)))


@dataclass(frozen=True)
class MeasurementStream:
    """Per-step measurements: odometry[i] maps node i to i+1; GPS epochs map
    node step -> (satellite positions, pseudoranges)."""

    odometry: tuple
    gps_epochs: dict

    def __post_init__(self):
        for step, (sats, ranges) in self.gps_epochs.items():
            if np.any(ranges <= 0.0):
                raise ValueError(f"non-positive pseudorange at step {step}")


def build_measurements(scenario: Scenario) -> MeasurementStream:
    """Realize every measurement for the run up front (seeded, reproducible)."""
    rot = np.stack([pose.rotation for pose in scenario.truth])
    t = np.stack([pose.translation for pose in scenario.truth])
    odo_rot, odo_t = gen_odometry(rot, t, scenario.sigma_icp,
                                  make_rng(scenario.seed, ODOMETRY_STREAM))

    steps = list(range(0, scenario.steps + 1, scenario.gps_every_steps))
    times = [step * scenario.dt for step in steps]
    sats = np.stack([sat_positions(time, scenario.constellation) for time in times])
    positions = t[steps]
    if scenario.spoof is not None:
        positions = positions + spoof_bias(times, scenario.spoof)
    ranges = gen_pseudoranges(positions, sats, scenario.sigma_gps,
                              make_rng(scenario.seed, GPS_STREAM))

    odometry = tuple(Pose(r, v) for r, v in zip(odo_rot, odo_t))
    gps_epochs = {step: (sats[j], ranges[j]) for j, step in enumerate(steps)}
    return MeasurementStream(odometry, gps_epochs)
