"""Scenario generation: trajectories, satellites, spoofing, measurements.

Everything here is deterministic given a seed.  Measurement noise flows
through dedicated named streams (see rngutil) so that the GPS draw sequence
is identical whether or not a spoofer is active; the spoofed stream differs
from the nominal one only through the injected trajectory bias.

Scenarios are built from command-line settings by ``srfgo.cli``, and seed
sweeps run through ``srfgo sweep``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .chimera import SLOW_CHANNEL_PERIOD_S, slow_channel
from .liegroup import (Pose, compose, exp, inverse,
                       quaternion_to_rotation, rotation_to_quaternion)
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


def spoof_bias(t: float, profile: SpoofProfile) -> np.ndarray:
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t < profile.t_start:
        return np.zeros(3)
    return np.asarray(profile.direction, dtype=float) * profile.ramp_rate * (t - profile.t_start)


def gen_pseudoranges(truth_pose: Pose, sats: np.ndarray, sigma_gps: float,
                     rng) -> np.ndarray:
    ranges = np.linalg.norm(truth_pose.translation - sats, axis=1)
    return ranges + sigma_gps * normal(rng, len(sats))


def gen_spoofed_pseudoranges(truth_pose: Pose, t: float, profile: SpoofProfile,
                             sats: np.ndarray, sigma_gps: float, rng) -> np.ndarray:
    """Pseudoranges consistent with the biased trajectory plus nominal noise.

    Draws the same noise sequence as gen_pseudoranges, so a spoofed stream
    is sample-for-sample identical to the nominal one before t_start.
    """
    biased = truth_pose.translation + spoof_bias(t, profile)
    ranges = np.linalg.norm(biased - sats, axis=1)
    return ranges + sigma_gps * normal(rng, len(sats))


def gen_odometry(truth_i: Pose, truth_ip1: Pose, sigma_icp, rng) -> Pose:
    """Body-frame relative transform corrupted by tangent noise on the right."""
    rel = compose(inverse(truth_i), truth_ip1)
    eps = np.asarray(sigma_icp, dtype=float) * normal(rng, 6)
    return compose(rel, exp(eps))


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
    rng_gps = make_rng(scenario.seed, GPS_STREAM)
    rng_odom = make_rng(scenario.seed, ODOMETRY_STREAM)
    gps_epochs = {}
    for step in range(0, scenario.steps + 1, scenario.gps_every_steps):
        t = step * scenario.dt
        sats = sat_positions(t, scenario.constellation)
        if scenario.spoof is not None:
            ranges = gen_spoofed_pseudoranges(
                scenario.truth[step], t, scenario.spoof, sats,
                scenario.sigma_gps, rng_gps)
        else:
            ranges = gen_pseudoranges(
                scenario.truth[step], sats, scenario.sigma_gps, rng_gps)
        gps_epochs[step] = (sats, ranges)
    odometry = tuple(
        gen_odometry(scenario.truth[i], scenario.truth[i + 1],
                     scenario.sigma_icp, rng_odom)
        for i in range(scenario.steps))
    return MeasurementStream(odometry, gps_epochs)
