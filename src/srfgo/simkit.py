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

Trajectories and measurements are built as whole arrays and stay in that
form: a trajectory (``Scenario.truth``) and the odometry are each a
PoseStack, one rotation stack (n, 3, 3) and one translation stack (n, 3),
and the GPS epochs are three arrays, their steps (k,), satellite positions
(k, m, 3) and pseudoranges (k, m).  Consumers read rows straight from the
stacks; indexing a PoseStack makes a Pose view of one row.  Each array
equals its per-step build in tests/test_simkit.py bit for bit; so math.sin,
math.cos and the random-smooth-turn recursion stay per step, where numpy's
vectorized sin and cos could round otherwise.

Scenarios are built from command-line settings by ``srfgo.cli``, and seed
sweeps run through ``srfgo sweep``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chimera import SLOW_CHANNEL_PERIOD_S, slow_channel
# perfbench/tracing.py patches simkit.compose, so the name stays imported.
from .liegroup import (PoseStack, compose, compose_arrays,
                       quaternion_to_rotation, rotation_to_quaternion,
                       se3_exp_arrays)
from .rngutil import (GPS_STREAM, ODOMETRY_STREAM, TRAJECTORY_STREAM,
                      make_rng, normal)

DT_DEFAULT = 0.1
SIGMA_GPS_DEFAULT = 7.0
SIGMA_ICP_DEFAULT = (0.01, 0.01, 0.01, 0.05, 0.05, 0.05)

GPS_RATE_HZ = 1.0
NUM_SATELLITES = 8
EARTH_RADIUS_M = 6.371e6
GPS_ORBIT_ALTITUDE_M = 2.02e7
GPS_ORBIT_RADIUS_M = EARTH_RADIUS_M + GPS_ORBIT_ALTITUDE_M
# One revolution per sidereal half-day (11 h 58 m).
GPS_ANGULAR_RATE = 2.0 * math.pi / 43080.0

EAST = (1.0, 0.0, 0.0)

TRAJECTORY_KINDS = ("straight", "circuit", "random-smooth-turn")
CIRCUIT_RADIUS_M = 200.0

TRAJECTORY_HEADER = "t,x,y,z,qx,qy,qz,qw"


def _yaw_stack(cos, sin, x, y) -> PoseStack:
    """Planar poses at (x, y, 0), each yawed by the heading whose cosine and
    sine are given."""
    cos, sin = np.asarray(cos, dtype=float), np.asarray(sin, dtype=float)
    rot = np.zeros((len(cos), 3, 3))
    rot[:, 0, 0], rot[:, 0, 1] = cos, -sin
    rot[:, 1, 0], rot[:, 1, 1] = sin, cos
    rot[:, 2, 2] = 1.0
    t = np.zeros((len(cos), 3))
    t[:, 0], t[:, 1] = x, y
    return PoseStack(rot, t)


def gen_trajectory(kind: str, duration_s: float, speed_mps: float, seed: int,
                   dt: float = DT_DEFAULT) -> PoseStack:
    """Planar vehicle trajectory sampled at dt, body x-axis along velocity.
    Only random-smooth-turn draws from the seed, which must then be >= 0."""
    if kind not in TRAJECTORY_KINDS:
        raise ValueError(f"unknown trajectory kind {kind!r}; expected one of {TRAJECTORY_KINDS}")
    for name, value in (("duration", duration_s), ("speed", speed_mps), ("dt", dt)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if duration_s < dt or speed_mps <= 0.0 or dt <= 0.0:
        raise ValueError("duration, speed, and dt must be positive (>= one step)")
    steps = int(round(duration_s / dt))
    times = np.arange(steps + 1) * dt

    if kind == "straight":
        # A speed too large for the positions yields inf, which Scenario
        # rejects by step.
        with np.errstate(over="ignore"):
            x = speed_mps * times
        return _yaw_stack(np.ones(steps + 1), np.zeros(steps + 1), x, 0.0)

    if kind == "circuit":
        thetas = (speed_mps / CIRCUIT_RADIUS_M * times).tolist()
        cos = np.array([math.cos(theta) for theta in thetas])
        sin = np.array([math.sin(theta) for theta in thetas])
        return _yaw_stack(cos, sin, CIRCUIT_RADIUS_M * sin,
                          CIRCUIT_RADIUS_M * (1.0 - cos))

    # random-smooth-turn: Ornstein-Uhlenbeck yaw rate, Euler-integrated.
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = make_rng(seed, TRAJECTORY_STREAM)
    correlation_s = 20.0
    stationary_rate = 0.05  # rad/s
    decay = math.exp(-dt / correlation_s)
    kick = stationary_rate * math.sqrt(1.0 - decay * decay)
    stride = speed_mps * dt
    yaw_rate = heading = x = y = 0.0
    cos, sin, xs, ys = [], [], [x], [y]
    # One draw per step, taken in one call: the same stream as step-wise calls.
    for draw in normal(rng, steps).tolist():
        c, s = math.cos(heading), math.sin(heading)
        cos.append(c)
        sin.append(s)
        x += stride * c
        y += stride * s
        xs.append(x)
        ys.append(y)
        yaw_rate = decay * yaw_rate + kick * draw
        heading += yaw_rate * dt
    cos.append(math.cos(heading))
    sin.append(math.sin(heading))
    return _yaw_stack(cos, sin, xs, ys)


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


def save_trajectory(path, poses: PoseStack, dt: float = DT_DEFAULT) -> None:
    lines = [TRAJECTORY_HEADER]
    quats = rotation_to_quaternion(poses.rotation)
    for k, (position, q) in enumerate(zip(poses.translation.tolist(), quats)):
        q = _snap_unit_quaternion(q)
        lines.append(",".join(f"{v:.9f}" for v in (k * dt, *position, *q)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_trajectory(path, dt: float = DT_DEFAULT) -> PoseStack:
    """Parse a trajectory CSV sampled every dt seconds: row k must lie at
    k * dt (within 1e-6 s).  Quaternions off unit norm by more than 1e-3
    are rejected, smaller deviations are renormalized."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != TRAJECTORY_HEADER:
        raise ValueError(f"expected header {TRAJECTORY_HEADER!r}")
    if len(lines) == 1:
        raise ValueError("trajectory file has no rows")
    rot = np.empty((len(lines) - 1, 3, 3))
    positions = []
    last_t = -math.inf
    for k, line in enumerate(lines[1:]):
        row_num = k + 2
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
        if abs(t - k * dt) > 1e-6:
            found = f"starts at {t:g} s" if k == 0 else f"steps {t - last_t:g} s"
            raise ValueError(f"row {row_num}: t={t:g} s is not at {k} x dt; "
                             f"the file {found}, but dt is {dt:g} s")
        last_t = t
        rot[k] = quaternion_to_rotation(np.array([qx, qy, qz, qw]))
        positions.append((x, y, z))
    return PoseStack(rot, np.array(positions))


def sat_positions(t) -> np.ndarray:
    """(..., m, 3) ENU positions at time t, a scalar or an array of times,
    of the m = NUM_SATELLITES satellites, on circular orbits around the
    scene origin, evenly spaced in azimuth with elevations alternating
    30/60 degrees; pure function of t, the same at each time in a batch."""
    m = NUM_SATELLITES
    azimuths = (2.0 * math.pi * np.arange(m) / m
                + GPS_ANGULAR_RATE * np.asarray(t, dtype=float)[..., None])
    elevations = np.where(np.arange(m) % 2 == 0, math.radians(30.0), math.radians(60.0))
    east = np.cos(elevations) * np.sin(azimuths)
    north = np.cos(elevations) * np.cos(azimuths)
    up = np.broadcast_to(np.sin(elevations), azimuths.shape)
    return GPS_ORBIT_RADIUS_M * np.stack([east, north, up], axis=-1)


@dataclass(frozen=True)
class SpoofProfile:
    """Linearly ramping position bias starting at t_start."""

    t_start: float = 100.0
    ramp_rate: float = 1.0
    direction: tuple = EAST

    def __post_init__(self):
        # Written so that NaN fails each test.
        if not (math.isfinite(self.t_start) and self.t_start >= 0.0):
            raise ValueError(f"spoof t_start must be finite and >= 0, got {self.t_start}")
        if not (math.isfinite(self.ramp_rate) and self.ramp_rate >= 0.0):
            raise ValueError(f"ramp rate must be finite and >= 0, got {self.ramp_rate}")
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (3,) or not abs(np.linalg.norm(d) - 1.0) <= 1e-9:
            raise ValueError(f"spoof direction must be a unit 3-vector, got {self.direction}")


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


# Rows of odometry composed at a time: a long run's transforms are built
# without whole-run temporaries.
_ODOMETRY_BLOCK_ROWS = 256


def gen_odometry(rot: np.ndarray, t: np.ndarray, sigma_icp,
                 rng) -> tuple[np.ndarray, np.ndarray]:
    """Body-frame relative transforms x_i^-1 x_{i+1} of n+1 poses (rotations
    (n+1, 3, 3), translations (n+1, 3)), each corrupted by tangent noise on
    the right from one (n, 6) draw.  Each block of rows equals the same rows
    of the whole-array computation bit for bit."""
    n = len(t) - 1
    eps = np.asarray(sigma_icp, dtype=float) * normal(rng, (n, 6))
    out_rot, out_t = np.empty((n, 3, 3)), np.empty((n, 3))
    for start in range(0, n, _ODOMETRY_BLOCK_ROWS):
        rows = slice(start, min(start + _ODOMETRY_BLOCK_ROWS, n))
        following = slice(rows.start + 1, rows.stop + 1)
        # rot_inv stays a transposed view: liegroup.inverse keeps that
        # layout too, and BLAS rounds a product differently for the other one.
        rot_inv = np.swapaxes(rot[rows], -1, -2)
        t_inv = -(rot_inv @ t[rows, :, None])[..., 0]
        rel_rot, rel_t = compose_arrays(rot_inv, t_inv, rot[following], t[following])
        out_rot[rows], out_t[rows] = compose_arrays(rel_rot, rel_t,
                                                    *se3_exp_arrays(eps[rows]))
    return out_rot, out_t


@dataclass(frozen=True)
class Scenario:
    """Simulation setup: truth trajectory, sensors, optional spoofer, seed."""

    truth: PoseStack
    dt: float = DT_DEFAULT
    sigma_gps: float = SIGMA_GPS_DEFAULT
    sigma_icp: tuple = SIGMA_ICP_DEFAULT
    spoof: Optional[SpoofProfile] = None
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.truth, PoseStack):
            raise TypeError(f"truth must be a PoseStack, got {type(self.truth).__name__}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        slow_channel(self.dt)  # raises unless dt divides the authentication epoch
        duration = (len(self.truth) - 1) * self.dt
        if duration < SLOW_CHANNEL_PERIOD_S:
            raise ValueError(
                f"trajectory covers {duration:.1f} s; "
                f"need >= one {SLOW_CHANNEL_PERIOD_S:.0f} s epoch")
        # One node per odometry step dt; GPS epochs must land on nodes.
        gps_period = 1.0 / (GPS_RATE_HZ * self.dt)
        if abs(gps_period - round(gps_period)) > 1e-9:
            raise ValueError("GPS rate must divide the node rate")
        if not (math.isfinite(self.sigma_gps) and self.sigma_gps >= 0.0):
            raise ValueError(f"sigma_gps must be finite and >= 0, got {self.sigma_gps}")
        sig = np.asarray(self.sigma_icp, dtype=float)
        if sig.shape != (6,) or not (np.isfinite(sig).all() and (sig >= 0.0).all()):
            raise ValueError("sigma_icp must be six finite non-negative stds")
        # A stream is weighed by 1/sigma^2, and a zero sigma by 1 (noiseless);
        # a positive sigma whose square underflows would weigh it infinitely.
        for name, value in (("sigma_gps", self.sigma_gps), ("sigma_icp", self.sigma_icp)):
            std = np.asarray(value, dtype=float)
            with np.errstate(divide="ignore", over="ignore"):
                weight = 1.0 / np.square(std[std > 0.0])
            if not np.isfinite(weight).all():
                raise ValueError(f"{name} must be 0 or large enough that "
                                 f"1/{name}^2 is finite, got {value}")
        # Every position a range is taken from lies inside the satellites'
        # orbit: the truth, and each spoofed GPS epoch's truth + bias.
        _check_inside_orbit(self.truth.translation, lambda i: f"truth position at step {i}")
        if self.spoof is not None:
            # The bias is zero up to t_start, so an onset at or after the last
            # GPS epoch biases no range.
            steps = self.gps_steps
            times = steps * self.dt
            if self.spoof.t_start >= times[-1]:
                raise ValueError(
                    f"spoof t_start {self.spoof.t_start:g} s must lie before the last "
                    f"GPS epoch, at {times[-1]:g} s of the {duration:g} s trajectory")
            with np.errstate(over="ignore", invalid="ignore"):
                spoofed = self.truth.translation[steps] + spoof_bias(times, self.spoof)
            _check_inside_orbit(spoofed, lambda i: f"spoofed GPS position at {times[i]:g} s")

    @property
    def steps(self) -> int:
        return len(self.truth) - 1

    @property
    def gps_every_steps(self) -> int:
        return int(round(1.0 / (GPS_RATE_HZ * self.dt)))

    @property
    def gps_steps(self) -> np.ndarray:
        """The node step of each GPS epoch."""
        return np.arange(0, self.steps + 1, self.gps_every_steps)


def _check_inside_orbit(positions: np.ndarray, name) -> None:
    """Refuse (k, 3) positions unless each is finite and inside the
    satellites' orbit radius, naming the first other one by name(row).  NaN
    fails the test, and a norm that overflows lies past the orbit too."""
    with np.errstate(over="ignore", invalid="ignore"):
        inside = np.linalg.norm(positions, axis=1) < GPS_ORBIT_RADIUS_M
    if not inside.all():
        row = int(inside.argmin())
        raise ValueError(f"{name(row)} must be finite and inside the "
                         f"{GPS_ORBIT_RADIUS_M:g} m satellite orbit radius, got "
                         f"{positions[row].tolist()}")


@dataclass(frozen=True)
class MeasurementStream:
    """Every measurement of a run as arrays: odometry[i] maps node i to
    i+1; GPS epoch j lies at node step j * gps_every_steps, with satellite
    positions gps_sats[j] (m, 3) and pseudoranges gps_ranges[j] (m,), every
    range positive."""

    odometry: PoseStack
    gps_sats: np.ndarray
    gps_ranges: np.ndarray


def build_measurements(scenario: Scenario) -> MeasurementStream:
    """Realize every measurement for the run up front (seeded, reproducible)."""
    t = scenario.truth.translation
    odometry = PoseStack(*gen_odometry(scenario.truth.rotation, t, scenario.sigma_icp,
                                       make_rng(scenario.seed, ODOMETRY_STREAM)))

    steps = scenario.gps_steps
    times = steps * scenario.dt
    sats = sat_positions(times)
    positions = t[steps]
    if scenario.spoof is not None:
        positions = positions + spoof_bias(times, scenario.spoof)
    ranges = gen_pseudoranges(positions, sats, scenario.sigma_gps,
                              make_rng(scenario.seed, GPS_STREAM))
    bad = (ranges <= 0.0).any(axis=1)
    if bad.any():
        raise ValueError(f"non-positive pseudorange at step {steps[bad.argmax()]}")
    return MeasurementStream(odometry, sats, ranges)
