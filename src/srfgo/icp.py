"""Point-to-plane ICP on synthetic structured scenes.

Demonstrates the odometry front-end that the main pipeline abstracts away:
sample a scene from two nearby sensor poses, register the clouds, and the
recovered transform is the relative motion.  The registration accepts a
step only if the re-matched mean squared point-to-plane distance does not
increase, so the reported objective history is non-increasing by
construction (step halving, up to a stall).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .liegroup import Pose, compose, exp, inverse, skew

NORMAL_UNIT_TOLERANCE = 1e-6
# Neighborhood rank test: lambda_1 below this fraction of lambda_2 means the
# points are essentially collinear and the normal is undefined.
DEGENERATE_EIGENVALUE_RATIO = 1e-9

MIN_REGISTRATION_POINTS = 100
MIN_CORRESPONDENCES = 6
MAX_CORRESPONDENCE_DIST_M = 1.0
MAX_ITERATIONS = 30
CONVERGENCE_TOL = 1e-6
MAX_STEP_HALVINGS = 10
# Line-search failure after a relative improvement this small means the
# iterate sits on the correspondence noise floor, not in a stall.
FLAT_RELATIVE_DECREASE = 5e-3


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray
    normals: Optional[np.ndarray] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (n, 3), got {pts.shape}")
        object.__setattr__(self, "points", pts)
        if self.normals is not None:
            nrm = np.asarray(self.normals, dtype=float)
            if nrm.shape != pts.shape:
                raise ValueError("normals must match points shape")
            lengths = np.linalg.norm(nrm, axis=1)
            valid = ~np.isnan(lengths)
            if np.any(np.abs(lengths[valid] - 1.0) > NORMAL_UNIT_TOLERANCE):
                raise ValueError("normals must be unit length (or NaN if degenerate)")
            object.__setattr__(self, "normals", nrm)

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class IcpReport:
    success: bool
    reason: str
    iterations: int
    num_correspondences: int
    inlier_rms: float
    objective_history: list = field(default_factory=list)


def estimate_normals(cloud: PointCloud, k_neighbors: int = 10,
                     viewpoint=(0.0, 0.0, 0.0)) -> PointCloud:
    """Per-point normals from k-NN covariance, oriented toward the viewpoint.

    Degenerate neighborhoods (rank < 2) get NaN normals and are skipped by
    registration.
    """
    if k_neighbors < 3:
        raise ValueError(f"need k >= 3 neighbors, got {k_neighbors}")
    if k_neighbors > len(cloud):
        raise ValueError(
            f"k={k_neighbors} exceeds cloud size {len(cloud)}")
    pts = cloud.points
    _, idx = cKDTree(pts).query(pts, k=k_neighbors)
    neighborhoods = pts[idx]                      # (n, k, 3)
    centered = neighborhoods - neighborhoods.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k_neighbors
    eigvals, eigvecs = np.linalg.eigh(cov)        # ascending
    normals = eigvecs[:, :, 0].copy()
    degenerate = eigvals[:, 1] <= DEGENERATE_EIGENVALUE_RATIO * np.maximum(
        eigvals[:, 2], 1e-300)
    normals[degenerate] = np.nan
    toward = np.asarray(viewpoint, dtype=float) - pts
    flip = np.einsum("ni,ni->n", normals, toward) < 0.0
    normals[flip & ~degenerate] *= -1.0
    return PointCloud(pts, normals)


def _match(tree: cKDTree, valid_normal: np.ndarray, transformed: np.ndarray):
    dist, idx = tree.query(transformed)
    keep = (dist <= MAX_CORRESPONDENCE_DIST_M) & valid_normal[idx]
    return np.nonzero(keep)[0], idx[keep]


def _objective(tree, valid_normal, target, source_pts, pose):
    transformed = source_pts @ pose.rotation.T + pose.translation
    src_rows, tgt_rows = _match(tree, valid_normal, transformed)
    if len(src_rows) < MIN_CORRESPONDENCES:
        return None, src_rows, tgt_rows
    r = np.einsum("ni,ni->n", target.normals[tgt_rows],
                  transformed[src_rows] - target.points[tgt_rows])
    return float(r @ r) / len(r), src_rows, tgt_rows


def register(source: PointCloud, target: PointCloud,
             init: Pose = None) -> tuple[Pose, IcpReport]:
    """Estimate the transform taking source points onto the target surface."""
    if init is None:
        init = Pose.identity()
    if target.normals is None:
        raise ValueError("target cloud needs normals; run estimate_normals first")
    if len(source) < MIN_REGISTRATION_POINTS or len(target) < MIN_REGISTRATION_POINTS:
        raise ValueError(f"registration needs >= {MIN_REGISTRATION_POINTS} points per cloud")

    tree = cKDTree(target.points)
    valid_normal = ~np.isnan(target.normals[:, 0])
    pose = init
    obj, src_rows, tgt_rows = _objective(tree, valid_normal, target, source.points, pose)
    if obj is None:
        return pose, IcpReport(False, "insufficient-correspondences", 0,
                               len(src_rows), math.inf)
    history = [obj]
    reason = "max-iterations"
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        transformed = source.points[src_rows] @ pose.rotation.T + pose.translation
        normals = target.normals[tgt_rows]
        r = np.einsum("ni,ni->n", normals, transformed - target.points[tgt_rows])
        # Right perturbation: d(T exp(d) p) = [-R [p]x | R] d
        j_rot = -np.einsum("ni,nij->nj", normals,
                           pose.rotation @ skew(source.points[src_rows]))
        j_trans = normals @ pose.rotation
        jac = np.hstack([j_rot, j_trans])
        h = jac.T @ jac
        g = jac.T @ r
        try:
            delta = np.linalg.solve(h + 1e-12 * np.eye(6), -g)
        except np.linalg.LinAlgError:
            reason = "stalled"
            break

        scale = 1.0
        accepted = False
        for _ in range(MAX_STEP_HALVINGS):
            candidate = compose(pose, exp(scale * delta))
            obj_new, new_src, new_tgt = _objective(
                tree, valid_normal, target, source.points, candidate)
            if obj_new is not None and obj_new <= obj:
                pose = candidate
                obj, src_rows, tgt_rows = obj_new, new_src, new_tgt
                history.append(obj)
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            flat = (len(history) >= 2 and
                    history[-2] - history[-1]
                    <= FLAT_RELATIVE_DECREASE * history[-2])
            reason = "converged" if flat else "stalled"
            break
        if np.linalg.norm(scale * delta) < CONVERGENCE_TOL:
            reason = "converged"
            break

    rms = math.sqrt(obj)
    return pose, IcpReport(reason == "converged", reason, iterations,
                           len(src_rows), rms, history)


@dataclass(frozen=True)
class PlanePatch:
    """Rectangular surface patch: origin + a*u + b*v for a, b in [0, 1]."""

    origin: tuple
    u: tuple
    v: tuple

    def frame(self):
        o = np.asarray(self.origin, dtype=float)
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if np.linalg.norm(np.cross(u, v)) == 0.0:
            raise ValueError("patch axes must be linearly independent")
        return o, u, v


def gen_scene_cloud(patches: list[PlanePatch], pose: Pose, density: float,
                    noise_std: float, seed: int) -> PointCloud:
    """Sample the scene surfaces and express the points in the sensor frame."""
    from .rngutil import CLOUD_STREAM, make_rng, normal

    if density <= 0.0:
        raise ValueError("density must be positive (points per square meter)")
    rng = make_rng(seed, CLOUD_STREAM)
    sensor_inv = inverse(pose)
    chunks = []
    for patch in patches:
        o, u, v = patch.frame()
        area = float(np.linalg.norm(np.cross(u, v)))
        count = int(round(density * area))
        ab = rng.random((count, 2))
        world = o + ab[:, :1] * u + ab[:, 1:] * v
        if noise_std > 0.0:
            world = world + noise_std * normal(rng, (count, 3))
        chunks.append(world @ sensor_inv.rotation.T + sensor_inv.translation)
    return PointCloud(np.vstack(chunks))


def two_wall_scene() -> list[PlanePatch]:
    """Two perpendicular walls plus ground, sized for a sensor near the origin."""
    return [
        PlanePatch((-5.0, 8.0, 0.0), (20.0, 0.0, 0.0), (0.0, 0.0, 3.0)),
        PlanePatch((9.0, -6.0, 0.0), (0.0, 16.0, 0.0), (0.0, 0.0, 3.0)),
        PlanePatch((-5.0, -6.0, 0.0), (20.0, 0.0, 0.0), (0.0, 14.0, 0.0)),
    ]


def save_cloud(path, cloud: PointCloud) -> None:
    with open(path, "w") as fh:
        if cloud.normals is None:
            fh.write("x,y,z\n")
            for p in cloud.points:
                fh.write(f"{p[0]:.9f},{p[1]:.9f},{p[2]:.9f}\n")
        else:
            fh.write("x,y,z,nx,ny,nz\n")
            for p, n in zip(cloud.points, cloud.normals):
                fh.write(f"{p[0]:.9f},{p[1]:.9f},{p[2]:.9f},"
                         f"{n[0]:.9f},{n[1]:.9f},{n[2]:.9f}\n")
