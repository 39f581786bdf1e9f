"""Sliding-window factor graph and its damped Gauss-Newton optimizer.

The window holds the most recent nodes at odometry cadence, one odometry
factor per consecutive pair, GPS pseudorange factors on the nodes that carry
a GPS epoch, and exactly one anchor, a prior on the oldest node that fixes
the gauge, all as arrays: stacked node states, and each factor compiled once,
on entering the window, into the stacked arrays that the batched kernels of
srfgo.factors take.  Each sensor stream has one noise model: the window holds
one odometry information and one GPS sigma; its anchor keeps its own.
The normal equations H delta = -b are block-tridiagonal in 6x6 blocks; we
assemble the blocks from those kernels, applied to every factor at once,
write them straight into LAPACK's upper band storage, ab[11 + i - j, j] =
H[i, j] for i <= j, through flat indices computed once per window size, and
solve with a banded Cholesky factorization, scipy.linalg.solveh_banded,
loaded with a run's first window, outside any timed solve: the commands
that solve nothing (simulate, report, odometry-only runs) load no scipy.
The odometry and anchor residuals are both log(a^-1 b), so they share one
pose stack ``pose_rot``/``pose_t``: row 0 is the anchor's prior on node 0,
with information ``prior_info``, and row k + 1 is odometry link k, checked
as it enters to join nodes k and k + 1.  One kernel call evaluates [x_0,
pred_0, pred_1, ...] against the stack as stored, and one J_l^-1 call
linearizes it with the SO(3) V^-1 and angle terms its logs computed.  The
window grows by odometry alone: ``append`` and ``slide`` take no anchor,
each new odometry row adds one node, dead-reckoned by liegroup.compose from
the one before, ``slide`` writes the new oldest node's prior into row 0, and
``strip_gps`` dead-reckons every node from row 0, a GPS-free window's optimum.
Levenberg-Marquardt damping wraps the Gauss-Newton step: lambda starts at
DAMPING_INIT, divides by 10 on an accepted step and multiplies by 10 on a
rejected one, so accepted objectives never increase.  Each iteration first
solves (H + lambda I) delta = -g at the current lambda, g = J^T W e.  The
solve ends without taking that step, before any exp or residual work, if
its norm is below STEP_NORM_TOL ("step-norm"), or if the decrease the
linearized objective predicts for it, lambda delta.delta - g.delta, is at
most RELATIVE_DECREASE_TOL of the objective ("relative-decrease"; Madsen,
Nielsen & Tingleff 2004, sec. 3.2).  So a window already at its optimum
costs one solve, and no iteration is spent confirming convergence.  The
step-norm test covers a window whose objective is zero to roundoff, where
any prediction is large against it.  A step that is short only because
rejections in the same iteration raised lambda is not convergence: it is
evaluated like any other trial.  A trial is rejected when H + lambda I
cannot be factored, when its residuals are undefined (a near-pi SE(3) log,
a receiver on a satellite) or when its objective rises; past DAMPING_MAX
the solve ends "cholesky-failure" if the last trial could not be factored
and "stalled" otherwise.  A solve that takes MAX_ITERATIONS steps ends
"max-iterations".
A solve reports only its status, its ``iterations`` (accepted steps) and its
objective history, the objective before the solve and after each accepted
step; it is ``converged`` when it ended "step-norm" or "relative-decrease".

Estimates update by right perturbation x <- x * exp(delta).
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from srfgo import factors as fmod
from srfgo import liegroup
from srfgo.factors import AnchorFactor, GpsFactor, OdometryFactor
from srfgo.liegroup import Pose

MAX_ITERATIONS = 50
RELATIVE_DECREASE_TOL = 1e-4
STEP_NORM_TOL = 1e-8
DAMPING_INIT = 1e-6
# Damping escalated past this is hopeless; report failure instead of looping.
DAMPING_MAX = 1e8

# Entries (a, b) of a 6x6 block that go into LAPACK's upper band storage:
# the upper triangle of a diagonal block, every entry of an upper block.
_DIAG_A, _DIAG_B = np.triu_indices(6)
_UPPER_A, _UPPER_B = np.indices((6, 6)).reshape(2, -1)


@functools.lru_cache(maxsize=1)
def _band_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(dst, src) for n nodes: band entry dst[i] of the flattened (12, 6n)
    storage takes entry src[i] of the diagonal blocks (n, 6, 6) followed by
    the upper blocks (n - 1, 6, 6), both flattened.  A window keeps its size
    from one solve to the next, so one size is held."""
    k = np.arange(n)[:, None]
    dst = [(11 + _DIAG_A - _DIAG_B) * 6 * n + 6 * k + _DIAG_B,
           (5 + _UPPER_A - _UPPER_B) * 6 * n + 6 * k[1:] + _UPPER_B]
    src = [36 * k + 6 * _DIAG_A + _DIAG_B,
           36 * (n - 1) + 36 * k[1:] + 6 * _UPPER_A + _UPPER_B]
    out = tuple(np.concatenate([a.reshape(-1) for a in pair]) for pair in (dst, src))
    for a in out:
        a.setflags(write=False)
    return out


@dataclass(eq=False)
class SolveReport:
    iterations: int
    status: str
    # The objective before the solve, then after each accepted step.
    objective_history: tuple

    @property
    def converged(self) -> bool:
        return self.status in ("step-norm", "relative-decrease")


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows a_k @ v_k of stacked (n, r, c) matrices, or a @ v_k of one
    (r, c) matrix, and (n, c) vectors, as one batched matmul."""
    return (a @ v[:, :, None])[:, :, 0]


def _compile(factors: Sequence, base: int, first_link: int) -> dict:
    """Factor objects as the stacked arrays the batched kernels take: gps_*,
    with rows relative to the window's first step `base`, and the pose stack
    pose_rot/pose_t of the anchors' priors, on `base` only, then the
    odometry, whose sorted links must run consecutively from `first_link`,
    with the anchors' prior_info."""
    gps, odo, anc = ([f for f in factors if isinstance(f, kind)]
                     for kind in (GpsFactor, OdometryFactor, AnchorFactor))
    if len(gps) + len(odo) + len(anc) != len(factors):
        raise TypeError("factors must be GpsFactor, OdometryFactor or AnchorFactor")
    odo.sort(key=lambda f: f.from_index)
    links = [f.from_index for f in odo]
    if links != list(range(first_link, first_link + len(odo))):
        raise ValueError(f"odometry must link each consecutive node pair exactly once "
                         f"from step {first_link}, got links from {links}")
    if any(f.node_index != base for f in anc):
        raise ValueError(f"an anchor must be on the window's oldest node, step {base}")
    poses = [f.prior_pose for f in anc] + [f.measured_transform for f in odo]

    def arr(values, shape, dtype=float):
        return np.array(values, dtype=dtype).reshape(shape)

    return {
        "gps_rows": arr([f.node_index - base for f in gps], -1, int),
        "gps_sat": arr([f.sat_position for f in gps], (-1, 3)),
        "gps_meas": arr([f.measured_range for f in gps], -1),
        "pose_rot": arr([p.rotation for p in poses], (-1, 3, 3)),
        "pose_t": arr([p.translation for p in poses], (-1, 3)),
        "prior_info": arr([f.information for f in anc], (-1, 6, 6)),
    }


class WindowGraph:
    """Window over the consecutive time steps base .. base + n - 1, held as
    arrays only: node estimates ``rot`` (n, 3, 3) and ``t`` (n, 3), the
    factor arrays ``comp`` compiled when the factors entered the window, and
    its odometry and GPS noise, ``odometry_information`` and ``gps_sigma``.

    ``optimize`` replaces the estimates of this graph; ``append``, ``slide``
    and ``strip_gps`` return a new graph and leave this one unchanged.
    """

    def __init__(self, nodes: Sequence[tuple[int, Pose]], factors: Sequence,
                 window_capacity: int, odometry_information: np.ndarray,
                 gps_sigma: float):
        idx = [int(i) for i, _ in nodes]
        if any(b - a != 1 for a, b in zip(idx, idx[1:])):
            raise ValueError("node time indices must be consecutive and increasing")
        self.odometry_information = fmod.check_information(odometry_information, "odometry")
        self.gps_sigma = float(gps_sigma)
        if not 0.0 < self.gps_sigma < np.inf:  # also rejects NaN
            raise ValueError(f"GPS sigma must be finite and positive, got {gps_sigma}")
        self.window_capacity = int(window_capacity)
        import scipy.linalg  # noqa: F401 - loaded here, before any timed solve
        self.base = idx[0] if idx else 0
        self.rot = np.array([p.rotation for _, p in nodes]).reshape(-1, 3, 3)
        self.t = np.array([p.translation for _, p in nodes]).reshape(-1, 3)
        self.comp = _compile(factors, self.base, self.base)
        self._validate()

    # -- structure ---------------------------------------------------------

    def _validate(self) -> None:
        n = len(self)
        if n == 0:
            raise ValueError("window must hold at least one node")
        if n > self.window_capacity:  # also rejects a capacity below 1
            raise ValueError(f"{n} nodes exceed capacity {self.window_capacity}")
        rows = self.comp["gps_rows"]
        if ((rows < 0) | (rows >= n)).any():
            raise ValueError("gps factor references a node outside the window")
        # _compile held odometry to a chain from the first node and anchors
        # to that node, so one row count rejects a missing or dangling link.
        if len(self.comp["prior_info"]) != 1 or len(self.comp["pose_t"]) != n:
            raise ValueError("a window holds exactly one anchor, on its oldest node, and "
                             "odometry linking each consecutive node pair exactly once")

    def __len__(self) -> int:
        return len(self.t)

    def estimate_of(self, time_index: int) -> Pose:
        k = time_index - self.base
        if not 0 <= k < len(self):
            raise ValueError(f"step {time_index} is outside the window "
                             f"{self.base}..{self.base + len(self) - 1}")
        return Pose(self.rot[k], self.t[k])

    def gps_count(self) -> int:
        return len(self.comp["gps_rows"])

    # -- residual evaluation ----------------------------------------------

    def _residuals(self, rot: np.ndarray, t: np.ndarray) -> dict:
        comp = self.comp
        gps, gps_diff, gps_ranges = fmod.gps_errors(
            t[comp["gps_rows"]], comp["gps_sat"], comp["gps_meas"])
        rot_pred, t_pred = fmod.between(rot[:-1], t[:-1], rot[1:], t[1:])
        # Anchor log(x_0^-1 prior) and odometry log(pred^-1 Z), one batch
        # against the pose stack; its V^-1 and angle terms go on to _assemble.
        pose, terms = fmod.relative_errors(
            np.concatenate([rot[:1], rot_pred]), np.concatenate([t[:1], t_pred]),
            comp["pose_rot"], comp["pose_t"])
        return {"gps": gps, "gps_diff": gps_diff, "gps_ranges": gps_ranges,
                "pose": pose, "pose_terms": terms, "odo_rot_pred": rot_pred,
                "odo_t_pred": t_pred}

    def _objective_of(self, res: dict) -> float:
        total = float(np.dot(res["gps"], res["gps"])) / self.gps_sigma ** 2
        pose = res["pose"]
        for e, info in ((pose[1:], self.odometry_information),
                        (pose[:1], self.comp["prior_info"])):
            total += float(np.vdot(e, _matvec(info, e)))
        return total

    def objective(self) -> float:
        """Sum of information-normalized squared residuals over all factors."""
        return self._objective_of(self._residuals(self.rot, self.t))

    def gps_residuals(self) -> tuple[np.ndarray, float]:
        """(residuals, sigma) for the GPS factors at current estimates."""
        comp = self.comp
        res, _, _ = fmod.gps_errors(self.t[comp["gps_rows"]], comp["gps_sat"],
                                    comp["gps_meas"])
        return res, self.gps_sigma

    # -- normal equations --------------------------------------------------

    def _assemble(self, rot: np.ndarray,
                  res: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Diagonal and upper 6x6 blocks of H = sum J^T W J and the blocks
        of the gradient sum J^T W e."""
        comp = self.comp
        n = len(rot)
        diag = np.zeros((n, 6, 6))
        upper = np.zeros((max(n - 1, 0), 6, 6))
        grad = np.zeros((n, 6))

        rows = comp["gps_rows"]
        if rows.size:
            jt = fmod.gps_jacobians(rot[rows], res["gps_diff"], res["gps_ranges"])
            w = 1.0 / self.gps_sigma ** 2
            blocks = w * jt[:, :, None] * jt[:, None, :]
            np.add.at(diag, (rows, slice(3, None), slice(3, None)), blocks)
            np.add.at(grad, (rows, slice(3, None)), (w * res["gps"])[:, None] * jt)

        # One J_l^-1 over the pose stack, from the V^-1 and angle terms its
        # logs computed.
        jac = fmod.relative_jacobians(res["pose"], res["pose_terms"])
        if n > 1:
            e = res["pose"][1:]
            info = self.odometry_information
            j_i, j_j = fmod.odometry_jacobians(jac[1:], res["odo_rot_pred"],
                                               res["odo_t_pred"])
            j_it = np.swapaxes(j_i, -1, -2)
            j_jt = np.swapaxes(j_j, -1, -2)
            info_jj = info @ j_j
            # Odometry row k links nodes k and k + 1.
            diag[:-1] += j_it @ (info @ j_i)
            diag[1:] += j_jt @ info_jj
            upper += j_it @ info_jj
            info_e = _matvec(info, e)
            grad[:-1] += _matvec(j_it, info_e)
            grad[1:] += _matvec(j_jt, info_e)

        # The window's one anchor, on node 0.
        jac_t = np.swapaxes(jac[:1], -1, -2)
        diag[:1] += jac_t @ comp["prior_info"] @ jac[:1]
        grad[:1] += _matvec(jac_t, _matvec(comp["prior_info"], res["pose"][:1]))
        return diag, upper, grad

    @staticmethod
    def _solve_banded(diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray,
                      damping: float) -> np.ndarray:
        n = len(diag)
        # (band row, node k, column b): entry (a, b) of node k's diagonal
        # block and of node k - 1's upper block both lie in column 6k + b.
        dst, src = _band_index(n)
        ab = np.zeros(72 * n)
        ab[dst] = np.concatenate([diag.reshape(-1), upper.reshape(-1)])[src]
        ab = ab.reshape(12, 6 * n)
        ab[11] += damping
        # Looked up on the module at every call, so a patch there sees every solve.
        import scipy.linalg
        # One node keeps bandwidth 11 too: LAPACK ignores entries outside H.
        return scipy.linalg.solveh_banded(ab, rhs, lower=False)

    def optimize(self) -> SolveReport:
        """Damped Gauss-Newton to convergence; replaces the node estimates."""
        rot, t = self.rot, self.t
        res = self._residuals(rot, t)
        obj = self._objective_of(res)
        history = [obj]
        damping = DAMPING_INIT
        status = "max-iterations"
        iterations = 0

        while iterations < MAX_ITERATIONS:
            diag, upper, grad = self._assemble(rot, res)
            rhs = -grad.reshape(-1)
            accepted = False
            for trial in itertools.count():
                failure = "stalled"
                try:
                    delta = self._solve_banded(diag, upper, rhs, damping)
                    # A first step that is short, or whose predicted decrease
                    # damping |delta|^2 - grad . delta is negligible, ends the
                    # solve untaken; one that escalated damping shortened is
                    # an ordinary trial.
                    step_sq = delta.dot(delta)
                    if trial == 0 and np.sqrt(step_sq) < STEP_NORM_TOL:
                        status = "step-norm"
                        break
                    if trial == 0 and (damping * step_sq + rhs.dot(delta)
                                       <= RELATIVE_DECREASE_TOL * max(obj, 1e-300)):
                        status = "relative-decrease"
                        break
                    rot_s, t_s = liegroup.se3_exp_arrays(delta.reshape(-1, 6))
                    rot_new, t_new = liegroup.compose_arrays(rot, t, rot_s, t_s)
                    res_new = self._residuals(rot_new, t_new)
                    obj_new = self._objective_of(res_new)
                    accepted = obj_new <= obj
                except np.linalg.LinAlgError:
                    failure = "cholesky-failure"
                except (liegroup.NearSingularLogError, fmod.DegenerateGeometryError):
                    pass  # residuals undefined at this step: reject it
                if accepted:
                    break
                damping *= 10.0
                if damping > DAMPING_MAX:
                    status = failure
                    break
            if not accepted:
                break
            iterations += 1
            damping = max(damping / 10.0, 1e-12)
            rot, t, res, obj = rot_new, t_new, res_new, obj_new
            history.append(obj)

        self.rot, self.t = rot, t
        return SolveReport(iterations, status, tuple(history))

    # -- window maintenance ------------------------------------------------

    def _extend(self, base: int, rot: np.ndarray, t: np.ndarray, comp: dict,
                new_factors: Sequence = ()) -> "WindowGraph":
        """New graph over comp plus new_factors, whose odometry must continue
        the chain and which may hold no anchor.  Nodes (rot, t) keep their
        estimates; each pose row past them adds one, dead-reckoned from the
        one before: the one propagation of appending, coasting and mitigation."""
        new = _compile(new_factors, base, base + len(comp["pose_t"]) - 1)
        if len(new["prior_info"]):
            raise ValueError("append and slide take no anchor")
        comp = {key: np.concatenate([value, new[key]]) for key, value in comp.items()}
        pose, rots, ts = Pose(rot[-1], t[-1]), [rot], [t]
        for rot_k, t_k in zip(comp["pose_rot"][len(t):], comp["pose_t"][len(t):]):
            pose = liegroup.compose(pose, Pose._of(rot_k, t_k))
            rots.append(pose.rotation[None])
            ts.append(pose.translation[None])
        graph = copy.copy(self)
        graph.base, graph.rot, graph.t = base, np.concatenate(rots), np.concatenate(ts)
        graph.comp = comp
        graph._validate()
        return graph

    def append(self, new_factors: Sequence) -> "WindowGraph":
        """Grow the window (no eviction) by one node per new odometry
        factor; used while the window fills."""
        return self._extend(self.base, self.rot, self.t, self.comp, new_factors)

    def slide(self, new_factors: Sequence, shift: int) -> "WindowGraph":
        """Evict the oldest `shift` nodes, append one node per new odometry
        factor, re-anchor."""
        if shift < 1:
            raise ValueError("shift must be >= 1")
        if shift >= len(self):
            raise ValueError(
                f"shift {shift} would underflow a {len(self)}-node window")
        # Odometry rows and GPS on evicted nodes go, GPS rows move down by
        # `shift`; pose row 0 becomes the prior pinning the new oldest node
        # at its estimate.
        keep = self.comp["gps_rows"] >= shift
        comp = {key: value[keep] for key, value in self.comp.items() if key.startswith("gps")}
        comp["gps_rows"] -= shift
        comp.update(pose_rot=self.comp["pose_rot"][shift:].copy(),
                    pose_t=self.comp["pose_t"][shift:].copy(),
                    prior_info=fmod.anchor_information()[None])
        comp["pose_rot"][0], comp["pose_t"][0] = self.rot[shift], self.t[shift]
        return self._extend(self.base + shift, self.rot[shift:], self.t[shift:], comp,
                            new_factors)

    def strip_gps(self) -> "WindowGraph":
        """Same window without GPS, at its optimum: dead-reckoned from pose row 0."""
        comp = {key: value[:0] if key.startswith("gps") else value
                for key, value in self.comp.items()}
        return self._extend(self.base, comp["pose_rot"][:1], comp["pose_t"][:1], comp)
