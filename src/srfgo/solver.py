"""Sliding-window factor graph and its damped Gauss-Newton optimizer.

The window holds the most recent nodes at odometry cadence, one odometry
factor per consecutive pair, GPS pseudorange factors on the nodes that carry
a GPS epoch, and a single anchor prior on the oldest node, all as arrays:
stacked node states, and each factor compiled once, on entering the window,
into the stacked arrays that the batched kernels of srfgo.factors take.
The normal equations H delta = -b are block-tridiagonal in 6x6 blocks; we
assemble the blocks from those kernels, applied to every factor at once,
and solve with a banded Cholesky factorization.  Levenberg-Marquardt
damping wraps the Gauss-Newton step: lambda starts at damping_init, divides
by 10 on an accepted step and multiplies by 10 on a rejected one, so
accepted objectives never increase.

Estimates update by right perturbation x <- x * exp(delta).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from srfgo import factors as fmod
from srfgo import liegroup
from srfgo.factors import AnchorFactor, GpsFactor, OdometryFactor
from srfgo.liegroup import Pose

# Damping escalated past this is hopeless; report failure instead of looping.
DAMPING_MAX = 1e8


@dataclass
class SolverParams:
    max_iterations: int = 50
    relative_decrease_tol: float = 1e-6
    step_norm_tol: float = 1e-8
    damping_init: float = 1e-6

    def __post_init__(self) -> None:
        if (self.max_iterations <= 0 or self.relative_decrease_tol <= 0
                or self.step_norm_tol <= 0 or self.damping_init <= 0):
            raise ValueError("all solver parameters must be positive")


@dataclass(eq=False)
class SolveReport:
    final_objective: float
    iterations: int
    converged: bool
    status: str
    residuals: dict
    objective_history: tuple
    step_norm: float
    damping_final: float
    # Wall time spent inside iteration bodies (linearize, solve, retry loop),
    # excluding the per-call setup around the loop.
    iteration_seconds: float = 0.0


def _compile(factors: Sequence, base: int) -> dict:
    """Factor objects as the stacked arrays the batched kernels take, keyed
    gps_*/odo_*/anc_* in input order; node references become rows relative
    to the window's first step `base`."""
    gps, odo, anc = ([f for f in factors if isinstance(f, kind)]
                     for kind in (GpsFactor, OdometryFactor, AnchorFactor))
    if len(gps) + len(odo) + len(anc) != len(factors):
        raise TypeError("factors must be GpsFactor, OdometryFactor or AnchorFactor")

    def arr(values, shape, dtype=float):
        return np.array(values, dtype=dtype).reshape(shape)

    return {
        "gps_rows": arr([f.node_index - base for f in gps], -1, int),
        "gps_sat": arr([f.sat_position for f in gps], (-1, 3)),
        "gps_meas": arr([f.measured_range for f in gps], -1),
        "gps_w": arr([1.0 / f.sigma ** 2 for f in gps], -1),
        "odo_rows": arr([f.from_index - base for f in odo], -1, int),
        "odo_rot": arr([f.measured_transform.rotation for f in odo], (-1, 3, 3)),
        "odo_t": arr([f.measured_transform.translation for f in odo], (-1, 3)),
        "odo_info": arr([f.information for f in odo], (-1, 6, 6)),
        "anc_rows": arr([f.node_index - base for f in anc], -1, int),
        "anc_rot": arr([f.prior_pose.rotation for f in anc], (-1, 3, 3)),
        "anc_t": arr([f.prior_pose.translation for f in anc], (-1, 3)),
        "anc_info": arr([f.information for f in anc], (-1, 6, 6)),
    }


class WindowGraph:
    """Window over the consecutive time steps base .. base + n - 1, held as
    arrays only: node estimates ``rot`` (n, 3, 3) and ``t`` (n, 3), and the
    factor arrays ``comp`` compiled when the factors entered the window.

    ``optimize`` replaces the estimates of this graph; ``append``, ``slide``
    and ``strip_gps`` return a new graph and leave this one unchanged.
    """

    def __init__(self, nodes: Sequence[tuple[int, Pose]], factors: Sequence,
                 window_capacity: int):
        idx = [int(i) for i, _ in nodes]
        if any(b - a != 1 for a, b in zip(idx, idx[1:])):
            raise ValueError("node time indices must be consecutive and increasing")
        self.window_capacity = int(window_capacity)
        self.base = idx[0] if idx else 0
        self.rot = np.array([p.rotation for _, p in nodes]).reshape(-1, 3, 3)
        self.t = np.array([p.translation for _, p in nodes]).reshape(-1, 3)
        self.comp = _compile(factors, self.base)
        self._validate()

    # -- structure ---------------------------------------------------------

    def _validate(self) -> None:
        n = len(self)
        if n == 0:
            raise ValueError("window must hold at least one node")
        if n > self.window_capacity:  # also rejects a capacity below 1
            raise ValueError(f"{n} nodes exceed capacity {self.window_capacity}")
        for kind in ("gps", "anc"):
            rows = self.comp[f"{kind}_rows"]
            if np.any((rows < 0) | (rows >= n)):
                raise ValueError(f"{kind} factor references a node outside the window")
        # One comparison rejects duplicate, missing and dangling odometry.
        if not np.array_equal(np.sort(self.comp["odo_rows"]), np.arange(n - 1)):
            raise ValueError("odometry must link each consecutive node pair exactly once")

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
        orow = comp["odo_rows"]
        odometry, rot_pred, t_pred = fmod.odometry_errors(
            rot[orow], t[orow], rot[orow + 1], t[orow + 1],
            comp["odo_rot"], comp["odo_t"])
        arow = comp["anc_rows"]
        anchor = fmod.anchor_errors(rot[arow], t[arow], comp["anc_rot"],
                                    comp["anc_t"])
        return {"gps": gps, "gps_diff": gps_diff, "gps_ranges": gps_ranges,
                "odometry": odometry, "odo_rot_pred": rot_pred,
                "odo_t_pred": t_pred, "anchor": anchor}

    def _objective_of(self, res: dict) -> float:
        comp = self.comp
        total = float(np.dot(comp["gps_w"], res["gps"] ** 2))
        total += float(np.einsum("ni,nij,nj->", res["odometry"],
                                 comp["odo_info"], res["odometry"]))
        total += float(np.einsum("ni,nij,nj->", res["anchor"],
                                 comp["anc_info"], res["anchor"]))
        return total

    def objective(self) -> float:
        """Sum of information-normalized squared residuals over all factors."""
        return self._objective_of(self._residuals(self.rot, self.t))

    def gps_residuals(self) -> tuple[np.ndarray, np.ndarray]:
        """(residuals, sigmas) for the GPS factors at current estimates."""
        comp = self.comp
        res, _, _ = fmod.gps_errors(self.t[comp["gps_rows"]], comp["gps_sat"],
                                    comp["gps_meas"])
        return res, 1.0 / np.sqrt(comp["gps_w"])

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
            w = comp["gps_w"]
            blocks = w[:, None, None] * jt[:, :, None] * jt[:, None, :]
            np.add.at(diag, (rows, slice(3, None), slice(3, None)), blocks)
            np.add.at(grad, (rows, slice(3, None)), (w * res["gps"])[:, None] * jt)

        orow = comp["odo_rows"]
        if orow.size:
            e = res["odometry"]
            info = comp["odo_info"]
            j_i, j_j = fmod.odometry_jacobians(e, res["odo_rot_pred"],
                                               res["odo_t_pred"])
            j_it = np.swapaxes(j_i, -1, -2)
            j_jt = np.swapaxes(j_j, -1, -2)
            info_jj = info @ j_j
            # One odometry factor per pair: rows are unique, plain scatter adds.
            diag[orow] += j_it @ (info @ j_i)
            diag[orow + 1] += j_jt @ info_jj
            upper[orow] += j_it @ info_jj
            grad[orow] += np.einsum("nij,njk,nk->ni", j_it, info, e)
            grad[orow + 1] += np.einsum("nij,njk,nk->ni", j_jt, info, e)

        arow = comp["anc_rows"]
        if arow.size:
            e = res["anchor"]
            jac = fmod.anchor_jacobians(e)
            jac_t = np.swapaxes(jac, -1, -2)
            np.add.at(diag, arow, jac_t @ comp["anc_info"] @ jac)
            np.add.at(grad, arow, np.einsum("nij,njk,nk->ni", jac_t,
                                            comp["anc_info"], e))
        return diag, upper, grad

    @staticmethod
    def _solve_banded(diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray,
                      damping: float) -> np.ndarray:
        n = diag.shape[0]
        dim = 6 * n
        h = np.zeros((dim, dim))
        hv = h.reshape(n, 6, n, 6)
        idx = np.arange(n)
        d = diag.copy()
        d[:, range(6), range(6)] += damping
        hv[idx, :, idx, :] = d
        if n > 1:
            hv[idx[:-1], :, idx[1:], :] = upper
        bw = min(11, dim - 1)
        ab = np.zeros((bw + 1, dim))
        for k in range(bw + 1):
            ab[bw - k, k:] = np.diagonal(h, offset=k)
        delta = scipy.linalg.solveh_banded(ab, rhs, lower=False)
        return delta

    def optimize(self, params: SolverParams | None = None) -> SolveReport:
        """Damped Gauss-Newton to convergence; replaces the node estimates."""
        params = params or SolverParams()
        rot, t = self.rot, self.t
        res = self._residuals(rot, t)
        obj = self._objective_of(res)
        history = [obj]
        damping = params.damping_init
        status = "max-iterations"
        converged = False
        step_norm = np.inf
        iterations = 0
        iter_seconds = 0.0

        for iterations in range(1, params.max_iterations + 1):
            iter_started = time.perf_counter()
            diag, upper, grad = self._assemble(rot, res)
            accepted = False
            while True:
                try:
                    delta = self._solve_banded(diag, upper, -grad.reshape(-1), damping)
                except np.linalg.LinAlgError:
                    damping *= 10.0
                    if damping > DAMPING_MAX:
                        status = "cholesky-failure"
                        break
                    continue
                step = delta.reshape(-1, 6)
                rot_s, t_s = liegroup.se3_exp_arrays(step)
                rot_new, t_new = liegroup.compose_arrays(rot, t, rot_s, t_s)
                res_new = self._residuals(rot_new, t_new)
                obj_new = self._objective_of(res_new)
                if obj_new <= obj:
                    accepted = True
                    damping = max(damping / 10.0, 1e-12)
                    break
                damping *= 10.0
                if damping > DAMPING_MAX:
                    status = "stalled"
                    break
            iter_seconds += time.perf_counter() - iter_started
            if not accepted:
                iterations -= 1
                break
            decrease = obj - obj_new
            rot, t, res, obj = rot_new, t_new, res_new, obj_new
            history.append(obj)
            step_norm = float(np.linalg.norm(delta))
            if step_norm < params.step_norm_tol:
                status = "step-norm"
                converged = True
                break
            if decrease <= params.relative_decrease_tol * max(obj, 1e-300):
                status = "relative-decrease"
                converged = True
                break

        self.rot, self.t = rot, t
        snapshot = {"gps": res["gps"].copy(), "odometry": res["odometry"].copy(),
                    "anchor": res["anchor"].copy()}
        return SolveReport(final_objective=obj, iterations=iterations,
                           converged=converged, status=status, residuals=snapshot,
                           objective_history=tuple(history), step_norm=step_norm,
                           damping_final=damping, iteration_seconds=iter_seconds)

    # -- window maintenance ------------------------------------------------

    def _extend(self, base: int, rot: np.ndarray, t: np.ndarray, comp: dict,
                new_nodes: Sequence[int], new_factors: Sequence) -> "WindowGraph":
        """New graph over (rot, t, comp) plus new_factors and new_nodes, each
        dead-reckoned from the previous node by its incoming odometry."""
        incoming = {f.to_index: f.measured_transform for f in new_factors
                    if isinstance(f, OdometryFactor)}
        pose, rots, ts = Pose(rot[-1], t[-1]), [rot], [t]
        for step, idx in enumerate(new_nodes, start=base + len(t)):
            if int(idx) != step:
                raise ValueError(f"new node {idx} does not continue the window at {step}")
            if step not in incoming:
                raise ValueError(f"no incoming odometry factor for new node {step}")
            pose = liegroup.compose(pose, incoming[step])
            rots.append(pose.rotation[None])
            ts.append(pose.translation[None])
        new = _compile(new_factors, base)
        graph = WindowGraph.__new__(WindowGraph)
        graph.window_capacity, graph.base = self.window_capacity, base
        graph.rot, graph.t = np.concatenate(rots), np.concatenate(ts)
        graph.comp = {key: np.concatenate([value, new[key]]) for key, value in comp.items()}
        graph._validate()
        return graph

    def append(self, new_nodes: Sequence[int], new_factors: Sequence) -> "WindowGraph":
        """Grow the window (no eviction); used while the window fills."""
        return self._extend(self.base, self.rot, self.t, self.comp,
                            new_nodes, new_factors)

    def slide(self, new_nodes: Sequence[int], new_factors: Sequence,
              shift: int) -> "WindowGraph":
        """Evict the oldest `shift` nodes, append new ones, re-anchor."""
        if shift < 1:
            raise ValueError("shift must be >= 1")
        if shift >= len(self):
            raise ValueError(
                f"shift {shift} would underflow a {len(self)}-node window")
        # GPS and odometry rows on evicted nodes go, the rest move down by
        # `shift`; the one anchor pins the new oldest node at its estimate.
        keep = {"gps": self.comp["gps_rows"] >= shift,
                "odo": self.comp["odo_rows"] >= shift}
        comp = {key: value[keep[key[:3]]] for key, value in self.comp.items()
                if key[:3] in keep}
        comp["gps_rows"] -= shift
        comp["odo_rows"] -= shift
        comp.update(anc_rows=np.zeros(1, dtype=int), anc_rot=self.rot[shift:shift + 1],
                    anc_t=self.t[shift:shift + 1],
                    anc_info=fmod.anchor_information()[None])
        return self._extend(self.base + shift, self.rot[shift:], self.t[shift:], comp,
                            new_nodes, new_factors)

    def strip_gps(self) -> "WindowGraph":
        """Same window with every GPS factor removed."""
        comp = {key: value[:0] if key.startswith("gps") else value
                for key, value in self.comp.items()}
        return self._extend(self.base, self.rot, self.t, comp, (), ())
