"""Sliding-window factor graph and its damped Gauss-Newton optimizer.

The window holds the most recent nodes at odometry cadence, one odometry
factor per consecutive pair, GPS pseudorange factors on the nodes that carry
a GPS epoch, and a single anchor prior on the oldest node.  The normal
equations H delta = -b are therefore block-tridiagonal in 6x6 blocks; we
assemble the blocks from the batched kernels of srfgo.factors, applied to
every factor of the window at once, and solve with a banded Cholesky
factorization.  Levenberg-Marquardt damping wraps the Gauss-Newton step:
lambda starts at damping_init, divides by 10 on an accepted step and
multiplies by 10 on a rejected one, so accepted objectives never increase.

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


class WindowGraph:
    """Single-owner mutable window of (global time index, Pose) nodes."""

    def __init__(self, nodes: Sequence[tuple[int, Pose]], factors: Sequence,
                 window_capacity: int):
        if window_capacity < 1:
            raise ValueError("window capacity must be >= 1")
        self.nodes = [(int(i), p) for i, p in nodes]
        self.factors = list(factors)
        self.window_capacity = int(window_capacity)
        self._validate()

    # -- structure ---------------------------------------------------------

    def _validate(self) -> None:
        if not self.nodes:
            raise ValueError("window must hold at least one node")
        if len(self.nodes) > self.window_capacity:
            raise ValueError(
                f"{len(self.nodes)} nodes exceed capacity {self.window_capacity}")
        idx = [i for i, _ in self.nodes]
        if any(b - a != 1 for a, b in zip(idx, idx[1:])):
            raise ValueError("node time indices must be consecutive and increasing")
        members = set(idx)
        odo_pairs = set()
        for f in self.factors:
            if isinstance(f, GpsFactor):
                refs = (f.node_index,)
            elif isinstance(f, OdometryFactor):
                refs = (f.from_index, f.to_index)
                if (f.from_index, f.to_index) in odo_pairs:
                    raise ValueError(
                        f"duplicate odometry factor {f.from_index}->{f.to_index}")
                odo_pairs.add((f.from_index, f.to_index))
            elif isinstance(f, AnchorFactor):
                refs = (f.node_index,)
            else:
                raise TypeError(f"unknown factor type {type(f).__name__}")
            for r in refs:
                if r not in members:
                    raise ValueError(f"factor references node {r} outside the window")
        for a, b in zip(idx, idx[1:]):
            if (a, b) not in odo_pairs:
                raise ValueError(f"nodes {a},{b} not linked by an odometry factor")

    def times(self) -> list[int]:
        return [i for i, _ in self.nodes]

    def estimates(self) -> dict[int, Pose]:
        return dict(self.nodes)

    def estimate_of(self, time_index: int) -> Pose:
        return self.nodes[time_index - self.nodes[0][0]][1]

    def gps_factors(self) -> list[GpsFactor]:
        return [f for f in self.factors if isinstance(f, GpsFactor)]

    # -- stacked views -----------------------------------------------------

    def _stack_states(self) -> tuple[np.ndarray, np.ndarray]:
        rot = np.stack([p.rotation for _, p in self.nodes])
        t = np.stack([p.translation for _, p in self.nodes])
        return rot, t

    def _write_states(self, rot: np.ndarray, t: np.ndarray) -> None:
        base = self.nodes[0][0]
        self.nodes = [(base + k, Pose(rot[k], t[k])) for k in range(len(self.nodes))]

    def _compile(self) -> dict:
        """Factor arrays keyed for the batched kernels."""
        row_of = {i: k for k, (i, _) in enumerate(self.nodes)}
        gps = [f for f in self.factors if isinstance(f, GpsFactor)]
        odo = [f for f in self.factors if isinstance(f, OdometryFactor)]
        anc = [f for f in self.factors if isinstance(f, AnchorFactor)]

        def arr(values, shape, dtype=float):
            return np.array(values, dtype=dtype).reshape(shape)

        return {
            "gps_rows": arr([row_of[f.node_index] for f in gps], -1, int),
            "gps_sat": arr([f.sat_position for f in gps], (-1, 3)),
            "gps_meas": arr([f.measured_range for f in gps], -1),
            "gps_w": arr([1.0 / f.sigma ** 2 for f in gps], -1),
            "odo_rows": arr([row_of[f.from_index] for f in odo], -1, int),
            "odo_rot": arr([f.measured_transform.rotation for f in odo], (-1, 3, 3)),
            "odo_t": arr([f.measured_transform.translation for f in odo], (-1, 3)),
            "odo_info": arr([f.information for f in odo], (-1, 6, 6)),
            "anc_rows": arr([row_of[f.node_index] for f in anc], -1, int),
            "anc_rot": arr([f.prior_pose.rotation for f in anc], (-1, 3, 3)),
            "anc_t": arr([f.prior_pose.translation for f in anc], (-1, 3)),
            "anc_info": arr([f.information for f in anc], (-1, 6, 6)),
        }

    # -- residual evaluation ----------------------------------------------

    @staticmethod
    def _residuals(comp: dict, rot: np.ndarray, t: np.ndarray) -> dict:
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

    @staticmethod
    def _objective_of(comp: dict, res: dict) -> float:
        total = float(np.dot(comp["gps_w"], res["gps"] ** 2))
        total += float(np.einsum("ni,nij,nj->", res["odometry"],
                                 comp["odo_info"], res["odometry"]))
        total += float(np.einsum("ni,nij,nj->", res["anchor"],
                                 comp["anc_info"], res["anchor"]))
        return total

    def _evaluate(self) -> tuple[dict, dict]:
        comp = self._compile()
        return comp, self._residuals(comp, *self._stack_states())

    def objective(self) -> float:
        """Sum of information-normalized squared residuals over all factors."""
        return self._objective_of(*self._evaluate())

    def gps_residuals(self) -> tuple[np.ndarray, np.ndarray]:
        """(residuals, sigmas) for the GPS factors at current estimates."""
        comp, res = self._evaluate()
        return res["gps"], 1.0 / np.sqrt(comp["gps_w"])

    # -- normal equations --------------------------------------------------

    def _assemble(self, comp: dict, rot: np.ndarray,
                  res: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Diagonal and upper 6x6 blocks of H = sum J^T W J and the blocks
        of the gradient sum J^T W e."""
        n = len(self.nodes)
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
        """Damped Gauss-Newton to convergence; mutates node estimates."""
        params = params or SolverParams()
        comp = self._compile()
        rot, t = self._stack_states()
        res = self._residuals(comp, rot, t)
        obj = self._objective_of(comp, res)
        history = [obj]
        damping = params.damping_init
        status = "max-iterations"
        converged = False
        step_norm = np.inf
        iterations = 0
        iter_seconds = 0.0

        for iterations in range(1, params.max_iterations + 1):
            iter_started = time.perf_counter()
            diag, upper, grad = self._assemble(comp, rot, res)
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
                res_new = self._residuals(comp, rot_new, t_new)
                obj_new = self._objective_of(comp, res_new)
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

        self._write_states(rot, t)
        snapshot = {"gps": res["gps"].copy(), "odometry": res["odometry"].copy(),
                    "anchor": res["anchor"].copy()}
        return SolveReport(final_objective=obj, iterations=iterations,
                           converged=converged, status=status, residuals=snapshot,
                           objective_history=tuple(history), step_norm=step_norm,
                           damping_final=damping, iteration_seconds=iter_seconds)

    # -- window maintenance ------------------------------------------------

    def _append_nodes(self, nodes: list[tuple[int, Pose]], factors: list,
                      new_nodes: Sequence[int], new_factors: Sequence) -> None:
        """Dead-reckon initial estimates for new nodes from incoming odometry."""
        odo_by_to = {f.to_index: f for f in new_factors if isinstance(f, OdometryFactor)}
        est = dict(nodes)
        for idx in new_nodes:
            idx = int(idx)
            f = odo_by_to.get(idx)
            if f is None:
                raise ValueError(f"no incoming odometry factor for new node {idx}")
            prev = est.get(f.from_index)
            if prev is None:
                raise ValueError(f"odometry for node {idx} starts outside the window")
            est[idx] = liegroup.compose(prev, f.measured_transform)
            nodes.append((idx, est[idx]))
        factors.extend(new_factors)

    def append(self, new_nodes: Sequence[int], new_factors: Sequence) -> "WindowGraph":
        """Grow the window (no eviction); used while the window fills."""
        nodes = list(self.nodes)
        factors = list(self.factors)
        self._append_nodes(nodes, factors, new_nodes, new_factors)
        return WindowGraph(nodes, factors, self.window_capacity)

    def slide(self, new_nodes: Sequence[int], new_factors: Sequence,
              shift: int) -> "WindowGraph":
        """Evict the oldest `shift` nodes, append new ones, re-anchor."""
        if shift < 1:
            raise ValueError("shift must be >= 1")
        if shift >= len(self.nodes):
            raise ValueError(
                f"shift {shift} would underflow a {len(self.nodes)}-node window")
        kept = self.nodes[shift:]
        kept_set = {i for i, _ in kept}

        def survives(f) -> bool:
            if isinstance(f, GpsFactor):
                return f.node_index in kept_set
            if isinstance(f, OdometryFactor):
                return f.from_index in kept_set and f.to_index in kept_set
            return False  # anchor is re-attached below

        factors = [f for f in self.factors if survives(f)]
        oldest_idx, oldest_pose = kept[0]
        factors.append(AnchorFactor(oldest_idx, oldest_pose, fmod.anchor_information()))
        nodes = list(kept)
        self._append_nodes(nodes, factors, new_nodes, new_factors)
        return WindowGraph(nodes, factors, self.window_capacity)

    def strip_gps(self) -> "WindowGraph":
        """Same window with every GPS factor removed."""
        factors = [f for f in self.factors if not isinstance(f, GpsFactor)]
        return WindowGraph(list(self.nodes), factors, self.window_capacity)
