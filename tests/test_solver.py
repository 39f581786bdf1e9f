"""Window graph assembly, optimization, sliding, and GPS stripping."""

from __future__ import annotations

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from srfgo import factors as fmod
from srfgo import liegroup, solver
from srfgo.factors import (AnchorFactor, DegenerateGeometryError, GpsFactor,
                           OdometryFactor, linearize)
from srfgo.liegroup import NearSingularLogError, Pose, compose, exp, inverse
from srfgo.solver import DAMPING_MAX, STEP_NORM_TOL, SolveReport, WindowGraph
from conftest import (NOISE, ODOMETRY_INFORMATION, SIGMA_GPS, ominus, random_pose,
                      random_tangent)

# Well-spread unit directions for synthetic satellites.
SAT_DIRECTIONS = np.array([
    [0.0, 0.0, 1.0],
    [0.8, 0.0, 0.6],
    [-0.8, 0.0, 0.6],
    [0.0, 0.8, 0.6],
    [0.0, -0.8, 0.6],
    [0.57, 0.57, 0.59],
    [-0.57, 0.57, 0.59],
    [0.57, -0.57, 0.59],
])


def sat_positions(num: int, distance: float = 2.2e7) -> np.ndarray:
    dirs = SAT_DIRECTIONS[:num]
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * distance


def truth_chain(rng, n: int, step_trans=0.5, step_rot=0.05) -> list[Pose]:
    poses = [random_pose(rng, max_angle=0.3, max_trans=2.0)]
    for _ in range(n - 1):
        motion = exp(np.concatenate([
            rng.uniform(-step_rot, step_rot, 3),
            rng.uniform(-step_trans, step_trans, 3)]))
        poses.append(compose(motion, poses[-1]))
    return poses


def odometry_factors(truth: list[Pose], start_index: int = 0) -> list[OdometryFactor]:
    out = []
    for k in range(len(truth) - 1):
        meas = compose(inverse(truth[k]), truth[k + 1])
        out.append(OdometryFactor(start_index + k, start_index + k + 1, meas))
    return out


def anchor_at(pose: Pose, step: int = 0) -> AnchorFactor:
    """The window's anchor, pinning its oldest node, step `step`, at pose;
    its residual there is exactly zero."""
    return AnchorFactor(step, pose, fmod.anchor_information())


def gps_factors(truth: list[Pose], node_indices, num_sats: int = 8) -> list[GpsFactor]:
    sats = sat_positions(num_sats)
    out = []
    for k, pose in zip(node_indices, truth):
        for s in sats:
            rng_true = float(np.linalg.norm(pose.translation - s))
            out.append(GpsFactor(k, s, rng_true))
    return out


class TestObjective:
    def test_zero_when_consistent(self, rng):
        truth = truth_chain(rng, 5)
        g = WindowGraph(list(enumerate(truth)),
                        odometry_factors(truth) + [AnchorFactor(0, truth[0], fmod.anchor_information())],
                        10, *NOISE)
        assert g.objective() == pytest.approx(0.0, abs=1e-18)

    def test_single_gps_normalization(self):
        pose = Pose(np.eye(3), np.zeros(3))
        sat = np.array([0.0, 0.0, 2.0e7])
        f = GpsFactor(0, sat, 2.0e7 + SIGMA_GPS)
        g = WindowGraph([(0, pose)], [f, anchor_at(pose)], 2, *NOISE)
        assert g.objective() == pytest.approx(1.0, rel=1e-12)

    def test_additivity(self):
        pose = Pose(np.eye(3), np.zeros(3))
        sat_a = np.array([0.0, 0.0, 2.0e7])
        sat_b = np.array([2.0e7, 0.0, 0.0])
        fa = GpsFactor(0, sat_a, 2.0e7 + 3.0)
        fb = GpsFactor(0, sat_b, 2.0e7 - 4.0)
        ga = WindowGraph([(0, pose)], [fa, anchor_at(pose)], 2, *NOISE).objective()
        gb = WindowGraph([(0, pose)], [fb, anchor_at(pose)], 2, *NOISE).objective()
        gab = WindowGraph([(0, pose)], [fa, fb, anchor_at(pose)], 2, *NOISE).objective()
        assert gab == pytest.approx(ga + gb, rel=1e-12)

    def test_gps_sigma_scaling_exact(self):
        # Doubling sigma divides the contribution by exactly 4 (power of two
        # keeps float arithmetic exact).
        pose = Pose(np.eye(3), np.zeros(3))
        sat = np.array([0.0, 0.0, 2.0e7])
        f = GpsFactor(0, sat, 2.0e7 + 3.0)
        o1 = WindowGraph([(0, pose)], [f, anchor_at(pose)], 2, *NOISE).objective()
        o2 = WindowGraph([(0, pose)], [f, anchor_at(pose)], 2, ODOMETRY_INFORMATION,
                         2.0 * SIGMA_GPS).objective()
        assert o2 == o1 / 4.0


def check_blocks_match_dense(rng, order=list) -> WindowGraph:
    """The solver's scattered blocks equal sum J^T W J and sum J^T W e
    built factor by factor from linearize(), on a graph built from
    order(factors); returns that graph."""
    n = 5
    truth = truth_chain(rng, n)
    facs = []
    for k in range(n - 1):
        meas = compose(compose(inverse(truth[k]), truth[k + 1]),
                       exp(random_tangent(rng, max_angle=0.1, max_trans=0.2)))
        facs.append(OdometryFactor(k, k + 1, meas))
    for k in (1, 3, 3, 4):  # two GPS factors share node 3
        direction = rng.normal(size=3)
        sat = truth[k].translation + direction / np.linalg.norm(direction) * 1e3
        facs.append(GpsFactor(k, sat, 1e3 + rng.normal() * 5.0))
    prior = compose(truth[0], exp(random_tangent(rng, max_angle=0.1, max_trans=0.5)))
    facs.append(AnchorFactor(0, prior, fmod.anchor_information()))
    start = [compose(p, exp(random_tangent(rng, max_angle=0.2, max_trans=1.0)))
             for p in truth]
    # A full SPD information, so off-diagonal entries are exercised too.
    a = rng.normal(size=(6, 6))
    g = WindowGraph(list(enumerate(start)), order(facs), n, a @ a.T + np.eye(6), 5.0)

    h = np.zeros((n, 6, n, 6))
    b = np.zeros((n, 6))
    states = {k: g.estimate_of(k) for k in range(g.base, g.base + len(g))}
    for f in facs:
        lin = linearize(f, states)
        if isinstance(f, GpsFactor):
            w = np.array([[g.gps_sigma ** -2]])
        elif isinstance(f, OdometryFactor):
            w = g.odometry_information
        else:
            w = f.information
        e = np.atleast_1d(lin.residual)
        for a, j_a in zip(lin.node_indices, lin.jacobians):
            b[a] += j_a.T @ w @ e
            for c, j_c in zip(lin.node_indices, lin.jacobians):
                h[a, :, c, :] += j_a.T @ w @ j_c

    diag, upper, grad = g._assemble(g.rot, g._residuals(g.rot, g.t))

    idx = np.arange(n)
    scale = np.max(np.abs(h))
    close = dict(rtol=1e-9, atol=1e-9 * scale)
    np.testing.assert_allclose(diag, h[idx, :, idx, :], **close)
    np.testing.assert_allclose(upper, h[idx[:-1], :, idx[1:], :], **close)
    np.testing.assert_allclose(grad, b, rtol=1e-9, atol=1e-9 * np.max(np.abs(b)))
    # Block-tridiagonal: nothing beyond the first off-diagonal.
    far = np.abs(idx[:, None] - idx[None, :]) > 1
    assert not np.any(h.transpose(0, 2, 1, 3)[far])
    return g


class TestAssembly:
    def test_blocks_match_dense_normal_equations(self, rng):
        check_blocks_match_dense(rng)

    def test_odometry_out_of_chain_order(self, rng):
        """Odometry given in any order is compiled along the chain, so the
        slice-wise assembly still matches the dense normal equations."""
        def shuffled(facs):
            return [facs[k] for k in np.random.default_rng(5).permutation(len(facs))]

        for order in (lambda facs: facs[::-1], shuffled):
            g = check_blocks_match_dense(rng, order)
            assert len(g.comp["pose_t"]) == len(g)

    def test_one_inverse_jacobian_per_pose_row(self, rng, monkeypatch):
        """A residual-plus-assembly cycle evaluates the SO(3) V^-1 once per
        odometry or anchor row: the assembly reuses the one from the logs."""
        g = small_window(rng, 0.02)
        rows = []
        original = liegroup._jl_inv

        def counted(theta, *terms):
            rows.append(np.shape(theta))
            return original(theta, *terms)

        monkeypatch.setattr(liegroup, "_jl_inv", counted)
        res = g._residuals(g.rot, g.t)
        diag, upper, grad = g._assemble(g.rot, res)
        assert rows == [(len(g.comp["pose_t"]),)]
        monkeypatch.undo()
        expected = g._assemble(g.rot, dict(res, pose_terms=None))
        for got, want in zip((diag, upper, grad), expected):
            assert np.array_equal(got, want)

    def test_odometry_and_anchor_share_one_kernel_call(self, rng, monkeypatch):
        g = small_window(rng, 0.02)
        comp, rot, t = g.comp, g.rot, g.t
        assert len(comp["pose_t"]) > 1 and comp["gps_rows"].size
        # Pose row 0 is the anchor's prior on node 0; row k + 1 is odometry
        # link k, joining nodes k and k + 1.
        anchor, _ = fmod.relative_errors(rot[:1], t[:1], comp["pose_rot"][:1],
                                         comp["pose_t"][:1])
        odometry, _ = fmod.relative_errors(*fmod.between(rot[:-1], t[:-1], rot[1:], t[1:]),
                                           comp["pose_rot"][1:], comp["pose_t"][1:])

        calls = {"se3_log_arrays": 0, "se3_left_jacobian_inv": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(liegroup, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(liegroup, name, counted)
        res = g._residuals(rot, t)
        assert calls == {"se3_log_arrays": 1, "se3_left_jacobian_inv": 0}
        g._assemble(rot, res)
        assert calls == {"se3_log_arrays": 1, "se3_left_jacobian_inv": 1}
        assert np.array_equal(res["pose"], np.concatenate([anchor, odometry]))


def stacked_information(g: WindowGraph) -> np.ndarray:
    """The window's one odometry information, broadcast to every row."""
    return np.broadcast_to(g.odometry_information, (len(g) - 1, 6, 6))


def einsum_objective(g: WindowGraph, res: dict) -> float:
    """Oracle: the objective with its quadratic forms as three-operand
    einsums."""
    odometry, anchor = res["pose"][1:], res["pose"][:1]
    total = float(np.dot(np.full(len(res["gps"]), g.gps_sigma ** -2), res["gps"] ** 2))
    total += float(np.einsum("ni,nij,nj->", odometry, stacked_information(g), odometry))
    total += float(np.einsum("ni,nij,nj->", anchor, g.comp["prior_info"], anchor))
    return total


def einsum_gradient(g: WindowGraph, rot: np.ndarray, res: dict) -> np.ndarray:
    """Oracle: the gradient blocks sum J^T W e with every J^T W e of the
    odometry and the anchor as a three-operand einsum."""
    comp = g.comp
    n = len(rot)
    grad = np.zeros((n, 6))
    rows = comp["gps_rows"]
    if rows.size:
        jt = fmod.gps_jacobians(rot[rows], res["gps_diff"], res["gps_ranges"])
        np.add.at(grad, (rows, slice(3, None)),
                  (g.gps_sigma ** -2 * res["gps"])[:, None] * jt)
    jac = fmod.relative_jacobians(res["pose"], res["pose_terms"])
    if n > 1:
        j_i, j_j = fmod.odometry_jacobians(jac[1:], res["odo_rot_pred"],
                                           res["odo_t_pred"])
        for rows_of, j in ((slice(None, -1), j_i), (slice(1, None), j_j)):
            grad[rows_of] += np.einsum("nij,njk,nk->ni", np.swapaxes(j, -1, -2),
                                       stacked_information(g), res["pose"][1:])
    grad[:1] += np.einsum("nij,njk,nk->ni", np.swapaxes(jac[:1], -1, -2),
                          comp["prior_info"], res["pose"][:1])
    return grad


class TestContractions:
    @settings(max_examples=60, deadline=None)
    @example(n=1, seed=0, with_gps=False)
    @example(n=1, seed=0, with_gps=True)
    @given(n=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1),
           with_gps=st.booleans())
    def test_matmuls_match_einsum_oracle(self, n, seed, with_gps):
        rng = np.random.default_rng(seed)
        truth = truth_chain(rng, n)
        facs = []
        for k in range(n - 1):
            meas = compose(compose(inverse(truth[k]), truth[k + 1]),
                           exp(random_tangent(rng, max_angle=0.1, max_trans=0.2)))
            facs.append(OdometryFactor(k, k + 1, meas))
        if with_gps:
            for k in rng.integers(0, n, size=rng.integers(1, 2 * n + 1)):
                direction = rng.normal(size=3)
                sat = truth[k].translation + direction / np.linalg.norm(direction) * 1e3
                facs.append(GpsFactor(int(k), sat, 1e3 + rng.normal() * 5.0))
        prior = compose(truth[0], exp(random_tangent(rng, max_angle=0.1, max_trans=0.5)))
        facs.append(AnchorFactor(0, prior, fmod.anchor_information()))
        start = [compose(p, exp(random_tangent(rng, max_angle=0.2, max_trans=1.0)))
                 for p in truth]
        a = rng.normal(size=(6, 6))
        g = WindowGraph(list(enumerate(start)), facs, n, a @ a.T + np.eye(6), 5.0)

        res = g._residuals(g.rot, g.t)
        want = einsum_objective(g, res)
        assert abs(g._objective_of(res) - want) <= 1e-12 * want
        _, _, grad = g._assemble(g.rot, res)
        want = einsum_gradient(g, g.rot, res)
        np.testing.assert_allclose(grad, want, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(want), initial=0.0))


def random_normal_blocks(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and upper 6x6 blocks of H = B^T B for a random, well
    conditioned block upper bidiagonal B: an SPD block-tridiagonal H."""
    b_diag = rng.normal(size=(n, 6, 6)) + 4.0 * np.eye(6)
    b_up = 0.5 * rng.normal(size=(max(n - 1, 0), 6, 6))
    b_diag_t, b_up_t = np.swapaxes(b_diag, 1, 2), np.swapaxes(b_up, 1, 2)
    diag = b_diag_t @ b_diag
    diag[1:] += b_up_t @ b_up
    return diag, b_diag_t[:-1] @ b_up


def dense_from_blocks(diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    n = len(diag)
    h = np.zeros((n, 6, n, 6))
    idx = np.arange(n)
    h[idx, :, idx, :] = diag
    h[idx[:-1], :, idx[1:], :] = upper
    h[idx[1:], :, idx[:-1], :] = np.swapaxes(upper, 1, 2)
    return h.reshape(6 * n, 6 * n)


class TestBandedSolve:
    @settings(max_examples=60, deadline=None)
    @example(n=1, seed=0, log_damping=-6.0)  # bandwidth 11 on a 6x6 matrix
    @given(n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
           log_damping=st.floats(-12.0, 2.0))
    def test_matches_dense_solve(self, n, seed, log_damping):
        rng = np.random.default_rng(seed)
        diag, upper = random_normal_blocks(rng, n)
        rhs = rng.normal(size=6 * n)
        damping = 10.0 ** log_damping
        # The solver reads the upper triangle of each diagonal block.
        h = dense_from_blocks(np.triu(diag) + np.swapaxes(np.triu(diag, 1), 1, 2),
                              upper)
        damped = h + damping * np.eye(6 * n)
        expected = np.linalg.solve(damped, rhs)
        got = WindowGraph._solve_banded(diag, upper, rhs, damping)
        # Two backward-stable solves agree to about cond * eps; random
        # blocks reach cond 1e9, where any layout error is still O(1).
        bound = 16.0 * np.finfo(float).eps * np.linalg.cond(damped)
        np.testing.assert_allclose(got, expected, rtol=0.0,
                                   atol=bound * np.max(np.abs(expected)))

    def test_peak_allocation_is_band_sized(self, rng):
        diag, upper = random_normal_blocks(rng, 300)
        rhs = rng.normal(size=1800)
        WindowGraph._solve_banded(diag, upper, rhs, 1e-6)  # warm any lazy imports
        tracemalloc.start()
        try:
            WindowGraph._solve_banded(diag, upper, rhs, 1e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A dense (6n)^2 matrix alone would take 26 MB.
        assert peak < 2 * 1024 ** 2


def small_window(rng, perturbation: float, n: int = 6) -> WindowGraph:
    """Window over exact measurements, started `perturbation` off the truth;
    at 0 its objective is zero."""
    truth = truth_chain(rng, n)
    facs = (odometry_factors(truth) + gps_factors(truth[:1], [0], num_sats=6)
            + [AnchorFactor(0, truth[0], fmod.anchor_information())])
    start = [compose(p, exp(perturbation * random_tangent(rng, 1.0, 1.0)))
             for p in truth]
    return WindowGraph(list(enumerate(start)), facs, n, *NOISE)


class TestForcedFailures:
    """Every failed trial is one rejected step; the run's estimates stay."""

    def test_factorization_always_fails(self, rng, monkeypatch):
        dampings = []

        def fail(diag, upper, rhs, damping):
            dampings.append(damping)
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(WindowGraph, "_solve_banded", staticmethod(fail))
        g = small_window(rng, 0.02)
        rot, t = g.rot.copy(), g.t.copy()
        report = g.optimize()
        assert report.status == "cholesky-failure"
        assert (report.iterations, report.converged) == (0, False)
        # Damping escalated tenfold per trial up to DAMPING_MAX, then gave up.
        assert dampings[-1] <= DAMPING_MAX < 10.0 * dampings[-1]
        assert np.array_equal(g.rot, rot) and np.array_equal(g.t, t)

    def test_objective_always_rises(self, rng, monkeypatch):
        # From the exact optimum every nonzero step raises the objective.
        monkeypatch.setattr(WindowGraph, "_solve_banded", staticmethod(
            lambda diag, upper, rhs, damping: np.full(rhs.shape, 0.1)))
        g = small_window(rng, 0.0)
        rot, t = g.rot.copy(), g.t.copy()
        report = g.optimize()
        assert report.status == "stalled"
        assert (report.iterations, report.converged) == (0, False)
        assert len(report.objective_history) == 1
        assert np.array_equal(g.rot, rot) and np.array_equal(g.t, t)

    def test_steps_shortened_by_damping_stay_stalled(self, rng, monkeypatch):
        # Only the first trial's step is long; it and every escalated,
        # shorter retry raise the objective from the exact optimum.
        solves = []

        def solve(diag, upper, rhs, damping):
            solves.append(damping)
            return np.full(rhs.shape, 0.1 if len(solves) == 1 else 1e-10)

        monkeypatch.setattr(WindowGraph, "_solve_banded", staticmethod(solve))
        g = small_window(rng, 0.0)
        rot, t = g.rot.copy(), g.t.copy()
        report = g.optimize()
        assert 1e-10 * np.sqrt(6 * len(g)) < STEP_NORM_TOL
        assert len(solves) > 2
        assert report.status == "stalled"
        assert (report.iterations, report.converged) == (0, False)
        assert np.array_equal(g.rot, rot) and np.array_equal(g.t, t)

    @pytest.mark.parametrize("error", [NearSingularLogError, DegenerateGeometryError])
    def test_undefined_residuals_always(self, rng, monkeypatch, error):
        calls = []
        original = WindowGraph._residuals

        def residuals(self, rot, t):
            calls.append(1)
            if len(calls) > 1:  # the first call is the start point, not a trial
                raise error("residual undefined at the trial point")
            return original(self, rot, t)

        monkeypatch.setattr(WindowGraph, "_residuals", residuals)
        g = small_window(rng, 0.02)
        rot, t = g.rot.copy(), g.t.copy()
        report = g.optimize()
        assert report.status == "stalled"
        assert (report.iterations, report.converged) == (0, False)
        assert np.array_equal(g.rot, rot) and np.array_equal(g.t, t)

    @pytest.mark.parametrize("error", [NearSingularLogError, DegenerateGeometryError])
    def test_undefined_residuals_once_is_one_rejection(self, rng, monkeypatch, error):
        calls, solves = [], []
        original_residuals = WindowGraph._residuals
        original_solve = WindowGraph._solve_banded

        def residuals(self, rot, t):
            calls.append(1)
            if len(calls) == 2:  # the first trial only
                raise error("residual undefined at the trial point")
            return original_residuals(self, rot, t)

        def solve(diag, upper, rhs, damping):
            solves.append(damping)
            return original_solve(diag, upper, rhs, damping)

        g = small_window(rng, 0.02)
        start = g.objective()
        monkeypatch.setattr(WindowGraph, "_residuals", residuals)
        monkeypatch.setattr(WindowGraph, "_solve_banded", staticmethod(solve))
        report = g.optimize()
        assert report.converged
        assert report.objective_history[-1] < start
        # The rejected trial raised the damping tenfold for the retry.
        assert solves[1] == pytest.approx(10.0 * solves[0])


def stationary_window(rng) -> WindowGraph:
    """Coasting after mitigation: nodes dead-reckoned from the anchor by
    noisy odometry, GPS stripped; the start is the optimum to roundoff.
    Hundreds of metres from the origin, as on a circuit, roundoff makes
    even a 1e-14 step raise the objective; evaluating it would cost a
    rejection per tenfold damping increase."""
    offset = Pose(np.eye(3), np.array([300.0, -300.0, 0.0]))
    truth = [compose(offset, p) for p in truth_chain(rng, 30, step_trans=1.0)]
    odometry = [OdometryFactor(f.from_index, f.to_index,
                               compose(f.measured_transform,
                                       exp(0.01 * random_tangent(rng, 1.0, 1.0))))
                for f in odometry_factors(truth)]
    g = WindowGraph([(0, truth[0])], [AnchorFactor(0, truth[0], fmod.anchor_information())],
                    30, *NOISE)
    g = g.append(odometry + gps_factors(truth[::10], range(0, 30, 10)))
    return g.strip_gps()


class TestOptimize:
    def test_stationary_window_costs_one_solve(self, rng, monkeypatch):
        g = stationary_window(rng)
        rot, t = g.rot.copy(), g.t.copy()
        solves = []
        original = WindowGraph._solve_banded

        def solve(diag, upper, rhs, damping):
            solves.append(damping)
            return original(diag, upper, rhs, damping)

        monkeypatch.setattr(WindowGraph, "_solve_banded", staticmethod(solve))
        report = g.optimize()
        assert len(solves) == 1
        assert (report.status, report.converged, report.iterations) == ("step-norm", True, 0)
        assert len(report.objective_history) == 1
        assert np.array_equal(g.rot, rot) and np.array_equal(g.t, t)

    def test_every_solve_looks_up_scipy_linalg(self, rng, monkeypatch):
        # solveh_banded is looked up on scipy.linalg at each solve, also after
        # earlier solves, so a patch of it there counts every solve.
        import scipy.linalg
        small_window(rng, 0.02).optimize()
        windows, lapack = [], []
        original_window, original_lapack = WindowGraph._solve_banded, scipy.linalg.solveh_banded

        def window_solve(*args):
            windows.append(1)
            return original_window(*args)

        def lapack_solve(*args, **kwargs):
            lapack.append(1)
            return original_lapack(*args, **kwargs)

        monkeypatch.setattr(WindowGraph, "_solve_banded", staticmethod(window_solve))
        monkeypatch.setattr(scipy.linalg, "solveh_banded", lapack_solve)
        report = small_window(rng, 0.02).optimize()
        assert report.iterations > 0
        assert len(lapack) == len(windows) > report.iterations

    def test_iteration_cap_ends_max_iterations(self, rng, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
        report = small_window(rng, 0.02).optimize()
        assert (report.status, report.converged, report.iterations) == (
            "max-iterations", False, 1)
        assert len(report.objective_history) == 2

    def test_anchor_only_fixed_point(self, rng):
        prior = random_pose(rng, max_angle=0.5)
        start = compose(prior, exp(0.01 * random_tangent(rng, 1.0, 1.0)))
        g = WindowGraph([(0, start), (1, start)],
                        [OdometryFactor(0, 1, Pose.identity()),
                         AnchorFactor(0, prior, fmod.anchor_information())],
                        2, np.eye(6), SIGMA_GPS)
        report = g.optimize()
        assert report.converged
        est = g.estimate_of(0)
        assert np.linalg.norm(ominus(est, prior)) < 1e-8

    def test_three_node_noiseless_chain(self, rng):
        truth = truth_chain(rng, 3)
        start = [compose(p, exp(0.05 * random_tangent(rng, 1.0, 1.0))) for p in truth]
        start[0] = truth[0]
        facs = odometry_factors(truth) + [AnchorFactor(0, truth[0], fmod.anchor_information())]
        g = WindowGraph(list(enumerate(start)), facs, 5, *NOISE)
        report = g.optimize()
        assert report.converged
        for k, p in enumerate(truth):
            assert np.linalg.norm(ominus(g.estimate_of(k), p)) < 1e-8

    def test_two_node_gps_odometry_noiseless(self, rng):
        truth = truth_chain(rng, 2)
        facs = (odometry_factors(truth) + gps_factors(truth, [0, 1], num_sats=6)
                + [anchor_at(truth[0])])
        start = [compose(p, exp(np.array([0.001, -0.002, 0.001, 0.5, -0.3, 0.4])))
                 for p in truth]
        g = WindowGraph(list(enumerate(start)), facs, 5, *NOISE)
        report = g.optimize()
        assert report.converged
        for k, p in enumerate(truth):
            err = np.linalg.norm(g.estimate_of(k).translation - p.translation)
            assert err < 1e-6

    def test_noiseless_full_window_truth_recovery(self, rng):
        # 100-node window, 8 satellites on every 10th node, exact measurements.
        truth = truth_chain(rng, 100)
        gps_nodes = list(range(0, 100, 10))
        facs = (odometry_factors(truth)
                + gps_factors([truth[k] for k in gps_nodes], gps_nodes)
                + [AnchorFactor(0, truth[0], fmod.anchor_information())])
        start = [compose(p, exp(0.01 * random_tangent(rng, 1.0, 1.0))) for p in truth]
        start[0] = truth[0]
        g = WindowGraph(list(enumerate(start)), facs, 100, *NOISE)
        report = g.optimize()
        assert report.converged
        worst = max(np.linalg.norm(g.estimate_of(k).translation - truth[k].translation)
                    for k in range(100))
        assert worst < 1e-5

    def test_objective_monotone_noisy(self, rng):
        truth = truth_chain(rng, 20)
        facs = odometry_factors(truth) + gps_factors(
            [truth[k] for k in range(0, 20, 5)], range(0, 20, 5))
        # Corrupt measurements so the optimum is nontrivial.
        noisy = []
        for f in facs:
            if isinstance(f, GpsFactor):
                noisy.append(GpsFactor(f.node_index, f.sat_position,
                                       f.measured_range + rng.normal() * SIGMA_GPS))
            else:
                noisy.append(f)
        noisy.append(AnchorFactor(0, truth[0], fmod.anchor_information()))
        start = [compose(p, exp(0.05 * random_tangent(rng, 1.0, 1.0))) for p in truth]
        g = WindowGraph(list(enumerate(start)), noisy, 20, *NOISE)
        report = g.optimize()
        hist = np.array(report.objective_history)
        assert np.all(np.diff(hist) <= 0.0)

    def test_determinism_bit_identical(self, rng):
        def build():
            local = np.random.default_rng(77)
            truth = truth_chain(local, 15)
            facs = odometry_factors(truth) + gps_factors(
                [truth[k] for k in range(0, 15, 5)], range(0, 15, 5))
            facs.append(AnchorFactor(0, truth[0], fmod.anchor_information()))
            start = [compose(p, exp(0.02 * random_tangent(local, 1.0, 1.0))) for p in truth]
            return WindowGraph(list(enumerate(start)), facs, 15, *NOISE)

        g1, g2 = build(), build()
        r1, r2 = g1.optimize(), g2.optimize()
        assert r1.objective_history == r2.objective_history
        assert r1.iterations == r2.iterations
        for k in range(15):
            assert np.array_equal(g1.estimate_of(k).translation, g2.estimate_of(k).translation)
            assert np.array_equal(g1.estimate_of(k).rotation, g2.estimate_of(k).rotation)

    def test_gauge_invariance_with_gps_stripped(self, rng):
        truth = truth_chain(rng, 10)
        facs = odometry_factors(truth)
        # Perturbed odometry so the optimum objective is nonzero.
        noisy = [OdometryFactor(f.from_index, f.to_index,
                                compose(f.measured_transform,
                                        exp(0.01 * random_tangent(rng, 1.0, 1.0))))
                 for f in facs]
        start = [compose(p, exp(0.02 * random_tangent(rng, 1.0, 1.0))) for p in truth]

        def solve(transform: Pose) -> float:
            # Body-frame relative measurements are invariant to a common
            # left-composed rigid motion of every state and the anchor prior.
            nodes = [(k, compose(transform, p)) for k, p in enumerate(start)]
            anchor = AnchorFactor(0, compose(transform, start[0]), fmod.anchor_information())
            g = WindowGraph(nodes, noisy + [anchor], 10, *NOISE)
            return g.optimize().objective_history[-1]

        base = solve(Pose.identity())
        moved = solve(random_pose(rng, max_angle=1.0, max_trans=50.0))
        assert abs(base - moved) <= 1e-9 * max(1.0, base)


def noisy_window(rng, n: int) -> WindowGraph:
    """n nodes, GPS from 8 satellites on every 10th, noisy odometry and
    ranges, started off the truth: its optimum has a nonzero objective."""
    truth = truth_chain(rng, n)
    gps_nodes = list(range(0, n, 10))
    odometry = [OdometryFactor(f.from_index, f.to_index,
                               compose(f.measured_transform,
                                       exp(0.01 * random_tangent(rng, 1.0, 1.0))))
                for f in odometry_factors(truth)]
    gps = [GpsFactor(f.node_index, f.sat_position,
                     f.measured_range + rng.normal() * SIGMA_GPS)
           for f in gps_factors([truth[k] for k in gps_nodes], gps_nodes)]
    start = [compose(p, exp(0.01 * random_tangent(rng, 1.0, 1.0))) for p in truth]
    start[0] = truth[0]
    return WindowGraph(list(enumerate(start)),
                       odometry + gps + [AnchorFactor(0, truth[0], fmod.anchor_information())],
                       n, *NOISE)


def count_solves(monkeypatch) -> list:
    """The damping of every banded solve from now on, in order."""
    solves = []
    original = WindowGraph._solve_banded

    def solve(diag, upper, rhs, damping):
        solves.append(damping)
        return original(diag, upper, rhs, damping)

    monkeypatch.setattr(WindowGraph, "_solve_banded", staticmethod(solve))
    return solves


class TestPredictedDecrease:
    """The solve ends on the decrease that the Gauss-Newton model predicts
    for the next step, damping |delta|^2 - grad . delta, before taking it."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("damping", [1e-6, 1e-2, 1.0])
    def test_prediction_is_the_drop_of_the_taken_step(self, seed, damping, monkeypatch):
        g = small_window(np.random.default_rng(seed), 1e-3)
        res = g._residuals(g.rot, g.t)
        obj = g._objective_of(res)
        diag, upper, grad = g._assemble(g.rot, res)
        delta = WindowGraph._solve_banded(diag, upper, -grad.reshape(-1), damping)
        predicted = damping * delta.dot(delta) - grad.reshape(-1).dot(delta)
        rot_s, t_s = liegroup.se3_exp_arrays(delta.reshape(-1, 6))
        rot_new, t_new = liegroup.compose_arrays(g.rot, g.t, rot_s, t_s)
        drop = obj - g._objective_of(g._residuals(rot_new, t_new))
        assert drop > 0.0
        assert predicted == pytest.approx(drop, rel=1e-5)

        # optimize applies the same prediction: a tolerance just above it
        # ends the solve untaken, one just below it takes the step.
        monkeypatch.setattr(solver, "DAMPING_INIT", damping)
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
        for scale, expected in ((1.0 + 1e-9, 0), (1.0 - 1e-9, 1)):
            monkeypatch.setattr(solver, "RELATIVE_DECREASE_TOL", scale * predicted / obj)
            trial = copy.deepcopy(g)
            report = trial.optimize()
            assert report.iterations == expected
            assert report.status == ("relative-decrease" if expected == 0
                                     else "max-iterations")

    @pytest.mark.parametrize("seed", range(3))
    def test_last_iteration_takes_no_step(self, seed, monkeypatch):
        solved = noisy_window(np.random.default_rng(seed), 20)
        capped = copy.deepcopy(solved)
        calls = []
        original = WindowGraph._residuals

        def residuals(self, rot, t):
            calls.append(1)
            return original(self, rot, t)

        monkeypatch.setattr(WindowGraph, "_residuals", residuals)
        solves = count_solves(monkeypatch)
        report = solved.optimize()
        assert (report.status, report.converged) == ("relative-decrease", True)
        assert report.iterations >= 1
        assert len(report.objective_history) == report.iterations + 1
        # One solve per step taken and one for the step that ended the
        # solve; one residual pass at the start and one per step taken,
        # none for that last step.
        assert len(solves) == len(calls) == report.iterations + 1
        # Those are the estimates of the last accepted step.
        monkeypatch.setattr(solver, "MAX_ITERATIONS", report.iterations)
        last = capped.optimize()
        assert last.status == "max-iterations"
        assert last.objective_history == report.objective_history
        assert np.array_equal(solved.rot, capped.rot)
        assert np.array_equal(solved.t, capped.t)

    def test_converged_window_ends_within_one_iteration(self, rng, monkeypatch):
        g = noisy_window(rng, 100)
        g.optimize()
        solves = count_solves(monkeypatch)
        report = g.optimize()
        assert report.objective_history[-1] > 1.0
        assert report.converged and report.iterations <= 1
        assert len(solves) == report.iterations + 1


class TestSlide:
    def _window(self, rng, n=100, capacity=100):
        truth = truth_chain(rng, n, step_trans=0.3)
        gps_nodes = list(range(0, n, 10))
        facs = (odometry_factors(truth)
                + gps_factors([truth[k] for k in gps_nodes], gps_nodes)
                + [AnchorFactor(0, truth[0], fmod.anchor_information())])
        g = WindowGraph(list(enumerate(truth)), facs, capacity, *NOISE)
        return g, truth

    def _continuation(self, rng, truth, count):
        """Odometry factors for `count` steps past the end of truth."""
        base = len(truth)
        new_truth = list(truth)
        new_facs = []
        for k in range(count):
            idx = base + k
            motion = exp(np.concatenate([rng.uniform(-0.05, 0.05, 3),
                                         rng.uniform(-0.3, 0.3, 3)]))
            new_truth.append(compose(motion, new_truth[-1]))
            meas = compose(inverse(new_truth[-2]), new_truth[-1])
            new_facs.append(OdometryFactor(idx - 1, idx, meas))
        return new_facs

    def test_full_window_count_constant(self, rng):
        g, truth = self._window(rng)
        new_facs = self._continuation(rng, truth, 10)
        g2 = g.slide(new_facs, shift=10)
        assert len(g2) == 100
        assert (g2.base, g2.base + len(g2) - 1) == (10, 109)

    def test_slide_without_gps_still_connected(self, rng):
        g, truth = self._window(rng, n=20, capacity=20)
        new_facs = self._continuation(rng, truth, 5)
        g2 = g.slide(new_facs, shift=5)  # no GPS among new factors
        # construction validates connectivity; spot-check the odometry chain
        assert len(g2) == 20
        assert len(g2.comp["pose_t"]) == 20
        g2.objective()

    def test_two_fives_equal_one_ten(self, rng):
        g, truth = self._window(rng)
        new_facs = self._continuation(rng, truth, 10)
        once = g.slide(new_facs, shift=10)
        twice = g.slide(new_facs[:5], shift=5).slide(new_facs[5:], shift=5)
        assert (once.base, len(once)) == (twice.base, len(twice))
        for k in range(once.base, once.base + len(once)):
            a, b = once.estimate_of(k), twice.estimate_of(k)
            assert np.allclose(a.rotation, b.rotation, atol=1e-12)
            assert np.allclose(a.translation, b.translation, atol=1e-12)

    def test_anchor_moved_to_new_oldest(self, rng):
        g, truth = self._window(rng)
        new_facs = self._continuation(rng, truth, 10)
        g2 = g.slide(new_facs, shift=10)
        assert len(g2.comp["prior_info"]) == 1
        assert g2.base == 10
        prior = Pose(g2.comp["pose_rot"][0], g2.comp["pose_t"][0])
        oldest = g2.estimate_of(10)
        assert np.allclose(prior.rotation, oldest.rotation)
        assert np.allclose(prior.translation, oldest.translation)
        # Rows 1 on are the odometry kept, links 10 to 98, then the new links.
        for key in ("pose_rot", "pose_t"):
            assert np.array_equal(g2.comp[key][1:90], g.comp[key][11:])

    def test_dead_reckoned_initialization(self, rng):
        """Each node that append or slide adds is the node before it
        composed with its odometry's measured transform, bit for bit."""
        g, truth = self._window(rng, n=10, capacity=20)
        new_facs = self._continuation(rng, truth, 13)
        grown = g.append(new_facs[:3])
        slid = grown.slide(new_facs[3:], shift=3)
        assert (slid.base, len(slid)) == (3, 20)
        for parent, child, facs in ((g, grown, new_facs[:3]), (grown, slid, new_facs[3:])):
            expected = parent.estimate_of(facs[0].from_index)
            for f in facs:
                expected = compose(expected, f.measured_transform)
                est = child.estimate_of(f.to_index)
                assert est.rotation.tobytes() == expected.rotation.tobytes()
                assert est.translation.tobytes() == expected.translation.tobytes()

    def test_underflow_rejected(self, rng):
        g, truth = self._window(rng, n=5, capacity=10)
        new_facs = self._continuation(rng, truth, 5)
        with pytest.raises(ValueError):
            g.slide(new_facs, shift=5)
        with pytest.raises(ValueError):
            g.slide(new_facs, shift=0)

    def test_append_must_continue_the_odometry_chain(self, rng):
        g, truth = self._window(rng, n=10, capacity=20)
        new_facs = self._continuation(rng, truth, 3)  # links 9-10, 10-11, 11-12

        def state():
            return (g.base, g.rot.tobytes(), g.t.tobytes(),
                    {key: value.tobytes() for key, value in g.comp.items()})

        before = state()
        early = OdometryFactor(8, 9, new_facs[0].measured_transform)
        for bad in ([early] + new_facs,  # starts before the newest node
                    new_facs[1:],  # starts after it
                    [new_facs[0], new_facs[2]]):  # skips a link
            with pytest.raises(ValueError, match="exactly once from step 9"):
                g.append(bad)
        assert state() == before  # failed appends leave g as it was

    def test_derived_windows_match_fresh_ones(self, rng):
        """A slid or stripped window evaluates the same residuals, bit for
        bit, as one built fresh from its nodes and factors."""
        g, truth = self._window(rng, n=20, capacity=20)
        new_facs = self._continuation(rng, truth, 5)
        slid_facs = (odometry_factors(truth)[5:] + new_facs + gps_factors(truth[10:11], [10])
                     + [AnchorFactor(5, g.estimate_of(5), fmod.anchor_information())])
        stripped_facs = (odometry_factors(truth)
                         + [AnchorFactor(0, truth[0], fmod.anchor_information())])
        for derived, facs in ((g.slide(new_facs, shift=5), slid_facs),
                              (g.strip_gps(), stripped_facs)):
            steps = range(derived.base, derived.base + len(derived))
            fresh = WindowGraph([(k, derived.estimate_of(k)) for k in steps], facs, 20,
                                *NOISE)
            got = derived._residuals(derived.rot, derived.t)
            want = fresh._residuals(fresh.rot, fresh.t)
            for key in ("gps", "pose"):
                assert got[key].tobytes() == want[key].tobytes()

    def test_append_and_slide_take_no_anchor(self, rng):
        g, truth = self._window(rng, n=10, capacity=20)
        new_facs = self._continuation(rng, truth, 3)
        for derive, base in ((g.append, 0), (lambda facs: g.slide(facs, shift=1), 1)):
            for step in (base, 9, 12):  # the new oldest node, the newest, an added one
                with pytest.raises(ValueError, match="anchor"):
                    derive(new_facs + [anchor_at(truth[0], step)])


class TestStripGps:
    def _graph(self, rng):
        truth = truth_chain(rng, 12)
        gps_nodes = [0, 5, 10]
        facs = (odometry_factors(truth)
                + gps_factors([truth[k] for k in gps_nodes], gps_nodes, num_sats=4)
                + [AnchorFactor(0, truth[0], fmod.anchor_information())])
        return WindowGraph(list(enumerate(truth)), facs, 12, *NOISE), truth

    def test_count_reduced_exactly(self, rng):
        g, _ = self._graph(rng)
        assert g.gps_count() == 12
        stripped = g.strip_gps()
        assert stripped.gps_count() == 0
        for key in ("pose_rot", "pose_t", "prior_info"):
            assert np.array_equal(stripped.comp[key], g.comp[key])
        assert g.gps_count() == 12  # the input graph is unchanged

    def test_idempotent(self, rng):
        g, _ = self._graph(rng)
        once = g.strip_gps()
        twice = once.strip_gps()
        assert once.comp.keys() == twice.comp.keys()
        for key in once.comp:
            assert np.array_equal(once.comp[key], twice.comp[key])
        assert (once.base, len(once)) == (twice.base, len(twice))

    def test_dead_reckoning_after_strip(self, rng):
        # Noiseless odometry: the stripped optimum is the anchored chain of
        # composed odometry measurements.
        g, truth = self._graph(rng)
        stripped = g.strip_gps()
        stripped.optimize()
        expected = truth[0]
        for k in range(12):
            err = np.linalg.norm(
                ominus(stripped.estimate_of(k), truth[k]))
            assert err < 1e-8


class TestNoiseModel:
    def test_derived_windows_keep_the_noise_model(self, rng):
        truth = truth_chain(rng, 12)
        a = rng.normal(size=(6, 6))
        g = WindowGraph(list(enumerate(truth[:8])),
                        odometry_factors(truth[:8]) + gps_factors(truth[:1], [0])
                        + [AnchorFactor(0, truth[0], fmod.anchor_information())],
                        12, a @ a.T + np.eye(6), 3.0)
        grown = g.strip_gps().append(odometry_factors(truth)[7:8])
        slid = g.slide(odometry_factors(truth)[7:] + gps_factors(truth[8:9], [8]), shift=4)
        for derived in (grown, slid, slid.strip_gps()):
            assert derived.odometry_information is g.odometry_information
            assert derived.gps_sigma == 3.0


class TestGpsResiduals:
    def _optimized(self, rng):
        truth = truth_chain(rng, 12)
        gps_nodes = [0, 5, 10]
        facs = (odometry_factors(truth)
                + gps_factors([truth[k] for k in gps_nodes], gps_nodes, num_sats=4)
                + [AnchorFactor(0, truth[0], fmod.anchor_information())])
        start = [compose(p, exp(0.02 * random_tangent(rng, 1.0, 1.0))) for p in truth]
        g = WindowGraph(list(enumerate(start)), facs, 12, *NOISE)
        return g, g.optimize()

    def test_equal_to_solver_residuals_bit_for_bit(self, rng):
        g, _ = self._optimized(rng)
        residuals, sigma = g.gps_residuals()
        assert residuals.tobytes() == g._residuals(g.rot, g.t)["gps"].tobytes()
        assert sigma == SIGMA_GPS

    def test_takes_no_se3_log(self, rng, monkeypatch):
        g, _ = self._optimized(rng)

        def forbidden(*args, **kwargs):
            raise AssertionError("GPS residuals need no SE(3) log")

        monkeypatch.setattr(liegroup, "se3_log_arrays", forbidden)
        residuals, _ = g.gps_residuals()
        assert residuals.shape == (12,)


class TestValidation:
    def test_rejects_gap_in_indices(self, rng):
        truth = truth_chain(rng, 3)
        facs = odometry_factors(truth)
        with pytest.raises(ValueError):
            WindowGraph([(0, truth[0]), (2, truth[2])], facs[:1], 5, *NOISE)

    def test_rejects_missing_odometry_link(self, rng):
        truth = truth_chain(rng, 3)
        with pytest.raises(ValueError, match="exactly once"):
            WindowGraph(list(enumerate(truth)),
                        odometry_factors(truth)[:1] + [anchor_at(truth[0])], 5, *NOISE)

    def test_rejects_dangling_factor(self, rng):
        truth = truth_chain(rng, 3)
        facs = (odometry_factors(truth) + [GpsFactor(7, [0, 0, 2e7], 2e7)]
                + [anchor_at(truth[0])])
        with pytest.raises(ValueError, match="outside the window"):
            WindowGraph(list(enumerate(truth)), facs, 5, *NOISE)

    def test_rejects_duplicate_odometry(self, rng):
        truth = truth_chain(rng, 3)
        facs = odometry_factors(truth)
        with pytest.raises(ValueError, match="exactly once"):
            WindowGraph(list(enumerate(truth)), facs + facs[:1], 5, *NOISE)

    def test_rejects_second_anchor(self, rng):
        truth = truth_chain(rng, 3)
        anchors = [anchor_at(truth[0]), anchor_at(truth[0])]
        with pytest.raises(ValueError, match="one anchor"):
            WindowGraph(list(enumerate(truth)), odometry_factors(truth) + anchors, 5, *NOISE)

    @pytest.mark.parametrize("links", [2, 3])
    def test_rejects_window_without_anchor(self, rng, links):
        # Three nodes: with a third link, dangling past the newest node, the
        # pose stack still has one row per node, so the anchor count alone
        # rejects it.
        truth = truth_chain(rng, 4)
        facs = odometry_factors(truth[:links + 1]) + gps_factors(truth[:3], range(3))
        with pytest.raises(ValueError, match="one anchor"):
            WindowGraph(list(enumerate(truth[:3])), facs, 5, *NOISE)

    @pytest.mark.parametrize("step", [1, 2])
    def test_rejects_anchor_off_the_oldest_node(self, rng, step):
        truth = truth_chain(rng, 3)
        facs = odometry_factors(truth) + [anchor_at(truth[step], step)]
        with pytest.raises(ValueError, match="oldest node"):
            WindowGraph(list(enumerate(truth)), facs, 5, *NOISE)

    def test_rejects_overflow(self, rng):
        truth = truth_chain(rng, 6)
        with pytest.raises(ValueError):
            WindowGraph(list(enumerate(truth)), odometry_factors(truth), 5, *NOISE)

    def test_estimate_of_rejects_steps_outside_window(self, rng):
        truth = truth_chain(rng, 3)
        g = WindowGraph(list(enumerate(truth, start=5)),
                        odometry_factors(truth, start_index=5) + [anchor_at(truth[0], 5)],
                        5, *NOISE)
        assert np.array_equal(g.estimate_of(7).translation, truth[2].translation)
        for step in (3, 4, 8):
            with pytest.raises(ValueError, match="outside the window"):
                g.estimate_of(step)
