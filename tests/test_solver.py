"""Window graph assembly, optimization, sliding, and GPS stripping."""

from __future__ import annotations

import numpy as np
import pytest

from srfgo import factors as fmod
from srfgo import liegroup
from srfgo.factors import AnchorFactor, GpsFactor, OdometryFactor, linearize
from srfgo.liegroup import Pose, compose, exp, inverse
from srfgo.solver import SolveReport, SolverParams, WindowGraph
from conftest import random_pose, random_tangent

SIGMA_GPS = 7.0

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
    info = fmod.default_odometry_information([0.01] * 3 + [0.05] * 3)
    out = []
    for k in range(len(truth) - 1):
        meas = compose(inverse(truth[k]), truth[k + 1])
        out.append(OdometryFactor(start_index + k, start_index + k + 1, meas, info))
    return out


def gps_factors(truth: list[Pose], node_indices, num_sats: int = 8,
                sigma: float = SIGMA_GPS) -> list[GpsFactor]:
    sats = sat_positions(num_sats)
    out = []
    for k, pose in zip(node_indices, truth):
        for s in sats:
            rng_true = float(np.linalg.norm(pose.translation - s))
            out.append(GpsFactor(k, s, rng_true, sigma))
    return out


class TestObjective:
    def test_zero_when_consistent(self, rng):
        truth = truth_chain(rng, 5)
        g = WindowGraph(list(enumerate(truth)),
                        odometry_factors(truth) + [AnchorFactor(0, truth[0], fmod.anchor_information())],
                        window_capacity=10)
        assert g.objective() == pytest.approx(0.0, abs=1e-18)

    def test_single_gps_normalization(self):
        pose = Pose(np.eye(3), np.zeros(3))
        sat = np.array([0.0, 0.0, 2.0e7])
        f = GpsFactor(0, sat, 2.0e7 + SIGMA_GPS, SIGMA_GPS)
        g = WindowGraph([(0, pose)], [f], window_capacity=2)
        assert g.objective() == pytest.approx(1.0, rel=1e-12)

    def test_additivity(self):
        pose = Pose(np.eye(3), np.zeros(3))
        sat_a = np.array([0.0, 0.0, 2.0e7])
        sat_b = np.array([2.0e7, 0.0, 0.0])
        fa = GpsFactor(0, sat_a, 2.0e7 + 3.0, SIGMA_GPS)
        fb = GpsFactor(0, sat_b, 2.0e7 - 4.0, SIGMA_GPS)
        ga = WindowGraph([(0, pose)], [fa], 2).objective()
        gb = WindowGraph([(0, pose)], [fb], 2).objective()
        gab = WindowGraph([(0, pose)], [fa, fb], 2).objective()
        assert gab == pytest.approx(ga + gb, rel=1e-12)

    def test_gps_sigma_scaling_exact(self):
        # Doubling sigma divides the contribution by exactly 4 (power of two
        # keeps float arithmetic exact).
        pose = Pose(np.eye(3), np.zeros(3))
        sat = np.array([0.0, 0.0, 2.0e7])
        f1 = GpsFactor(0, sat, 2.0e7 + 3.0, SIGMA_GPS)
        f2 = GpsFactor(0, sat, 2.0e7 + 3.0, 2.0 * SIGMA_GPS)
        o1 = WindowGraph([(0, pose)], [f1], 2).objective()
        o2 = WindowGraph([(0, pose)], [f2], 2).objective()
        assert o2 == o1 / 4.0


class TestAssembly:
    def test_blocks_match_dense_normal_equations(self, rng):
        """The solver's scattered blocks equal sum J^T W J and sum J^T W e
        built factor by factor from linearize()."""
        n = 5
        truth = truth_chain(rng, n)
        facs = []
        for k in range(n - 1):
            meas = compose(compose(inverse(truth[k]), truth[k + 1]),
                           exp(random_tangent(rng, max_angle=0.1, max_trans=0.2)))
            a = rng.normal(size=(6, 6))
            facs.append(OdometryFactor(k, k + 1, meas, a @ a.T + np.eye(6)))
        for k in (1, 3, 3, 4):  # two GPS factors share node 3
            direction = rng.normal(size=3)
            sat = truth[k].translation + direction / np.linalg.norm(direction) * 1e3
            facs.append(GpsFactor(k, sat, 1e3 + rng.normal() * 5.0, 5.0))
        prior = compose(truth[0], exp(random_tangent(rng, max_angle=0.1, max_trans=0.5)))
        facs.append(AnchorFactor(0, prior, fmod.anchor_information()))
        start = [compose(p, exp(random_tangent(rng, max_angle=0.2, max_trans=1.0)))
                 for p in truth]
        g = WindowGraph(list(enumerate(start)), facs, window_capacity=n)

        h = np.zeros((n, 6, n, 6))
        b = np.zeros((n, 6))
        states = {k: g.estimate_of(k) for k in range(g.base, g.base + len(g))}
        for f in facs:
            lin = linearize(f, states)
            w = (np.array([[f.sigma ** -2]]) if isinstance(f, GpsFactor)
                 else f.information)
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


class TestOptimize:
    def test_anchor_only_fixed_point(self, rng):
        prior = random_pose(rng, max_angle=0.5)
        start = compose(prior, exp(0.01 * random_tangent(rng, 1.0, 1.0)))
        g = WindowGraph([(0, start), (1, start)],
                        [OdometryFactor(0, 1, Pose.identity(), np.eye(6)),
                         AnchorFactor(0, prior, fmod.anchor_information())],
                        window_capacity=2)
        report = g.optimize()
        assert report.converged
        est = g.estimate_of(0)
        assert np.linalg.norm(liegroup.ominus(est, prior)) < 1e-8

    def test_three_node_noiseless_chain(self, rng):
        truth = truth_chain(rng, 3)
        start = [compose(p, exp(0.05 * random_tangent(rng, 1.0, 1.0))) for p in truth]
        start[0] = truth[0]
        facs = odometry_factors(truth) + [AnchorFactor(0, truth[0], fmod.anchor_information())]
        g = WindowGraph(list(enumerate(start)), facs, window_capacity=5)
        report = g.optimize()
        assert report.converged
        for k, p in enumerate(truth):
            assert np.linalg.norm(liegroup.ominus(g.estimate_of(k), p)) < 1e-8

    def test_two_node_gps_odometry_noiseless(self, rng):
        truth = truth_chain(rng, 2)
        facs = odometry_factors(truth) + gps_factors(truth, [0, 1], num_sats=6)
        start = [compose(p, exp(np.array([0.001, -0.002, 0.001, 0.5, -0.3, 0.4])))
                 for p in truth]
        g = WindowGraph(list(enumerate(start)), facs, window_capacity=5)
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
        g = WindowGraph(list(enumerate(start)), facs, window_capacity=100)
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
                                       f.measured_range + rng.normal() * SIGMA_GPS, f.sigma))
            else:
                noisy.append(f)
        noisy.append(AnchorFactor(0, truth[0], fmod.anchor_information()))
        start = [compose(p, exp(0.05 * random_tangent(rng, 1.0, 1.0))) for p in truth]
        g = WindowGraph(list(enumerate(start)), noisy, window_capacity=20)
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
            return WindowGraph(list(enumerate(start)), facs, window_capacity=15)

        g1, g2 = build(), build()
        r1, r2 = g1.optimize(), g2.optimize()
        assert r1.final_objective == r2.final_objective
        assert r1.objective_history == r2.objective_history
        assert r1.iterations == r2.iterations
        for key in ("gps", "odometry", "anchor"):
            assert np.array_equal(r1.residuals[key], r2.residuals[key])
        for k in range(15):
            assert np.array_equal(g1.estimate_of(k).translation, g2.estimate_of(k).translation)
            assert np.array_equal(g1.estimate_of(k).rotation, g2.estimate_of(k).rotation)

    def test_gauge_invariance_with_gps_stripped(self, rng):
        truth = truth_chain(rng, 10)
        facs = odometry_factors(truth)
        # Perturbed odometry so the optimum objective is nonzero.
        info = fmod.default_odometry_information([0.01] * 3 + [0.05] * 3)
        noisy = [OdometryFactor(f.from_index, f.to_index,
                                compose(f.measured_transform,
                                        exp(0.01 * random_tangent(rng, 1.0, 1.0))),
                                info) for f in facs]
        start = [compose(p, exp(0.02 * random_tangent(rng, 1.0, 1.0))) for p in truth]

        def solve(transform: Pose) -> float:
            # Body-frame relative measurements are invariant to a common
            # left-composed rigid motion of every state and the anchor prior.
            nodes = [(k, compose(transform, p)) for k, p in enumerate(start)]
            anchor = AnchorFactor(0, compose(transform, start[0]), fmod.anchor_information())
            g = WindowGraph(nodes, noisy + [anchor], window_capacity=10)
            return g.optimize().final_objective

        base = solve(Pose.identity())
        moved = solve(random_pose(rng, max_angle=1.0, max_trans=50.0))
        assert abs(base - moved) <= 1e-9 * max(1.0, base)


class TestSlide:
    def _window(self, rng, n=100, capacity=100):
        truth = truth_chain(rng, n, step_trans=0.3)
        gps_nodes = list(range(0, n, 10))
        facs = (odometry_factors(truth)
                + gps_factors([truth[k] for k in gps_nodes], gps_nodes)
                + [AnchorFactor(0, truth[0], fmod.anchor_information())])
        g = WindowGraph(list(enumerate(truth)), facs, capacity)
        return g, truth

    def _continuation(self, rng, truth, count):
        info = fmod.default_odometry_information([0.01] * 3 + [0.05] * 3)
        base = len(truth)
        new_truth = list(truth)
        new_nodes, new_facs = [], []
        for k in range(count):
            idx = base + k
            motion = exp(np.concatenate([rng.uniform(-0.05, 0.05, 3),
                                         rng.uniform(-0.3, 0.3, 3)]))
            new_truth.append(compose(motion, new_truth[-1]))
            meas = compose(inverse(new_truth[-2]), new_truth[-1])
            new_nodes.append(idx)
            new_facs.append(OdometryFactor(idx - 1, idx, meas, info))
        return new_nodes, new_facs

    def test_full_window_count_constant(self, rng):
        g, truth = self._window(rng)
        new_nodes, new_facs = self._continuation(rng, truth, 10)
        g2 = g.slide(new_nodes, new_facs, shift=10)
        assert len(g2) == 100
        assert (g2.base, g2.base + len(g2) - 1) == (10, 109)

    def test_slide_without_gps_still_connected(self, rng):
        g, truth = self._window(rng, n=20, capacity=20)
        new_nodes, new_facs = self._continuation(rng, truth, 5)
        g2 = g.slide(new_nodes, new_facs, shift=5)  # no GPS among new factors
        # construction validates connectivity; spot-check the odometry chain
        assert len(g2) == 20
        assert np.array_equal(g2.comp["odo_rows"], np.arange(19))
        g2.objective()

    def test_two_fives_equal_one_ten(self, rng):
        g, truth = self._window(rng)
        new_nodes, new_facs = self._continuation(rng, truth, 10)
        once = g.slide(new_nodes, new_facs, shift=10)
        twice = g.slide(new_nodes[:5], new_facs[:5], shift=5).slide(
            new_nodes[5:], new_facs[5:], shift=5)
        assert (once.base, len(once)) == (twice.base, len(twice))
        for k in range(once.base, once.base + len(once)):
            assert np.allclose(once.estimate_of(k).matrix(),
                               twice.estimate_of(k).matrix(), atol=1e-12)

    def test_anchor_moved_to_new_oldest(self, rng):
        g, truth = self._window(rng)
        new_nodes, new_facs = self._continuation(rng, truth, 10)
        g2 = g.slide(new_nodes, new_facs, shift=10)
        assert g2.comp["anc_rows"].tolist() == [0]
        assert g2.base == 10
        prior = Pose(g2.comp["anc_rot"][0], g2.comp["anc_t"][0])
        assert np.allclose(prior.matrix(), g2.estimate_of(10).matrix())

    def test_dead_reckoned_initialization(self, rng):
        g, truth = self._window(rng, n=10, capacity=20)
        new_nodes, new_facs = self._continuation(rng, truth, 3)
        g2 = g.append(new_nodes, new_facs)
        est = g2.estimate_of(10)
        expected = compose(g.estimate_of(9), new_facs[0].measured_transform)
        assert np.allclose(est.matrix(), expected.matrix(), atol=1e-12)

    def test_underflow_rejected(self, rng):
        g, truth = self._window(rng, n=5, capacity=10)
        new_nodes, new_facs = self._continuation(rng, truth, 5)
        with pytest.raises(ValueError):
            g.slide(new_nodes, new_facs, shift=5)
        with pytest.raises(ValueError):
            g.slide(new_nodes, new_facs, shift=0)

    def test_append_needs_incoming_odometry(self, rng):
        g, truth = self._window(rng, n=10, capacity=20)
        new_nodes, new_facs = self._continuation(rng, truth, 3)
        with pytest.raises(ValueError, match="incoming odometry"):
            g.append(new_nodes, new_facs[:2])
        with pytest.raises(ValueError, match="continue"):
            g.append(new_nodes[1:], new_facs)
        assert (g.base, len(g)) == (0, 10)  # failed appends leave g as it was


class TestStripGps:
    def _graph(self, rng):
        truth = truth_chain(rng, 12)
        gps_nodes = [0, 5, 10]
        facs = (odometry_factors(truth)
                + gps_factors([truth[k] for k in gps_nodes], gps_nodes, num_sats=4)
                + [AnchorFactor(0, truth[0], fmod.anchor_information())])
        return WindowGraph(list(enumerate(truth)), facs, 12), truth

    def test_count_reduced_exactly(self, rng):
        g, _ = self._graph(rng)
        assert g.gps_count() == 12
        stripped = g.strip_gps()
        assert stripped.gps_count() == 0
        for kind in ("odo", "anc"):
            assert np.array_equal(stripped.comp[f"{kind}_rows"], g.comp[f"{kind}_rows"])
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
                liegroup.ominus(stripped.estimate_of(k), truth[k]))
            assert err < 1e-8


class TestGpsResiduals:
    def _optimized(self, rng):
        truth = truth_chain(rng, 12)
        gps_nodes = [0, 5, 10]
        facs = (odometry_factors(truth)
                + gps_factors([truth[k] for k in gps_nodes], gps_nodes, num_sats=4)
                + [AnchorFactor(0, truth[0], fmod.anchor_information())])
        start = [compose(p, exp(0.02 * random_tangent(rng, 1.0, 1.0))) for p in truth]
        g = WindowGraph(list(enumerate(start)), facs, 12)
        return g, g.optimize()

    def test_equal_to_solver_residuals_bit_for_bit(self, rng):
        g, report = self._optimized(rng)
        residuals, sigmas = g.gps_residuals()
        assert residuals.tobytes() == report.residuals["gps"].tobytes()
        np.testing.assert_allclose(sigmas, SIGMA_GPS, rtol=1e-15)

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
            WindowGraph([(0, truth[0]), (2, truth[2])], facs[:1], 5)

    def test_rejects_missing_odometry_link(self, rng):
        truth = truth_chain(rng, 3)
        with pytest.raises(ValueError):
            WindowGraph(list(enumerate(truth)), odometry_factors(truth)[:1], 5)

    def test_rejects_dangling_factor(self, rng):
        truth = truth_chain(rng, 3)
        facs = odometry_factors(truth) + [GpsFactor(7, [0, 0, 2e7], 2e7, 7.0)]
        with pytest.raises(ValueError):
            WindowGraph(list(enumerate(truth)), facs, 5)

    def test_rejects_duplicate_odometry(self, rng):
        truth = truth_chain(rng, 3)
        facs = odometry_factors(truth)
        with pytest.raises(ValueError, match="exactly once"):
            WindowGraph(list(enumerate(truth)), facs + facs[:1], 5)

    def test_rejects_overflow(self, rng):
        truth = truth_chain(rng, 6)
        with pytest.raises(ValueError):
            WindowGraph(list(enumerate(truth)), odometry_factors(truth), 5)

    def test_estimate_of_rejects_steps_outside_window(self, rng):
        truth = truth_chain(rng, 3)
        g = WindowGraph(list(enumerate(truth, start=5)),
                        odometry_factors(truth, start_index=5), 5)
        assert np.array_equal(g.estimate_of(7).translation, truth[2].translation)
        for step in (3, 4, 8):
            with pytest.raises(ValueError, match="outside the window"):
                g.estimate_of(step)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SolverParams(max_iterations=0)
        with pytest.raises(ValueError):
            SolverParams(damping_init=-1.0)
