"""Chi-squared quantile inversion, test statistic, decision latch, mitigation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import gammainc

from srfgo import factors as fmod
from srfgo.detector import ALPHA, chi2_inverse_cdf, decide, mitigate, threshold
from srfgo.detector import test_statistic as window_statistic
from srfgo.factors import AnchorFactor, GpsFactor, OdometryFactor
from srfgo.liegroup import Pose, compose, inverse
from srfgo.rngutil import GPS_STREAM, make_rng, normal
from srfgo.solver import WindowGraph
from conftest import NOISE, SIGMA_GPS


# Frozen before the implementation existed, from bisection on
# scipy.special.gammainc (an independent evaluation route).
TAU_999_80 = 124.83922401576459


def oracle_quantile(p: float, n: int) -> float:
    """Bisection on scipy's regularized incomplete gamma; no shared code
    with chi2_inverse_cdf."""
    lo, hi = 0.0, n + 40.0 * math.sqrt(n)
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if gammainc(n / 2.0, mid / 2.0) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestChi2InverseCdf:
    def test_two_dof_closed_forms(self):
        # CDF for 2 dof is 1 - exp(-x/2).
        assert chi2_inverse_cdf(1.0 - math.exp(-1.0), 2) == pytest.approx(2.0, abs=1e-9)
        assert chi2_inverse_cdf(0.5, 2) == pytest.approx(2.0 * math.log(2.0), abs=1e-9)

    def test_one_dof_gaussian_square(self):
        assert chi2_inverse_cdf(0.95, 1) == pytest.approx(3.841459, abs=1e-5)

    def test_matches_oracle_on_grid(self):
        for n in (1, 2, 10, 80, 200):
            for p in (0.5, 0.9, 0.99, 0.999):
                ours = chi2_inverse_cdf(p, n)
                ref = oracle_quantile(p, n)
                assert abs(ours - ref) <= 1e-8 * ref, (n, p)

    def test_pinned_threshold_value(self):
        assert chi2_inverse_cdf(0.999, 80) == pytest.approx(TAU_999_80, rel=1e-10)

    def test_strictly_increasing_in_p_and_n(self):
        grid_p = (0.1, 0.5, 0.9, 0.99, 0.999)
        for n in (1, 5, 40, 120):
            vals = [chi2_inverse_cdf(p, n) for p in grid_p]
            assert all(a < b for a, b in zip(vals, vals[1:]))
        for p in grid_p:
            vals = [chi2_inverse_cdf(p, n) for n in (1, 2, 8, 30, 100)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_inputs(self):
        for p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                chi2_inverse_cdf(p, 2)
        for n in (0, -3, 2.5):
            with pytest.raises(ValueError):
                chi2_inverse_cdf(0.9, n)


class TestThreshold:
    def test_default_window_threshold(self):
        assert ALPHA == 0.001
        assert threshold(80) == pytest.approx(TAU_999_80, rel=1e-10)

    # The threshold at another alpha is the same quantile at 1 - alpha.
    def test_half_alpha_two_dof(self):
        assert chi2_inverse_cdf(1.0 - 0.5, 2) == pytest.approx(
            2.0 * math.log(2.0), abs=1e-9)

    def test_smaller_alpha_raises_threshold(self):
        t1 = chi2_inverse_cdf(1.0 - 0.0001, 80)
        t2 = chi2_inverse_cdf(1.0 - 0.01, 80)
        assert t1 > t2

    def test_config_validation(self):
        for alpha in (0.0, 1.0):
            with pytest.raises(ValueError):
                chi2_inverse_cdf(1.0 - alpha, 80)
        with pytest.raises(ValueError):
            threshold(0)


def _single_node_graph(offsets):
    """One node at the origin with one GPS factor per range offset."""
    pose = Pose(np.eye(3), np.zeros(3))
    sats = [np.array([2.0e7, 0.0, 0.0]), np.array([0.0, 2.0e7, 0.0]),
            np.array([0.0, 0.0, 2.0e7]), np.array([-2.0e7, 0.0, 0.0]),
            np.array([0.0, -2.0e7, 0.0]), np.array([0.0, 0.0, -2.0e7]),
            np.array([2.0e7, 2.0e7, 0.0]), np.array([0.0, 2.0e7, 2.0e7])]
    factors = []
    for k, off in enumerate(offsets):
        sat = sats[k % len(sats)]
        rng_true = float(np.linalg.norm(sat))
        factors.append(GpsFactor(0, sat, rng_true + off))
    factors.append(AnchorFactor(0, pose, fmod.anchor_information()))
    return WindowGraph([(0, pose)], factors, 2, *NOISE)


class TestTestStatistic:
    def test_zero_residuals(self):
        q, n = window_statistic(_single_node_graph([0.0] * 5))
        assert q == 0.0 and n == 5

    def test_unit_residual(self):
        q, n = window_statistic(_single_node_graph([SIGMA_GPS]))
        assert q == pytest.approx(1.0, rel=1e-12) and n == 1

    def test_no_gps_is_no_test(self):
        pose = Pose(np.eye(3), np.zeros(3))
        g = WindowGraph([(0, pose), (1, pose)],
                        [OdometryFactor(0, 1, Pose.identity()),
                         AnchorFactor(0, pose, fmod.anchor_information())], 4, *NOISE)
        assert window_statistic(g) is None

    def test_permutation_invariance(self):
        offsets = [3.0, -1.0, 5.5, 0.25, -7.0]
        q1, _ = window_statistic(_single_node_graph(offsets))
        q2, _ = window_statistic(_single_node_graph(offsets[::-1]))
        assert q1 == pytest.approx(q2, rel=1e-12)

    def test_residual_scaling_quadratic(self):
        # Offsets chosen so predicted and measured ranges are exact floats
        # and doubling the residual exactly quadruples q.
        q1, _ = window_statistic(_single_node_graph([7.0, -14.0, 28.0]))
        q2, _ = window_statistic(_single_node_graph([14.0, -28.0, 56.0]))
        assert q2 == 4.0 * q1

    def test_nominal_mean_matches_dof(self):
        # Truth-evaluated residuals are exactly the injected noise, so q is
        # centrally chi-squared; check the sample mean over 1000 windows.
        rng = make_rng(421, GPS_STREAM)
        n = 8
        windows = 1000
        means = []
        for _ in range(windows):
            noise = SIGMA_GPS * normal(rng, n)
            q, got_n = window_statistic(_single_node_graph(noise))
            assert got_n == n
            means.append(q)
        assert abs(np.mean(means) - n) <= 5.0 * math.sqrt(2.0 * n / windows)

    def test_false_alarm_rate_nominal(self):
        # 10^4 independent truth-evaluated windows against the alpha=0.001
        # threshold; empirical rate within 3 sigma of alpha.
        rng = make_rng(97, GPS_STREAM)
        n = 8
        trials = 10_000
        tau = threshold(n)
        noise = SIGMA_GPS * normal(rng, (trials, n))
        q = np.sum((noise / SIGMA_GPS) ** 2, axis=1)
        rate = float(np.mean(q > tau))
        bound = ALPHA + 3.0 * math.sqrt(ALPHA * (1.0 - ALPHA) / trials)
        assert rate <= bound


class TestDecide:
    def test_boundary_is_authentic(self):
        assert decide(10.0, 10.0, False) == "authentic"

    def test_crossing_detects_and_latches(self):
        assert decide(10.0 + 1e-9, 10.0, False) == "spoof-detected"
        # Latched: a quiet statistic still reports spoofed.
        assert decide(0.0, 10.0, True) == "spoof-detected"

    def test_trust_window_logs_without_latching(self):
        assert decide(99.0, 10.0, False, monitoring=False) == "authentic"
        # The trust window does not clear a latch; authentication does.
        assert decide(0.0, 10.0, True, monitoring=False) == "spoof-detected"


class TestMitigate:
    def _spoofed_window(self, rng):
        # Noiseless odometry chain; GPS carries a +100 m range bias.
        poses = [Pose(np.eye(3), np.array([0.5 * k, 0.0, 0.0])) for k in range(6)]
        facs = [OdometryFactor(k, k + 1, compose(inverse(poses[k]), poses[k + 1]))
                for k in range(5)]
        facs.append(AnchorFactor(0, poses[0], fmod.anchor_information()))
        sats = [np.array([2.0e7, 0.0, 0.0]), np.array([0.0, 2.0e7, 0.0]),
                np.array([0.0, 0.0, 2.0e7]), np.array([1.5e7, 0.0, 1.5e7])]
        for k in (0, 5):
            for s in sats:
                true_range = float(np.linalg.norm(poses[k].translation - s))
                facs.append(GpsFactor(k, s, true_range + 100.0))
        return WindowGraph(list(enumerate(poses)), facs, 10, *NOISE), poses

    def test_matches_direct_strip_and_optimize(self, rng):
        g, poses = self._spoofed_window(rng)
        g.optimize()

        reference = g.strip_gps()
        reference.optimize()

        cleaned = mitigate(g)
        assert cleaned.gps_count() == 0
        assert g.gps_count() == 8  # mitigation leaves the input window as it was
        for k in range(6):
            d = np.linalg.norm(cleaned.estimate_of(k).translation
                               - reference.estimate_of(k).translation)
            assert d < 1e-6
            # The biased GPS is gone, so the odometry-only optimum is truth.
            assert np.linalg.norm(cleaned.estimate_of(k).translation
                                  - poses[k].translation) < 1e-6

    def test_idempotent(self, rng):
        g, _ = self._spoofed_window(rng)
        once = mitigate(g)
        twice = mitigate(once)
        assert twice is once  # no GPS left, graph unchanged
