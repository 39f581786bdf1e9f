"""Authentication schedule arithmetic, outcomes, and the spoofing latch."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srfgo import factors as fmod
from srfgo.chimera import (OUTCOMES, AuthEvent, AuthResult, on_authentication,
                           slow_channel)
from srfgo.detector import decide, mitigate
from srfgo.factors import AnchorFactor, GpsFactor, OdometryFactor
from srfgo.liegroup import Pose, compose, inverse
from srfgo.solver import WindowGraph
from conftest import NOISE


class TestSchedule:
    def test_slow_channel_steps(self):
        assert slow_channel(0.1) == 1800

    def test_validation(self):
        with pytest.raises(ValueError):
            slow_channel(0.07)
        with pytest.raises(ValueError):
            AuthEvent(1800, "maybe")
        with pytest.raises(ValueError):
            AuthEvent(-60, "authentic")


def _window_with_gps():
    poses = [Pose(np.eye(3), np.array([0.5 * k, 0.0, 0.0])) for k in range(4)]
    facs = [OdometryFactor(k, k + 1, compose(poses[k + 1], inverse(poses[k])))
            for k in range(3)]
    facs.append(AnchorFactor(0, poses[0], fmod.anchor_information()))
    sats = [np.array([2.0e7, 0.0, 0.0]), np.array([0.0, 2.0e7, 0.0]),
            np.array([0.0, 0.0, 2.0e7])]
    for s in sats:
        true_range = float(np.linalg.norm(poses[3].translation - s))
        facs.append(GpsFactor(3, s, true_range + 50.0))
    return WindowGraph(list(enumerate(poses)), facs, 10, *NOISE)


class TestOnAuthentication:
    def test_failed_auth_mitigates_even_with_clean_detector(self):
        g = _window_with_gps()
        result = on_authentication(AuthEvent(1800, "failed"), g, 1800)
        assert result.action == "gps-excluded"  # the run latches
        assert result.graph.gps_count() == 0
        assert g.gps_count() == 3

    def test_failed_auth_reoptimizes_like_mitigate(self):
        g = _window_with_gps()
        g.optimize()  # the GPS bias pulls the estimates off the odometry chain
        result = on_authentication(AuthEvent(1800, "failed"), g, 1800)
        expected = mitigate(g)
        assert np.array_equal(result.graph.rot, expected.rot)
        assert np.array_equal(result.graph.t, expected.t)
        assert not np.array_equal(result.graph.t, g.t)

    def test_authentic_auth_clears_latch_and_readmits(self):
        g = _window_with_gps()
        result = on_authentication(AuthEvent(3600, "authentic"), g, 1800)
        assert result.action == "gps-readmitted"  # the run's latch clears
        assert result.graph is g  # window untouched on success

    def test_authentic_auth_with_clean_detector_only_refreshes_trust(self):
        g = _window_with_gps()
        result = on_authentication(AuthEvent(0, "authentic"), g, 1800)
        assert result == AuthResult("gps-readmitted", g, g.window_capacity)

    def test_trust_window_spans_one_window_of_steps(self):
        g = _window_with_gps()
        result = on_authentication(AuthEvent(1800, "authentic"), g, 1800)
        assert result.trust_until == 1800 + g.window_capacity

    def test_unscheduled_event_rejected(self):
        g = _window_with_gps()
        with pytest.raises(ValueError):
            on_authentication(AuthEvent(900, "authentic"), g, 1800)


class _ReferenceDetector:
    """The latch as two mutable flags, the rules the run loop held before it
    kept one boolean: a crossing sets ``spoofed_flag``, sr-fgo's mitigation
    of a detection sets ``gps_excluded``, a failed authentication sets both
    and an authentic one clears both."""

    def __init__(self, sr_mode):
        self.sr_mode = sr_mode
        self.spoofed_flag = self.gps_excluded = False

    def trial(self, q, tau, monitoring):
        if monitoring and q > tau:
            self.spoofed_flag = True
        decision = "spoof-detected" if self.spoofed_flag else "authentic"
        if self.sr_mode and decision == "spoof-detected":
            self.gps_excluded = True
        return decision

    def authenticate(self, outcome):
        self.spoofed_flag = self.gps_excluded = outcome == "failed"
        return "gps-excluded" if outcome == "failed" else "gps-readmitted"


_TRIAL = st.tuples(st.just("trial"),
                   st.one_of(st.floats(0.0, 20.0), st.sampled_from([5.0, 10.0])),
                   st.sampled_from([5.0, 10.0]), st.booleans())
_AUTH = st.tuples(st.just("auth"), st.sampled_from(OUTCOMES))


class TestLatch:
    @settings(max_examples=300, deadline=None)
    @given(sr_mode=st.booleans(), steps=st.lists(st.one_of(_TRIAL, _AUTH), max_size=40))
    def test_one_boolean_matches_reference_flags(self, sr_mode, steps):
        # A GPS-free window: a failed authentication returns it unsolved.
        window = WindowGraph([(0, Pose.identity())],
                             [AnchorFactor(0, Pose.identity(), fmod.anchor_information())],
                             10, *NOISE)
        reference = _ReferenceDetector(sr_mode)
        latched, epochs = False, 0
        for kind, *args in steps:
            # What the run loop reads at a batch start: GPS excluded or not.
            assert latched == reference.spoofed_flag
            assert (sr_mode and latched) == reference.gps_excluded
            if kind == "trial":
                q, tau, monitoring = args
                decision = decide(q, tau, latched, monitoring=monitoring)
                assert decision == reference.trial(q, tau, monitoring)
                latched = decision == "spoof-detected"
            elif sr_mode:  # only sr-fgo acts on an authentication
                epochs += 1
                result = on_authentication(AuthEvent(1800 * epochs, args[0]), window, 1800)
                assert result.action == reference.authenticate(args[0])
                assert result.graph is window
                latched = result.action == "gps-excluded"
