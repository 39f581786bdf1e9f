"""Authentication schedule arithmetic and state transitions."""

import numpy as np
import pytest

from srfgo import factors as fmod
from srfgo.chimera import (AuthEvent, AuthResult, AuthSchedule, on_authentication,
                           slow_channel)
from srfgo.detector import DetectorState, mitigate
from srfgo.factors import AnchorFactor, GpsFactor, OdometryFactor
from srfgo.liegroup import Pose, compose, inverse
from srfgo.solver import WindowGraph
from conftest import NOISE


class TestSchedule:
    def test_slow_channel_steps(self):
        assert slow_channel(0.1).epoch_length_steps == 1800

    def test_validation(self):
        with pytest.raises(ValueError):
            AuthSchedule(0)
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
        state = DetectorState()
        result = on_authentication(AuthEvent(1800, "failed"), state, g, AuthSchedule(1800))
        assert result.action == "gps-excluded"
        assert state.spoofed_flag and state.gps_excluded
        assert result.graph.gps_count() == 0
        assert g.gps_count() == 3

    def test_failed_auth_reoptimizes_like_mitigate(self):
        g = _window_with_gps()
        g.optimize()  # the GPS bias pulls the estimates off the odometry chain
        result = on_authentication(AuthEvent(1800, "failed"), DetectorState(), g,
                                   AuthSchedule(1800))
        expected = mitigate(g, DetectorState(spoofed_flag=True))
        assert np.array_equal(result.graph.rot, expected.rot)
        assert np.array_equal(result.graph.t, expected.t)
        assert not np.array_equal(result.graph.t, g.t)

    def test_authentic_auth_clears_latch_and_readmits(self):
        g = _window_with_gps()
        state = DetectorState(spoofed_flag=True, gps_excluded=True)
        result = on_authentication(AuthEvent(3600, "authentic"), state, g, AuthSchedule(1800))
        assert result.action == "gps-readmitted"
        assert not state.spoofed_flag and not state.gps_excluded
        assert result.graph is g  # window untouched on success

    def test_authentic_auth_with_clean_detector_only_refreshes_trust(self):
        g = _window_with_gps()
        state = DetectorState()
        result = on_authentication(AuthEvent(0, "authentic"), state, g, AuthSchedule(1800))
        assert result == AuthResult("gps-readmitted", g, g.window_capacity)
        assert state == DetectorState()

    def test_trust_window_spans_one_window_of_steps(self):
        g = _window_with_gps()
        result = on_authentication(AuthEvent(1800, "authentic"), DetectorState(),
                                   g, AuthSchedule(1800))
        assert result.trust_until == 1800 + g.window_capacity

    def test_unscheduled_event_rejected(self):
        g = _window_with_gps()
        with pytest.raises(ValueError):
            on_authentication(AuthEvent(900, "authentic"), DetectorState(),
                              g, AuthSchedule(1800))
