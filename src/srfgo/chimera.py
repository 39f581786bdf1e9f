"""Periodic GPS authentication state machine.

Authentication arrives on a fixed epoch grid (180 s slow channel).  A
successful event is ground truth that the received GPS was authentic: it
clears any detector latch, re-admits GPS, and opens a trust window during
which detection trials are logged but do not latch.  A failed event forces
mitigation; its "gps-excluded" action is what flags a run as fail-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, TYPE_CHECKING

from .detector import DetectorState, mitigate

if TYPE_CHECKING:
    from .solver import SolverParams, WindowGraph

SLOW_CHANNEL_PERIOD_S = 180.0

OUTCOMES = ("authentic", "failed")


@dataclass(frozen=True)
class AuthSchedule:
    epoch_length_steps: int
    channel: str = "slow"

    def __post_init__(self):
        if self.epoch_length_steps < 1:
            raise ValueError(
                f"epoch length must be >= 1 step, got {self.epoch_length_steps}")


def slow_channel(dt: float = 0.1) -> AuthSchedule:
    """Slow-channel schedule: one authentication every 180 s."""
    steps = SLOW_CHANNEL_PERIOD_S / dt
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError(f"dt={dt} does not divide the {SLOW_CHANNEL_PERIOD_S} s epoch")
    return AuthSchedule(int(round(steps)), "slow")


@dataclass(frozen=True)
class AuthEvent:
    time_index: int
    outcome: str

    def __post_init__(self):
        if self.time_index < 0:
            raise ValueError(f"time index must be >= 0, got {self.time_index}")
        if self.outcome not in OUTCOMES:
            raise ValueError(f"outcome must be one of {OUTCOMES}, got {self.outcome!r}")


class AuthResult(NamedTuple):
    action: str            # "gps-readmitted" | "gps-excluded"
    graph: "WindowGraph"   # mitigated copy on failure, input graph otherwise
    trust_until: int       # node step through which crossings do not latch


def on_authentication(event: AuthEvent, state: DetectorState,
                      graph: "WindowGraph", sched: AuthSchedule,
                      params: "SolverParams" = None) -> AuthResult:
    """Apply one authentication outcome to the detector state and window.

    Success overrides the detector: the latch is cleared even if it was set
    by a (now disproven) detection, and GPS is trusted for the next window's
    worth of steps.  Failure latches, strips GPS from the window, and keeps
    GPS excluded until the next successful authentication; ``params`` are
    the solver settings for re-optimizing the stripped window.
    """
    if event.time_index % sched.epoch_length_steps != 0:
        raise ValueError(
            f"authentication at step {event.time_index} is off the "
            f"{sched.epoch_length_steps}-step schedule")
    if event.outcome == "authentic":
        state.spoofed_flag = False
        state.gps_excluded = False
        return AuthResult("gps-readmitted", graph,
                          event.time_index + graph.window_capacity)
    state.spoofed_flag = True
    cleaned = mitigate(graph, state, params)
    return AuthResult("gps-excluded", cleaned, event.time_index)
