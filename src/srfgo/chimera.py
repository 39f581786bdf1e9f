"""Periodic GPS authentication outcomes.

Authentication arrives on a fixed epoch grid (180 s slow channel).  A
successful event is ground truth that the received GPS was authentic: it
clears any detector latch, re-admits GPS, and opens a trust window during
which detection trials are logged but do not latch.  A failed event forces
mitigation and latches; its "gps-excluded" action is what flags a run as
fail-safe.  The latch itself is held by the caller (srfgo.harness.run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, TYPE_CHECKING

from .detector import mitigate

if TYPE_CHECKING:
    from .solver import WindowGraph

SLOW_CHANNEL_PERIOD_S = 180.0

OUTCOMES = ("authentic", "failed")


def slow_channel(dt: float) -> int:
    """Steps per slow-channel epoch: one authentication every 180 s."""
    steps = SLOW_CHANNEL_PERIOD_S / dt
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError(f"dt={dt} does not divide the {SLOW_CHANNEL_PERIOD_S} s epoch")
    return int(round(steps))


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
    action: str            # "gps-readmitted" | "gps-excluded" (latched)
    graph: "WindowGraph"   # mitigated (dead-reckoned) on failure, else the input
    trust_until: int       # node step through which crossings do not latch


def on_authentication(event: AuthEvent, graph: "WindowGraph",
                      epoch_steps: int) -> AuthResult:
    """Apply one authentication outcome to the window.

    Success overrides the detector: the latch clears even if a (now
    disproven) detection set it, and GPS is trusted for the next window's
    worth of steps.  Failure latches: it strips GPS from the window, which
    coasts on dead reckoning, unsolved, until the next successful one.
    """
    if event.time_index % epoch_steps != 0:
        raise ValueError(
            f"authentication at step {event.time_index} is off the "
            f"{epoch_steps}-step schedule")
    if event.outcome == "authentic":
        return AuthResult("gps-readmitted", graph,
                          event.time_index + graph.window_capacity)
    return AuthResult("gps-excluded", mitigate(graph), event.time_index)
