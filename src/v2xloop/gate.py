"""Acceptance gate for V2X event claims: station quorum plus sensor veto.

An event hypothesis is accepted only when at least 2f + 1 distinct
authenticated stations corroborate it inside a recency window AND the
onboard sensor does not contradict it. 2f + 1 tolerates f Byzantine
reporters out of n >= 3f + 1 stations, which `ScenarioSpec` checks (Castro
& Liskov 1999; Malkhi & Reiter 1998, "Byzantine Quorum Systems"). The naive
consumer that believes the first authenticated DENM is the same rule at
f = 0 and eta = 0: one fresh claim reaches the quorum, and no likelihood
lies below 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ldm import ACCEPTED, PENDING, EventHypothesis
from .world import check_range

SUPPORT_RADIUS = 15.0                 # [m] claims farther than this do not count
SENSOR_SUPPORT_RADIUS = 3.0           # [m] detection-to-event match for the veto


@dataclass(frozen=True)
class GateConfig:
    f: int = 3                        # tolerated Byzantine stations
    eta: float = 0.5                  # sensor-likelihood floor
    tau_bft: float = 3.0              # [s] recency window for support

    def __post_init__(self):
        check_range(self, ("eta",), hi=1.0)
        check_range(self, ("f", "tau_bft"))

    def threshold(self) -> float:
        return float(2 * self.f + 1)


REASON_ACCEPTED = "accepted"
REASON_QUORUM = "quorum_fail"
REASON_VETO = "veto_fail"


@dataclass(frozen=True)
class GateDecision:
    accepted: bool
    support: int                      # distinct supporting stations
    sensor_likelihood: float
    decided_at: float
    reason: str


def support(event: EventHypothesis, cfg: GateConfig, now: float) -> int:
    """Number of distinct stations with a fresh, in-radius claim."""
    return sum(1 for recv_time, claim in event.support.values()
               if now - cfg.tau_bft <= recv_time <= now
               and math.hypot(claim[0] - event.position[0],
                              claim[1] - event.position[1]) <= SUPPORT_RADIUS)


def evaluate(event: EventHypothesis, cfg: GateConfig, sensor_likelihood: float,
             now: float) -> GateDecision:
    """Decide one pending hypothesis. Quorum is checked before the veto."""
    n_support = support(event, cfg, now)
    if n_support < cfg.threshold():
        reason, accepted = REASON_QUORUM, False
    elif sensor_likelihood < cfg.eta:
        reason, accepted = REASON_VETO, False
    else:
        reason, accepted = REASON_ACCEPTED, True
    return GateDecision(accepted=accepted, support=n_support,
                        sensor_likelihood=sensor_likelihood, decided_at=now,
                        reason=reason)


def apply_decision(event: EventHypothesis, decision: GateDecision) -> None:
    """Accepted hypotheses latch; everything else stays pending for retry."""
    if decision.accepted and event.status == PENDING:
        event.status = ACCEPTED
        event.accepted_at = decision.decided_at
