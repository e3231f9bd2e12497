"""Acceptance gate for V2X event claims: weighted quorum plus sensor veto.

An event hypothesis is accepted only when enough distinct authenticated
stations corroborate it inside a recency window AND the onboard sensor does
not contradict it. With uniform weights the threshold 2f + 1 tolerates f
Byzantine reporters out of n >= 3f + 1 stations, which `ScenarioSpec`
checks. Disabling the gate reproduces the naive consumer: the first
authenticated DENM is believed outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ldm import ACCEPTED, PENDING, EventHypothesis


@dataclass(frozen=True)
class GateConfig:
    f: int = 3                        # tolerated Byzantine stations
    quorum: float | None = None       # defaults to 2f + 1 with unit weights
    eta: float = 0.5                  # sensor-likelihood floor
    support_radius: float = 15.0      # [m] claims farther than this do not count
    sensor_support_radius: float = 3.0  # [m] detection-to-event match for the veto
    tau_bft: float = 3.0              # [s] recency window for support
    enabled: bool = True
    weights: dict | None = None       # station_id -> weight, default 1.0

    def threshold(self) -> float:
        return float(2 * self.f + 1) if self.quorum is None else float(self.quorum)

    def weight_of(self, station_id: str) -> float:
        if self.weights is None:
            return 1.0
        return float(self.weights.get(station_id, 1.0))


REASON_ACCEPTED = "accepted"
REASON_QUORUM = "quorum_fail"
REASON_VETO = "veto_fail"


@dataclass(frozen=True)
class GateDecision:
    event_id: str
    accepted: bool
    support_weight: float
    sensor_likelihood: float
    decided_at: float
    reason: str


def support_weight(event: EventHypothesis, cfg: GateConfig, now: float) -> float:
    """Sum of weights over distinct stations with a fresh, in-radius claim."""
    total = 0.0
    for station_id, (recv_time, claim) in event.support.items():
        if recv_time < now - cfg.tau_bft or recv_time > now:
            continue
        d = math.hypot(claim[0] - event.position[0], claim[1] - event.position[1])
        if d > cfg.support_radius:
            continue
        total += cfg.weight_of(station_id)
    return total


def evaluate(event: EventHypothesis, cfg: GateConfig, sensor_likelihood: float,
             now: float) -> GateDecision:
    """Decide one pending hypothesis. Quorum is checked before the veto."""
    weight = support_weight(event, cfg, now)

    if not cfg.enabled:
        accepted = len(event.support) > 0
        return GateDecision(event_id=event.event_id, accepted=accepted,
                            support_weight=weight,
                            sensor_likelihood=sensor_likelihood,
                            decided_at=now,
                            reason=REASON_ACCEPTED if accepted else REASON_QUORUM)

    if weight < cfg.threshold():
        reason, accepted = REASON_QUORUM, False
    elif sensor_likelihood < cfg.eta:
        reason, accepted = REASON_VETO, False
    else:
        reason, accepted = REASON_ACCEPTED, True
    return GateDecision(event_id=event.event_id, accepted=accepted,
                        support_weight=weight, sensor_likelihood=sensor_likelihood,
                        decided_at=now, reason=reason)


def apply_decision(event: EventHypothesis, decision: GateDecision) -> None:
    """Accepted hypotheses latch; everything else stays pending for retry."""
    if decision.accepted and event.status == PENDING:
        event.status = ACCEPTED
        event.accepted_at = decision.decided_at
