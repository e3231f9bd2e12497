"""Quorum-with-veto acceptance gate for V2X event claims."""

from hypothesis import given, settings, strategies as st

from v2xloop.gate import (GateConfig, REASON_ACCEPTED, REASON_QUORUM,
                          REASON_VETO, TAU_BFT, apply_decision, evaluate,
                          support)
from v2xloop.ldm import ACCEPTED, PENDING, EventHypothesis

CFG = GateConfig(f=3)


def _event(position=(50.0, 10.0), support=None, first_seen=1.0):
    return EventHypothesis(event_id="E1", kind="road_closure",
                           position=position, first_seen=first_seen,
                           support=dict(support or {}))


def _support(k, t=5.0, pos=(50.0, 10.0)):
    return {f"s{i}": (t, pos) for i in range(k)}


def test_threshold_default_is_2f_plus_1():
    assert GateConfig(f=3).threshold() == 7.0
    assert GateConfig(f=1).threshold() == 3.0
    assert GateConfig(f=0).threshold() == 1.0


# ---------------------------------------------------------------------------
# support accounting


def test_support_counts_distinct_fresh_stations():
    ev = _event(support=_support(5, t=5.0))
    assert support(ev, now=5.5) == 5.0


def test_support_excludes_stale_claims():
    claims = _support(4, t=5.0)
    claims["old"] = (1.0, (50.0, 10.0))     # older than TAU_BFT before now
    ev = _event(support=claims)
    assert support(ev, now=5.5) == 4.0
    # exactly at the window edge still counts
    edge = _event(support={"e": (2.5, (50.0, 10.0))})
    assert support(edge, now=5.5) == 1.0


def test_support_excludes_future_claims():
    ev = _event(support={"s0": (9.0, (50.0, 10.0))})
    assert support(ev, now=5.0) == 0.0


def test_support_excludes_far_claims():
    claims = {"near": (5.0, (52.0, 10.0)),
              "far": (5.0, (80.0, 10.0))}    # 30 m from the hypothesis
    ev = _event(support=claims)
    assert support(ev, now=5.0) == 1.0


# ---------------------------------------------------------------------------
# decisions


def test_accepts_at_quorum_with_sensor_consent():
    ev = _event(support=_support(7))
    d = evaluate(ev, CFG, sensor_likelihood=0.8, now=5.0)
    assert d.accepted
    assert d.reason == REASON_ACCEPTED
    assert d.support == 7.0


def test_rejects_below_quorum():
    ev = _event(support=_support(6))
    d = evaluate(ev, CFG, sensor_likelihood=1.0, now=5.0)
    assert not d.accepted
    assert d.reason == REASON_QUORUM


def test_sensor_veto_boundary():
    ev = _event(support=_support(8))
    # strictly below eta vetoes; exactly eta passes
    vetoed = evaluate(ev, CFG, sensor_likelihood=0.4, now=5.0)
    assert not vetoed.accepted
    assert vetoed.reason == REASON_VETO
    passed = evaluate(ev, CFG, sensor_likelihood=0.5, now=5.0)
    assert passed.accepted


def test_quorum_checked_before_veto():
    ev = _event(support=_support(2))
    d = evaluate(ev, CFG, sensor_likelihood=0.0, now=5.0)
    assert d.reason == REASON_QUORUM


def test_attacker_minority_never_reaches_quorum():
    # any coalition of at most f distinct stations stays below 2f + 1
    for k in range(CFG.f + 1):
        ev = _event(support=_support(k))
        d = evaluate(ev, CFG, sensor_likelihood=1.0, now=5.0)
        assert not d.accepted


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_colluding_coalition_never_reaches_a_valid_quorum(data):
    # any f and n >= 3f + 1, and at most f colluders agreeing on one forged
    # location with claims at both edges of the TAU_BFT window: a forged
    # event has no honest support, so it stays below 2f + 1, which the n - f
    # honest stations still reach on their own
    f = data.draw(st.integers(0, 12), label="f")
    n = data.draw(st.integers(3 * f + 1, 3 * f + 12), label="n")
    cfg = GateConfig(f=f)
    assert cfg.threshold() <= n - f
    k = data.draw(st.integers(0, f), label="coalition")
    now = data.draw(st.floats(0.0, 100.0), label="now")
    edges = (now - TAU_BFT, now)
    claims = {f"byz-{i}": (data.draw(st.sampled_from(edges)), (50.0, 10.0))
              for i in range(k)}
    event = _event(support=claims)
    assert support(event, now) == k
    d = evaluate(event, cfg, sensor_likelihood=1.0, now=now)
    assert not d.accepted
    assert d.reason == REASON_QUORUM


def test_disabled_gate_believes_first_claim():
    # the naive consumer: one fresh claim is a quorum of 2 * 0 + 1, and no
    # likelihood lies below eta = 0
    cfg = GateConfig(f=0, eta=0.0)
    ev = _event(support=_support(1))
    d = evaluate(ev, cfg, sensor_likelihood=0.0, now=5.0)
    assert d.accepted
    assert d.reason == REASON_ACCEPTED
    empty = evaluate(_event(support={}), cfg, sensor_likelihood=1.0, now=5.0)
    assert not empty.accepted
    assert empty.reason == REASON_QUORUM


# ---------------------------------------------------------------------------
# latching


def test_apply_decision_latches_acceptance():
    ev = _event(support=_support(7), first_seen=1.0)
    d = evaluate(ev, CFG, sensor_likelihood=0.9, now=5.0)
    apply_decision(ev, d)
    assert ev.status == ACCEPTED
    assert ev.accepted_at == 5.0
    # a later failing decision cannot un-accept
    late = evaluate(_event(support={}), CFG, 0.0, now=6.0)
    apply_decision(ev, late)
    assert ev.status == ACCEPTED
    assert ev.accepted_at == 5.0


def test_apply_decision_keeps_pending_on_reject():
    ev = _event(support=_support(3))
    d = evaluate(ev, CFG, sensor_likelihood=0.9, now=5.0)
    apply_decision(ev, d)
    assert ev.status == PENDING
    assert ev.accepted_at is None
