"""Local dynamic map: fusion, association, hypotheses, lifecycle rules."""

import pytest
from hypothesis import given, settings, strategies as st

from v2xloop import ldm
from v2xloop.ldm import (ACCEPTED, EXPIRED, PENDING, EventHypothesis, LdmState,
                         Measurement, Track, associate, fuse_tick, ingest_denm,
                         initial_state, update_belief)
from v2xloop.perception import Detection, SenseFrame
from v2xloop.v2x import CamPayload, DenmPayload, V2xMessage
from v2xloop.world import LaneSegment, MapVersion

MAP0 = MapVersion(0, [LaneSegment("r", [[0.0, 10.0], [100.0, 10.0]], half_width=5.0)])


def _denm(station, pos, kind="stationary_vehicle", recv=1.0, gen=None, seq=0):
    return V2xMessage(msg_kind="DENM", station_id=station, seq_no=seq,
                      gen_time=gen if gen is not None else recv - 0.1,
                      payload=DenmPayload(event_kind=kind, event_position=pos),
                      recv_time=recv)


def _cam(station, pos, vel=(0.0, 0.0), recv=1.0):
    return V2xMessage(msg_kind="CAM", station_id=station, seq_no=0,
                      gen_time=recv - 0.1,
                      payload=CamPayload(position=pos, velocity=vel),
                      recv_time=recv)


def _frame(t, detections=(), ego=(0.0, 10.0, 0.0), max_range=25.0):
    return SenseFrame(timestamp=t, ego_pose=ego, detections=tuple(detections),
                      max_range=max_range)


def _det(wx, wy, conf=0.9, vel=(0.0, 0.0)):
    return Detection(confidence=conf, world_position=(wx, wy), world_velocity=vel)


def _tick(state, t, frames=(), v2x=()):
    """One fusion step on MAP0."""
    return fuse_tick(state, t, list(v2x), MAP0, list(frames))


# ---------------------------------------------------------------------------
# belief algebra


def test_update_belief_sensor_oracle():
    # odds 1 * 3 = 3 -> 3/4
    assert update_belief(0.5, ldm.LR_DETECT, 0) == pytest.approx(0.75)


def test_update_belief_sensor_plus_cam_oracle():
    # odds 1 * 3 * 2 = 6 -> 6/7
    b = update_belief(0.5, ldm.LR_DETECT, 1)
    assert b == pytest.approx(6.0 / 7.0)


def test_update_belief_one_lr_cam_per_station():
    # two stations: odds 1 * 3 * 2 * 2 = 12 -> 12/13
    b = update_belief(0.5, ldm.LR_DETECT, 2)
    assert b == pytest.approx(12.0 / 13.0)


def test_update_belief_contradiction():
    assert ldm.LR_ABSENT == 0.2
    b = update_belief(0.5, ldm.LR_ABSENT, 0)
    assert b == pytest.approx(0.2 / 1.2)


def test_update_belief_rejects_bad_ratios():
    with pytest.raises(ValueError):
        update_belief(0.5, 0.0, 0)
    with pytest.raises(ValueError):
        update_belief(0.5, float("inf"), 0)


@settings(max_examples=200, deadline=None)
@given(b=st.floats(0.0, 1.0),
       lr=st.floats(0.01, 100.0),
       cams=st.integers(0, 4))
def test_update_belief_stays_clamped(b, lr, cams):
    out = update_belief(b, lr, cams)
    assert ldm.BELIEF_FLOOR <= out <= ldm.BELIEF_CEILING
    # evidence direction is monotone when unsupported by V2X
    if not cams and ldm.BELIEF_FLOOR < b < ldm.BELIEF_CEILING:
        if lr > 1.0:
            assert out >= b - 1e-12
        elif lr < 1.0:
            assert out <= b + 1e-12


# ---------------------------------------------------------------------------
# association


def _track(tid, pos, vel=(0.0, 0.0), belief=0.6, t=0.0):
    return Track(track_id=tid, position=pos, velocity=vel, belief=belief,
                 last_update=t)


def _meas(pos, source="sensor", conf=0.9, vel=(0.0, 0.0)):
    return Measurement(position=pos, velocity=vel, confidence=conf, source=source)


def _predicted(tracks, now=1.0):
    return {tr.track_id: tr.predicted(now) for tr in tracks}


def test_associate_nearest_within_gate():
    tracks = [_track("T1", (10.0, 0.0)), _track("T2", (20.0, 0.0))]
    ms = [_meas((10.5, 0.0)), _meas((19.2, 0.0)), _meas((50.0, 0.0))]
    assigned, births = associate(ms, _predicted(tracks), d_gate=2.0)
    assert [m.position for m in assigned["T1"]] == [(10.5, 0.0)]
    assert [m.position for m in assigned["T2"]] == [(19.2, 0.0)]
    assert [m.position for m in births] == [(50.0, 0.0)]


def test_associate_track_collects_sensor_and_cam():
    tracks = [_track("T1", (10.0, 0.0))]
    ms = [_meas((10.3, 0.0)), _meas((9.8, 0.1), source="cam:obu-a")]
    assigned, births = associate(ms, _predicted(tracks), d_gate=2.0)
    assert len(assigned["T1"]) == 2
    assert births == []


def test_associate_measurement_lands_once():
    # two tracks inside the gate: the measurement goes to the nearer one only
    tracks = [_track("T1", (10.0, 0.0)), _track("T2", (11.0, 0.0))]
    assigned, births = associate([_meas((10.2, 0.0))], _predicted(tracks), 2.0)
    assert "T1" in assigned and "T2" not in assigned
    assert births == []


def test_associate_uses_predicted_position():
    moving = _track("T1", (10.0, 10.0), vel=(5.0, 0.0), t=0.0)
    state = LdmState(stamp=0.0, objects=[moving], events=[], active_map=MAP0)
    # at t=1 the track predicts to x=15, 5 m from where it was last seen; a
    # hit there must update it, not give birth to a second track
    state = _tick(state, 1.0, frames=[_frame(1.0, [_det(15.1, 10.0, vel=(5.0, 0.0))])])
    assert [tr.track_id for tr in state.objects] == ["T1"]
    assert state.objects[0].position == pytest.approx((15.0 + ldm.POSITION_ALPHA * 0.1, 10.0))


# ---------------------------------------------------------------------------
# track lifecycle through fuse_tick


def test_birth_starts_below_obstacle_threshold():
    state = initial_state(MAP0)
    state = _tick(state, 0.05, frames=[_frame(0.05, [_det(12.0, 10.0)])])
    assert len(state.objects) == 1
    assert state.objects[0].belief == ldm.B_BIRTH
    assert state.obstacles(0.6) == []    # one hit is not yet an obstacle


def test_second_hit_confirms():
    state = initial_state(MAP0)
    state = _tick(state, 0.05, frames=[_frame(0.05, [_det(12.0, 10.0)])])
    state = _tick(state, 0.10, frames=[_frame(0.10, [_det(12.1, 10.0)])])
    assert len(state.objects) == 1
    assert state.objects[0].belief == pytest.approx(0.75)
    assert len(state.obstacles(0.6)) == 1


def test_low_confidence_birth_rejected():
    state = initial_state(MAP0)
    state = _tick(state, 0.05,
                  frames=[_frame(0.05, [_det(12.0, 10.0, conf=0.2)])])
    assert state.objects == []


def test_covered_silence_erodes_belief():
    state = initial_state(MAP0)
    state = _tick(state, 0.05, frames=[_frame(0.05, [_det(12.0, 10.0)])])
    state = _tick(state, 0.10, frames=[_frame(0.10, [_det(12.0, 10.0)])])
    b_confirmed = state.objects[0].belief
    # covering frame, no detection: absence evidence at lr_absent
    state = _tick(state, 0.15, frames=[_frame(0.15)])
    assert len(state.objects) == 1
    b_after = state.objects[0].belief
    odds = b_confirmed / (1.0 - b_confirmed) * ldm.LR_ABSENT
    assert b_after == pytest.approx(odds / (1.0 + odds))


def test_uncovered_track_keeps_belief():
    state = initial_state(MAP0)
    state = _tick(state, 0.05, frames=[_frame(0.05, [_det(12.0, 10.0)])])
    b0 = state.objects[0].belief
    # a frame that cannot see the track site: no evidence either way
    state = _tick(state, 0.10,
                  frames=[_frame(0.10, ego=(90.0, 10.0, 0.0), max_range=5.0)])
    assert state.objects[0].belief == b0


def test_stale_track_dropped():
    state = initial_state(MAP0)
    state = _tick(state, 0.05, frames=[_frame(0.05, [_det(12.0, 10.0)])])
    # no frames at all for longer than tau_stale
    state = _tick(state, 0.05 + ldm.TAU_STALE + 0.05)
    assert state.objects == []


def test_cam_measurements_support_tracks():
    state = initial_state(MAP0)
    state = _tick(state, 0.05, frames=[_frame(0.05, [_det(12.0, 10.0)])])
    # CAM only, no sensing frame: belief rises by lr_cam
    state = _tick(state, 0.10, v2x=[_cam("obu-a", (12.0, 10.0), recv=0.10)])
    # odds 1 * 2 = 2 -> 2/3
    assert state.objects[0].belief == pytest.approx(2.0 / 3.0)


def test_track_ids_are_sequential():
    state = initial_state(MAP0)
    state = _tick(state, 0.05, frames=[
        _frame(0.05, [_det(12.0, 10.0), _det(30.0, 10.0)])])
    assert sorted(tr.track_id for tr in state.objects) == ["T1", "T2"]
    assert state.tracks_born == 2
    # the count carries over to the next tick's births
    state = _tick(state, 0.10, frames=[
        _frame(0.10, [_det(12.0, 10.0), _det(30.0, 10.0), _det(60.0, 10.0)])])
    assert sorted(tr.track_id for tr in state.objects) == ["T1", "T2", "T3"]
    assert state.tracks_born == 3


# ---------------------------------------------------------------------------
# event hypotheses


def test_ingest_denm_opens_pending_hypothesis():
    events = []
    out = ingest_denm(_denm("rsu-0", (50.0, 10.0)), events)
    assert out is not None
    assert out.status == PENDING
    assert out.event_id == "E1"
    assert sorted(out.support) == ["rsu-0"]
    assert out.position == (50.0, 10.0)


def test_ingest_denm_merges_same_kind_nearby():
    events = []
    ingest_denm(_denm("rsu-0", (50.0, 10.0)), events)
    ingest_denm(_denm("rsu-1", (52.0, 10.0), recv=1.5), events)
    assert len(events) == 1
    assert sorted(events[0].support) == ["rsu-0", "rsu-1"]
    # pending refresh: position is the plain mean of the claims
    assert events[0].position == pytest.approx((51.0, 10.0))


def test_ingest_denm_kinds_never_mix():
    events = []
    ingest_denm(_denm("rsu-0", (50.0, 10.0), kind="debris"), events)
    ingest_denm(_denm("rsu-1", (50.5, 10.0), kind="road_closure"), events)
    assert len(events) == 2


def test_ingest_denm_merge_window_expires():
    events = []
    ingest_denm(_denm("rsu-0", (50.0, 10.0), recv=1.0), events)
    # next claim arrives past the merge window: separate hypothesis
    ingest_denm(_denm("rsu-1", (50.0, 10.0),
                      recv=1.0 + ldm.EVENT_MERGE_WINDOW + 0.5),
                events)
    assert len(events) == 2


def test_ingest_denm_latest_claim_per_station_wins():
    events = []
    ingest_denm(_denm("rsu-0", (50.0, 10.0), recv=1.0), events)
    ingest_denm(_denm("rsu-0", (52.0, 10.0), recv=2.0, seq=1), events)
    assert len(events) == 1
    assert len(events[0].support) == 1
    assert events[0].support["rsu-0"][0] == 2.0
    assert events[0].position == pytest.approx((52.0, 10.0))


def test_ingest_denm_rejects_cam():
    with pytest.raises(ValueError):
        ingest_denm(_cam("obu-a", (0.0, 0.0)), [])


def test_accepted_event_position_eases_in():
    events = []
    hyp = ingest_denm(_denm("rsu-0", (50.0, 10.0), recv=1.0), events)
    hyp.status = ACCEPTED
    ingest_denm(_denm("rsu-0", (54.0, 10.0), recv=2.0, seq=1), events)
    # EMA with alpha: 50 + 0.25 * (54 - 50) = 51
    assert hyp.position[0] == pytest.approx(51.0)


def test_refresh_position_noop_without_claims():
    hyp = EventHypothesis(event_id="E1", kind="debris", position=(1.0, 2.0),
                          first_seen=0.0)
    hyp.refresh_position()
    assert hyp.position == (1.0, 2.0)


def test_pending_hypothesis_expires():
    state = initial_state(MAP0)
    state = _tick(state, 1.0, v2x=[_denm("rsu-0", (50.0, 10.0), recv=1.0)])
    assert state.events[0].status == PENDING
    state = _tick(state, 1.0 + ldm.TAU_EVENT + 0.1)
    assert state.events[0].status == EXPIRED
    assert state.accepted_events() == []


def test_accepted_events_listing():
    state = initial_state(MAP0)
    state = _tick(state, 1.0, v2x=[_denm("rsu-0", (50.0, 10.0), recv=1.0)])
    state.events[0].status = ACCEPTED
    assert state.accepted_events() == [state.events[0]]


def test_initial_state_empty():
    state = initial_state(MAP0)
    assert state.stamp == 0.0
    assert state.objects == [] and state.events == []
    assert state.active_map.version_id == 0
