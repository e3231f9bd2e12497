"""Local dynamic map: fusion, association, hypotheses, lifecycle rules."""

import pytest
from hypothesis import given, settings, strategies as st

from v2xloop import ldm
from v2xloop.ldm import (ACCEPTED, EXPIRED, PENDING, EventHypothesis, LdmState,
                         Track, associate, fuse_tick, ingest_denm, initial_state,
                         update_belief)
from v2xloop.perception import Detection, SenseFrame
from v2xloop.v2x import CamPayload, DenmPayload, V2xMessage
from v2xloop.world import HAZARD_KINDS, LaneSegment, MapVersion

from oracles import fuse_tick as old_fuse_tick

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


def _predicted(tracks, now=1.0):
    """associate's track arguments: predictions and ids, by track index."""
    return [tr.predicted(now) for tr in tracks], [tr.track_id for tr in tracks]


def test_associate_nearest_within_gate():
    tracks = [_track("T1", (10.0, 0.0)), _track("T2", (20.0, 0.0))]
    points = [(10.5, 0.0), (19.2, 0.0), (50.0, 0.0)]
    assigned, births = associate(points, *_predicted(tracks), d_gate=2.0)
    assert assigned == [[0], [1]]
    assert births == [2]


def test_associate_track_collects_sensor_and_cam():
    # a detection 0.3 m off and a CAM 0.22 m off: the nearer is taken first
    tracks = [_track("T1", (10.0, 0.0))]
    assigned, births = associate([(10.3, 0.0), (9.8, 0.1)], *_predicted(tracks),
                                 d_gate=2.0)
    assert assigned == [[1, 0]]
    assert births == []


def test_associate_measurement_lands_once():
    # two tracks inside the gate: the measurement goes to the nearer one only
    tracks = [_track("T1", (10.0, 0.0)), _track("T2", (11.0, 0.0))]
    assigned, births = associate([(10.2, 0.0)], *_predicted(tracks), 2.0)
    assert assigned == [[0], []]
    assert births == []


def test_associate_breaks_a_distance_tie_by_track_id():
    # both points lie 1 m from both tracks: each goes to the lower id as a
    # string, "T10" < "T9", whatever the track order
    tracks = [_track("T9", (10.0, 0.0)), _track("T10", (12.0, 0.0))]
    assigned, births = associate([(11.0, 0.0), (11.0, 0.0)], *_predicted(tracks), 2.0)
    assert assigned == [[], [0, 1]]
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


def test_a_track_a_cam_moves_is_checked_for_coverage_where_it_moved():
    # the track at x = 12 lies outside the 11.5 m frame; the CAM at x = 10
    # pulls it to 12 + POSITION_ALPHA * (10 - 12) = 11.3, inside, where the
    # frame saw nothing: absence evidence, with the CAM's station ratio
    track = _track("T1", (12.0, 10.0), belief=0.5, t=1.0)
    state = LdmState(stamp=1.0, objects=[track], events=[], active_map=MAP0,
                     tracks_born=1)
    state = _tick(state, 1.05, frames=[_frame(1.05, max_range=11.5)],
                  v2x=[_cam("obu-a", (10.0, 10.0), recv=1.05)])
    assert state.objects[0].position[0] == pytest.approx(11.3)
    assert state.objects[0].belief == update_belief(0.5, ldm.LR_ABSENT, 1)


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


# ---------------------------------------------------------------------------
# the one-pass fusion step against the one it replaced


# half-metre lattice points, so distances tie, and any point near them
_xy = st.one_of(st.tuples(*[st.integers(0, 16).map(lambda k: k * 0.5)] * 2),
                st.tuples(*[st.floats(-1.0, 9.0)] * 2))
_vel = st.one_of(st.just((0.0, 0.0)), st.tuples(*[st.floats(-3.0, 3.0)] * 2))
# three stations, so one station often sends two CAMs in a tick
_station = st.sampled_from(["obu-a", "obu-b", "rsu-0"])


@st.composite
def _fusion_tick(draw, t, anchors):
    """(frames, deliveries) of one tick at t: frames that cover the lattice
    or not, with detections of any confidence; CAMs and DENMs in any order.
    Half the points lie within 1 m of one of `anchors` in each axis, so a
    track often collects three or more measurements, whose sum rounds
    differently in another order."""
    near = st.builds(lambda a, dx, dy: (a[0] + dx, a[1] + dy),
                     st.sampled_from(anchors), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    points = st.one_of(_xy, near) if anchors else _xy
    frames = []
    for _ in range(draw(st.integers(0, 2))):
        dets = draw(st.lists(st.builds(lambda p, c, v: _det(*p, conf=c, vel=v),
                                       points, st.sampled_from([0.2, 0.5, 0.9]), _vel),
                             max_size=4))
        # a frame covers every track, some of them, or none
        ego, max_range = draw(st.one_of(st.just(((4.0, 4.0, 0.0), 25.0)),
                                        st.tuples(st.just((4.0, 4.0, 0.0)),
                                                  st.floats(0.5, 6.0)),
                                        st.just(((90.0, 90.0, 0.0), 5.0))))
        frames.append(_frame(t, dets, ego=ego, max_range=max_range))
    cams = st.builds(lambda s, p, v: _cam(s, p, v, recv=t), _station, points, _vel)
    denms = st.builds(lambda s, p, k: _denm(s, (p[0] * 4.0, p[1] * 4.0), kind=k, recv=t),
                      _station, points, st.sampled_from(HAZARD_KINDS))
    return frames, draw(st.lists(st.one_of(cams, denms), max_size=5))


def _fusion_state(tracks, born):
    """A fresh LdmState holding fresh copies of `tracks`' rows."""
    return LdmState(stamp=0.0, objects=[Track(*row) for row in tracks], events=[],
                    active_map=MAP0, tracks_born=born)


def _fused(state):
    return repr(([(tr.track_id, tr.position, tr.velocity, tr.belief, tr.last_update)
                  for tr in state.objects], state.tracks_born, state.stamp,
                 [(e.event_id, e.kind, e.position, e.first_seen, e.support, e.status,
                   e.accepted_at) for e in state.events]))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 12))
def test_fuse_tick_matches_the_record_per_measurement_fusion_bit_for_bit(data, n):
    # up to twelve tracks in any order, so an id tie-break compares "T10"
    # with "T9"; ticks far enough apart that tracks go stale and pending
    # hypotheses expire
    order = data.draw(st.permutations(range(n)))
    tracks = [(f"T{i + 1}", data.draw(_xy), data.draw(_vel),
               data.draw(st.floats(0.01, 0.99)), data.draw(st.floats(0.0, 1.0)))
              for i in order]
    new, old = _fusion_state(tracks, n), _fusion_state(tracks, n)
    t = 1.0
    for _ in range(data.draw(st.integers(1, 4))):
        t += data.draw(st.sampled_from([0.05, 0.1, 0.7, 1.2, 6.0]))
        frames, v2x = data.draw(_fusion_tick(t, [row[1] for row in tracks]))
        new = fuse_tick(new, t, v2x, MAP0, frames)
        old = old_fuse_tick(old, t, v2x, MAP0, frames)
        assert _fused(new) == _fused(old)
