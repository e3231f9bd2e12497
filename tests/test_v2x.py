"""Message generation, the lossy channel, and the Byzantine attackers."""

import math
import re

import numpy as np
import pytest

from v2xloop.rng import stream
from v2xloop.scenarios import build_s4, spec_from_dict, spec_to_dict
from v2xloop.v2x import (CAM, CAM_PERIOD, DENM, HONEST_REPORT_NOISE_SIGMA, AttackPolicy,
                         ChannelModel, Station, StationPopulation, V2xMessage,
                         generate_attack_traffic, generate_honest_traffic,
                         transmit)
from v2xloop.world import GroundTruthHazard, Route, WorldObject

DT = 0.05
BOUNDS = (0.0, 0.0, 100.0, 100.0)     # map extent for uniform_in_map placement


def _population(byz=frozenset()):
    stations = (
        Station("rsu-0", (10.0, 5.0), sensing_range=50.0),
        Station("rsu-1", (40.0, 5.0), sensing_range=50.0),
        Station("obu-a", (0.0, 0.0), sensing_range=40.0, bound_object="veh-a"),
    )
    return StationPopulation(stations=stations, byzantine_ids=byz)


def _hazard(x=20.0, y=0.0, spawn=1.0):
    return GroundTruthHazard(hazard_id="hz-0", position=(x, y),
                             kind="stationary_vehicle", spawn_time=spawn)


def _route():
    return Route(reference_path=np.array([[0.0, 0.0], [100.0, 0.0]]),
                 goal_pose=(100.0, 0.0, 0.0))


def _gen(pop, t, hazards=(), truth=(), started=None, seq=None, seed=0):
    return generate_honest_traffic(
        pop, truth, hazards, t, DT, seq if seq is not None else {},
        stream(seed, "v2x_honest"),
        denm_started=started if started is not None else set())


# ---------------------------------------------------------------------------
# population validation


def test_population_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        StationPopulation(stations=(Station("a", (0, 0)), Station("a", (1, 1))))


def test_population_rejects_unknown_byzantine():
    with pytest.raises(ValueError, match="^byzantine_ids: "):
        StationPopulation(stations=(Station("a", (0, 0)),),
                          byzantine_ids=frozenset({"ghost"}))


def test_population_partitions():
    pop = _population(byz=frozenset({"rsu-1"}))
    assert len(pop.stations) == 3
    assert {s.station_id for s in pop.honest()} == {"rsu-0", "obu-a"}
    assert {s.station_id for s in pop.byzantine()} == {"rsu-1"}


# ---------------------------------------------------------------------------
# honest traffic


def test_cams_only_from_vehicle_bound_stations():
    truth = [WorldObject("veh-a", (3.0, 1.0), (5.0, 0.0))]
    msgs = _gen(_population(), 0.0, truth=truth)
    cams = [m for m in msgs if m.msg_kind == CAM]
    assert len(cams) == 1
    assert cams[0].station_id == "obu-a"
    payload = cams[0].payload
    # reported state tracks the bound vehicle, not the station's rest position
    assert math.hypot(payload.position[0] - 3.0, payload.position[1] - 1.0) < 3.0


def test_cam_beacon_schedule():
    truth = [WorldObject("veh-a", (3.0, 1.0), (5.0, 0.0))]
    pop = _population()
    on_mark = _gen(pop, CAM_PERIOD, truth=truth)
    off_mark = _gen(pop, 1.5 * CAM_PERIOD, truth=truth)
    assert any(m.msg_kind == CAM for m in on_mark)
    assert not any(m.msg_kind == CAM for m in off_mark)


def test_first_denm_is_event_triggered():
    """A station reports a hazard on the first tick it sees it, between marks."""
    pop = _population()
    started = set()
    # hazard spawns at 1.0; at t=1.0 the period mark also lands, so use a
    # started-set carried past the first emission to probe the off marks
    msgs = _gen(pop, 1.0, hazards=[_hazard(spawn=1.0)], started=started)
    denms = [m for m in msgs if m.msg_kind == DENM]
    assert {m.station_id for m in denms} == {"rsu-0", "rsu-1", "obu-a"}
    # next tick, same started set: no duplicate first reports
    msgs = _gen(pop, 1.05, hazards=[_hazard(spawn=1.0)], started=started)
    assert not [m for m in msgs if m.msg_kind == DENM]
    # one full period later they all repeat
    msgs = _gen(pop, 2.0, hazards=[_hazard(spawn=1.0)], started=started)
    assert len([m for m in msgs if m.msg_kind == DENM]) == 3


def test_denm_requires_sensing_range():
    pop = _population()
    far = GroundTruthHazard(hazard_id="hz-9", position=(500.0, 0.0),
                            kind="debris", spawn_time=0.0)
    msgs = _gen(pop, 0.0, hazards=[far])
    assert not [m for m in msgs if m.msg_kind == DENM]


def test_seq_numbers_increment_per_station():
    pop = _population()
    seq = {}
    started = set()
    truth = [WorldObject("veh-a", (3.0, 1.0), (5.0, 0.0))]
    for k in range(40):
        _gen(pop, k * DT, hazards=[_hazard(spawn=0.0)], truth=truth,
             started=started, seq=seq)
    assert seq["obu-a"] > seq["rsu-0"] > 0   # CAMs outpace DENMs
    # replaying with fresh bookkeeping gives identical counters
    seq2 = {}
    started2 = set()
    for k in range(40):
        _gen(pop, k * DT, hazards=[_hazard(spawn=0.0)], truth=truth,
             started=started2, seq=seq2)
    assert seq2 == seq


def test_honest_report_noise_sigma():
    pop = _population()
    rng = stream(11, "v2x_honest")
    errs = []
    for k in range(1500):
        msgs = generate_honest_traffic(pop, [], [_hazard(spawn=0.0)],
                                       k * 1.0, DT, {}, rng,
                                       denm_started=set())
        for m in msgs:
            if m.msg_kind == DENM:
                errs.append(m.payload.event_position[0] - 20.0)
    assert float(np.std(errs)) == pytest.approx(HONEST_REPORT_NOISE_SIGMA, rel=0.1)


# ---------------------------------------------------------------------------
# attack traffic


def test_attack_emits_only_from_byzantine_stations():
    pop = _population(byz=frozenset({"rsu-0", "rsu-1"}))
    policy = AttackPolicy()
    msgs = generate_attack_traffic(policy, pop, _route(), (5.0, 0.0), 0.0, DT, {},
                                   stream(2, "attack"), BOUNDS)
    assert {m.station_id for m in msgs} == {"rsu-0", "rsu-1"}
    for m in msgs:
        assert m.msg_kind == DENM
        assert m.payload.event_kind == "road_closure"


def test_colluding_attackers_share_one_location():
    pop = _population(byz=frozenset({"rsu-0", "rsu-1"}))
    msgs = generate_attack_traffic(AttackPolicy(), pop, _route(), (5.0, 0.0),
                                   0.0, DT, {}, stream(3, "attack"), BOUNDS)
    positions = {m.payload.event_position for m in msgs}
    assert len(positions) == 1
    x, y = positions.pop()
    # placed inside the configured window ahead of the ego
    assert 15.0 <= x <= 45.0
    assert abs(y) < 1e-9


def test_attack_respects_start_time_and_period():
    pop = _population(byz=frozenset({"rsu-0"}))
    policy = AttackPolicy(start_time=2.0, emission_period=1.0)
    assert not generate_attack_traffic(policy, pop, _route(), (0.0, 0.0), 0.0, DT,
                                       {}, stream(4, "attack"), BOUNDS)
    assert generate_attack_traffic(policy, pop, _route(), (0.0, 0.0), 2.0, DT,
                                   {}, stream(4, "attack"), BOUNDS)
    assert not generate_attack_traffic(policy, pop, _route(), (0.0, 0.0), 2.5, DT,
                                       {}, stream(4, "attack"), BOUNDS)
    assert generate_attack_traffic(policy, pop, _route(), (0.0, 0.0), 3.0, DT,
                                   {}, stream(4, "attack"), BOUNDS)


def test_attack_no_byzantine_no_messages():
    msgs = generate_attack_traffic(AttackPolicy(), _population(), _route(),
                                   (0.0, 0.0), 0.0, DT, {}, stream(5, "attack"),
                                   BOUNDS)
    assert msgs == []


def test_attack_uniform_placement_in_bounds():
    pop = _population(byz=frozenset({"rsu-0"}))
    policy = AttackPolicy(placement="uniform_in_map")
    rng = stream(6, "attack")
    for t in range(30):
        for m in generate_attack_traffic(policy, pop, _route(), (0.0, 0.0), float(t),
                                         DT, {}, rng,
                                         map_bounds=(0.0, 0.0, 50.0, 30.0)):
            x, y = m.payload.event_position
            assert 0.0 <= x <= 50.0 and 0.0 <= y <= 30.0


def test_attack_rejects_unknown_placement():
    # rejected when the policy is built, not mid-episode
    with pytest.raises(ValueError, match="^placement: "):
        AttackPolicy(placement="teleport")
    d = spec_to_dict(build_s4())
    d["attack"]["placement"] = "bogus"
    with pytest.raises(ValueError, match="^" + re.escape("scenario.attack.placement: ")):
        spec_from_dict(d)


def test_attack_rejects_unknown_event_kind():
    # a kind without a hazard footprint would otherwise plan with a guessed radius
    with pytest.raises(ValueError, match="^false_event_kind: "):
        AttackPolicy(false_event_kind="meteor")
    d = spec_to_dict(build_s4())
    d["attack"]["false_event_kind"] = "meteor"
    with pytest.raises(ValueError,
                       match="^" + re.escape("scenario.attack.false_event_kind: ")):
        spec_from_dict(d)


# ---------------------------------------------------------------------------
# channel


def _burst(n):
    return [V2xMessage(msg_kind=CAM, station_id=f"s{i % 3}", seq_no=i,
                       gen_time=0.0, payload=None) for i in range(n)]


def test_transmit_applies_latency():
    ch = ChannelModel(drop_prob=0.0, latency_mean=0.14, latency_jitter=0.0)
    out = transmit(_burst(5), ch, stream(8, "channel"))
    assert len(out) == 5
    for m in out:
        assert m.recv_time == pytest.approx(0.14)


def test_transmit_drop_rate():
    ch = ChannelModel(drop_prob=0.3, latency_mean=0.1, latency_jitter=0.0)
    out = transmit(_burst(5000), ch, stream(9, "channel"))
    assert len(out) / 5000 == pytest.approx(0.7, abs=0.02)


def test_transmit_latency_jitter_distribution():
    ch = ChannelModel(drop_prob=0.0, latency_mean=0.14, latency_jitter=0.025)
    out = transmit(_burst(4000), ch, stream(10, "channel"))
    lat = np.array([m.recv_time for m in out])
    assert float(lat.mean()) == pytest.approx(0.14, abs=0.003)
    assert float(lat.std()) == pytest.approx(0.025, rel=0.15)
    assert float(lat.min()) >= 0.0


def test_transmit_keeps_input_order_and_is_deterministic():
    ch = ChannelModel(drop_prob=0.1, latency_mean=0.1, latency_jitter=0.02)
    out1 = transmit(_burst(200), ch, stream(11, "channel"))
    out2 = transmit(_burst(200), ch, stream(11, "channel"))
    assert out1 == out2
    # the input order minus the drops: ordering deliveries is the receiver's
    seq = [m.seq_no for m in out1]
    assert seq == sorted(seq) and len(seq) < 200
