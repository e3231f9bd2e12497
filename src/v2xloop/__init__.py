"""v2xloop: a deterministic closed-loop testbed for V2X-informed driving.

The package couples a kinematic vehicle, noisy onboard sensing, V2X message
exchange with Byzantine participants, log-odds environment fusion, a
quorum-plus-veto acceptance gate, an event-driven lattice replanner, and a
pure-pursuit/PID tracking controller. Episodes are seeded and reproduce
byte-identical logs; experiment fronts (single run, seeded batch, Pareto
sweep) build on the same episode loop.
"""

from .control import ControlCommand, ControllerConfig, PidState, follow_tick
from .gate import GateConfig, GateDecision, evaluate
from .harness import (EpisodeResult, compute_episode_metrics, replay,
                      run_batch, run_episode, run_sweep)
from .ldm import EventHypothesis, LdmState, Track, fuse_tick
from .metrics import EpisodeMetrics, MetricParams, aggregate, objective_vector
from .pareto import (Configuration, EvaluatedPoint, ParetoResult, config_grid,
                     hypervolume, knee_point, nondominated_set, sweep)
from .perception import Detection, SenseFrame, SensorModel, sense
from .planner import (PlanAttempt, PlannerConfig, PlanningMaps, Trajectory,
                      TriggerConfig, plan)
from .rng import StreamSet, stream
from .scenarios import (SCENARIO_IDS, ScenarioSpec, apply_configuration,
                        build_scenario, spec_from_dict, spec_to_dict)
from .v2x import AttackPolicy, ChannelModel, Station, StationPopulation, V2xMessage
from .vehicle import VehicleParams, VehicleState, max_curvature, step
from .world import (GroundTruthHazard, LaneSegment, MapVersion, OccupancyGrid,
                    Route, WorldObject)

__version__ = "0.1.0"

__all__ = [
    "AttackPolicy", "ChannelModel", "Configuration", "ControlCommand",
    "ControllerConfig", "Detection", "EpisodeMetrics", "EpisodeResult",
    "EvaluatedPoint", "EventHypothesis", "GateConfig", "GateDecision",
    "GroundTruthHazard", "LaneSegment", "LdmState", "MapVersion",
    "MetricParams", "OccupancyGrid", "ParetoResult", "PlanAttempt",
    "PlannerConfig", "PlanningMaps", "PidState", "Route", "SCENARIO_IDS", "ScenarioSpec",
    "SenseFrame", "SensorModel", "Station", "StationPopulation", "StreamSet",
    "Track", "Trajectory", "TriggerConfig", "V2xMessage", "VehicleParams",
    "VehicleState", "WorldObject", "aggregate", "apply_configuration",
    "build_scenario", "compute_episode_metrics", "config_grid", "evaluate",
    "follow_tick", "fuse_tick", "hypervolume", "knee_point", "max_curvature",
    "nondominated_set", "objective_vector", "plan", "replay", "run_batch",
    "run_episode", "run_sweep", "sense", "spec_from_dict", "spec_to_dict",
    "step", "stream", "sweep",
]
