"""Which bindings the tracer rebinds, and the per-layer metrics it derives.

Spans are named `<module>.<function>` after the function's home module, so
`harness.plan` is recorded as `planner.plan`. The bindings are the ones
callers actually use:

- every function `v2xloop.harness` imports, plus its own entry points;
- `planner.obstacle_grid` and `planner.attach_speed_profile`, which `plan`
  calls through the planner module;
- `CsvLog.append` and `CsvLog.write`, and `ScriptedVehicle.state_at`;
- `polyline_cumlength` in `world` and the copy `scenarios` imports;
- `scenarios.build_scenario`, which the benchmark itself calls;
- the `pareto` functions `pareto.sweep` calls.
"""

from __future__ import annotations

import os
import types

from v2xloop import harness, logio, pareto, planner, scenarios, world
from v2xloop.v2x import CAM

from tracer import Target, Tracer

LOG_TABLES = harness.LOG_NAMES
PLAN_CAUSES = ("initial", "hazard_on_route", "risk_threshold",
               "knowledge_change", "recovery")
HARNESS_ENTRY_POINTS = ("run_episode", "replay", "compute_episode_metrics",
                        "run_sweep", "run_batch")
EPISODE_ROOTS = ("run_episode", "replay")


def _add(counts: dict, key: str, value=1) -> None:
    counts[key] = counts.get(key, 0) + value


def _count_plan(counts, args, kwargs, attempt) -> None:
    _add(counts, "planner.expansions", attempt.expansions)
    if not attempt.succeeded:
        _add(counts, "planner.failed")
    # a replan fired by two triggers at once counts under each cause
    for cause in attempt.cause.split("+"):
        _add(counts, f"planner.plans.{cause}")


def _count_transmit(counts, args, kwargs, delivered) -> None:
    _add(counts, "v2x.messages_sent", len(args[0]))
    _add(counts, "v2x.messages_delivered", len(delivered))


def _count_gate(counts, args, kwargs, decision) -> None:
    _add(counts, "gate.accepted" if decision.accepted else "gate.rejected")


def _count_fuse(counts, args, kwargs, state) -> None:
    # inputs offered to fusion this tick: fresh detections plus CAMs
    delivered, frames = args[2], args[4]
    n = sum(len(f.detections) for f in frames)
    n += sum(1 for m in delivered if m.msg_kind == CAM)
    _add(counts, "ldm.measurements", n)


def _count_episode(counts, args, kwargs, result) -> None:
    _add(counts, "trace.ticks", result.summary["counters"]["ticks"])


def _count_append(counts, args, kwargs, result) -> None:
    _add(counts, "logio.append.rows")


def _count_write(counts, args, kwargs, result) -> None:
    # only the replayable tables: timing.csv holds wall times, so its size
    # is not an exact count
    path = os.fspath(args[1])
    table = os.path.splitext(os.path.basename(path))[0]
    if table in LOG_TABLES:
        size = os.path.getsize(path)
        _add(counts, "logio.bytes", size)
        _add(counts, f"logio.rows.{table}", len(args[0].rows))
        _add(counts, f"logio.bytes.{table}", size)


COUNTERS = {"harness.run_episode": _count_episode, "planner.plan": _count_plan,
            "v2x.transmit": _count_transmit, "gate.evaluate": _count_gate,
            "ldm.fuse_tick": _count_fuse, "logio.append": _count_append,
            "logio.write": _count_write}


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _target(owner, attr: str, name: str | None = None) -> Target:
    fn = getattr(owner, attr)
    name = name or _span_name(fn)
    return Target(owner, attr, name, count=COUNTERS.get(name),
                  root=owner is harness and attr in EPISODE_ROOTS)


def targets() -> list[Target]:
    out = []
    for attr, value in sorted(vars(harness).items()):
        if not isinstance(value, types.FunctionType):
            continue
        imported = (value.__module__.startswith("v2xloop.")
                    and value.__module__ != harness.__name__)
        if imported or attr in HARNESS_ENTRY_POINTS:
            out.append(_target(harness, attr))
    out += [_target(planner, "obstacle_grid"),
            _target(planner, "attach_speed_profile"),
            _target(logio.CsvLog, "append", "logio.append"),
            _target(logio.CsvLog, "write", "logio.write"),
            _target(scenarios.ScriptedVehicle, "state_at", "scenarios.state_at"),
            _target(world, "polyline_cumlength"),
            _target(scenarios, "polyline_cumlength"),
            _target(scenarios, "build_scenario")]
    out += [_target(pareto, attr) for attr in
            ("evaluate_grid", "normalize", "nondominated_set", "knee_point",
             "hypervolume")]
    return out


# ---------------------------------------------------------------------------
# per-layer metrics

# self time in ms of a span name, reported under a metric name; every one of
# these layers runs on every workload, so none reads 0 on every run
SELF_MS = {
    "planner.plan.ms": "planner.plan",
    "planner.obstacle_grid.ms": "planner.obstacle_grid",
    "planner.speed_profile.ms": "planner.attach_speed_profile",
    "planner.ttc_min.ms": "planner.ttc_min",
    "planner.check_triggers.ms": "planner.check_triggers",
    "planner.unexplained_tracks.ms": "planner.unexplained_tracks",
    "planner.route_deviation_field.ms": "planner.route_deviation_field",
    "world.planning_occupancy.ms": "world.planning_occupancy",
    "world.cross_track_error.ms": "world.cross_track_error",
    "world.heading_along_polyline.ms": "world.heading_along_polyline",
    "scenarios.build_scenario.ms": "scenarios.build_scenario",
    "perception.sense.ms": "perception.sense",
    "ldm.synchronize.ms": "ldm.synchronize",
    "ldm.fuse_tick.ms": "ldm.fuse_tick",
    "control.follow_tick.ms": "control.follow_tick",
    "vehicle.step.ms": "vehicle.step",
    "logio.append.ms": "logio.append",
    "logio.write.ms": "logio.write",
    "logio.roundtrip_rows.ms": "logio.roundtrip_rows",
    "logio.read_csv.ms": "logio.read_csv",
    "harness.run_episode.self_ms": "harness.run_episode",
    "harness.compute_episode_metrics.ms": "harness.compute_episode_metrics",
    "metrics.clear_mot.ms": "metrics.clear_mot",
}

# self times of layers that are idle on some workload (no radio in s3, no
# scripted traffic outside s2, pareto only in sweep); a time that is 0 on
# every run of a workload cannot be told from a constant, so these go to
# the trace report and not to BENCHMARK.json
REPORT_ONLY_MS = {
    "scenarios.state_at.ms": "scenarios.state_at",
    "perception.sensor_likelihood.ms": "perception.sensor_likelihood",
    "v2x.generate_honest_traffic.ms": "v2x.generate_honest_traffic",
    "v2x.generate_attack_traffic.ms": "v2x.generate_attack_traffic",
    "v2x.transmit.ms": "v2x.transmit",
    "gate.evaluate.ms": "gate.evaluate",
    "pareto.evaluate_grid.self_ms": "pareto.evaluate_grid",
    "pareto.nondominated_set.ms": "pareto.nondominated_set",
    "pareto.hypervolume.ms": "pareto.hypervolume",
}

CALLS = {
    "planner.plan.calls": "planner.plan",
    "planner.route_deviation_field.calls": "planner.route_deviation_field",
    "world.planning_occupancy.calls": "world.planning_occupancy",
    "world.polyline_cumlength.calls": "world.polyline_cumlength",
    "scenarios.state_at.calls": "scenarios.state_at",
    "scenarios.apply_configuration.calls": "scenarios.apply_configuration",
    "perception.sensor_likelihood.calls": "perception.sensor_likelihood",
    "v2x.generate_honest_traffic.calls": "v2x.generate_honest_traffic",
    "v2x.generate_attack_traffic.calls": "v2x.generate_attack_traffic",
    "gate.evaluate.calls": "gate.evaluate",
    "pareto.evaluate_grid.calls": "pareto.evaluate_grid",
    "pareto.nondominated_set.calls": "pareto.nondominated_set",
    "pareto.hypervolume.calls": "pareto.hypervolume",
    "trace.episodes": "harness.run_episode",
    "trace.replays": "harness.replay",
}

COUNTS = (["trace.ticks", "planner.expansions", "planner.failed"]
          + [f"planner.plans.{c}" for c in PLAN_CAUSES]
          + ["v2x.messages_sent", "v2x.messages_delivered", "ldm.measurements",
             "gate.accepted", "gate.rejected", "logio.append.rows", "logio.bytes"]
          + [f"logio.rows.{t}" for t in LOG_TABLES]
          + [f"logio.bytes.{t}" for t in LOG_TABLES])

# where a span's self time goes when shares are taken; spans without an
# entry inherit their parent's category
CATEGORIES = {
    "harness.run_episode": "per_tick",
    "planner.plan": "planner",
    "planner.route_deviation_field": "setup",
    "world.planning_occupancy": "setup",
    "world.publish_version": "setup",
    "scenarios.build_scenario": "setup",
    "scenarios.apply_configuration": "setup",
    "logio.roundtrip_rows": "episode_end",
    "harness.compute_episode_metrics": "episode_end",
    "logio.write": "episode_end",
    "logio.write_json": "episode_end",
    "harness.replay": "replay",
    "pareto.sweep": "pareto",
}


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def layer_metrics(tracer: Tracer, wall_s: float) -> tuple[dict, dict]:
    """(BENCHMARK.json per-layer metrics, report-only values) of one traced pass."""
    stats = tracer.stats()

    def self_ms(span: str) -> float:
        st = stats.get(span)
        return st.self_s * 1000.0 if st else 0.0

    def calls(span: str) -> int:
        st = stats.get(span)
        return st.calls if st else 0

    counts = tracer.counts
    out: dict[str, float] = {}
    for metric, span in SELF_MS.items():
        out[metric] = self_ms(span)
    for metric, span in CALLS.items():
        out[metric] = calls(span)
    for key in COUNTS:
        out[key] = counts.get(key, 0)
    out["v2x.messages_dropped"] = (out["v2x.messages_sent"]
                                   - out["v2x.messages_delivered"])
    plans = out["planner.plan.calls"]
    out["planner.plan_ms.p50"] = tracer.median_ms("planner.plan")
    out["planner.us_per_expansion"] = (
        self_ms("planner.plan") * 1000.0 / max(out["planner.expansions"], 1))
    out["planner.success_ratio"] = (plans - out["planner.failed"]) / max(plans, 1)
    out["setup.builds_per_episode"] = (
        out["planner.route_deviation_field.calls"] / max(out["trace.episodes"], 1))
    shares = tracer.category_self_s(CATEGORIES)
    out["share.planner_pct"] = 100.0 * shares.get("planner", 0.0) / wall_s
    out["share.per_tick_pct"] = 100.0 * shares.get("per_tick", 0.0) / wall_s

    report = {metric: self_ms(span) for metric, span in REPORT_ONLY_MS.items()}
    report["v2x.delivery_ratio"] = _ratio(out["v2x.messages_delivered"],
                                          out["v2x.messages_sent"])
    report["gate.accept_ratio"] = _ratio(
        out["gate.accepted"], out["gate.accepted"] + out["gate.rejected"])
    report["shares_pct"] = {k: 100.0 * v / wall_s for k, v in sorted(shares.items())}
    report["layers"] = {name: {"calls": st.calls,
                               "self_ms": st.self_s * 1000.0,
                               "total_ms": st.total_s * 1000.0}
                        for name, st in sorted(stats.items())}
    return out, report
