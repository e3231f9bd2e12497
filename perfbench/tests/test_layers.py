"""The real layer bindings: counts on a traced episode, restore afterwards."""

import layers
from v2xloop import harness, scenarios


def _bindings(targets):
    return [(tg.owner, tg.attr, vars(tg.owner)[tg.attr]) for tg in targets]


def test_traced_s3_reference_episode_and_restore():
    targets = layers.targets()
    before = _bindings(targets)
    tracer = layers.Tracer(targets)
    with tracer:
        spec = scenarios.build_scenario("s3")
        result = harness.run_episode(spec, 1)
    for owner, attr, value in before:
        assert vars(owner)[attr] is value, f"{owner}.{attr} not restored"
    # the recorded baseline: s3 seed 1 replans once on the map update with
    # 28,879 expansions, after a 42-expansion initial plan
    assert tracer.counts["planner.plans.knowledge_change"] == 1
    assert tracer.counts["planner.expansions"] == 28879 + 42
    assert tracer.counts["trace.ticks"] == result.summary["counters"]["ticks"]
    metrics, report = layers.layer_metrics(tracer, wall_s=1.0)
    assert metrics["planner.plan.calls"] == 2
    assert metrics["planner.route_deviation_field.calls"] == 2
    assert metrics["world.polyline_cumlength.calls"] > 0
    assert report["v2x.delivery_ratio"] is None


def test_every_layer_metric_is_named_in_benchmark_json(benchmark_json):
    names = {m["name"] for m in benchmark_json["per_layer"]}
    expected = (set(layers.SELF_MS) | set(layers.CALLS) | set(layers.COUNTS)
                | {"planner.plan_ms.p50", "planner.us_per_expansion",
                   "planner.success_ratio", "setup.builds_per_episode",
                   "v2x.messages_dropped", "share.planner_pct",
                   "share.per_tick_pct", "trace.overhead_ms",
                   "trace.overhead_pct", "check.logs_changed"})
    assert names == expected
    assert not names & set(layers.REPORT_ONLY_MS)
