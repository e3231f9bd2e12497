"""Dominance, knee selection, hypervolume, and the sweep protocol."""

import itertools
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import dominates, mc_hypervolume
from v2xloop.pareto import (Configuration, EvaluatedPoint, config_grid,
                            evaluate_grid, hypervolume, knee_point,
                            nondominated_set, normalize, sweep)


def brute_force_frontier(points):
    """O(N^2) reference implementation."""
    pts = [np.asarray(p, dtype=float) for p in points]
    out = []
    for i, p in enumerate(pts):
        if not any(dominates(q, p) for j, q in enumerate(pts) if j != i):
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# dominance


def test_dominates_basics():
    assert dominates((1.0, 1.0), (2.0, 2.0))
    assert dominates((1.0, 2.0), (1.0, 3.0))
    assert not dominates((1.0, 3.0), (2.0, 2.0))     # trade-off
    assert not dominates((1.0, 1.0), (1.0, 1.0))     # equal is not better
    with pytest.raises(ValueError):
        dominates((1.0,), (1.0, 2.0))


def test_frontier_simple():
    pts = [(1.0, 5.0), (2.0, 4.0), (3.0, 3.0), (2.5, 4.5), (5.0, 5.0)]
    idx = nondominated_set(pts)
    assert idx == [0, 1, 2]


def test_frontier_equal_vectors_coexist():
    idx = nondominated_set([(1.0, 2.0), (1.0, 2.0), (3.0, 0.0)])
    assert idx == [0, 1, 2]


def test_frontier_empty():
    assert nondominated_set([]) == []


def test_frontier_matches_brute_force_random():
    rng = np.random.Generator(np.random.Philox(42))
    for d in (2, 3, 5):
        for _ in range(5):
            pts = rng.uniform(0.0, 1.0, size=(80, d))
            assert sorted(nondominated_set(pts)) == \
                sorted(brute_force_frontier(pts))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0),
                          st.floats(0.0, 10.0)), min_size=1, max_size=40))
def test_frontier_property_no_internal_dominance(points):
    idx = nondominated_set(points)
    members = [points[i] for i in idx]
    for a, b in itertools.permutations(members, 2):
        assert not dominates(a, b)
    # every dropped point is dominated by some member
    for i, p in enumerate(points):
        if i not in idx:
            assert any(dominates(m, p) for m in members)


# ---------------------------------------------------------------------------
# normalization and knee


def test_normalize_min_max():
    out = normalize([(0.0, 10.0), (5.0, 20.0), (10.0, 30.0)])
    assert out.tolist() == [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]


def test_normalize_degenerate_component_zeroed():
    out = normalize([(3.0, 1.0), (3.0, 2.0)])
    assert out[:, 0].tolist() == [0.0, 0.0]
    assert out[:, 1].tolist() == [0.0, 1.0]


def test_knee_minimizes_normalized_norm():
    frontier = [
        EvaluatedPoint("a", (1.0, 0.0), normalized=(1.0, 0.0)),
        EvaluatedPoint("b", (0.0, 1.0), normalized=(0.0, 1.0)),
        EvaluatedPoint("c", (0.5, 0.5), normalized=(0.5, 0.5)),
    ]
    knee = knee_point(frontier)
    assert knee.config_id == "c"
    # norm sqrt(0.5) beats the axis points at norm 1
    assert math.sqrt(sum(v * v for v in knee.normalized)) == \
        pytest.approx(math.sqrt(0.5))


def test_knee_skips_collided_and_breaks_ties():
    frontier = [
        EvaluatedPoint("crash", (0.1, 0.1), normalized=(0.1, 0.1), collided=True),
        EvaluatedPoint("z", (0.6, 0.8), normalized=(0.6, 0.8)),
        EvaluatedPoint("a", (0.8, 0.6), normalized=(0.8, 0.6)),
    ]
    knee = knee_point(frontier)
    # equal norms: lexicographic on the vector picks (0.6, 0.8)
    assert knee.config_id == "z"
    assert knee_point([frontier[0]]) is None


# ---------------------------------------------------------------------------
# hypervolume


def test_hv_single_point_rectangle():
    # (1.1 - 0.5)^2 = 0.36, exact
    assert hypervolume([(0.5, 0.5)], (1.1, 1.1)) == pytest.approx(0.36)


def test_hv_2d_hand_oracle():
    # staircase of two points against (1, 1):
    # strips: [0.2, 0.6) x height (1 - 0.1) + [0.6, 1.0) x height (1 - 0.4)...
    # union = 0.8*0.6 + 0.4*0.9 - overlap counted once by the sweep
    pts = [(0.2, 0.4), (0.6, 0.1)]
    hv = hypervolume(pts, (1.0, 1.0))
    expected = (0.6 - 0.2) * (1.0 - 0.4) + (1.0 - 0.6) * (1.0 - 0.1)
    assert hv == pytest.approx(expected)


def test_hv_3d_box_oracle():
    # one point: exact box volume
    hv = hypervolume([(0.1, 0.2, 0.3)], (1.0, 1.0, 1.0))
    assert hv == pytest.approx(0.9 * 0.8 * 0.7)
    # two nested points: the dominated union equals the bigger box
    hv = hypervolume([(0.1, 0.2, 0.3), (0.5, 0.5, 0.5)], (1.0, 1.0, 1.0))
    assert hv == pytest.approx(0.9 * 0.8 * 0.7)


def test_hv_exact_matches_mc():
    rng = np.random.Generator(np.random.Philox(7))
    for d in (2, 3):
        pts = rng.uniform(0.0, 0.9, size=(12, d))
        exact = hypervolume(pts, [1.0] * d)
        mc = mc_hypervolume(pts, [1.0] * d, samples=400_000)
        assert mc == pytest.approx(exact, abs=0.01)


def test_hv_is_exact_in_2d_and_3d_only():
    for d in (1, 4):
        with pytest.raises(ValueError, match=f"2 or 3 objectives, got {d}$"):
            hypervolume([(0.2,) * d], (1.0,) * d)


def test_hv_validates_inputs():
    with pytest.raises(ValueError):
        hypervolume([], (1.0, 1.0))
    with pytest.raises(ValueError):
        hypervolume([(0.5, 0.5)], (1.0,))
    with pytest.raises(ValueError):
        hypervolume([(1.5, 0.5)], (1.0, 1.0))    # does not dominate ref


@settings(max_examples=40, deadline=None)
@given(points=st.lists(st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 0.99)),
                       min_size=1, max_size=10),
       extra=st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 0.99)))
def test_hv_monotone_under_insertion(points, extra):
    ref = (1.0, 1.0)
    base = hypervolume(points, ref)
    grown = hypervolume(points + [extra], ref)
    assert grown >= base - 1e-12
    assert grown <= 1.0 + 1e-12      # never exceeds the sampling box


# ---------------------------------------------------------------------------
# configuration grid


def test_config_grid_product_and_ids():
    configs = config_grid({"look_ahead": [3.0, 4.0], "k_p": [0.4, 0.6, 0.8]})
    assert len(configs) == 6
    assert [c.config_id for c in configs] == [f"cfg-{i:03d}" for i in range(6)]
    # fields iterate in sorted name order: k_p varies slowest
    assert configs[0].k_p == 0.4 and configs[0].look_ahead == 3.0
    assert configs[1].k_p == 0.4 and configs[1].look_ahead == 4.0
    assert configs[2].k_p == 0.6
    # the knob the grid leaves out stays None: each scenario keeps its own
    assert all(c.tau_risk is None for c in configs)


def test_config_grid_rejects_unknown_fields():
    with pytest.raises(ValueError):
        config_grid({"warp_factor": [9]})


@pytest.mark.parametrize("grid, field", [
    ([0.5], "grid"), ("k_p", "grid"),
    ({"k_p": 0.5}, "grid.k_p"), ({"k_p": "ab"}, "grid.k_p"), ({"k_p": []}, "grid.k_p"),
    ({"k_p": ["ab"]}, "grid.k_p"), ({"k_p": [True]}, "grid.k_p"),
    ({"k_p": [0.5, None]}, "grid.k_p"), ({"tau_risk": [math.nan]}, "grid.tau_risk"),
    ({"tau_risk": [math.inf]}, "grid.tau_risk"), ({"look_ahead": [10**400]}, "grid.look_ahead"),
    ({"k_p": [0.5], "warp_factor": [9]}, "grid.warp_factor"),
])
def test_config_grid_rejects_what_is_not_a_list_of_finite_numbers(grid, field):
    with pytest.raises(ValueError, match=f"^{field}: "):
        config_grid(grid)


@pytest.mark.parametrize("values, repeat", [
    ([0.4, 0.4], "0.4"), ([0.4, 0.6, 0.4], "0.4"), ([1, 1.0], "1.0"),
    ([0.0, -0.0], "-0.0"),
], ids=["twice", "apart", "int-and-float", "signed-zeros"])
def test_config_grid_refuses_a_repeated_value(values, repeat):
    # two equal values would be two rows of one operating point, both on the
    # frontier, each a run of the same episodes
    with pytest.raises(ValueError, match=f"^grid\\.k_p: repeats the value {repeat}$"):
        config_grid({"look_ahead": [4.0], "k_p": values})


def test_config_grid_accepts_ints_and_floats():
    configs = config_grid({"tau_risk": [1, 2.5], "k_p": [0]})
    assert [c.tau_risk for c in configs] == [1, 2.5]


def test_configuration_as_dict_roundtrip():
    c = Configuration(config_id="cfg-000", look_ahead=5.0)
    d = asdict(c)
    assert d["config_id"] == "cfg-000"
    assert d["look_ahead"] == 5.0
    assert Configuration(**d) == c


# ---------------------------------------------------------------------------
# sweep protocol


def _scripted_runner(table):
    def runner(config, scenario_id, seed):
        return table[config.config_id]
    return runner


def test_evaluate_grid_averages_over_block():
    calls = []

    def runner(config, scenario_id, seed):
        calls.append((config.config_id, scenario_id, seed))
        return (float(seed), 1.0), seed == 2
    configs = [Configuration(config_id="cfg-000")]
    pts = evaluate_grid(configs, runner, seeds=[1, 2, 3], scenario_ids=["s2"])
    assert len(calls) == 3
    assert pts[0].objectives == pytest.approx((2.0, 1.0))
    assert pts[0].collided           # any collision marks the config


def _config_major_points(configs, runner, seeds, scenario_ids):
    """evaluate_grid as first written: each config over its whole block in
    turn, its vectors averaged in scenario-then-seed order."""
    points = []
    for config in configs:
        vectors = []
        collided = False
        for scenario_id in scenario_ids:
            for seed in seeds:
                vec, hit = runner(config, scenario_id, seed)
                vectors.append(vec)
                collided = collided or hit
        mean_vec = tuple(float(v) for v in np.mean(np.asarray(vectors), axis=0))
        points.append(EvaluatedPoint(config_id=config.config_id,
                                     objectives=mean_vec, collided=collided))
    return points


def test_evaluate_grid_runs_seed_by_seed_and_averages_as_config_major():
    configs = config_grid({"k_p": [0.4, 0.6, 0.8], "tau_risk": [2.0, 3.0]})
    seeds, scenario_ids = [7, 3, 11], ["s2", "s1"]
    calls = []

    def runner(config, scenario_id, seed):
        # vectors whose mean depends on the order it is summed in
        calls.append((config.config_id, scenario_id, seed))
        rng = np.random.default_rng([seed, len(scenario_id), int(config.config_id[4:])])
        vec = rng.uniform(0.0, 1.0, 5) * 10.0 ** rng.integers(-8, 8, 5)
        return tuple(vec.tolist()), (seed, scenario_id, config.config_id) == (3, "s1", "cfg-004")

    got = evaluate_grid(configs, runner, seeds, scenario_ids)
    order = list(calls)
    calls.clear()
    want = _config_major_points(configs, runner, seeds, scenario_ids)
    assert got == want
    assert [p.collided for p in got] == [i == 4 for i in range(6)]
    # every episode ran once, and each seed's episodes back to back
    assert sorted(order) == sorted(calls)
    block = len(configs) * len(scenario_ids)
    assert [seed for _, _, seed in order] == [s for s in seeds for _ in range(block)]


def test_sweep_full_protocol():
    table = {
        "cfg-a": ((0.1, 0.5, 0.0, 0.2, 0.0), False),
        "cfg-b": ((0.5, 0.1, 0.0, 0.6, 0.0), False),
        "cfg-c": ((0.6, 0.6, 0.0, 0.7, 0.0), False),   # dominated
        "cfg-d": ((0.01, 0.01, 0.0, 0.01, 0.0), True), # collided, discarded
    }
    configs = [Configuration(config_id=k) for k in table]
    res = sweep(configs, _scripted_runner(table), seeds=[1], scenario_ids=["s2"])
    assert res.discarded_collided == 1
    assert {p.config_id for p in res.frontier} == {"cfg-a", "cfg-b"}
    assert res.knee is not None
    assert res.knee.config_id in {"cfg-a", "cfg-b"}
    assert res.hypervolume is not None and res.hypervolume > 0.0
    # normalized components live in [0, 1]
    for p in res.frontier:
        assert all(0.0 <= v <= 1.0 for v in p.normalized)


def test_sweep_hv_reference_and_components():
    # two safe points, identical except tracking: frontier keeps the better,
    # normalization makes it (0, 0, 0) -> HV is the full 1.1^3 box
    table = {
        "cfg-a": ((0.1, 0.2, 0.0, 0.3, 0.0), False),
        "cfg-b": ((0.9, 0.2, 0.0, 0.3, 0.0), False),
    }
    configs = [Configuration(config_id=k) for k in table]
    res = sweep(configs, _scripted_runner(table), seeds=[1], scenario_ids=["s2"])
    assert [p.config_id for p in res.frontier] == ["cfg-a"]
    assert res.hypervolume == pytest.approx(1.1 ** 3)


def test_sweep_all_collided():
    table = {"cfg-a": ((0.1, 0.1, 0.0, 0.1, 0.0), True)}
    res = sweep([Configuration(config_id="cfg-a")], _scripted_runner(table),
                seeds=[1], scenario_ids=["s2"])
    assert res.frontier == ()
    assert res.knee is None
    assert res.hypervolume is None
    assert res.discarded_collided == 1
