"""Self-time arithmetic and binding restore of the outside-in tracer."""

import types

import pytest

from tracer import Target, Tracer


class FakeClock:
    """Each reading advances time by the next step, in seconds."""

    def __init__(self, steps):
        self.now = 0.0
        self.steps = list(steps)

    def __call__(self):
        self.now += self.steps.pop(0)
        return self.now


def _nested_namespace():
    ns = types.SimpleNamespace()
    ns.inner = lambda: "inner"

    def outer():
        ns.inner()
        ns.inner()
        return "outer"

    ns.outer = outer
    return ns


def test_self_time_of_nested_calls():
    ns = _nested_namespace()
    # clock readings: outer start 1, inner 3..7, inner 10..11, outer end 15
    clock = FakeClock([1, 2, 4, 3, 1, 4])
    tr = Tracer([Target(ns, "outer", "outer"), Target(ns, "inner", "inner")],
                clock=clock)
    with tr:
        assert ns.outer() == "outer"
    stats = tr.stats()
    assert stats["outer"].calls == 1 and stats["inner"].calls == 2
    assert stats["outer"].total_s == pytest.approx(14.0)
    assert stats["inner"].total_s == pytest.approx(4.0 + 1.0)
    assert stats["outer"].self_s == pytest.approx(14.0 - 5.0)
    assert stats["inner"].self_s == pytest.approx(5.0)
    assert tr.span_parent == [-1, 0, 0]
    assert tr.category_self_s({"outer": "a"}) == pytest.approx({"a": 14.0})
    assert tr.category_self_s({"inner": "b"}) == pytest.approx(
        {"other": 9.0, "b": 5.0})


def test_bindings_restored_after_exception():
    ns = _nested_namespace()
    original_outer, original_inner = ns.outer, ns.inner

    def boom():
        raise RuntimeError("boom")

    ns.inner = boom
    tr = Tracer([Target(ns, "outer", "outer"), Target(ns, "inner", "inner")])
    with pytest.raises(RuntimeError):
        with tr:
            ns.outer()
    assert ns.outer is original_outer and ns.inner is boom
    # the failed calls still closed their spans
    assert all(e > 0.0 for e in tr.span_end)
    ns.inner = original_inner


def test_counts_and_episode_ids():
    ns = _nested_namespace()

    def count(counts, args, kwargs, result):
        counts["n"] = counts.get("n", 0) + 1

    tr = Tracer([Target(ns, "outer", "outer", root=True),
                 Target(ns, "inner", "inner", count=count)])
    with tr:
        ns.outer()
        ns.outer()
    assert tr.counts == {"n": 4}
    assert tr.span_episode == [1, 1, 1, 2, 2, 2]
    tr.clear()
    assert tr.counts == {} and tr.span_name == []
