"""Tests of the benchmark's tracer on a fake call tree with a fake clock.

Run with `python3 -m pytest bench/test_tracer.py` from the repository root.
"""

from __future__ import annotations

import types

import pytest

from tracer import Tracer


class FakeClock:
    """Each reading advances time by one unit, plus whatever `work` adds."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now

    def work(self, units: float) -> None:
        self.now += units


def make_tree(clock: FakeClock):
    """A module with top -> (mid -> leaf, leaf); top looks its callees up at call time."""
    mod = types.SimpleNamespace()

    def leaf(n):
        clock.work(n)
        return n

    def mid():
        clock.work(2)
        return mod.leaf(3)

    def top():
        clock.work(5)
        return mod.mid() + mod.leaf(4)

    mod.leaf, mod.mid, mod.top = leaf, mid, top
    return mod


def traced_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    mod = make_tree(clock)
    tracer.patch(mod, "top", "a.top")
    tracer.patch(mod, "mid", "a.mid")
    tracer.patch(mod, "leaf", "b.leaf", lambda span, args, kwargs, result: span.counts.update(n=args[0]))
    return clock, tracer, mod


def test_parent_links_and_op_ids():
    _, tracer, mod = traced_tree()
    tracer.begin_op()
    assert mod.top() == 7
    tracer.begin_op()
    mod.leaf(1)
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [
        ("a.top", None, 1),
        ("a.mid", 0, 1),
        ("b.leaf", 1, 1),
        ("b.leaf", 0, 1),
        ("b.leaf", None, 2),
    ]


def test_self_time_subtracts_direct_children():
    _, tracer, mod = traced_tree()
    tracer.begin_op()
    mod.top()
    # Clock readings: top opens at 1, works 5; mid opens at 7, works 2;
    # leaf(3) opens at 10, works 3, closes at 14; mid closes at 15;
    # leaf(4) opens at 16, works 4, closes at 21; top closes at 22.
    durations = [(s.name, s.end - s.start) for s in tracer.spans]
    assert durations == [("a.top", 21), ("a.mid", 8), ("b.leaf", 4), ("b.leaf", 5)]
    stats = tracer.summary()
    assert stats["a.top"].self_total == 21 - 8 - 5
    assert stats["a.mid"].self_total == 8 - 4
    assert stats["b.leaf"].self_total == stats["b.leaf"].total == 4 + 5
    # self times partition the root span
    assert sum(s.self_total for s in stats.values()) == stats["a.top"].total


def test_counts_and_calls():
    _, tracer, mod = traced_tree()
    for _ in range(3):
        tracer.begin_op()
        mod.top()
    stats = tracer.summary()
    assert stats["a.top"].calls == 3
    assert stats["a.mid"].calls == 3
    assert stats["b.leaf"].calls == 6
    assert stats["b.leaf"].counts == {"n": 3 * (3 + 4)}


def test_hide_under_drops_descendants_but_keeps_the_span():
    _, tracer, mod = traced_tree()
    tracer.begin_op()
    mod.top()
    stats = tracer.summary(hide_under=frozenset({"a.mid"}))
    assert stats["a.mid"].calls == 1
    assert stats["b.leaf"].calls == 1  # only the leaf called by top directly


def test_errors_close_the_span_and_propagate():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    mod = types.SimpleNamespace()

    def boom():
        raise ValueError("boom")

    mod.boom = boom
    tracer.patch(mod, "boom", "a.boom")
    with pytest.raises(ValueError):
        mod.boom()
    assert tracer.spans[0].error and tracer.spans[0].end > tracer.spans[0].start
    assert tracer.summary()["a.boom"].errors == 1
    with pytest.raises(ValueError):
        mod.boom()
    assert tracer.spans[1].parent is None  # the failed span left the stack


def test_unpatch_restores_originals():
    _, tracer, mod = traced_tree()
    originals = (mod.top.__wrapped__, mod.mid.__wrapped__, mod.leaf.__wrapped__)
    tracer.unpatch()
    assert (mod.top, mod.mid, mod.leaf) == originals
    mod.top()
    assert tracer.spans == []


def test_methods_patched_on_the_class_see_self():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    class Session:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer.patch(Session, "outer", "c.outer")
    tracer.patch(Session, "inner", "c.inner")
    assert Session().outer() == 2
    assert [(s.name, s.parent) for s in tracer.spans] == [("c.outer", None), ("c.inner", 0)]
    tracer.unpatch()
