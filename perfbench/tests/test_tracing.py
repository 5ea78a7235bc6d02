"""Span bookkeeping of the benchmark (``perfbench/tracing.py``)."""

import gc
import types

from perfbench.tracing import Patches, Tracer


class FakeClock:
    def __init__(self):
        self.t = 0

    def __call__(self):
        return self.t


def test_self_time_is_duration_minus_child_coverage():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    outer = tr.begin()          # t=0
    clock.t = 10
    child = tr.begin()          # t=10
    clock.t = 40
    tr.end("child", child)      # 30 ns
    clock.t = 45
    child = tr.begin()
    clock.t = 50
    grandchild = tr.begin()
    clock.t = 70
    tr.end("grandchild", grandchild)  # 20 ns
    clock.t = 75
    tr.end("child", child)      # 30 ns, 20 of them in the grandchild
    clock.t = 100
    tr.end("outer", outer)      # 100 ns, 60 of them in children
    assert tr.total_ns["outer"] == 100
    assert tr.self_ns["outer"] == 40
    assert tr.self_ns["child"] == 30 + 10
    assert tr.self_ns["grandchild"] == 20
    assert tr.calls["child"] == 2
    names = {rec[0]: rec for rec in tr.records}
    assert names["outer"][3] == -1
    assert tr.records[names["grandchild"][3]][1] == 45  # parent: second child


def test_records_stop_at_the_cap_but_aggregates_continue():
    clock = FakeClock()
    tr = Tracer(clock=clock, cap=1)
    for _ in range(3):
        opened = tr.begin()
        clock.t += 5
        tr.end("x", opened, mid=(1, 2))
    assert len(tr.records) == 1
    assert tr.records[0][4] == (1, 2)
    assert tr.calls["x"] == 3 and tr.self_ns["x"] == 15


def test_patches_wrap_and_restore_class_and_module_attributes():
    class Layer:
        def work(self, n):
            return n * 2

    module = types.ModuleType("codec")
    module.encode = lambda b: b + b
    tr = Tracer()
    patches = Patches(tr)
    patches.add(Layer, "work", "layer.work", lambda args, result: result)
    patches.add(module, "encode", "codec.encode")
    original = Layer.__dict__["work"]
    patches.install()
    assert Layer().work(3) == 6 and module.encode("a") == "aa"
    assert tr.calls["layer.work"] == 1 and tr.calls["codec.encode"] == 1
    assert tr.records[0][4] == 6
    patches.remove()
    assert Layer.__dict__["work"] is original
    Layer().work(1)
    assert tr.calls["layer.work"] == 1


def test_a_span_that_raises_is_still_closed():
    tr = Tracer()

    def boom():
        raise RuntimeError("x")

    traced = tr.wrap("boom", boom)
    try:
        traced()
    except RuntimeError:
        pass
    assert tr.calls["boom"] == 1 and not tr._stack


def test_gc_collections_become_child_spans():
    tr = Tracer()
    tr.observe_gc()
    try:
        opened = tr.begin()
        gc.collect()
        tr.end("outer", opened)
    finally:
        tr.stop_gc()
    assert tr._on_gc not in gc.callbacks
    assert tr.gc_pauses_ns and tr.gc_pauses_ns[-1][0] == 2
    assert tr.self_ns["outer"] == tr.total_ns["outer"] - tr.total_ns["gc"]
