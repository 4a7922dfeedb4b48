"""Self-time arithmetic and the tracer's patching."""

import sys
import types

import pytest

from spans import Span, Tracer, covered, self_times


def span(i, start, end, parent=None):
    return Span(i, f"s{i}", start, end, parent, "0/op/0")


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0), (8.0, 10.0)]) == pytest.approx(6.0)
    assert covered([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)


def test_self_time_subtracts_children_only():
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 5.0, 0), span(2, 2.0, 4.0, 1),
             span(3, 6.0, 7.5, 0)]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.5)   # grandchild not subtracted twice
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.5)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_child_time_outside_the_parent_is_clipped():
    selfs = self_times([span(0, 0.0, 10.0), span(1, 8.0, 12.0, 0)])
    assert selfs[0] == pytest.approx(8.0)


def test_wrapped_function_records_nested_spans_and_restores():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    module = types.ModuleType("fake_layer")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    sys.modules["fake_layer"] = module
    try:
        original_inner = module.inner
        seen = []
        tracer.wrap("fake_layer.outer", "layer.outer")
        tracer.wrap("fake_layer.inner", "layer.inner",
                    lambda t, result, args, kwargs: seen.append((result, t.innermost())))
        tracer.op = "3/train/0"
        assert module.outer(1) == 4
        tracer.unpatch()
        assert module.inner is original_inner
        assert tracer.innermost() is None
    finally:
        del sys.modules["fake_layer"]
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == (
        "layer.outer", None, "layer.inner", outer.id)
    assert inner.op == outer.op == "3/train/0"
    assert seen == [(2, "layer.outer")]  # the hook runs after its own span ends
    selfs = self_times(tracer.spans)
    assert selfs[outer.id] == pytest.approx((outer.end - outer.start)
                                            - (inner.end - inner.start))


def test_counters_and_values_are_keyed_by_operation():
    tracer = Tracer()
    tracer.op = "0/eval/0"
    tracer.count("calls")
    tracer.count("calls", 2)
    tracer.record("residual", 0.5)
    tracer.op = "1/eval/0"
    tracer.count("calls")
    assert tracer.counters[("0/eval/0", "calls")] == 3
    assert tracer.counters[("1/eval/0", "calls")] == 1
    assert tracer.values[("0/eval/0", "residual")] == [0.5]
