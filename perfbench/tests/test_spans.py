"""Span arithmetic and the install/restore cycle of the wrappers."""

import importlib

from layers import TARGETS
from spans import Span, Target, Tracer, installed, self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", "", 0.0, 10.0, -1),
        Span("a", "", 1.0, 4.0, 0),
        Span("a.inner", "", 2.0, 3.0, 1),
        Span("b", "", 5.0, 7.0, 0),
        Span("other", "", 11.0, 12.5, -1),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.5]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", "", 0.0, 10.0, -1),
        Span("a", "", 1.0, 5.0, 0),
        Span("b", "", 3.0, 6.0, 0),
        Span("c", "", 9.0, 12.0, 0),
    ]
    assert self_times(spans)[0] == 10.0 - 5.0 - 1.0


def test_wrapped_calls_nest_through_the_stack():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner", "test")
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer", "test")
    assert outer(1) == 4
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0)]
    assert all(s.end >= s.start for s in tracer.spans)


def _current(target):
    module_name, _, class_name = target.owner.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        return vars(getattr(owner, class_name))[target.attr]
    return getattr(owner, target.attr)


def test_every_target_is_restored_and_missing_names_are_reported():
    before = [_current(t) for t in TARGETS]
    extra = [
        Target("mixtvp.sampler", "no_such_function", "x"),
        Target("mixtvp.no_such_module", "f", "x"),
    ]
    tracer = Tracer()
    try:
        with installed(tracer, TARGETS + extra) as missing:
            during = [_current(t) for t in TARGETS]
            raise RuntimeError("job failed inside the traced phase")
    except RuntimeError:
        pass
    assert missing == ["mixtvp.sampler.no_such_function", "mixtvp.no_such_module.f"]
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, [_current(t) for t in TARGETS]))
