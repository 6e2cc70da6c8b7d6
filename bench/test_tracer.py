"""Self-tests of the span tracer: self-time arithmetic, patching and restoring.

Run with ``python3 -m pytest bench``; ``run.py --trace 1`` also runs them
before it traces anything.
"""

import types

import tracer as tr


def _clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_on_a_nested_call_tree():
    # x.a [0, 10] holds x.b [1, 4] (which holds y.c [2, 3]) and y.d [5, 9]
    # (which holds x.e [6, 7]).
    spans = [
        ["x.a", 0.0, 10.0, None],
        ["x.b", 1.0, 4.0, 0],
        ["y.c", 2.0, 3.0, 1],
        ["y.d", 5.0, 9.0, 0],
        ["x.e", 6.0, 7.0, 3],
    ]
    by_name, by_layer = tr.aggregate(spans)
    assert {n: r["self"] for n, r in by_name.items()} == {
        "x.a": 3.0, "x.b": 2.0, "y.c": 1.0, "y.d": 3.0, "x.e": 1.0,
    }
    assert by_name["x.a"]["total"] == 10.0
    # x.e sits below x.a, so only x.a counts toward layer x's total.
    assert by_layer["x"] == {"calls": 3, "total": 10.0, "self": 6.0}
    assert by_layer["y"] == {"calls": 2, "total": 5.0, "self": 4.0}
    # Self times partition the root span.
    assert sum(r["self"] for r in by_name.values()) == 10.0


def test_overlapping_children_are_counted_once_and_clipped():
    spans = [
        ["x.a", 0.0, 10.0, None],
        ["x.b", 2.0, 6.0, 0],
        ["x.c", 4.0, 12.0, 0],
        ["x.d", 20.0, 21.0, None],
        ["x.open", 21.0, None, None],
    ]
    by_name, _ = tr.aggregate(spans)
    assert by_name["x.a"]["self"] == 2.0
    assert "x.open" not in by_name


def test_wrapped_calls_record_parents_and_observers():
    tracer = tr.Tracer(clock=_clock([0.0, 1.0, 2.0, 5.0]))
    seen = []
    inner = tracer.wrap(lambda: 7, "y.inner", observe=seen.append)
    outer = tracer.wrap(lambda: inner() + 1, "x.outer")
    assert outer() == 8
    assert seen == [7]
    assert tracer.spans == [["x.outer", 0.0, 5.0, None], ["y.inner", 1.0, 2.0, 0]]
    assert tr.child_counts(tracer.spans, "x.outer", "y.inner") == [1]


def _fake_package():
    def f():
        return 1

    modules = {}
    for mod_name, attrs in tr.SITES:
        modules[mod_name] = types.SimpleNamespace(**{a: f for a in attrs})
    return types.SimpleNamespace(**modules), f


def test_patching_restores_every_attribute():
    package, original = _fake_package()
    tracer = tr.Tracer()
    with tr.patched(tracer, package, {}):
        assert not tr.unpatched(package)
        package.detector.solve()
    assert tr.unpatched(package)
    assert all(
        getattr(getattr(package, m), a) is original for m, attrs in tr.SITES for a in attrs
    )
    assert [s[0] for s in tracer.spans] == ["test_tracer.f"]


def test_classes_are_never_wrapped():
    package, original = _fake_package()
    package.detector.solve = type("NotAFunction", (), {})
    try:
        with tr.patched(tr.Tracer(), package, {}):
            raise AssertionError("a class was wrapped")
    except TypeError:
        pass
    assert package.harness.build_scenario is original
