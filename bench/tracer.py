"""In-memory span tracer that wraps blindmimo's public functions from outside.

A span is ``[name, start, end, parent]``; ``parent`` is the index of the
enclosing span or None.  Names are ``<layer>.<function>`` where the layer is
the module that defines the function, whichever module looks it up.

Names are patched in the module that looks them up (``harness.build_frame``,
``detector.polar_retract``), never in the defining module, because a
``from .x import f`` binding is what the caller actually calls.  Only plain
functions are wrapped: wrapping a class such as ``StiefelPoint`` would break
``isinstance`` checks inside the package.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# (module attribute of the blindmimo package, names it looks up at call time)
SITES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    (
        "harness",
        (
            "build_scenario",
            "emit_report",
            "clustered_channel",
            "bernoulli_gaussian_channel",
            "build_frame",
            "synthesize_received",
            "theoretical_objective_bound",
        ),
    ),
    ("channel", ("steering_matrix", "array_response")),
    (
        "detector",
        (
            "detect",
            "solve",
            "riemannian_gd_baseline",
            "pilot_zf_baseline",
            "precondition",
            "postprocess",
            "resolve_ambiguity",
            "demodulate",
            "objective",
            "euclid_grad",
            "optimality_eta",
            "polar_retract",
            "random_stiefel",
            "riemannian_grad",
        ),
    ),
    (
        "metrics",
        (
            "evm",
            "symbol_error_rate",
            "bit_error_rate",
            "achievable_rate_blind",
            "achievable_rate_training",
        ),
    ),
)

LAYERS = ("channel", "signal", "manifold", "detector", "metrics", "harness")


class Tracer:
    """Records nested spans in memory; single-threaded by design."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self._stack: List[int] = []

    def push(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def pop(self) -> None:
        self.spans[self._stack.pop()][2] = self.clock()

    def drop(self) -> None:
        """Abandon the innermost open span; it is left out of every aggregate."""
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, observe: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.pop()
            if observe is not None:
                observe(result)
            return result

        return traced


def span_name(fn: Callable) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


@contextmanager
def patched(tracer: Tracer, package, observers: Dict[str, Callable]):
    """Wrap every site in ``SITES`` for the duration of the block, then restore."""
    saved = []
    try:
        for mod_name, attrs in SITES:
            module = getattr(package, mod_name)
            for attr in attrs:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn):
                    raise TypeError(f"refusing to wrap non-function {mod_name}.{attr}")
                saved.append((module, attr, fn))
                name = span_name(fn)
                setattr(module, attr, tracer.wrap(fn, name, observers.get(name)))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def unpatched(package) -> bool:
    """True when no site still holds a tracing wrapper."""
    for mod_name, attrs in SITES:
        module = getattr(package, mod_name)
        for attr in attrs:
            if hasattr(getattr(module, attr), "__wrapped__"):
                return False
    return True


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def aggregate(spans: List[list]) -> Tuple[Dict[str, dict], Dict[str, dict]]:
    """Per-name and per-layer ``calls``, ``total`` and ``self`` time.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.  A layer's total counts only spans with no
    ancestor in the same layer, so nested calls are not counted twice; its
    self time is the sum of its spans' self times.  Abandoned spans (no end)
    are ignored.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if end is not None and parent is not None:
            children.setdefault(parent, []).append((start, end))

    by_name: Dict[str, dict] = {}
    by_layer: Dict[str, dict] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if end is None:
            continue
        dur = end - start
        clipped = [(max(lo, start), min(hi, end)) for lo, hi in children.get(i, ())]
        self_time = dur - _union_length(clipped)
        layer = name.split(".", 1)[0]
        nested = False
        p = parent
        while p is not None:
            if spans[p][0].split(".", 1)[0] == layer:
                nested = True
                break
            p = spans[p][3]
        for key, table in ((name, by_name), (layer, by_layer)):
            row = table.setdefault(key, {"calls": 0, "total": 0.0, "self": 0.0})
            row["calls"] += 1
            row["self"] += self_time
        by_name[name]["total"] += dur
        if not nested:
            by_layer[layer]["total"] += dur
    return by_name, by_layer


def child_counts(spans: List[list], parent_name: str, child_name: str) -> List[int]:
    """For each closed ``parent_name`` span, how many direct ``child_name`` spans it has."""
    counts = {i: 0 for i, s in enumerate(spans) if s[0] == parent_name and s[2] is not None}
    for name, _, end, parent in spans:
        if name == child_name and end is not None and parent in counts:
            counts[parent] += 1
    return list(counts.values())
