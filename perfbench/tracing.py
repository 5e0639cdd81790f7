"""Spans recorded from outside the package.

A span is [name, parent, root, start, end]; its id is its index in
`Tracer.spans`.  Spans stay in memory until the run ends.  A span's self
time is its duration minus the durations of its children, which never
overlap because the benchmark runs on one thread.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import mvsl.difftest


class NullTracer:
    """Calls through without recording; the untraced runs use it."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][2] if parent >= 0 else sid
        span = [name, parent, root, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(sid)
        span[3] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = perf_counter()
            self._stack.pop()

    def self_times_by_root(self) -> dict[int, dict[str, float]]:
        """For each root span, the self time of each span name under it."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, (name, _, root, start, end) in enumerate(self.spans):
            out[root][name] += end - start - child[sid]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, (name, parent, root, start, end) in enumerate(self.spans):
                rec = {"id": sid, "name": name, "parent": parent, "root": root,
                       "start": start, "end": end}
                f.write(json.dumps(rec) + "\n")


# The names differential_run looks up in its own module, and the layer
# each one belongs to; execute is named per VM config below.
_DIFFTEST_LAYERS = {
    "pretty_program": "ast.pretty",
    "check_program": "typechecker",
    "interpret_eager": "oracle",
    "lower_program": "ir.lower",
    "apply_move_optimization": "ir.move_opt",
}


@contextmanager
def traced_difftest(tracer: Tracer):
    """Rebind the functions mvsl.difftest calls to span-recording
    wrappers, so differential_run's children show as spans; the package's
    files are untouched and the names are restored on exit."""
    module = mvsl.difftest
    saved = {name: getattr(module, name) for name in (*_DIFFTEST_LAYERS, "execute")}
    optimized: list = []

    def wrap(name, layer):
        def traced(*args, **kwargs):
            result = tracer.call(layer, saved[name], *args, **kwargs)
            if name == "apply_move_optimization":
                optimized[:] = [result]
            return result

        return traced

    def execute(ir, cow=True, debug=False):
        cfg = ("cow" if cow else "nocow") + ("_opt" if optimized and ir is optimized[0] else "_noopt")
        return tracer.call(f"vm.{cfg}", saved["execute"], ir, cow=cow, debug=debug)

    try:
        for name, layer in _DIFFTEST_LAYERS.items():
            setattr(module, name, wrap(name, layer))
        module.execute = execute
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)
