"""Spans around calls into cachekit's public functions, recorded from outside.

`Tracer.install` replaces every public function of the layer modules with a
wrapper, in every cachekit module namespace that binds it (the CLI, for
example, imports `decode_user` by name). Each call records a span: name,
start, end and parent span. Per-name call counts, busy time (outermost calls
only) and self time (duration minus the time covered by child spans) are
folded in as spans close; raw spans are kept in memory up to a cap and
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("combinatorics", "model", "rate_analysis", "centralized", "decentralized", "cli")
SPAN_CAP = 50_000


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        fn = inspect.unwrap(obj) if callable(obj) else None
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[int, int, int, int, int]] = []  # (id, name id, start, end, parent id)
        self._next_id = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._depth: dict[str, int] = defaultdict(int)
        self._observers: dict[str, object] = {}

    def observe(self, name: str, fn) -> None:
        """Call fn(tracer, args, kwargs, result) after each traced call of `name`."""
        self._observers[name] = fn

    def install(self) -> None:
        """Wrap the public functions of every layer module, everywhere bound."""
        modules = [importlib.import_module(f"cachekit.{layer}") for layer in LAYERS]
        namespaces = modules + [importlib.import_module("cachekit")]
        wrapped = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, obj in _public_functions(module):
                wrapped[id(obj)] = self.wrap(f"{layer}.{name}", obj)
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    setattr(ns, name, wrapped[id(obj)])

    def wrap(self, name: str, fn):
        """`fn` wrapped so that, while the tracer is enabled, each call is a span."""
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        depth = self._depth
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                depth[name] -= 1
                if not depth[name]:
                    tracer.busy_ns[name] += duration
                tracer.calls[name] += 1
                tracer.self_ns[name] += duration - frame[1]
                if span_id < SPAN_CAP:
                    spans.append((span_id, name_id, start, end, parent))
            observer = tracer._observers.get(name)
            if observer is not None:
                # the observer's time is the benchmark's, not the caller's self time
                begin = clock()
                observer(tracer, args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - begin
            return result

        return traced

    def span_records(self) -> list[dict]:
        """The recorded spans in entry order; `parent` is a span id or -1."""
        return [
            {"id": sid, "name": self.names[nid], "start_ns": start, "end_ns": end, "parent": parent}
            for sid, nid, start, end, parent in sorted(self.spans)
        ]
