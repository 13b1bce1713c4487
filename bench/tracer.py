"""Outside-in span tracer for the benchmark's traced run.

Nothing under ``src/`` is instrumented.  The harness wraps the public
methods of the objects it built itself (``solver.solve``, the solver
context's primitives, the virtual machine's communication calls, the
preconditioner's ``apply_*``, ...) by setting a timing wrapper as an
*instance attribute* that shadows the class method; removing the
attribute restores the original.  Calls the library makes through
``self.<method>`` therefore hit the wrapper too, so spans nest the way
the calls do.

A span is ``(name, layer, start, end, parent, op)``.  Spans stay in
memory and are written as NDJSON when the workload ends.  A span's self
time is its duration minus the time its direct children cover; the time
a *layer* took is the sum of the self times of its spans.

The current span lives in a :class:`contextvars.ContextVar`, so the
same tracer serves plain call stacks and the asyncio service (each task
carries its own current span; a task created inside a span is that
span's child).
"""

import contextvars
import inspect
import json
import time

_CURRENT = contextvars.ContextVar("bench_current_span", default=-1)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: Parallel arrays, one entry per span (cheaper than objects on
        #: the per-rank engine's ~10^4 spans per solve).
        self.names = []
        self.layers = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.child_time = []
        self.op = -1
        self._wrapped = []

    # -- recording -----------------------------------------------------
    def begin(self, name, layer):
        index = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.parents.append(_CURRENT.get())
        self.ops.append(self.op)
        self.child_time.append(0.0)
        self.ends.append(None)
        token = _CURRENT.set(index)
        self.starts.append(self.clock())
        return index, token

    def end(self, index, token):
        now = self.clock()
        self.ends[index] = now
        _CURRENT.reset(token)
        parent = self.parents[index]
        if parent >= 0:
            self.child_time[parent] += now - self.starts[index]

    def span(self, name, layer):
        """Context manager recording one span around a harness block."""
        return _SpanContext(self, name, layer)

    # -- wrapping ------------------------------------------------------
    def wrap(self, obj, attr, layer, name=None):
        """Shadow ``obj.attr`` with a span-recording wrapper.

        Works for plain and ``async`` methods.  Refuses to wrap twice:
        a leaked wrapper from an earlier workload must fail loudly, not
        double-count.
        """
        if attr in vars(obj):
            raise RuntimeError(
                f"{type(obj).__name__}.{attr} is already wrapped")
        original = getattr(obj, attr)
        label = name or f"{type(obj).__name__}.{attr}"
        begin, end = self.begin, self.end
        if inspect.iscoroutinefunction(original):
            async def traced(*args, **kwargs):
                index, token = begin(label, layer)
                try:
                    return await original(*args, **kwargs)
                finally:
                    end(index, token)
        else:
            def traced(*args, **kwargs):
                index, token = begin(label, layer)
                try:
                    return original(*args, **kwargs)
                finally:
                    end(index, token)
        setattr(obj, attr, traced)
        self._wrapped.append((obj, attr))

    def unwrap_all(self):
        """Remove every wrapper this tracer installed."""
        for obj, attr in self._wrapped:
            vars(obj).pop(attr, None)
        self._wrapped = []

    # -- analysis ------------------------------------------------------
    def duration(self, index):
        return self.ends[index] - self.starts[index]

    def self_time(self, index):
        return self.duration(index) - self.child_time[index]

    def indices(self, name=None, layer=None, op=None):
        return [i for i in range(len(self.names))
                if self.ends[i] is not None
                and (name is None or self.names[i] == name)
                and (layer is None or self.layers[i] == layer)
                and (op is None or self.ops[i] == op)]

    def layer_totals(self, op=None):
        """``{layer: (self seconds, span count)}`` over finished spans."""
        totals = {}
        for i in self.indices(op=op):
            seconds, calls = totals.get(self.layers[i], (0.0, 0))
            totals[self.layers[i]] = (seconds + self.self_time(i),
                                      calls + 1)
        return totals

    def op_ids(self):
        return sorted({op for op in self.ops if op >= 0})

    def write_ndjson(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self.names)):
                if self.ends[i] is None:
                    continue
                handle.write(json.dumps({
                    "span": i, "parent": self.parents[i],
                    "op": self.ops[i], "name": self.names[i],
                    "layer": self.layers[i], "start": self.starts[i],
                    "end": self.ends[i], "self": self.self_time(i),
                }) + "\n")


class _SpanContext:
    def __init__(self, tracer, name, layer):
        self.tracer = tracer
        self.name = name
        self.layer = layer

    def __enter__(self):
        self.index, self.token = self.tracer.begin(self.name, self.layer)
        return self.index

    def __exit__(self, *exc):
        self.tracer.end(self.index, self.token)
        return False
