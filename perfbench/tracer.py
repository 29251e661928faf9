"""In-process span tracer for a traced benchmark pass.

``install`` replaces every public function of each ``melontft`` module,
and every public method of its public classes, by a wrapper that records
a span, wherever a module binds the object.  The pass opens one span per
operation (``op.*``) around the library calls.

Every span is aggregated per (name, parent name, operation): calls,
inclusive seconds, self seconds and call-specific counters, because the
deep calls are microsecond-scale and numerous.  Spans at most
``KEEP_DEPTH`` deep (the operation spans and the calls made directly from
them) are also kept one by one with a link to their parent.  Self time
is a span's duration minus the time its child spans cover.  ``write``
saves both at the end of the pass.

The wrapper's own work would otherwise land in the program's figures:
part of it runs inside the span it opens (and so in that span's self
time) and part outside (and so in the caller's self time).  ``write``
first times wrapped and bare calls of a no-op (``calibrate``), outside
the timed part of the pass, and subtracts both parts from the aggregates:
the inside part once per call from self and inclusive time, the outside
part once per traced child from self time, and both parts once per
traced descendant from inclusive time.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time

KEEP_DEPTH = 2
CALIBRATION_CALLS = 10000
CALIBRATION_ROUNDS = 7


def _quad_counters(args, result):
    evals = result.evaluations
    return {"evals": evals, "converged": int(result.converged), "wasted_evals": 0 if result.converged else evals}


def _order_counters(args, result):
    return {f"n{args[0]}": 1}


def _tuple_label(args):
    return f"[k={args[0].k}]"


# call-specific counters and name labels, keyed by span name
COUNTERS = {
    "quadrature.integrate_quarter_plane": _quad_counters,
    "series.perturbative_order": _order_counters,
}
LABELS = {"greens.connected_2k": _tuple_label}


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans = []  # [id, parent id, name, start, end]
        # (name, parent name, op) -> [calls, total s, self s, counters, children, descendants]
        self.agg = {}
        # frame: [name, seconds covered by children, span id or None, op, children, descendants]
        self._stack = [["root", 0.0, None, "root", 0, 0]]

    def _open(self, name, op):
        stack = self._stack
        parent = stack[-1]
        span_id = None
        if len(stack) <= KEEP_DEPTH:
            span_id = len(self.spans)
            self.spans.append([span_id, parent[2], name, 0.0, 0.0])
        frame = [name, 0.0, span_id, op or parent[3], 0, 0]
        stack.append(frame)
        return parent, frame

    def _close(self, parent, frame, start, end, counters):
        self._stack.pop()
        dt = end - start
        parent[1] += dt
        parent[4] += 1
        parent[5] += 1 + frame[5]
        if frame[2] is not None:
            self.spans[frame[2]][3:5] = [start, end]
        key = (frame[0], parent[0], frame[3])
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0.0, 0.0, {}, 0, 0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[1]
        rec[4] += frame[4]
        rec[5] += frame[5]
        if counters:
            acc = rec[3]
            for k, v in counters.items():
                acc[k] = acc.get(k, 0) + v

    def call(self, name, fn, args, kwargs):
        label = LABELS.get(name)
        parent, frame = self._open(name + label(args) if label else name, None)
        counters = None
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
            hook = COUNTERS.get(name)
            if hook is not None:
                counters = hook(args, result)
            return result
        finally:
            self._close(parent, frame, start, self.clock(), counters)

    def span(self, name):
        """Context manager for an operation span around library calls."""
        return _Span(self, name)

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return traced

    def write(self, path):
        """Save the spans and the aggregates, net of the tracer's own cost."""
        inside, outside = calibrate()
        payload = {
            "calibration": {"inside_s": inside, "outside_s": outside},
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e} for i, p, n, s, e in self.spans
            ],
            "aggregates": [
                {
                    "name": n,
                    "parent": p,
                    "op": op,
                    "calls": c,
                    "total_s": t - c * inside - d * (inside + outside),
                    "self_s": s - c * inside - k * outside,
                    "counters": ctr,
                }
                for (n, p, op), (c, t, s, ctr, k, d) in self.agg.items()
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.parent, self.frame = self.tracer._open(self.name, self.name)
        self.start = self.tracer.clock()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.parent, self.frame, self.start, self.tracer.clock(), None)
        return False


def _noop(a, b):
    return None


def calibrate():
    """Seconds a wrapped call adds inside and outside its own span.

    Times ``CALIBRATION_CALLS`` iterations of an empty loop, of bare
    calls of a two-argument no-op and of wrapped ones, in
    ``CALIBRATION_ROUNDS`` rounds.  The span of a wrapped call covers the
    no-op call itself plus the inside part; the rest of what the wrapper
    adds to a bare call is the outside part.  Returns the medians over
    the rounds.
    """
    probe = Tracer()
    wrapped = probe.wrap("calibration", _noop)
    root = probe._stack[0]
    clock = probe.clock
    n = CALIBRATION_CALLS
    inside, outside = [], []
    for _ in range(CALIBRATION_ROUNDS):
        root[1] = 0.0
        t0 = clock()
        for _ in range(n):
            pass
        t1 = clock()
        for _ in range(n):
            _noop(1.0, 2.0)
        t2 = clock()
        for _ in range(n):
            wrapped(1.0, 2.0)
        t3 = clock()
        call = (t2 - t1 - (t1 - t0)) / n  # one bare no-op call
        added = (t3 - t2 - (t2 - t1)) / n  # what wrapping adds to it
        inside.append(root[1] / n - call)
        outside.append(added - inside[-1])
    return statistics.median(inside), statistics.median(outside)


def _public_callables(module):
    """(span name, owner, attribute, object) for each callable to wrap."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{attr}", module, attr, obj
        elif inspect.isclass(obj):
            for meth, raw in vars(obj).items():
                if not meth.startswith("_") and (isinstance(raw, classmethod) or inspect.isfunction(raw)):
                    yield f"{short}.{attr}.{meth}", obj, meth, raw


def install(tracer, modules):
    """Wrap the public callables of ``modules`` and rebind them everywhere."""
    replaced = {}
    for module in modules:
        for name, owner, attr, obj in _public_callables(module):
            if isinstance(obj, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, obj.__func__)))
            else:
                wrapped = tracer.wrap(name, obj)
                setattr(owner, attr, wrapped)
                replaced[id(obj)] = (obj, wrapped)
    # from-imports bind the same function object under other modules' names
    for module in modules:
        for attr, obj in list(vars(module).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
