"""Per-layer tracing from outside the library.

`Tracer.install()` rebinds every public function of each quatwitt module,
and the public and arithmetic methods of its classes, to a wrapper that
records calls, total time and self time per name.  A public name imported
into another quatwitt module is rebound there too, so calls between layers
go through the wrapper.  Nothing under `src/` changes; the wrappers live
only in the traced process.

Self time is a span's duration minus the time its child spans cover, kept
with a stack while the run goes.  Spans down to SPAN_DEPTH below the op
(the op, the library call the benchmark made, and that call's direct
callees) are also kept individually as (id, parent, name, start, end);
deeper calls, such as quaternion arithmetic and Hilbert symbols, are
aggregated into counts and times only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("fields", "polys", "quadforms", "quaternions", "hermitian",
          "mixed", "invariants", "funcfield", "serialize", "cli")

# Not wrapped: display and dict/set lookups, no layer work.
_SKIP = {"__repr__", "__hash__"}
SPAN_DEPTH = 2
SPAN_CAP = 200_000


def _wrappable(name: str) -> bool:
    if name in _SKIP:
        return False
    return not name.startswith("_") or (name.startswith("__")
                                        and name.endswith("__"))


class Stat:
    __slots__ = ("calls", "total", "self", "open")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.open = 0


class Tracer:
    def __init__(self):
        self.active = False
        self.stats = {}          # label -> Stat
        self.outcomes = {}       # label -> {outcome: count}
        self.spans = []          # (id, parent, name, start, end)
        self._stack = []         # [child_time, span_id] per open span
        self._next_id = 0
        self._caches = {}        # layer -> {name: lru-cached function}

    # -- installation ---------------------------------------------------------

    def install(self):
        replace = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"quatwitt.{layer}")
            self._caches[layer] = {
                n: f for n, f in vars(mod).items()
                if hasattr(f, "cache_info") and getattr(f, "__module__", None)
                == mod.__name__}
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj, mod.__file__)
                elif (inspect.isfunction(obj) or hasattr(obj, "cache_info")) \
                        and not name.startswith("_"):
                    replace[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "quatwitt" and not modname.startswith("quatwitt."):
                continue
            for name, obj in list(vars(mod).items()):
                new = replace.get(id(obj))
                if new is not None:
                    setattr(mod, name, new)

    def _wrap_class(self, layer, cls, path):
        for name, attr in list(vars(cls).items()):
            if not inspect.isfunction(attr) or not _wrappable(name):
                continue
            if attr.__code__.co_filename != path:
                continue  # generated by dataclass, not written in the module
            setattr(cls, name, self._wrap(f"{layer}.{cls.__name__}.{name}",
                                          attr))

    def _wrap(self, label, fn):
        stat = self.stats.setdefault(label, Stat())
        hook = OUTCOMES.get(label)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._push()
            stat.open += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stat.open -= 1
                dt = t1 - t0
                tracer._pop(frame, label, t0, t1)
                stat.calls += 1
                stat.self += dt - frame[0]
                if not stat.open:
                    stat.total += dt
            if hook is not None:
                counts = tracer.outcomes.setdefault(label, {})
                key = hook(result)
                counts[key] = counts.get(key, 0) + 1
            return result

        return wrapper

    # -- spans ----------------------------------------------------------------

    def _push(self):
        span_id = None
        if len(self._stack) <= SPAN_DEPTH and len(self.spans) < SPAN_CAP:
            span_id = self._next_id
            self._next_id += 1
        frame = [0.0, span_id]
        self._stack.append(frame)
        return frame

    def _pop(self, frame, label, t0, t1):
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += t1 - t0
        if frame[1] is not None:
            parent = self._stack[-1][1] if self._stack else None
            self.spans.append((frame[1], parent, label, t0, t1))

    def begin_op(self):
        """Open the root span of one op; the worker times the call."""
        self._push()

    def end_op(self, kind, t0, t1):
        self._pop(self._stack[-1], f"op.{kind}", t0, t1)

    # -- cache counters -------------------------------------------------------

    def cache_info(self):
        out = {}
        for layer, funcs in self._caches.items():
            for name, f in funcs.items():
                ci = f.cache_info()
                out[f"{layer}.{name}"] = (ci.hits, ci.misses, ci.currsize)
        return out


def _cert_outcome(result):
    return result.status


def _equal_outcome(result):
    return result


OUTCOMES = {
    "hermitian.hyperbolicity_certificate": _cert_outcome,
    "mixed.mixed_equal": _equal_outcome,
}
