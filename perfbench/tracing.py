"""Outside-in span tracing of the nbase modules.

`install` replaces every public function of every imported ``nbase.*``
module, at every module attribute bound to it, with a wrapper that records
one span per call.  Modules import each other's functions by name
(``from .elements import compose``), so patching only the defining module
would miss most calls.  The ``PlainElement`` constructor is wrapped on the
class.  Nothing inside ``src/`` changes.

Spans are kept in flat arrays (about 28 bytes each) and written out once,
at the end of the run.  Each span stores its name, start, end, the index of
the enclosing span and the id of the benchmark operation it belongs to
(0 for set-up).  A span's self time is its duration minus the durations of
its direct children.
"""

import functools
import inspect
import json
import os
import sys
from array import array
from time import perf_counter

# Spans beyond this many are not stored; the run stops at the next
# operation boundary once it is reached (see Tracer.full).
MAX_SPANS = 2_500_000


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.op = 0
        self.paused = False
        self.counters = {}

    def full(self):
        return len(self.start) >= MAX_SPANS

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, observe=None):
        """A wrapper recording one span per call of fn.

        observe(args, result, exc), if given, runs after the call and may
        update counters; it is how the benchmark counts memo-relevant
        repeats and coset-table sizes without touching the program.
        """
        nid = self._name_id(name)
        stack = self._stack
        names, parents, ops = self.name, self.parent, self.op_id
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            exc = None
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                if observe is not None:
                    observe(args, result, exc)

        return traced

    def summary(self):
        """Per-name call counts and self seconds, plus the counters."""
        k = len(self.names)
        calls = [0] * k
        self_s = [0.0] * k
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for idx in range(len(start)):
            nid = name[idx]
            dur = end[idx] - start[idx]
            calls[nid] += 1
            self_s[nid] += dur
            p = parent[idx]
            if p >= 0:
                self_s[name[p]] -= dur
        layers = {n: {"calls": calls[i], "self_s": self_s[i]}
                  for i, n in enumerate(self.names) if calls[i]}
        return {"layers": layers, "counters": dict(self.counters),
                "spans": len(start)}

    def dump(self, prefix, summary, extra=None):
        """Write <prefix>.json (names, counts, summary) and <prefix>.bin.

        The binary file holds the arrays name, parent, op_id (int32) and
        start, end (float64 perf_counter seconds), in that order, each of
        the length given in the header.
        """
        os.makedirs(os.path.dirname(prefix), exist_ok=True)
        with open(prefix + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.op_id, self.start, self.end):
                arr.tofile(fh)
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name:i", "parent:i", "op_id:i", "start:d", "end:d"],
                  "byteorder": sys.byteorder, "summary": summary}
        if extra:
            header.update(extra)
        with open(prefix + ".json", "w") as fh:
            json.dump(header, fh)


def _compose_repeats(tracer):
    seen = set()

    def observe(args, result, exc):
        tracer.count("elements.compose.keys")
        if args in seen:
            tracer.count("elements.compose.repeats")
        else:
            seen.add(args)
    return observe


def _coset_sizes(tracer):
    from nbase.errors import Overflow

    def observe(args, result, exc):
        if isinstance(exc, Overflow):
            tracer.count("presentations.todd_coxeter.overflows")
        elif result is not None and result.live is not None:
            tracer.count("presentations.todd_coxeter.live_cosets", result.live)
    return observe


def install(tracer):
    """Wrap every public nbase function at every binding."""
    import nbase.elements

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "nbase" or name.startswith("nbase."))]
    observers = {"elements.compose": _compose_repeats(tracer),
                 "presentations.todd_coxeter": _coset_sizes(tracer)}
    wrapped = {}
    for mod in modules:
        short = mod.__name__.split(".", 1)[-1]
        for attr, val in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(val)
                    or val.__module__ != mod.__name__):
                continue
            label = "%s.%s" % (short, attr)
            wrapped[val] = tracer.wrap(label, val, observers.get(label))
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrapped:
                setattr(mod, attr, wrapped[val])
    cls = nbase.elements.PlainElement
    cls.__init__ = tracer.wrap("elements.PlainElement", cls.__init__)
