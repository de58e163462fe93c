"""Benchmark-side tracing of the snverify modules.

`Tracer.install` wraps every public function and method of each loaded
snverify module and rebinds the names other modules imported, so nested
calls become child spans.  Spans (name, start, end, parent) are kept in
memory; `Tracer.summary` turns them into per-name self times and counts
once, when the traced command has finished.  Nothing here edits the
program's source: the wrapping happens in the child process, after import.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from array import array
from collections import defaultdict

PACKAGE = "snverify"


def self_times(names, parents, starts, ends) -> dict[str, float]:
    """Per-name self time of a span tree: each span's duration minus the
    durations of its direct children.  parents[i] is the index of span i's
    parent, or -1 for a root."""
    out: dict[str, float] = defaultdict(float)
    for i, name in enumerate(names):
        duration = ends[i] - starts[i]
        out[name] += duration
        if parents[i] >= 0:
            out[names[parents[i]]] -= duration
    return dict(out)


def covered_time(names, parents, starts, ends, outer: str) -> float:
    """Total duration of the outermost spans whose module is not `outer`:
    the part of the run spent in layers below it."""
    # A parent always starts before its children, so its index is lower and
    # one forward pass knows, for every span, whether an inner span encloses it.
    prefix = outer + "."
    inside = [False] * len(names)  # span is inner or has an inner ancestor
    total = 0.0
    for i, name in enumerate(names):
        p = parents[i]
        enclosed = p >= 0 and inside[p]
        inner = not name.startswith(prefix)
        if inner and not enclosed:
            total += ends[i] - starts[i]
        inside[i] = inner or enclosed
    return total


class Tracer:
    """Records one span per call of a wrapped function, plus the counts
    named in `_COUNTERS`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.span_name = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._seen = weakref.WeakKeyDictionary()

    def wrap(self, name: str, fn):
        """Return fn wrapped so each call records a span called `name`."""
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        index = self._name_index[name]
        counter = _COUNTERS.get(name)
        stack, clock = self._stack, self.clock
        span_name, parents, starts, ends = self.span_name, self.parents, self.starts, self.ends

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                try:
                    args = counter(self, args)
                except (IndexError, AttributeError, TypeError):
                    pass  # a changed signature leaves the count absent
            span = len(starts)
            span_name.append(index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public callables of every loaded snverify module and
        rebind every name that refers to one."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        replaced: dict[int, object] = {}
        for modname, mod in modules.items():
            short = modname.split(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(short, obj)
                elif callable(obj):
                    replaced[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
        # The standard-library JSON codec the CLI reads and writes with is a
        # layer of its own: for `rep ft 6` encoding is a large share of the run.
        for attr in ("dumps", "load"):
            setattr(json, attr, self.wrap(f"json.{attr}", getattr(json, attr)))

    def _wrap_class(self, short: str, cls: type) -> None:
        # Properties and dunder methods are left alone: they are attribute
        # access, not a unit of work.
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, member.__func__)))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, member.__func__)))
            elif callable(member) and not isinstance(member, type):
                setattr(cls, attr, self.wrap(name, member))

    def summary(self) -> dict:
        """Self time and call count per span name, and the counters."""
        names = [self.names[i] for i in self.span_name]
        calls: dict[str, int] = defaultdict(int)
        for name in names:
            calls[name] += 1
        return {
            "spans": len(names),
            "self_s": self_times(names, self.parents, self.starts, self.ends),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "covered_s": covered_time(names, self.parents, self.starts, self.ends, "cli"),
        }


def _count_kahan_terms(tracer: Tracer, args):
    """Count the terms and bytes flowing through kahan_sum.  The terms are
    built lazily inside the sum, so their construction is its self time."""

    def counted(terms):
        for term in terms:
            tracer.counts["yyrep.kahan_sum.terms"] += 1
            tracer.counts["yyrep.kahan_sum.bytes"] += getattr(term, "nbytes", 0)
            yield term

    return (counted(args[0]),) + args[1:]


def _count_distinct_evaluations(tracer: Tracer, args):
    """Count distinct (representation, element) pairs evaluated."""
    rep, g = args[0], args[1]
    seen = tracer._seen.setdefault(rep, set())
    key = getattr(g, "images", g)
    if key not in seen:
        seen.add(key)
        tracer.counts["yyrep.rep_evaluate.distinct"] += 1
    return args


def _count_commutant_bytes(tracer: Tracer, args):
    """Bytes of the dense D^2 x D^2 complex commutant: D^4 * 16."""
    tracer.counts["verifier.commutant_projector.bytes"] += args[0].dim ** 4 * 16
    return args


_COUNTERS = {
    "yyrep.kahan_sum": _count_kahan_terms,
    "yyrep.rep_evaluate": _count_distinct_evaluations,
    "verifier.commutant_projector": _count_commutant_bytes,
}
