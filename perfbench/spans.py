"""Spans and call counters around the public functions of toricres.

`Tracer.install()` replaces every public function of the package's modules
by a wrapper, in each module that binds it (so `fan.feasible_point` and
`lattice.feasible_point` are both wrapped), plus the methods
`JKEngine.residue` and `ProblemContext.__init__` and the entry point
`cli.main`.  Nothing in the package is edited; `remove()`
puts the originals back.

Each wrapper call records a span: name, start, end, parent span and request
id, kept in flat arrays and written out by `write()` when the run ends.  A
span's self time is its duration minus the durations of its direct children
(the children of one span never overlap: one thread, nested calls).  For the
functions in `REPEAT_KEYS` the wrapper also hashes the call's input and
counts how many inputs were already seen earlier in the run.

Tiny vector and polynomial helpers are left unwrapped: they are called
millions of times and their time counts as self time of their callers.  So
are the command handlers `cli.run_*`, so that argument parsing, building
the report and formatting it all count as self time of `cli.main`.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import types
import weakref
from array import array
from collections import Counter

MODULES = ("lattice", "poly", "fan", "jk", "mirror", "mpcayley", "mixedvol",
           "problem", "cli")

UNWRAPPED = {
    "dot", "vec_add", "vec_sub", "vec_neg", "vec_scale", "primitive_vector",
    "monomial", "poly_from_terms", "poly_add", "poly_scale", "poly_mul",
    "poly_pow", "poly_degree_set", "main",
    "run_validate", "run_series", "run_verify", "run_mixed_volume",
}

METHODS = (
    ("jk", "JKEngine", "residue", "jk.residue"),
    ("problem", "ProblemContext", "__init__", "problem.context"),
)


def _feasible_key(args, kwargs):
    constraints = list(args[0])
    key = (tuple((tuple(c), k) for c, k in constraints), args[1])
    return key, (constraints,) + tuple(args[1:])


def _matrix_key(args, kwargs):
    return tuple(tuple(row) for row in args[0]), args


class _EngineKeys:
    """Residue inputs keyed by the fan's content, not the engine object, so
    the same fan rebuilt by a later request still counts as a repeat."""

    def __init__(self):
        self._fans = weakref.WeakKeyDictionary()

    def __call__(self, args, kwargs):
        engine, exponents = args[0], args[1]
        fan = self._fans.get(engine)
        if fan is None:
            fan = hash((engine.generators, engine.max_cones))
            self._fans[engine] = fan
        return (fan, tuple(exponents)), args


REPEAT_KEYS = {
    "lattice.feasible_point": _feasible_key,
    "lattice.invert_rational": _matrix_key,
    "jk.residue": _EngineKeys(),
}


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = -1
        self._stack = []
        self._seen = {}
        self.repeats = Counter()
        self.returned = Counter()   # items returned by enumerate_effective
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id):
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        tracer = self
        name_id = self.name_id(name)
        keyfn = REPEAT_KEYS.get(name)
        seen = self._seen.setdefault(name, set())
        counts_items = name == "fan.enumerate_effective"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keyfn is not None:
                key, args = keyfn(args, kwargs)
                key = hash(key)
                if key in seen:
                    tracer.repeats[name] += 1
                else:
                    seen.add(key)
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counts_items:
                tracer.returned[name] += len(result)
            return result

        return traced

    # -- installing ----------------------------------------------------------

    def install(self):
        """Wrap the package's public functions where they are bound."""
        modules = {m: sys.modules[f"toricres.{m}"] for m in MODULES}
        wrappers = {}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType) \
                        or attr.startswith("_") or attr in UNWRAPPED \
                        or not value.__module__.startswith("toricres."):
                    continue
                if value not in wrappers:
                    layer = value.__module__.rsplit(".", 1)[1]
                    wrappers[value] = self.wrap(f"{layer}.{value.__name__}",
                                                value)
                self._patch(mod, attr, wrappers[value])
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            self._patch(cls, attr, self.wrap(span, vars(cls)[attr]))
        cli = modules["cli"]
        self._patch(cli, "main", self.wrap("cli.main", cli.main))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds; and the
        number of direct calls per (child, parent) name pair."""
        n = len(self.name)
        children = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children[p] += self.end[i] - self.start[i]
        calls, total, own, under = Counter(), Counter(), Counter(), Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += dur
            own[name] += dur - children[i]
            p = self.parent[i]
            if p >= 0:
                under[(name, self.names[self.name[p]])] += 1
        return calls, total, own, under

    def repeat_base(self, name):
        """(repeated calls, calls) for a function with a repeat key."""
        return self.repeats[name], self.repeats[name] + len(self._seen[name])

    def write(self, path):
        """All spans as gzipped CSV: id,name,start_s,end_s,parent,request."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,name,start_s,end_s,parent,request\n")
            for i in range(len(self.name)):
                out.write(f"{i},{self.names[self.name[i]]},"
                          f"{self.start[i] - t0:.7f},{self.end[i] - t0:.7f},"
                          f"{self.parent[i]},{self.request[i]}\n")
