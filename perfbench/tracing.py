"""Spans around calls into plapeig's public functions, kept in memory.

The tracer replaces a module attribute with a wrapper, so every call the
owning module makes through that name is recorded: name, start, end, the
span that was open when it began (its parent) and the op it belongs to.
``uninstall`` puts the originals back.  Nothing inside plapeig changes.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# (module, attribute, span name).  The span name's prefix is the layer of
# the function called, not of the module that calls it.
BOUNDARIES = (
    ("plapeig.homogenize", "solve_eigenvalue", "shooting.solve_eigenvalue"),
    ("plapeig.homogenize", "solve_eigenpair", "shooting.solve_eigenpair"),
    ("plapeig.variational", "sin_p", "ptrig.sin_p"),
    ("plapeig.variational", "pi_p", "ptrig.pi_p"),
    ("plapeig.variational", "solve_eigenvalue", "shooting.solve_eigenvalue"),
    ("plapeig.shooting", "integrate_ivp", "shooting.integrate_ivp"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []      # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self._stack: list = []
        self._op_id = -1
        self._saved: list = []

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, self._op_id]
            self.spans.append(span)
            self.counts[name] += 1
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def install(self, modules: dict):
        for mod_name, attr, span_name in BOUNDARIES:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(original, span_name))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def run_op(self, op_id: int, name: str, fn):
        """Run one op as a root span tagged with its op id."""
        self._op_id = op_id
        try:
            return self.wrap(fn, name)()
        finally:
            self._op_id = -1

    def self_seconds(self) -> Counter:
        """Self time per span name: each span's duration minus the part
        its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: Counter = Counter()
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            out[name] += (t1 - t0) - c
        return out

    def total_seconds(self, name: str, under: str | None = None) -> float:
        """Summed duration of spans called ``name`` (whose parent is a span
        called ``under``, if given)."""
        total = 0.0
        for span_name, t0, t1, parent, _ in self.spans:
            if span_name == name and (under is None or
                                      (parent >= 0 and self.spans[parent][0] == under)):
                total += t1 - t0
        return total

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
