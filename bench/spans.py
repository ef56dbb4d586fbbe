"""In-memory span tracer for the traced benchmark run.

Each traced function is replaced, at the module or class attribute its
callers look up, by a wrapper that records one span (name, start, end,
parent span) and updates per-name counters. Self time is accumulated as the
spans close: a span's duration minus the durations of its direct children.
Spans are kept in flat arrays up to a cap; counters and times keep counting
past the cap, so the per-layer metrics never depend on it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

MAX_SPANS = 50_000  # spans beyond this are counted, not kept


class Tracer:
    """Spans and counters of one traced run; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        # span i: names[span_name[i]], parent span index (-1 for none), times
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        self.calls: Counter = Counter()
        self.calls_under: Counter = Counter()  # (name, nearest traced caller) -> calls
        self.outcomes: Counter = Counter()  # (name, exception class or "ok") -> calls
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.enabled = True
        # open frames: [span index or -1, name, start, time covered by children]
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            start = clock()
            sid = len(self.span_name)
            if sid < MAX_SPANS:
                self.span_name.append(idx)
                self.span_parent.append(-1 if parent is None else parent[0])
                self.span_start.append(start)
                self.span_end.append(start)  # set when the span closes
            else:
                sid = -1
                self.spans_dropped += 1
            frame = [sid, name, start, 0.0]
            stack.append(frame)
            outcome = "ok"
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                outcome = type(e).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.calls[name] += 1
                self.outcomes[name, outcome] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[3]
                if parent is not None:
                    parent[3] += dur
                    self.calls_under[name, parent[1]] += 1
                if sid >= 0:
                    self.span_end[sid] = end

        return functools.update_wrapper(traced, fn)

    @contextmanager
    def tracing(self, on):
        """Switch recording on or off for a block, e.g. off while the benchmark
        checks outputs, so its own calls into rotavg are not counted."""
        prev, self.enabled = self.enabled, on
        try:
            yield
        finally:
            self.enabled = prev

    # -- installing ---------------------------------------------------------

    def replace(self, owner, attr, value):
        """Set owner.attr (a module or class attribute) until uninstall()."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr, name):
        """Replace owner.attr by a traced wrapper of itself."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr)))

    def patch_everywhere(self, fn, name):
        """Trace fn under every attribute of a rotavg module that binds it, so
        both `module.f(...)` and `from .module import f` callers see it."""
        wrapper = None
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "rotavg" or modname.startswith("rotavg.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    wrapper = wrapper or self.wrap(name, fn)
                    self.replace(mod, attr, wrapper)
        if wrapper is None:
            raise LookupError(f"{name}: no rotavg module binds {fn!r}")

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def write(self, path):
        """Write spans and counters as one JSON document."""
        doc = {
            "names": self.names,
            "spans": {
                "name": list(self.span_name),
                "parent": list(self.span_parent),
                "start": list(self.span_start),
                "end": list(self.span_end),
            },
            "spans_dropped": self.spans_dropped,
            "calls": dict(self.calls),
            "calls_under": {f"{a}<{b}": n for (a, b), n in self.calls_under.items()},
            "outcomes": {f"{a}:{b}": n for (a, b), n in self.outcomes.items()},
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
