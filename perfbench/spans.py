"""Spans recorded from outside the msun package.

The benchmark wraps the public functions of each msun module, the ``forward``
of each named layer of a multi-scale model, and the ``grad_fn`` of every tape
node the engine records. Each wrapper appends a span (name, start, end,
parent, step, tag) to an in-memory list; nothing is written until the run
ends. ``Patches`` undoes every wrapper, so the package is left as imported.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

perf = time.perf_counter

# span record fields
NAME, START, END, PARENT, STEP, TAG = range(6)


class Tracer:
    """Nested spans kept in memory, plus exact counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.step = -1          # id of the training step in progress, or -1
        self.scope = ()         # names of the named layers being run
        self._open = []

    def begin(self, name, tag=None):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf(), 0.0, parent, self.step, tag])
        self._open.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][END] = perf()
        self._open.pop()

    def call(self, name, fn, *args, tag=None, **kwargs):
        idx = self.begin(name, tag)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)


class Patches:
    """Attribute replacements that ``restore`` undoes in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_function(self, fn, wrapper):
        """Point every msun module global bound to ``fn`` at ``wrapper``.

        Modules bind functions by name at import (``from .layers import
        conv2d``), so patching only the defining module would miss callers.
        """
        found = False
        for modname, module in list(sys.modules.items()):
            if modname != "msun" and not modname.startswith("msun."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{fn.__module__}.{fn.__qualname__} is bound nowhere")

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def spanned(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return wrapper


def self_times(spans):
    """Per span: its duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def roots(spans):
    """Per span: the name of its outermost ancestor (itself if top-level)."""
    out = []
    for s in spans:
        out.append(s[NAME] if s[PARENT] < 0 else out[s[PARENT]])
    return out


def summary(spans):
    """Total and self milliseconds and call count per span name."""
    selfs = self_times(spans)
    table = defaultdict(lambda: [0.0, 0.0, 0])
    for s, own in zip(spans, selfs):
        row = table[s[NAME]]
        row[0] += (s[END] - s[START]) * 1e3
        row[1] += own * 1e3
        row[2] += 1
    return {name: {"total_ms": t, "self_ms": o, "calls": n}
            for name, (t, o, n) in sorted(table.items())}
