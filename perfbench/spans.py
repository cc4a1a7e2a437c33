"""Span timers keyed by layer name.

A `Tracer` wraps functions and methods of the program's layer modules and
records one span per call: its name (``<layer>.<function>``), start, end and
the index of the enclosing span. Spans stay in memory until `profile()`
summarises them. A span's self time is its duration minus the time its
child spans cover.

Wrapping rebinds every reference the package holds to the original object:
module globals that imported the name and default argument values that
captured it. `uninstall()` restores all of them.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, package: str, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = self.clock()
        return rec

    def _close(self, rec: list):
        rec[2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around every call."""
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ----------------------------------------------------

    def install(self, layer: str, owner, attr: str, hook=None):
        """Trace `owner.attr`, a module function or a class attribute, as the
        span `<layer>.<attr>` or `<layer>.<Class>.<attr>`. `hook(tracer, fn)`
        may wrap the traced function once more, for counters that run
        outside the span."""
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        name = f"{layer}.{owner.__name__}.{attr}" if isinstance(owner, type) \
            else f"{layer}.{attr}"
        traced = self.wrap(name, fn)
        if hook is not None:
            traced = hook(self, traced)
        new = classmethod(traced) if is_classmethod else traced
        self._set(owner, attr, new)
        if isinstance(owner, types.ModuleType):
            self._rebind(fn, traced)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, old, new):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package
                                   or mod_name.startswith(self.package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is old:
                    self._set(mod, attr, new)
                elif isinstance(value, types.FunctionType) and value.__defaults__ \
                        and any(d is old for d in value.__defaults__):
                    self._undo.append((value, "__defaults__", value.__defaults__))
                    value.__defaults__ = tuple(new if d is old else d
                                               for d in value.__defaults__)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- summary -----------------------------------------------------------

    def profile(self, scopes=()) -> "Profile":
        return Profile(self.spans, scopes)


class Profile:
    """Per-name totals over recorded spans.

    `scopes` names spans that tag their descendants: a span inside a
    `trainer.run_stage1` call is counted under that scope as well as under
    the unscoped total.
    """

    def __init__(self, spans, scopes=()):
        n = len(spans)
        child_time = [0.0] * n
        scope = [None] * n
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                scope[i] = scope[parent]
            if name in scopes:
                scope[i] = name
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        for i, (name, start, end, _) in enumerate(spans):
            for key in ((name, None), (name, scope[i])) if scope[i] else ((name, None),):
                self.calls[key] += 1
                self.total[key] += end - start
                self.self_time[key] += end - start - child_time[i]

    def count(self, name: str, scope=None) -> int:
        return self.calls[(name, scope)]

    def ms(self, name: str, scope=None) -> float:
        return 1e3 * self.total[(name, scope)]

    def self_ms(self, name: str, scope=None) -> float:
        return 1e3 * self.self_time[(name, scope)]
