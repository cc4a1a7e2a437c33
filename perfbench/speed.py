"""How fast the machine runs right now, from a fixed reference task.

On a shared host the speed available to one process drifts by a third or
more over seconds, as other tenants come and go. The benchmark therefore
times this reference task next to the program's operations and reports each
program time scaled to a fixed reference speed:

    reported = measured * REFERENCE_S / (reference task time around it)

The task is a miniature of the program's own work: small float64 numpy
operations on Python-level graph nodes with closures, then a backward walk
over them. A contended machine slows it and the program alike, so the
scaled times move with the program's code and much less with the host.
The task never changes with the program; changing it or REFERENCE_S changes
every reported time and is a change to the benchmark.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median task time on the 2-core x86_64 machine the benchmark was written on.
REFERENCE_S = 1.0e-3


class _Node:
    __slots__ = ("data", "grad", "parents", "backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = data
        self.grad = None
        self.parents = parents
        self.backward = backward


def _acc(node, g):
    node.grad = g if node.grad is None else node.grad + g


def _matmul(tape, a, w):
    out = _Node(a.data @ w.data, (a, w))
    out.backward = lambda g: (_acc(a, g @ w.data.T), _acc(w, np.outer(a.data, g)))
    tape.append(out)
    return out


def _tanh(tape, a):
    t = np.tanh(a.data)
    out = _Node(t, (a,))
    out.backward = lambda g: _acc(a, g * (1.0 - t * t))
    tape.append(out)
    return out


def _add(tape, a, b):
    out = _Node(a.data + b.data, (a, b))
    out.backward = lambda g: (_acc(a, g), _acc(b, g))
    tape.append(out)
    return out


_W = np.random.default_rng(0).uniform(-0.3, 0.3, size=(32, 32))


def reference_task(steps: int = 40):
    """A residual tanh chain on 32-vectors, forward then backward in
    reverse creation order."""
    tape = []
    w = _Node(_W)
    h = _Node(np.full(32, 0.1))
    for _ in range(steps):
        h = _add(tape, _tanh(tape, _matmul(tape, h, w)), h)
    h.grad = np.ones(32)
    for node in reversed(tape):
        node.backward(node.grad)
    return w.grad


class Speedometer:
    """Samples the reference task; `scale(before, after)` turns a time
    measured between two samples into a time at the reference speed."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, tasks: int) -> float:
        times = []
        for _ in range(tasks):
            t0 = time.perf_counter()
            reference_task()
            times.append(time.perf_counter() - t0)
        s = statistics.median(times)
        self.samples.append(s)
        return s

    @staticmethod
    def scale(before: float, after: float) -> float:
        return REFERENCE_S / (0.5 * (before + after))
