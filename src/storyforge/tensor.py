"""Differentiable dense-array substrate.

Eager forward math on float64 numpy arrays with reverse-mode gradients,
a named parameter registry with freezable groups, an Adam optimizer, a
finite-difference gradient checker, and a text checkpoint container.

Recurrent cells get a fused hand-derived backward (one graph node per
step); everything else composes from small primitives.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

CHECKPOINT_VERSION = 1


class DimensionError(ValueError):
    """Operand shapes incompatible with an operation."""


class InvalidMaskError(ValueError):
    """A mask selects no valid positions."""


class EvaluationError(RuntimeError):
    """A checked evaluation produced a non-finite result."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (forward values only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class NumArray:
    """Dense float64 array with an optional gradient slot.

    Leaves are plain values; operation outputs carry the closure that
    routes gradients back to their parents. `backward()` may only be
    called on scalars (size-1 arrays).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def backward(self):
        """Accumulate dL/dx into every reachable node that requires grad."""
        if self.data.size != 1:
            raise DimensionError(
                f"backward requires a scalar, got shape {self.data.shape}")
        topo: list[NumArray] = []
        visited: set[int] = set()
        stack: list[tuple[NumArray, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -wrap(other))

    def __rsub__(self, other):
        return add(wrap(other), -self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"NumArray(shape={self.data.shape}, requires_grad={self.requires_grad})"


def wrap(x) -> NumArray:
    """Coerce a value to a constant NumArray (no-op for NumArray inputs)."""
    if isinstance(x, NumArray):
        return x
    return NumArray(x)


def zeros(shape) -> NumArray:
    return NumArray(np.zeros(shape, dtype=np.float64))


def _make(data, parents, backward) -> NumArray:
    if _grad_enabled and any(p.requires_grad for p in parents):
        return NumArray(data, True, tuple(parents), backward)
    return NumArray(data)


def _acc(p: NumArray, g: np.ndarray):
    if p.grad is None:
        p.grad = np.array(g, dtype=np.float64)
    else:
        p.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise primitives ----------------------------------------------


def add(a, b) -> NumArray:
    a, b = wrap(a), wrap(b)
    out = a.data + b.data

    def bw(g):
        if a.requires_grad:
            _acc(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(g, b.data.shape))

    return _make(out, (a, b), bw)


def mul(a, b) -> NumArray:
    a, b = wrap(a), wrap(b)
    out = a.data * b.data

    def bw(g):
        if a.requires_grad:
            _acc(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), bw)


def matmul(a, b) -> NumArray:
    a, b = wrap(a), wrap(b)
    try:
        out = a.data @ b.data
    except ValueError as exc:
        raise DimensionError(
            f"matmul operands {a.data.shape} @ {b.data.shape}: {exc}") from None
    ad, bd = a.data, b.data

    def bw(g):
        if ad.ndim == 1 and bd.ndim == 1:  # dot
            if a.requires_grad:
                _acc(a, g * bd)
            if b.requires_grad:
                _acc(b, g * ad)
        elif ad.ndim == 1:  # (n,) @ (n,m)
            if a.requires_grad:
                _acc(a, bd @ g)
            if b.requires_grad:
                _acc(b, np.outer(ad, g))
        elif bd.ndim == 1:  # (m,n) @ (n,)
            if a.requires_grad:
                _acc(a, np.outer(g, bd))
            if b.requires_grad:
                _acc(b, ad.T @ g)
        else:  # (m,n) @ (n,k)
            if a.requires_grad:
                _acc(a, g @ bd.T)
            if b.requires_grad:
                _acc(b, ad.T @ g)

    return _make(out, (a, b), bw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # piecewise form avoids exp overflow for large negative inputs
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a) -> NumArray:
    a = wrap(a)
    out = _sigmoid(a.data)

    def bw(g):
        if a.requires_grad:
            _acc(a, g * out * (1.0 - out))

    return _make(out, (a,), bw)


def tanh(a) -> NumArray:
    a = wrap(a)
    out = np.tanh(a.data)

    def bw(g):
        if a.requires_grad:
            _acc(a, g * (1.0 - out * out))

    return _make(out, (a,), bw)


def relu(a) -> NumArray:
    a = wrap(a)
    out = np.maximum(a.data, 0.0)

    def bw(g):
        if a.requires_grad:
            _acc(a, g * (a.data > 0.0))

    return _make(out, (a,), bw)


def hard_threshold(a) -> NumArray:
    """0/1 step at 0.5 with a straight-through backward.

    Forward emits 1.0 where the input strictly exceeds 0.5; backward
    passes the incoming gradient through unchanged, as if the step were
    the identity.
    """
    a = wrap(a)
    out = (a.data > 0.5).astype(np.float64)

    def bw(g):
        if a.requires_grad:
            _acc(a, g)

    return _make(out, (a,), bw)


# -- shape / reduction primitives ----------------------------------------


def concat(parts: Sequence) -> NumArray:
    """Concatenate along the first axis: 1-D vectors, or 2-D blocks with
    equal column counts."""
    parts = [wrap(p) for p in parts]
    sizes = [p.data.shape[0] for p in parts]
    out = np.concatenate([p.data for p in parts])

    def bw(g):
        off = 0
        for p, s in zip(parts, sizes):
            if p.requires_grad:
                _acc(p, g[off:off + s])
            off += s

    return _make(out, tuple(parts), bw)


def stack_rows(rows: Sequence) -> NumArray:
    """Stack 1-D arrays of equal length into a (len, dim) matrix."""
    rows = [wrap(r) for r in rows]
    out = np.stack([r.data for r in rows])

    def bw(g):
        for i, r in enumerate(rows):
            if r.requires_grad:
                _acc(r, g[i])

    return _make(out, tuple(rows), bw)


def arr_sum(a, axis=None) -> NumArray:
    a = wrap(a)
    out = a.data.sum(axis=axis)

    def bw(g):
        if a.requires_grad:
            if axis is None:
                _acc(a, np.broadcast_to(g, a.data.shape))
            else:
                _acc(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape))

    return _make(out, (a,), bw)


def arr_mean(a, axis=None) -> NumArray:
    a = wrap(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(arr_sum(a, axis=axis), 1.0 / n)


def pick(a, index: int) -> NumArray:
    """Select entry `index` along the first axis: a scalar of a vector, or
    a row of a matrix (embedding lookup)."""
    a = wrap(a)
    if not 0 <= index < a.data.shape[0]:
        raise DimensionError(f"pick index {index} out of range for {a.data.shape}")
    out = a.data[index]

    def bw(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            ga[index] = g
            _acc(a, ga)

    return _make(out, (a,), bw)


def masked_softmax(logits, mask) -> NumArray:
    """Softmax restricted to positions where mask is 1; exact zeros elsewhere."""
    logits = wrap(logits)
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != logits.data.shape:
        raise DimensionError(
            f"mask shape {mask.shape} does not match logits {logits.data.shape}")
    valid = mask > 0
    if not valid.any():
        raise InvalidMaskError("masked_softmax: mask has no valid positions")
    top = logits.data[valid].max()
    # masked logits are replaced before exp, which they could overflow
    e = np.exp(np.where(valid, logits.data, top) - top) * mask
    out = e / e.sum()

    def bw(g):
        if logits.requires_grad:
            _acc(logits, out * (g - np.dot(g, out)))

    return _make(out, (logits,), bw)


def log_softmax(logits) -> NumArray:
    logits = wrap(logits)
    shifted = logits.data - logits.data.max()
    lse = np.log(np.exp(shifted).sum())
    out = shifted - lse
    soft = np.exp(out)

    def bw(g):
        if logits.requires_grad:
            _acc(logits, g - soft * g.sum())

    return _make(out, (logits,), bw)


# -- gated recurrent cell -------------------------------------------------


@dataclass
class GruWeights:
    """One recurrent cell's weights: fused gate matrices plus biases.

    Gate columns are ordered [update, reset, candidate]. The recurrence is

        z = sigmoid(x W_x[:, :H]   + h W_h[:, :H]   + b[:H])
        r = sigmoid(x W_x[:, H:2H] + h W_h[:, H:2H] + b[H:2H])
        c = tanh   (x W_x[:, 2H:]  + (r * h) W_h[:, 2H:] + b[2H:])
        h' = (1 - z) * h + z * c
    """

    w_x: NumArray  # (input, 3*hidden)
    w_h: NumArray  # (hidden, 3*hidden)
    b: NumArray    # (3*hidden,)

    @property
    def input_size(self) -> int:
        return self.w_x.data.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.w_h.data.shape[0]


def gru_cell(x, h_prev, w: GruWeights) -> NumArray:
    """One recurrence step; fused node with a hand-derived backward."""
    x, h_prev = wrap(x), wrap(h_prev)
    i_dim, hid = w.input_size, w.hidden_size
    if x.data.shape != (i_dim,):
        raise DimensionError(
            f"gru_cell input x has shape {x.data.shape}, expected ({i_dim},)")
    if h_prev.data.shape != (hid,):
        raise DimensionError(
            f"gru_cell state h_prev has shape {h_prev.data.shape}, expected ({hid},)")
    wx, wh, b = w.w_x, w.w_h, w.b
    hd = h_prev.data
    gx = x.data @ wx.data + b.data
    gh = hd @ wh.data[:, :2 * hid]
    z = _sigmoid(gx[:hid] + gh[:hid])
    r = _sigmoid(gx[hid:2 * hid] + gh[hid:])
    rh = r * hd
    c = np.tanh(gx[2 * hid:] + rh @ wh.data[:, 2 * hid:])
    out = (1.0 - z) * hd + z * c

    def bw(g):
        d_c = g * z * (1.0 - c * c)
        d_z = g * (c - hd) * z * (1.0 - z)
        d_h = g * (1.0 - z)
        d_rh = wh.data[:, 2 * hid:] @ d_c
        d_r = d_rh * hd * r * (1.0 - r)
        d_h = d_h + r * d_rh
        d_gates = np.concatenate([d_z, d_r, d_c])
        if x.requires_grad:
            _acc(x, wx.data @ d_gates)
        if h_prev.requires_grad:
            _acc(h_prev, d_h + wh.data[:, :2 * hid] @ np.concatenate([d_z, d_r]))
        if wx.requires_grad:
            _acc(wx, np.outer(x.data, d_gates))
        if wh.requires_grad:
            _acc(wh, np.concatenate(
                [np.outer(hd, d_z), np.outer(hd, d_r), np.outer(rh, d_c)], axis=1))
        if b.requires_grad:
            _acc(b, d_gates)

    return _make(out, (x, h_prev, wx, wh, b), bw)


# -- parameter registry ----------------------------------------------------


class ParamStore:
    """Named registry of learnable arrays, partitioned into freezable groups.

    A frozen entry has `requires_grad=False`: graphs built from it alone
    stay plain values, backward never reaches it and Adam skips it.
    """

    def __init__(self):
        self.entries: dict[str, NumArray] = {}
        self.groups: dict[str, set[str]] = {}

    def add(self, name: str, value, group: str) -> NumArray:
        if name in self.entries:
            raise ValueError(f"duplicate parameter name '{name}'")
        p = NumArray(np.array(value, dtype=np.float64), requires_grad=True)
        self.entries[name] = p
        self.groups.setdefault(group, set()).add(name)
        return p

    def __getitem__(self, name: str) -> NumArray:
        return self.entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def names(self):
        return list(self.entries)

    def group_of(self, name: str) -> str:
        for g, members in self.groups.items():
            if name in members:
                return g
        raise KeyError(name)

    def freeze(self, *groups: str):
        for g in groups:
            if g not in self.groups:
                raise KeyError(f"unknown group '{g}'")
            for n in self.groups[g]:
                self.entries[n].requires_grad = False

    def unfreeze_all(self):
        for p in self.entries.values():
            p.requires_grad = True

    @property
    def frozen(self) -> set[str]:
        """The groups none of whose entries require grad."""
        return {g for g, members in self.groups.items()
                if not any(self.entries[n].requires_grad for n in members)}

    def zero_grads(self):
        for p in self.entries.values():
            p.grad = None

    def gru(self, prefix: str) -> GruWeights:
        return GruWeights(self.entries[prefix + ".w_x"],
                          self.entries[prefix + ".w_h"],
                          self.entries[prefix + ".b"])

    def copy(self) -> "ParamStore":
        other = ParamStore()
        for g, members in self.groups.items():
            for n in sorted(members):
                other.add(n, self.entries[n].data.copy(), g)
        other.freeze(*self.frozen)
        return other


def init_matrix(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform in [-a, a] with a = sqrt(6 / (fan_in + fan_out)).

    One-dimensional shapes are treated as (n, 1) for the fan computation.
    """
    if len(shape) == 1:
        fan_in, fan_out = shape[0], 1
    else:
        fan_in, fan_out = shape[0], shape[1]
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


# -- optimizer --------------------------------------------------------------


class Adam:
    """Adam with bias correction; entries that do not require grad (frozen
    groups) are skipped entirely.

    Moment state is keyed by parameter name and carried across steps, so
    the same instance must drive a whole training stage.
    """

    def __init__(self, params: ParamStore, lr: float = 0.0004,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.params.entries.items():
            if not p.requires_grad:
                continue
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif not np.isfinite(g).all():
                raise EvaluationError(f"non-finite gradient for parameter '{name}'")
            m = self.m.get(name)
            if m is None:
                m = self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


# -- gradient checking -------------------------------------------------------


def grad_check(fn: Callable[[ParamStore], NumArray], params: ParamStore,
               delta: float = 1e-5, max_coords_per_param: int | None = None,
               rng: np.random.Generator | None = None,
               include: Iterable[str] | None = None,
               scale_floor: float = 1e-4) -> float:
    """Compare analytic gradients of a scalar `fn` against central differences.

    Returns the max over checked coordinates of
    |analytic - numeric| / max(|analytic|, |numeric|, scale_floor).
    The floor makes coordinates whose gradient sits below the
    finite-difference noise level (roundoff is about eps*|f|/delta) compare
    absolutely instead of blowing up the ratio; real defects on gradients of
    usable magnitude still register. `max_coords_per_param` bounds the
    coordinates sampled per entry (None checks every coordinate).
    """
    params.zero_grads()
    out = fn(params)
    if out.data.size != 1:
        raise EvaluationError("grad_check target must be scalar")
    if not np.isfinite(out.data).all():
        raise EvaluationError("grad_check target evaluated to a non-finite value")
    out.backward()
    names = list(include) if include is not None else params.names()
    analytic = {}
    for n in names:
        g = params[n].grad
        analytic[n] = np.zeros_like(params[n].data) if g is None else g.copy()

    worst = 0.0
    for n in names:
        p = params[n]
        flat = p.data.reshape(-1)
        idxs = np.arange(flat.size)
        if max_coords_per_param is not None and flat.size > max_coords_per_param:
            gen = rng if rng is not None else np.random.default_rng(0)
            idxs = gen.choice(flat.size, size=max_coords_per_param, replace=False)
        ga = analytic[n].reshape(-1)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + delta
            with no_grad():
                f_plus = float(fn(params).data)
            flat[i] = orig - delta
            with no_grad():
                f_minus = float(fn(params).data)
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise EvaluationError(
                    f"non-finite evaluation while perturbing '{n}'")
            numeric = (f_plus - f_minus) / (2.0 * delta)
            err = abs(ga[i] - numeric) / max(abs(ga[i]), abs(numeric), scale_floor)
            if err > worst:
                worst = err
    return worst


# -- checkpoint container ----------------------------------------------------


def save_checkpoint(path, params: ParamStore, meta: dict | None = None):
    """Write parameters to a stable JSON container (names, shapes, row-major values)."""
    obj = {
        "version": CHECKPOINT_VERSION,
        "params": {
            name: {"shape": list(p.data.shape),
                   "values": p.data.reshape(-1).tolist()}
            for name, p in params.entries.items()
        },
        "groups": {g: sorted(members) for g, members in params.groups.items()},
        "frozen": sorted(params.frozen),
        "meta": meta or {},
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True)
        f.write("\n")


def load_checkpoint(path) -> tuple[ParamStore, dict]:
    with open(path, encoding="utf-8") as f:
        obj = json.load(f)
    if obj.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {obj.get('version')!r}")
    store = ParamStore()
    name_to_group = {}
    for g, members in obj["groups"].items():
        for n in members:
            name_to_group[n] = g
    for name in sorted(obj["params"]):
        rec = obj["params"][name]
        value = np.array(rec["values"], dtype=np.float64).reshape(rec["shape"])
        store.add(name, value, name_to_group[name])
    store.freeze(*obj["frozen"])
    return store, obj["meta"]
