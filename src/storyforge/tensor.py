"""Differentiable dense-array substrate.

Eager forward math on float64 numpy arrays with reverse-mode gradients,
a named parameter registry with freezable groups, an Adam optimizer, a
finite-difference gradient checker, and a JSON checkpoint container that
holds each parameter as base64 float64 bytes (version 2; version 1 files,
with float text, still load).

A recurrence over a whole sequence is one graph node (`gru_scan`, from
zero states, with a hand-derived backward through time; the scene encoder
and the attention feedback build their own such nodes on `_gru_step`) that
takes and returns only what recurs: its callers build the projections it
reads and the gathers of its result from primitives. Independent ones
share a scan as cells side by side, whose weights `assemble` lays out as
diagonal blocks. Only they and the small primitives have hand-written
backwards; `gru_cell`, the step they are tested against, composes
primitives.
Decoding builds no nodes: it runs `_gru_step`, `_log_softmax` and its
core `_exp_sums` (greedy's) on plain arrays, as the recurrence nodes'
forwards do; each such array function (`_sigmoid` and `_softmax_offset`
too) also serves its node, and makes few array passes, which set its
time at these widths (`_sigmoid` is one tanh; `_gru_step` starts each
gate from its matrix product and adds into it, squashes it and updates
the state in place, writing only arrays it made and the caller's row of
states if given one, never its inputs; `_exp_sums` shifts by the row
max and sums the exps by `np.maximum.reduce` and `np.add.reduce`; a
masked softmax adds a 0/-inf offset, so a loop checks its mask once). The
rest composes from small primitives, among them `matmul`, which
multiplies rows by a matrix or a stack of matrices, and `target_log_probs`,
the teacher-forced head, which gathers each target's log-softmax with no
one-hot mask.
Gradients are never written in place: `_acc` keeps a first gradient as it
is handed and adds later ones out of place, so a backward may hand over
views and arrays that other nodes hold too.
Adam updates the entries that learn when it is made as one flat vector,
its moments two more, all laid out once. `float_faults` is the rule the
model's arithmetic runs under: an overflow or invalid value raises
EvaluationError.
"""

from __future__ import annotations

import base64
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

CHECKPOINT_VERSION = 2


class DimensionError(ValueError):
    """Operand shapes incompatible with an operation."""


class InvalidMaskError(ValueError):
    """A mask selects no valid positions."""


class EvaluationError(RuntimeError):
    """A checked evaluation produced a non-finite result."""


@contextmanager
def float_faults():
    """The float-fault rule of the model's arithmetic, as a `with` block or a
    decorator (`@float_faults()`): an overflow or invalid value inside raises
    EvaluationError with numpy's message, its cause the FloatingPointError."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as e:
        raise EvaluationError(str(e)) from e


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
        """Accumulate dL/dx into every reachable leaf that requires grad
        (parameters and inputs). Each operation node releases its gradient
        and its parents once its gradient has reached them, so a graph can
        be walked back once."""
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
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                # propagated: the node's gradient and its link to the graph
                # are released, so the graph is freed as backward proceeds
                node.grad, node._parents, node._backward = None, (), None

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
    """Add g to p's gradient out of place: a first g is kept as it is (a
    view, or an array another node holds too), as no gradient is ever
    written in place."""
    p.grad = g if p.grad is None else p.grad + g


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


def _rows(a: np.ndarray) -> np.ndarray:
    """The leading axes of `a` flattened into one: (..., k) -> (n, k)."""
    return a.reshape(-1, a.shape[-1])


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
    """Rows (..., m, n) times a matrix (n, k) or a stack of matrices."""
    a, b = wrap(a), wrap(b)
    ad, bd = a.data, b.data
    if min(ad.ndim, bd.ndim) < 2:
        raise DimensionError(f"matmul operands {ad.shape} @ {bd.shape}: "
                             f"both must have at least two axes")
    try:
        out = ad @ bd
    except ValueError as exc:
        raise DimensionError(
            f"matmul operands {ad.shape} @ {bd.shape}: {exc}") from None

    def bw(g):
        if bd.ndim == 2:  # (..., m, n) @ (n, k)
            if a.requires_grad:
                _acc(a, g @ bd.T)
            if b.requires_grad:
                _acc(b, _rows(ad).T @ _rows(g))
        else:  # stacks of matrices, broadcast against each other
            if a.requires_grad:
                _acc(a, _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape))
            if b.requires_grad:
                _acc(b, _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape))

    return _make(out, (a, b), bw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/2 + tanh(x/2)/2: one transcendental, saturating with no overflow
    t = np.tanh(0.5 * x)
    t *= 0.5
    t += 0.5
    return t


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


# -- shape / reduction primitives ----------------------------------------


def concat(parts: Sequence, axis: int = 0) -> NumArray:
    """Concatenate along `axis`: 1-D vectors, or blocks whose other axes
    agree."""
    parts = [wrap(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)

    def bw(g):
        cuts = np.cumsum([p.data.shape[axis] for p in parts])[:-1]
        for p, gp in zip(parts, np.split(g, cuts, axis=axis)):
            if p.requires_grad:
                _acc(p, gp)

    return _make(out, tuple(parts), bw)


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


def step_lengths(lengths, steps: int, rows: int) -> np.ndarray:
    """The step count of each of the `rows` rows of a time-major batch of
    `steps` steps, the one rule of every padded batch (photos, words, the
    reconstructor's steps); None means every row runs all the steps. Raises
    ValueError unless rows >= 1 and each count is an integer in 1..steps."""
    lengths = np.full(rows, steps) if lengths is None else np.asarray(lengths)
    if lengths.shape != (rows,) or lengths.size == 0 \
            or not np.issubdtype(lengths.dtype, np.integer) \
            or lengths.min() < 1 or lengths.max() > steps:
        raise ValueError(f"step counts {lengths.tolist()} do not fit {steps} steps "
                         f"of a batch of {rows} rows")
    return lengths


def reshape(a, shape) -> NumArray:
    a = wrap(a)
    out = a.data.reshape(shape)

    def bw(g):
        if a.requires_grad:
            _acc(a, g.reshape(a.data.shape))

    return _make(out, (a,), bw)


def pick(a, index) -> NumArray:
    """Select along the first axis. An int picks one entry of a vector or one
    row of a matrix; an integer array gathers rows into its own shape
    (embedding lookup, row reversal). A tuple of integer arrays indexes the
    leading axes together, as numpy does (a step of each batch row). Backward
    adds repeats up; an index of ints and slices, which has none, writes its
    gradient into zeros."""
    a = wrap(a)
    parts = index if isinstance(index, tuple) else (index,)
    for axis, idx in enumerate(parts):
        idx = np.asarray(idx)
        if idx.dtype != object and idx.size \
                and not (0 <= idx.min() and idx.max() < a.data.shape[axis]):
            raise DimensionError(f"pick index {index} out of range for {a.data.shape}")
    out = a.data[index]
    basic = all(isinstance(idx, (int, slice)) for idx in parts)

    def bw(g):
        if a.requires_grad:
            if basic:
                ga = np.zeros_like(a.data)
                ga[index] = g
            else:
                ga = _scatter_add(a.data.shape, index, g)
            _acc(a, ga)

    return _make(out, (a,), bw)


def _scatter_add(shape, index, g) -> np.ndarray:
    """Zeros of `shape` with g added at `index`, an integer array or a tuple
    of integer arrays over the leading axes, repeats summed (`np.add.at`'s
    result up to rounding): the linearized index is sorted stably and each
    run of equal entries summed by one `np.add.reduceat`."""
    parts = index if isinstance(index, tuple) else (index,)
    lead, rest = tuple(shape[:len(parts)]), tuple(shape[len(parts):])
    flat = np.ravel_multi_index(parts, lead).ravel()   # broadcasts the parts
    out = np.zeros((math.prod(lead),) + rest)
    if flat.size:
        order = flat.argsort(kind="stable")
        keys = flat[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        out[keys[starts]] = np.add.reduceat(g.reshape((flat.size,) + rest)[order],
                                            starts, axis=0)
    return out.reshape(shape)


def assemble(shape, parts) -> NumArray:
    """A zero array of `shape` with each node of `parts`, (index, node)
    pairs whose indices do not overlap, written at out[index]; backward
    gathers each node's gradient from its index (diagonal blocks of a
    fused weight matrix)."""
    parts = [(index, wrap(p)) for index, p in parts]
    out = np.zeros(shape)
    for index, p in parts:
        out[index] = p.data

    def bw(g):
        for index, p in parts:
            if p.requires_grad:
                _acc(p, g[index])

    return _make(out, tuple(p for _, p in parts), bw)


def _mask_offset(mask, shape) -> np.ndarray:
    """The 0/-inf offset that restricts a softmax over logits of `shape` to
    the positions where the 0/1 `mask` is 1. Raises unless the shapes match
    and every row has a valid position, so a loop over one mask checks it
    once."""
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != shape:
        raise DimensionError(f"mask shape {mask.shape} does not match logits {shape}")
    valid = mask > 0
    if not valid.any(axis=-1).all():
        raise InvalidMaskError("masked_softmax: a row of the mask has no valid positions")
    return np.where(valid, 0.0, -np.inf)


def _softmax_offset(logits: np.ndarray, offset: np.ndarray, out=None) -> np.ndarray:
    """Softmax over the last axis of logits + `_mask_offset`'s offset, into
    `out` if given. A masked position's exp is of -inf, exactly 0, so for
    finite logits this equals, to the bit, the masked softmax that replaces
    masked logits by the row's valid maximum and multiplies by the mask."""
    e = np.add(logits, offset, out=out)
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def masked_softmax(logits, mask) -> NumArray:
    """Softmax over the last axis, row by row, restricted to positions where
    mask is 1; exact zeros elsewhere. Every row needs a valid position."""
    logits = wrap(logits)
    out = _softmax_offset(logits.data, _mask_offset(mask, logits.data.shape))

    def bw(g):
        if logits.requires_grad:
            _acc(logits, out * (g - (g * out).sum(axis=-1, keepdims=True)))

    return _make(out, (logits,), bw)


def _exp_sums(x: np.ndarray):
    """`_log_softmax`'s core: x less its row maxima (last axis), a new array,
    and each row's sum of their exp (keepdims), by ufunc reductions."""
    shifted = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    return shifted, np.add.reduce(np.exp(shifted), axis=-1, keepdims=True)


def _log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis into a new array; x is left as it is."""
    shifted, sums = _exp_sums(x)
    shifted -= np.log(sums)
    return shifted


def target_log_probs(logits, ids, valid) -> NumArray:
    """The log-softmax of (T, B, V) logits at each position's target id
    (T, B), exactly 0.0 where `valid` (T, B) is False: the log-softmax times
    a one-hot mask summed over V, to the bit, with no (T, B, V) mask. Backward
    forms g one-hot - exp(log-softmax) g in the order of operations of the
    log-softmax's own backward, g - exp(log-softmax) sum(g)."""
    logits, ids, valid = wrap(logits), np.asarray(ids), np.asarray(valid, dtype=bool)
    if not ids.shape == valid.shape == logits.data.shape[:-1]:
        raise DimensionError(f"targets {ids.shape} and mask {valid.shape} "
                             f"do not fit logits {logits.data.shape}")
    out = _log_softmax(logits.data)
    at = np.nonzero(valid) + (ids[valid],)
    picked = np.zeros(ids.shape)
    picked[valid] = out[at]

    def bw(g):
        if logits.requires_grad:
            # the one-hot row of g sums to g (+0.0 for a zero row, as numpy sums)
            d = np.exp(out)
            d *= (np.where(valid, g, 0.0) + 0.0)[..., None]
            d_at = d[at]
            # off target, g times 0 minus exp(out) g: its sign of zero too
            np.subtract(np.copysign(0.0, g)[..., None], d, out=d)
            d[at] = g[valid] - d_at
            _acc(logits, d)

    return _make(picked, (logits,), bw)


# -- gated recurrent cell -------------------------------------------------


@dataclass
class GruWeights:
    """One recurrent cell's weights: fused gate matrices plus biases.

    Gate columns are ordered [update, reset, candidate]. The recurrence is

        z = sigmoid(x W_x[:, :H]   + h W_h[:, :H]   + b[:H])
        r = sigmoid(x W_x[:, H:2H] + h W_h[:, H:2H] + b[H:2H])
        c = tanh   (x W_x[:, 2H:]  + (r * h) W_h[:, 2H:] + b[2H:])
        h' = (1 - z) * h + z * c

    The kernel forms h' as h + z * (c - h), the same value in one pass
    fewer.
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


def _gru_step(gx, hd, wh, hid, out=None):
    """One step on (..., H) states from the input-side pre-activations
    gx = x W_x + b, writing h' into `out` (a fresh array if None), which
    must not overlap hd; gx and hd share their leading shape. Each gate
    starts from its matrix product, gx's columns are added into it and its
    nonlinearity runs in place, so the kernel writes only into arrays it
    made and into `out`, never into gx, hd or wh. Returns (h', cache for
    `_gru_step_backward`)."""
    zr = hd @ wh[:, :2 * hid]
    zr += gx[..., :2 * hid]
    zr *= 0.5   # `_sigmoid`, in place
    np.tanh(zr, out=zr)
    zr *= 0.5
    zr += 0.5
    z, r = zr[..., :hid], zr[..., hid:]
    rh = r * hd
    c = rh @ wh[:, 2 * hid:]
    c += gx[..., 2 * hid:]
    np.tanh(c, out=c)
    h = np.subtract(c, hd, out=out)   # h + z (c - h), in place
    h *= z
    h += hd
    return h, (z, r, rh, c)


def _gru_step_backward(g, hd, cache, wh, hid):
    """dL/dh' -> (dL/d pre-activations (..., 3H), dL/dh)."""
    z, r, rh, c = cache
    d_c = g * z * (1.0 - c * c)
    d_z = g * (c - hd) * z * (1.0 - z)
    d_rh = d_c @ wh[:, 2 * hid:].T
    d_r = d_rh * hd * r * (1.0 - r)
    d_gates = np.concatenate([d_z, d_r, d_c], axis=-1)
    d_h = g * (1.0 - z) + r * d_rh + d_gates[..., :2 * hid] @ wh[:, :2 * hid].T
    return d_gates, d_h


def _recurrent_grads(w_h, hd, rh, d_gates):
    """Accumulate the gradient of a recurrence node's W_h from its
    pre-activation gradients, summed over every leading axis."""
    if w_h.requires_grad:
        hid, dg = len(w_h.data), _rows(d_gates)
        _acc(w_h, np.concatenate([_rows(hd).T @ dg[:, :2 * hid],
                                  _rows(rh).T @ dg[:, 2 * hid:]], axis=1))


def gru_cell(x, h_prev, w: GruWeights) -> NumArray:
    """One recurrence step on x (..., I) and h_prev (..., H), composed from
    primitives that take `_gru_step`'s operations on the same views: its
    values equal the step's to the bit, and autodiff gives its gradients."""
    x, h_prev = wrap(x), wrap(h_prev)
    i_dim, hid = w.input_size, w.hidden_size
    if x.data.shape[-1:] != (i_dim,):
        raise DimensionError(
            f"gru_cell input x has shape {x.data.shape}, expected (..., {i_dim})")
    if h_prev.data.shape != x.data.shape[:-1] + (hid,):
        raise DimensionError(f"gru_cell state h_prev has shape {h_prev.data.shape}, "
                             f"expected {x.data.shape[:-1] + (hid,)}")
    lead = x.data.shape[:-1] or (1,)   # matmul takes rows: a vector is one
    x, h = reshape(x, lead + (i_dim,)), reshape(h_prev, lead + (hid,))

    def cols(a, lo, hi=None):   # a[..., lo:hi]
        return pick(a, (slice(None),) * (a.data.ndim - 1) + (slice(lo, hi),))

    gx = x @ w.w_x + w.b
    zr = sigmoid(cols(gx, 0, 2 * hid) + h @ cols(w.w_h, 0, 2 * hid))
    z, r = cols(zr, 0, hid), cols(zr, hid)
    c = tanh(cols(gx, 2 * hid) + (r * h) @ cols(w.w_h, 2 * hid))
    return reshape(h + z * (c - h), h_prev.data.shape)


def gru_scan(gx, w_h) -> NumArray:
    """The recurrence over a whole sequence from zero states, as one node
    with a hand-written backward through time: gx (T, B, 3H) is the input
    side x W_x + b, an ordinary node, so an input fixed across steps is
    projected once; w_h is (H, 3H), and the result stacks the T states,
    (T, B, H). Batch rows never mix, so the steps padded onto a short row
    leave its earlier states as they are."""
    gx, w_h = wrap(gx), wrap(w_h)
    hid = w_h.data.shape[0]
    if gx.data.ndim < 2 or gx.data.shape[-1] != 3 * hid:
        raise DimensionError(f"gru_scan input gx {gx.data.shape}, "
                             f"expected (T, ..., {3 * hid})")
    wh = w_h.data
    hs = np.zeros((len(gx.data) + 1,) + gx.data.shape[1:-1] + (hid,))
    caches = []
    for t, gx_t in enumerate(gx.data):
        caches.append(_gru_step(gx_t, hs[t], wh, hid, out=hs[t + 1])[1])

    def bw(g):
        d_gates = np.empty_like(gx.data)
        d_h = np.zeros_like(hs[0])
        for t in range(len(d_gates) - 1, -1, -1):
            d_gates[t], d_h = _gru_step_backward(g[t] + d_h, hs[t], caches[t], wh, hid)
        if gx.requires_grad:
            _acc(gx, d_gates)
        _recurrent_grads(w_h, hs[:-1], np.stack([c[2] for c in caches]), d_gates)

    return _make(hs[1:], (gx, w_h), bw)


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


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction over the entries that learn when it is
    made; entries that do not require grad (frozen groups) are skipped
    entirely.

    Those entries update as one flat vector, and their moments are two more,
    laid out once; `m[name]` and `v[name]` are views of them. Freezing or
    thawing an entry afterwards makes `step` raise, so each training stage
    makes its own Adam.
    """

    def __init__(self, params: ParamStore, lr: float = 0.0004):
        self.params = params
        self.lr = lr
        self.t = 0
        live = [(name, p) for name, p in params.entries.items() if p.requires_grad]
        cuts = np.cumsum([0] + [p.data.size for _, p in live]).tolist()
        self._spans = [(name, p, lo, hi) for (name, p), lo, hi in zip(live, cuts, cuts[1:])]
        self._moments, self._work = np.zeros((2, cuts[-1])), np.empty((4, cuts[-1]))
        self.m, self.v = ({name: a[lo:hi].reshape(p.data.shape)
                           for name, p, lo, hi in self._spans} for a in self._moments)

    def step(self):
        """One flat update of every learning entry (a None gradient reads as
        zeros) in preallocated buffers. A non-finite gradient or update raises
        EvaluationError, naming the first such entry, and a change in which
        entries learn raises ValueError, each before anything changes."""
        if list(self.m) != [n for n, p in self.params.entries.items() if p.requires_grad]:
            raise ValueError("the learning entries changed since this Adam was made")
        (m_old, v_old), (g, m, v, update) = self._moments, self._work
        np.concatenate([np.zeros(0)] + [np.zeros(p.data.size) if p.grad is None
                                         else p.grad.ravel() for _, p, _, _ in self._spans],
                       out=g)
        t, b1, b2 = self.t + 1, ADAM_BETA1, ADAM_BETA2
        with np.errstate(over="ignore", invalid="ignore"):   # checked below
            # m_old b1 + (1 - b1) g, v_old b2 + (1 - b2) g g, then
            # lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps), op by op
            np.multiply(m_old, b1, out=m)
            m += np.multiply(g, 1.0 - b1, out=update)
            np.multiply(v_old, b2, out=v)
            v += np.multiply(np.multiply(g, 1.0 - b2, out=update), g, out=update)
            np.sqrt(np.divide(v, 1.0 - b2 ** t, out=g), out=g)   # g is spent
            g += ADAM_EPS
            np.multiply(np.divide(m, 1.0 - b1 ** t, out=update), self.lr, out=update)
            update /= g
        if not (np.isfinite(v).all() and np.isfinite(update).all()):   # so is m then
            bad = np.argmin(np.isfinite(v) & np.isfinite(update))
            name, p = next((name, p) for name, p, _, hi in self._spans if bad < hi)
            what = ("gradient" if p.grad is not None and not np.isfinite(p.grad).all()
                    else "Adam update")
            raise EvaluationError(f"non-finite {what} for parameter '{name}'")
        m_old[...], v_old[...] = m, v
        self.t = t
        for _, p, lo, hi in self._spans:
            p.data -= update[lo:hi].reshape(p.data.shape)


# -- gradient checking -------------------------------------------------------


GRAD_CHECK_DELTA = 1e-5   # central-difference step


def grad_check(fn: Callable[[ParamStore], NumArray], params: ParamStore,
               max_coords_per_param: int | None = None,
               rng: np.random.Generator | None = None,
               include: Iterable[str] | None = None) -> float:
    """Compare analytic gradients of a scalar `fn` against central differences.

    Returns the max over checked coordinates of
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-4).
    The floor makes coordinates whose gradient sits below the
    finite-difference noise level (roundoff is about eps*|f|/GRAD_CHECK_DELTA)
    compare absolutely instead of blowing up the ratio; real defects on
    gradients of usable magnitude still register. `max_coords_per_param` bounds the
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
            flat[i] = orig + GRAD_CHECK_DELTA
            with no_grad():
                f_plus = float(fn(params).data)
            flat[i] = orig - GRAD_CHECK_DELTA
            with no_grad():
                f_minus = float(fn(params).data)
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise EvaluationError(
                    f"non-finite evaluation while perturbing '{n}'")
            numeric = (f_plus - f_minus) / (2.0 * GRAD_CHECK_DELTA)
            err = abs(ga[i] - numeric) / max(abs(ga[i]), abs(numeric), 1e-4)
            if err > worst:
                worst = err
    return worst


# -- checkpoint container ----------------------------------------------------


def save_checkpoint(path, params: ParamStore, meta: dict | None = None):
    """Write parameters to a stable JSON container (names, shapes, and each
    parameter's row-major little-endian float64 bytes as base64 text):
    `json.dumps(container, sort_keys=True)` and a newline."""
    records = {name: {"shape": list(p.data.shape),
                      "values": base64.b64encode(p.data.astype("<f8", copy=False)
                                                 .tobytes()).decode("ascii")}
               for name, p in params.entries.items()}
    container = {"frozen": sorted(params.frozen), "meta": meta or {},
                 "groups": {g: sorted(m) for g, m in params.groups.items()},
                 "params": records, "version": CHECKPOINT_VERSION}
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(container, sort_keys=True) + "\n")


def load_checkpoint(path) -> tuple[ParamStore, dict]:
    """Read a save_checkpoint container; a malformed one raises a one-line
    ValueError naming the path and the bad field. The version is the
    integer 1 or 2; version 1 containers, whose values are flat lists of
    numbers, still load."""
    def check(ok, msg):
        if not ok:
            raise ValueError(f"{path}: {msg}")

    with open(path, encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"{path}: not a JSON checkpoint: {e}") from None
    version = obj.get("version") if isinstance(obj, dict) else None
    check(type(version) is int and version in (1, CHECKPOINT_VERSION),
          f"field 'version' must be 1 or {CHECKPOINT_VERSION}")
    for key, typ in (("params", dict), ("groups", dict), ("frozen", list),
                     ("meta", dict)):
        check(isinstance(obj.get(key), typ), f"field '{key}' is missing or malformed")
    store = ParamStore()
    for name, rec in sorted(obj["params"].items()):
        groups = [g for g, members in obj["groups"].items()
                  if isinstance(members, list) and name in members]
        check(groups, f"parameter '{name}' is in no group")
        try:  # a short or non-base64 payload raises ValueError
            shape, values = rec["shape"], rec["values"]
            if version == 1:   # a flat list of numbers: no text, bools or nesting
                if type(values) is not list or {type(x) for x in values} - {int, float}:
                    raise TypeError
                # an int past float's range raises OverflowError
                values = np.array(values, dtype=np.float64)
            else:  # read-only; `store.add` copies it
                values = np.frombuffer(base64.b64decode(values, validate=True), "<f8")
            value = values.reshape(shape)
            ok = (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)
                  and np.isfinite(value).all())
        except (KeyError, TypeError, ValueError, OverflowError):
            ok = False
        check(ok, f"parameter '{name}' needs a shape and that many finite values")
        store.add(name, value, groups[0])
    unknown = [g for g in obj["frozen"]
               if not (isinstance(g, str) and g in store.groups)]
    check(not unknown, f"field 'frozen' names unknown groups {unknown}")
    store.freeze(*obj["frozen"])
    return store, obj["meta"]
