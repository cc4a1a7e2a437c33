"""Scene change detection over photo vectors and per-scene summaries.

A linear classifier scores each photo vector against the running scene
state; when it fires the accumulated state is emitted as a scene
representation and cleared before the step. The hard 0/1 decision uses a
straight-through estimator so the classifier still receives gradients.

Once the forward pass has fixed the decisions, the rest is an ordinary
recurrence, so a batch of albums is one graph node on the GRU input side
V W_x + b: the forward runs the detector, threshold, reset and GRU step
photo by photo in numpy, and a hand-written backward runs back through
time, with dL/dsoft = dL/dk at each threshold; a `pick` gathers each
album's slots from the node's emitted rows and states. Every result has
one (step, album, ...) layout; a lone album is a batch of one.

Emission layout: X has one slot per photo position plus one final slot.
Slot i (i >= 2) holds k_i * h_{i-1}; a non-firing position contributes an
exactly-zero row with scene_mask 0 (a false scene). The first position
never emits (the state there is the all-zero init, not a scene) and the
final state is always emitted as the closing scene, so 1 <= u <= m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T


@dataclass
class SceneSegmentation:
    flags: np.ndarray       # (m, B) ints, the hard decisions
    softs: np.ndarray | None  # (m, B) classifier scores in (0,1); None when flags forced
    X: T.NumArray           # (m+1, B, D_v) emitted slots
    scene_mask: np.ndarray  # (m+1, B) ints, 1 marks a true scene row
    u: np.ndarray           # (B,) ints, each album's number of true scenes


def detect_boundary(v_i, h_prev, params):
    """Returns (k, soft), each (B, 1) for rows v_i and h_prev (B, D_v).
    k = soft + stop_grad(1[soft > 0.5] - soft): its value is the hard
    decision to the bit, and its backward is the plain sigmoid path, which
    is the gradient the straight-through estimator passes to soft.
    """
    w_v, w_h = (T.reshape(params[f"scene.detect.{p}"], (-1, 1)) for p in ("w_v", "w_h"))
    soft = T.sigmoid(v_i @ w_v + h_prev @ w_h + params["scene.detect.b"])
    return soft + T.wrap((soft.data > 0.5) - soft.data), soft


def encode_scenes(V, params, force_flags=None, relax: bool = False,
                  lengths=None) -> SceneSegmentation:
    """Segment albums as one graph node; V is B albums' rows padded
    time-major to (m_max, B, D_v) with their photo counts in `lengths`, or
    one album's (m, D_v) rows or (D_v,) list, a batch of one. Every step
    runs all B rows; each album's slots and closing state are gathered from
    its own steps, so padding steps reach nothing.

    force_flags ((m, B) 0/1 decisions, (m,) for one album) bypasses the
    classifier, making the whole computation an ordinary differentiable
    recurrence (used by gradient checks and the forced-flag oracles).
    relax=True takes each step's detector gradient by autodiff through
    `detect_boundary`'s relaxation in place of the straight-through rule;
    values are the same.
    """
    V = T.wrap(V)
    if len(V.data) == 0:
        raise ValueError("album has no photos")
    if V.data.ndim == 2:   # one album: a batch of one
        V = T.reshape(V, (len(V.data), 1, -1))
        force_flags = None if force_flags is None else np.reshape(force_flags, (-1, 1))
    m, B, _ = V.shape
    if force_flags is not None:
        force_flags = np.asarray(force_flags)
        if force_flags.shape != (m, B):
            raise ValueError(f"force_flags shape {force_flags.shape} != photo "
                             f"steps {(m, B)}")
        if not np.isin(force_flags, (0, 1)).all():
            raise ValueError(f"force_flags must be 0 or 1, got "
                             f"{sorted(set(force_flags.ravel().tolist()) - {0, 1})}")
    n = T.step_lengths(lengths, m, B)
    gru_w = params.gru("scene.gru")
    w_v, w_h, b = (params[f"scene.detect.{p}"] for p in ("w_v", "w_h", "b"))
    hid, wh = gru_w.hidden_size, gru_w.w_h.data

    # the input projections of all steps at once equal each step's to the bit
    gx = V @ gru_w.w_x + gru_w.b
    rows = V.data
    v_score = rows @ w_v.data
    live = force_flags is None
    k = np.empty(v_score.shape) if live else force_flags * 1.0
    softs = np.empty(v_score.shape)
    hs = np.zeros((m + 1, B, hid))   # hs[i] is the state entering step i
    emitted, resets = np.zeros_like(hs[1:]), np.zeros_like(hs[1:])
    caches = []
    for i in range(m):
        if live:
            softs[i] = T._sigmoid(v_score[i] + hs[i] @ w_h.data + b.data)
            k[i] = softs[i] > 0.5
        if i > 0:   # a firing boundary emits the state and clears it
            np.multiply(k[i][:, None], hs[i], out=emitted[i])
            np.subtract(hs[i], emitted[i], out=resets[i])
        caches.append(T._gru_step(gx.data[i], resets[i], wh, out=hs[i + 1])[1])

    # slot j of an album of n photos: emitted row j below n, the closing
    # state at n, and the all-zero row 0 past it; the mask is gathered alike
    slot = np.arange(m + 1)[:, None]
    index = (np.where(slot < n, slot, np.where(slot == n, m + n - 1, 0)), np.arange(B))
    flags = k.astype(np.int64)
    mask = np.concatenate([0 * flags[:1], flags[1:], np.ones_like(flags)])[index]

    def bw(g):   # g is the gradient of [emitted ; states]
        d_emitted, d_states = g[:m], g[m:]
        d_gates = np.empty_like(gx.data)
        d_score = np.zeros(k.shape)
        d_rows = np.zeros_like(rows)   # the relaxed detector's share of dL/dV
        d_h = np.zeros_like(hs[0])
        for i in range(m - 1, -1, -1):
            d_gates[i], d_reset = T._gru_step_backward(d_states[i] + d_h, resets[i],
                                                       caches[i], wh)
            if i == 0:   # the first step starts from the constant zero state
                break
            d_emit = d_emitted[i] - d_reset
            d_k = (d_emit * hs[i]).sum(axis=-1)
            d_h = d_reset + k[i][:, None] * d_emit
            if live and relax:   # autodiff through the relaxed detector
                v, h = (T.NumArray(x, requires_grad=True) for x in (rows[i], hs[i]))
                k_i, _ = detect_boundary(v, h, params)
                T.arr_sum(k_i * T.wrap(d_k[:, None])).backward()
                d_rows[i] = v.grad
                d_h += h.grad
            elif live:   # straight through the threshold: dL/dsoft = dL/dk
                d_score[i] = d_k * softs[i] * (1.0 - softs[i])
                d_h += d_score[i][:, None] * w_h.data
        T._recurrent_grads(gru_w.w_h, resets, caches, d_gates)
        if gx.requires_grad:
            T._acc(gx, d_gates)
        for p, grad in ((V, d_rows + d_score[..., None] * w_v.data),   # the detector's
                        (w_v, np.tensordot(d_score, rows, 2)),
                        (w_h, np.tensordot(d_score, hs[:-1], 2)),
                        (b, np.array(d_score.sum()))):
            if live and p.requires_grad:
                T._acc(p, grad)

    X = T.pick(T._make(np.concatenate([emitted, hs[1:]]),
                       (gx, gru_w.w_h) + ((V, w_v, w_h, b) if live else ()), bw), index)
    return SceneSegmentation(flags, softs if live else None, X, mask, mask.sum(axis=0))


def scene_indices(flags) -> list:
    """1-based scene number for each photo given the boundary flags."""
    out, scene = [], 1
    for i, k in enumerate(flags):
        if i > 0 and k:
            scene += 1
        out.append(scene)
    return out
