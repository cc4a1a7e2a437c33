"""Scene change detection over photo vectors and per-scene summaries.

A linear classifier scores each photo vector against the running scene
state; when it fires the accumulated state is emitted as a scene
representation and cleared before the step. The hard 0/1 decision uses a
straight-through estimator so the classifier still receives gradients.

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
    flags: list            # (m, *B) hard decisions as nested int lists
    softs: list            # (m, *B) classifier scores in (0,1); empty when flags forced
    X: T.NumArray          # (m+1, *B, D_v) emitted slots
    scene_mask: np.ndarray  # (m+1, *B) ints, 1 marks a true scene row
    u: int                 # number of true scenes, (*B,) nested for a batch


def detect_boundary(v_i, h_prev, params, relax: bool = False):
    """Returns (k, soft), each (*B, 1) for rows v_i and h_prev (*B, D_v).
    k is 1[soft > 0.5] with identity backward.

    relax=True swaps the threshold for soft + stop_grad(k - soft): the
    forward value is bit-identical to k but the backward pass is the plain
    sigmoid path, which is what the straight-through estimator claims to
    equal.
    """
    score = v_i @ params["scene.detect.w_v"] \
        + h_prev @ params["scene.detect.w_h"] + params["scene.detect.b"]
    soft = T.sigmoid(T.reshape(score, score.shape + (1,)))
    if relax:
        k = soft + T.wrap((soft.data > 0.5) - soft.data)
    else:
        k = T.hard_threshold(soft)
    return k, soft


def encode_scenes(V, params, force_flags=None, relax: bool = False,
                  lengths=None) -> SceneSegmentation:
    """Segment albums; V is one album's (m, D_v) photo rows, or anything
    `T.wrap` stacks to them such as a list of (D_v,) arrays, or B albums'
    rows padded time-major to (m_max, B, D_v) with their photo counts in
    `lengths`. Every step runs all B rows; each album's slots and closing
    state are gathered from its own steps, so padding steps reach nothing.

    force_flags ((m, *B) 0/1 decisions) bypasses the classifier, which
    makes the whole computation an ordinary differentiable graph (used by
    gradient checks and the forced-flag oracles).
    """
    V = T.wrap(V)
    m, batch = V.shape[0], V.shape[1:-1]
    if m == 0:
        raise ValueError("album has no photos")
    if force_flags is not None and np.shape(force_flags) != (m,) + batch:
        raise ValueError(f"force_flags shape {np.shape(force_flags)} != photo "
                         f"steps {(m,) + batch}")
    lengths = np.full(batch, m) if lengths is None else np.asarray(lengths)
    gru_w = params.gru("scene.gru")

    h = T.zeros(batch + (gru_w.hidden_size,))
    # rows[0] is the all-zero slot: the first position never emits
    rows, states, flags, softs = [h], [], [], []
    for i in range(m):
        v = T.pick(V, i)
        if force_flags is not None:
            k = T.wrap(np.asarray(force_flags, dtype=np.float64)[i][..., None])
        else:
            k, soft = detect_boundary(v, h, params, relax=relax)
            softs.append(soft.data[..., 0])
        flags.append(k.data[..., 0] > 0.5)
        if i > 0:
            rows.append(k * h)
            h = h - rows[-1]   # a firing boundary clears the state it emits
        h = T.gru_cell(v, h, gru_w)
        states.append(h)

    # slot j of an album of n photos: row j below n, the closing state at n,
    # and the zero row past it; the mask is gathered the same way
    slot = np.arange(m + 1).reshape((m + 1,) + (1,) * len(batch))
    index = (np.where(slot < lengths, slot, np.where(slot == lengths, m + lengths - 1, 0)),
             *T.batch_rows(lengths))
    X = T.pick(T.stack_rows(rows + states), index)
    flags = np.array(flags, dtype=np.int64)
    mask = np.concatenate([0 * flags[:1], flags[1:], np.ones_like(flags)])[index]
    return SceneSegmentation(flags.tolist(), np.array(softs).tolist(), X, mask,
                             mask.sum(axis=0).tolist())


def scene_indices(flags) -> list:
    """1-based scene number for each photo given the boundary flags."""
    out, scene = [], 1
    for i, k in enumerate(flags):
        if i > 0 and k:
            scene += 1
        out.append(scene)
    return out
