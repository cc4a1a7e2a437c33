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
    flags: list            # m hard decisions, ints
    softs: list            # m classifier scores in (0,1); empty when flags forced
    X: T.NumArray          # (m+1, D_v) emitted slots
    scene_mask: np.ndarray  # (m+1,) ints, 1 marks a true scene row
    u: int                 # number of true scenes

    @property
    def num_slots(self):
        return self.X.shape[0]


def detect_boundary(v_i, h_prev, params, relax: bool = False):
    """Returns (k, soft). k is 1[soft > 0.5] with identity backward.

    relax=True swaps the threshold for soft + stop_grad(k - soft): the
    forward value is bit-identical to k but the backward pass is the plain
    sigmoid path, which is what the straight-through estimator claims to
    equal.
    """
    score = v_i @ params["scene.detect.w_v"] \
        + h_prev @ params["scene.detect.w_h"] + params["scene.detect.b"]
    soft = T.sigmoid(score)
    if relax:
        hard = 1.0 if soft.data.item() > 0.5 else 0.0
        k = soft + T.wrap(hard - soft.data.item())
    else:
        k = T.hard_threshold(soft)
    return k, soft


def encode_scenes(V, params, force_flags=None, relax: bool = False) -> SceneSegmentation:
    """Segment an album; V is the (m, D_v) photo rows, or anything `T.wrap`
    stacks to them, such as a list of (D_v,) arrays.

    force_flags bypasses the classifier with fixed 0/1 decisions, which
    makes the whole computation an ordinary differentiable graph (used by
    gradient checks and the forced-flag oracles).
    """
    V = T.wrap(V)
    m = V.shape[0]
    if m == 0:
        raise ValueError("album has no photos")
    if force_flags is not None and len(force_flags) != m:
        raise ValueError(f"force_flags length {len(force_flags)} != photo count {m}")
    gru_w = params.gru("scene.gru")
    d_v = gru_w.hidden_size

    h = T.zeros(d_v)
    rows, flags, softs, mask = [], [], [], []
    for i in range(m):
        v = T.pick(V, i)
        if force_flags is not None:
            k = T.wrap(float(force_flags[i]))
            flags.append(int(force_flags[i]))
        else:
            k, soft = detect_boundary(v, h, params, relax=relax)
            flags.append(int(k.data.item() > 0.5))
            softs.append(float(soft.data.item()))
        if i == 0:
            # state is still the zero init; nothing to emit or clear
            rows.append(T.zeros(d_v))
            mask.append(0)
        else:
            rows.append(k * h)
            mask.append(flags[-1])
            h = (1.0 - k) * h
        h = T.gru_cell(v, h, gru_w)
    rows.append(h)
    mask.append(1)

    return SceneSegmentation(flags, softs, T.stack_rows(rows),
                             np.array(mask, dtype=np.int64), int(sum(mask)))


def scene_indices(flags) -> list:
    """1-based scene number for each photo given the boundary flags."""
    out, scene = [], 1
    for i, k in enumerate(flags):
        if i > 0 and k:
            scene += 1
        out.append(scene)
    return out
