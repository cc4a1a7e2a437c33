"""Shared test utilities: the per-step scene encoder that the fused one is
checked against, a fault planted in the GRU step's hand-written backward
that such references must catch, validation pairs decoded one album at a
time, the copy-every-gradient rule that handed-over gradients are checked
against, the log-softmax node that the target head is checked against,
and hand-built detector weights for clustered data.

Detector weights: with zero photo GRUs and a signed-identity skip, photo
vectors copy the raw feature into positive/negative halves. The scene GRU
is then rigged (update gate saturated open, recurrent candidate weights
zero) so its state after any photo of cluster c is exactly
    h[0] = tanh((c+1) / (10K)),  h[1] = tanh(0.1)
and the linear boundary classifier fires precisely when the incoming
photo's cluster level exceeds the stored level by a full step. Cluster
ids inside an album ascend, so this reproduces the gold boundaries.
"""

import math

import numpy as np

from storyforge import tensor as T
from storyforge.data import decode_ids, story_tokens
from storyforge.metrics import EvalPair
from storyforge.model import generate_story
from storyforge.scene_encoder import SceneSegmentation, detect_boundary

GAIN = 10000.0   # drives the classifier sigmoid to exact 0/1 saturation
BASE = 0.15      # bias floor; above the max level so photo 1 never fires


def fill_oracle_scene_weights(ps, spec):
    """Overwrite photo+scene weights in-place; needs K <= feature_dim."""
    k, f, s = spec.num_clusters, spec.feature_dim, spec.cluster_separation
    assert k <= f, "oracle construction needs one-hot cluster centers"
    dv = 2 * f

    for d in ("fwd", "bwd"):
        for name in ("w_x", "w_h", "b"):
            ps[f"photo.{d}.{name}"].data[...] = 0.0
    skip = np.zeros((f, dv))
    skip[:, :f] = np.eye(f)
    skip[:, f:] = -np.eye(f)
    ps["photo.skip.w"].data[...] = skip

    level = np.array([(c + 1) / (10.0 * k) for c in range(f)])
    w_x = np.zeros((dv, 3 * dv))
    w_x[:f, 2 * dv + 0] = level / s          # candidate coord 0: cluster level
    b = np.zeros(3 * dv)
    b[:dv] = 50.0                            # update gate saturates to 1.0
    b[2 * dv + 1] = 0.1                      # candidate coord 1: presence mark
    ps["scene.gru.w_x"].data[...] = w_x
    ps["scene.gru.w_h"].data[...] = 0.0
    ps["scene.gru.b"].data[...] = b

    w_v = np.zeros(dv)
    w_v[:f] = GAIN * level / s
    w_h = np.zeros(dv)
    w_h[0] = -GAIN
    w_h[1] = GAIN * (BASE - 1.0 / (20.0 * k)) / math.tanh(0.1)
    ps["scene.detect.w_v"].data[...] = w_v
    ps["scene.detect.w_h"].data[...] = w_h
    ps["scene.detect.b"].data[...] = -GAIN * BASE


def encode_scenes_per_step(V, params, force_flags=None, lengths=None):
    """The scene encoder built from small autodiff nodes, about a dozen per
    photo step: the oracle for `scene_encoder.encode_scenes` on a padded
    batch, (m_max, B, D_v) rows and (m_max, B) forced flags, with the same
    SceneSegmentation. Its detector is `detect_boundary`'s relaxation,
    whose autodiff gradient is the straight-through rule, so it is the
    oracle for both backwards."""
    V = T.wrap(V)
    m, B, _ = V.shape
    lengths = np.full(B, m) if lengths is None else np.asarray(lengths)
    gru_w = params.gru("scene.gru")

    h = T.zeros((B, gru_w.hidden_size))
    # rows[0] is the all-zero slot: the first position never emits
    rows, states, flags, softs = [h], [], [], []
    for i in range(m):
        v = T.pick(V, i)
        if force_flags is not None:
            k = T.wrap(np.asarray(force_flags, dtype=np.float64)[i][:, None])
        else:
            k, soft = detect_boundary(v, h, params)
            softs.append(soft.data[:, 0])
        flags.append(k.data[:, 0] > 0.5)
        if i > 0:
            rows.append(k * h)
            h = h - rows[-1]   # a firing boundary clears the state it emits
        h = T.gru_cell(v, h, gru_w)
        states.append(h)

    # slot j of an album of n photos: row j below n, the closing state at n,
    # and the zero row past it; the mask is gathered the same way
    slot = np.arange(m + 1)[:, None]
    index = (np.where(slot < lengths, slot, np.where(slot == lengths, m + lengths - 1, 0)),
             np.arange(B))
    X = T.pick(T.reshape(T.concat(rows + states), (2 * m, B, -1)), index)
    flags = np.array(flags, dtype=np.int64)
    mask = np.concatenate([0 * flags[:1], flags[1:], np.ones_like(flags)])[index]
    return SceneSegmentation(flags, None if force_flags is not None else np.array(softs),
                             X, mask, mask.sum(axis=0))


def scale_gru_step_backward(monkeypatch, factor):
    """Scale both outputs of `T._gru_step_backward`, the kernel that the
    recurrence nodes share, by `factor` for the rest of the test."""
    kernel = T._gru_step_backward
    monkeypatch.setattr(T, "_gru_step_backward",
                        lambda *args: tuple(factor * d for d in kernel(*args)))


def per_album_pairs(params, cfg, albums, vocab, **decode):
    """`trainer.decoded_pairs` built from one `generate_story(album, ...,
    **decode)` call per album: the decoded tokens against every reference."""
    return [EvalPair([tok for ids in generate_story(album, params, cfg, **decode).sentences
                      for tok in decode_ids(ids, vocab)],
                     [story_tokens(story) for story in album.raw_stories])
            for album in albums]


def copy_every_first_gradient(monkeypatch):
    """Make `T._acc` copy every array it is handed before it keeps or adds
    it: the rule that handing gradients over, views and shared arrays
    included, must match to the bit."""
    acc = T._acc
    monkeypatch.setattr(T, "_acc", lambda p, g: acc(p, np.array(g, dtype=np.float64)))


def log_softmax(logits) -> T.NumArray:
    """Log-probabilities over the last axis as a graph node: the oracle that
    `T.target_log_probs` equals times a one-hot mask summed over the
    vocabulary."""
    logits = T.wrap(logits)
    out = T._log_softmax(logits.data)

    def bw(g):
        if logits.requires_grad:
            T._acc(logits, g - np.exp(out) * g.sum(axis=-1, keepdims=True))

    return T._make(out, (logits,), bw)


def two_line_log_softmax(x: np.ndarray) -> np.ndarray:
    """The log-softmax over the last axis in its two-line `.max`/`.sum`
    form: the oracle that `T._log_softmax` equals to the bit."""
    shifted = x - x.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def grads_both_ways(monkeypatch, run) -> list:
    """`run()` builds a graph, runs its backward and returns the leaves it
    differentiates, by name; returns their gradients' bytes (None for none)
    as the backwards hand them over, then with every first gradient copied."""
    results = []
    for copy in (False, True):
        with monkeypatch.context() as m:
            if copy:
                copy_every_first_gradient(m)
            leaves = run()
            results.append({name: None if leaf.grad is None else leaf.grad.tobytes()
                            for name, leaf in leaves.items()})
    return results
