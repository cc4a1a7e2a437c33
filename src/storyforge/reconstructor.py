"""Rebuild each sentence's album summary vector from the decoder logits.

Every word step's raw output distribution d_t is paired with the
sentence-level mean d-bar and run through a GRU; the reconstructed
summary is the mean of the GRU states. The hidden size equals the photo
vector size so the result is directly comparable to the original z_j.
All of a training step's sentences run as one padded batch through one GRU
scan on logits W_x[:V] + (d-bar W_x[V:] + b): d-bar is projected once.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T


def reconstruct(logits, lengths, params) -> T.NumArray:
    """logits: (T_max, B, vocab) score rows, of which sentence b owns the
    first lengths[b], counts that `tensor.step_lengths` checks; later steps
    are padding. Returns (B, D_v)."""
    steps, rows, vocab = logits.shape
    lengths = T.step_lengths(lengths, steps, rows)
    valid = (np.arange(steps)[:, None] < lengths)[..., None].astype(np.float64)
    inv_len = 1.0 / lengths[:, None]
    gru_w = params.gru("recon.gru")
    d_bar = T.arr_sum(logits * valid, axis=0) * inv_len
    gx = (logits @ T.pick(gru_w.w_x, slice(None, vocab))
          + (d_bar @ T.pick(gru_w.w_x, slice(vocab, None)) + gru_w.b))
    states = T.gru_scan(gx, gru_w.w_h)
    return T.arr_sum(states * valid, axis=0) * inv_len
