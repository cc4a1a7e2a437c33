"""Rebuild each sentence's album summary vector from the decoder logits.

Every word step's raw output distribution d_t is paired with the
sentence-level mean d-bar and run through a GRU; the reconstructed
summary is the mean of the GRU states. The hidden size equals the photo
vector size so the result is directly comparable to the original z_j.
"""

from __future__ import annotations

from . import tensor as T


def reconstruct(logits_seq, params) -> T.NumArray:
    """logits_seq: list of (vocab,) score rows for one sentence, length >= 1."""
    if len(logits_seq) == 0:
        raise ValueError("cannot reconstruct from an empty logits sequence")
    gru_w = params.gru("recon.gru")
    d_bar = T.arr_mean(T.stack_rows(logits_seq), axis=0)

    c = T.zeros(gru_w.hidden_size)
    states = []
    for d in logits_seq:
        c = T.gru_cell(T.concat([d, d_bar]), c, gru_w)
        states.append(c)
    return T.arr_mean(T.stack_rows(states), axis=0)
