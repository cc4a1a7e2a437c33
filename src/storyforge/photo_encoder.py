"""Context-aware photo representations from a bidirectional GRU plus skip.

Each photo feature f_i is read in album order by a forward GRU and in
reverse order by a backward GRU; the photo vector is
    v_i = ReLU([fwd_h_i ; bwd_h_i] + f_i @ W_skip)
so D_v = 2 * H_p. Both directions start from zero states; each is one GRU
scan, the backward one over every album's rows reversed in place.

Albums of a batch are padded time-major to (m_max, B, F) and carry their
photo counts; steps past an album's count are padding, whose states reach
none of that album's outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T


@dataclass
class PhotoEncoding:
    V: T.NumArray            # (m_max, B, D_v), row i is v_i
    fwd_final: T.NumArray    # (B, H_p) forward state after each album's last photo
    bwd_final: T.NumArray    # (B, H_p) backward state after photo 1
    lengths: np.ndarray      # (B,) photo counts


def encode_photos(features, params, lengths) -> PhotoEncoding:
    """features: B albums padded time-major to (m_max, B, F), with their
    photo counts in `lengths`."""
    fwd_w = params.gru("photo.fwd")
    bwd_w = params.gru("photo.bwd")
    feats = T.wrap(features)
    m, batch = feats.shape[:2]
    lengths = T.step_lengths(lengths, m, batch)
    steps, rows = np.arange(m)[:, None], np.arange(batch)
    # an involution: each album's first `length` steps reversed, padding kept
    reverse = (np.where(steps < lengths, lengths - 1 - steps, steps), rows)
    last = (lengths - 1, rows)

    fwd = T.gru_scan(feats, T.zeros((batch, fwd_w.hidden_size)), fwd_w)
    bwd_rev = T.gru_scan(feats.data[reverse], T.zeros((batch, bwd_w.hidden_size)), bwd_w)
    V = T.relu(T.concat([fwd, T.pick(bwd_rev, reverse)], axis=-1)
               + feats @ params["photo.skip.w"])
    return PhotoEncoding(V, T.pick(fwd, last), T.pick(bwd_rev, last), lengths)
