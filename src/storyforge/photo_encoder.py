"""Context-aware photo representations from a bidirectional GRU plus skip.

Each photo feature f_i is read in album order by a forward GRU and in
reverse order by a backward GRU; the photo vector is
    v_i = ReLU([fwd_h_i ; bwd_h_i] + f_i @ W_skip)
so D_v = 2 * H_p. Both directions start from zero states; each is one GRU
scan, the backward one over the reversed rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T


@dataclass
class PhotoEncoding:
    V: T.NumArray            # (m, D_v), row i is v_i
    fwd_final: T.NumArray    # (H_p,) forward state after photo m
    bwd_final: T.NumArray    # (H_p,) backward state after photo 1

    @property
    def num_photos(self):
        return self.V.shape[0]


def encode_photos(features, params) -> PhotoEncoding:
    if len(features) == 0:
        raise ValueError("album has no photos")
    fwd_w = params.gru("photo.fwd")
    bwd_w = params.gru("photo.bwd")
    feats = T.wrap(np.stack(features))   # (m, feature_dim)
    m = len(features)
    reverse = np.arange(m - 1, -1, -1)

    fwd = T.gru_scan(feats, T.zeros(fwd_w.hidden_size), fwd_w)
    bwd_rev = T.gru_scan(feats.data[reverse], T.zeros(bwd_w.hidden_size), bwd_w)
    V = T.relu(T.concat([fwd, T.pick(bwd_rev, reverse)], axis=-1)
               + feats @ params["photo.skip.w"])
    return PhotoEncoding(V, T.pick(fwd, m - 1), T.pick(bwd_rev, m - 1))
