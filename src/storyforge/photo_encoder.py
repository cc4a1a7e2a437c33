"""Context-aware photo representations from a bidirectional GRU plus skip.

Each photo feature f_i is read in album order by a forward GRU and in
reverse order by a backward GRU; the photo vector is
    v_i = ReLU([fwd_h_i ; bwd_h_i] + f_i @ W_skip)
so D_v = 2 * H_p. Both directions start from zero states.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T


@dataclass
class PhotoEncoding:
    V: T.NumArray            # (m, D_v), row i is v_i
    v_list: list             # the same rows, kept unstacked for per-photo loops
    fwd_final: T.NumArray    # (H_p,) forward state after photo m
    bwd_final: T.NumArray    # (H_p,) backward state after photo 1

    @property
    def num_photos(self):
        return len(self.v_list)


def encode_photos(features, params) -> PhotoEncoding:
    if len(features) == 0:
        raise ValueError("album has no photos")
    fwd_w = params.gru("photo.fwd")
    bwd_w = params.gru("photo.bwd")
    skip = params["photo.skip.w"]
    feats = [T.wrap(f) for f in features]
    m = len(feats)

    h = T.zeros(fwd_w.hidden_size)
    fwd = []
    for f in feats:
        h = T.gru_cell(f, h, fwd_w)
        fwd.append(h)
    fwd_final = h

    h = T.zeros(bwd_w.hidden_size)
    bwd = [None] * m
    for i in range(m - 1, -1, -1):
        h = T.gru_cell(feats[i], h, bwd_w)
        bwd[i] = h
    bwd_final = h

    v_list = [T.relu(T.concat([fwd[i], bwd[i]]) + feats[i] @ skip)
              for i in range(m)]
    return PhotoEncoding(T.stack_rows(v_list), v_list, fwd_final, bwd_final)
