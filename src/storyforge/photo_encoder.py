"""Context-aware photo representations from a bidirectional GRU plus skip.

Each photo feature f_i is read in album order by a forward GRU and in
reverse order by a backward GRU; the photo vector is
    v_i = ReLU([fwd_h_i ; bwd_h_i] + f_i @ W_skip)
so D_v = 2 * H_p. Both directions start from zero states and run side by
side as one GRU scan of width 2 H_p: its input at step t is [f_t ; the
album's rows reversed in place, at t], its state [fwd_h ; bwd_h], and its
weights the two cells' as diagonal blocks.

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
    final: T.NumArray        # (B, D_v): forward state after each album's last
                             # photo, then backward state after photo 1
    lengths: np.ndarray      # (B,) photo counts


def encode_photos(features, params, lengths) -> PhotoEncoding:
    """features: B albums padded time-major to (m_max, B, F), with their
    photo counts in `lengths`."""
    fwd, bwd = params.gru("photo.fwd"), params.gru("photo.bwd")
    feats = T.wrap(features)
    m, batch = feats.shape[:2]
    hid = fwd.hidden_size
    if feats.shape[-1] != fwd.input_size:
        raise T.DimensionError(f"photo features have {feats.shape[-1]} values, "
                               f"the photo encoder takes {fwd.input_size}")
    lengths = T.step_lengths(lengths, m, batch)
    steps, rows = np.arange(m)[:, None], np.arange(batch)
    # an involution: each album's first `length` steps reversed, padding kept
    reverse = (np.where(steps < lengths, lengths - 1 - steps, steps), rows)

    # each gate's columns are [fwd ; bwd]; a direction's weights meet only
    # the other's zeros
    cols = (np.arange(3)[:, None] * 2 * hid + np.arange(hid)).ravel()

    def blocks(n, a, b):
        return T.assemble((2 * n, 6 * hid), [((slice(0, n), cols), a),
                                             ((slice(n, None), cols + hid), b)])

    gx = (T.concat([feats, T.pick(feats, reverse)], axis=-1)
          @ blocks(fwd.input_size, fwd.w_x, bwd.w_x)
          + T.assemble((6 * hid,), [(cols, fwd.b), (cols + hid, bwd.b)]))
    both = T.gru_scan(gx, blocks(hid, fwd.w_h, bwd.w_h))
    fwd_half = np.arange(2 * hid) < hid
    V = T.relu(both * fwd_half + T.pick(both, reverse) * ~fwd_half
               + feats @ params["photo.skip.w"])
    return PhotoEncoding(V, T.pick(both, (lengths - 1, rows)), lengths)
