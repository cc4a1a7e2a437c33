import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storyforge import tensor as T
from storyforge.photo_encoder import encode_photos


def np_gru_step(x, h, wx, wh, b):
    """Plain-numpy GRU step, written independently of the engine."""
    hid = h.shape[0]

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    pre_x = x @ wx + b
    pre_h = h @ wh
    z = sig(pre_x[:hid] + pre_h[:hid])
    r = sig(pre_x[hid:2 * hid] + pre_h[hid:2 * hid])
    c = np.tanh(pre_x[2 * hid:] + (r * h) @ wh[:, 2 * hid:])
    return (1 - z) * h + z * c


def np_encode(features, ps):
    """Oracle for the full encoder: two recurrences plus ReLU skip."""
    wx_f, wh_f, b_f = (ps[f"photo.fwd.{k}"].data for k in ("w_x", "w_h", "b"))
    wx_b, wh_b, b_b = (ps[f"photo.bwd.{k}"].data for k in ("w_x", "w_h", "b"))
    skip = ps["photo.skip.w"].data
    hid = wh_f.shape[0]
    m = len(features)
    fwd, h = [], np.zeros(hid)
    for f in features:
        h = np_gru_step(f, h, wx_f, wh_f, b_f)
        fwd.append(h)
    bwd, h = [None] * m, np.zeros(hid)
    for i in range(m - 1, -1, -1):
        h = np_gru_step(features[i], h, wx_b, wh_b, b_b)
        bwd[i] = h
    rows = [np.maximum(0.0, np.concatenate([fwd[i], bwd[i]]) + features[i] @ skip)
            for i in range(m)]
    return np.stack(rows), fwd[-1], bwd[0]


def per_direction_scans(features, ps, lengths):
    """The encoder as two scans of width H, the backward one over each
    album's rows reversed in place: (V, [fwd final ; bwd final])."""
    feats = T.wrap(features)
    m, batch = feats.shape[:2]
    steps, rows = np.arange(m)[:, None], np.arange(batch)
    reverse = (np.where(steps < lengths, lengths - 1 - steps, steps), rows)
    last = (lengths - 1, rows)
    fwd_w, bwd_w = ps.gru("photo.fwd"), ps.gru("photo.bwd")
    fwd = T.gru_scan(feats @ fwd_w.w_x + fwd_w.b, fwd_w.w_h)
    bwd_rev = T.gru_scan(T.wrap(feats.data[reverse]) @ bwd_w.w_x + bwd_w.b, bwd_w.w_h)
    V = T.relu(T.concat([fwd, T.pick(bwd_rev, reverse)], axis=-1)
               + feats @ ps["photo.skip.w"])
    return V, T.concat([T.pick(fwd, last), T.pick(bwd_rev, last)], axis=-1)


def make_params(rng, f_dim, hid, zero=False):
    ps = T.ParamStore()
    draw = (lambda shape: np.zeros(shape)) if zero else \
           (lambda shape: 0.5 * rng.standard_normal(shape))
    for d in ("fwd", "bwd"):
        ps.add(f"photo.{d}.w_x", draw((f_dim, 3 * hid)), "photo_encoder")
        ps.add(f"photo.{d}.w_h", draw((hid, 3 * hid)), "photo_encoder")
        ps.add(f"photo.{d}.b", draw(3 * hid), "photo_encoder")
    ps.add("photo.skip.w", draw((f_dim, 2 * hid)), "photo_encoder")
    return ps


def encode_one(features, ps):
    """A lone album's photos, encoded as a batch of one."""
    return encode_photos(np.stack(features)[:, None], ps, [len(features)])


class TestEncodePhotos:
    def test_zero_parameters_give_zero_output(self):
        rng = np.random.default_rng(0)
        ps = make_params(rng, 4, 3, zero=True)
        enc = encode_one([rng.standard_normal(4) for _ in range(5)], ps)
        np.testing.assert_array_equal(enc.V.data, np.zeros((5, 1, 6)))

    def test_single_photo(self):
        rng = np.random.default_rng(1)
        ps = make_params(rng, 4, 3)
        f = rng.standard_normal(4)
        enc = encode_one([f], ps)
        assert enc.V.shape == (1, 1, 6)
        want_v, want_fwd, want_bwd = np_encode([f], ps)
        np.testing.assert_allclose(enc.final.data[0], np.concatenate([want_fwd, want_bwd]),
                                   rtol=1e-12)

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_matches_numpy_oracle(self, seed):
        rng = np.random.default_rng(seed)
        f_dim, hid, m = 5, 3, 4
        ps = make_params(rng, f_dim, hid)
        feats = [rng.standard_normal(f_dim) for _ in range(m)]
        enc = encode_one(feats, ps)
        want_v, want_fwd, want_bwd = np_encode(feats, ps)
        np.testing.assert_allclose(enc.V.data[:, 0], want_v, rtol=1e-12)
        np.testing.assert_allclose(enc.final.data[0], np.concatenate([want_fwd, want_bwd]),
                                   rtol=1e-12)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(5)
        ps = make_params(rng, 6, 4)
        enc = encode_one([rng.standard_normal(6) for _ in range(7)], ps)
        assert (enc.V.data >= 0).all()

    def test_reversal_swaps_directions(self):
        # with tied direction weights, reversing the album turns the forward
        # hidden sequence into the reverse of the original backward sequence
        rng = np.random.default_rng(6)
        ps = make_params(rng, 4, 3)
        for k in ("w_x", "w_h", "b"):
            ps[f"photo.bwd.{k}"].data[...] = ps[f"photo.fwd.{k}"].data
        skip = ps["photo.skip.w"].data
        skip[:, 3:] = skip[:, :3]  # symmetric skip so the halves commute
        feats = [rng.standard_normal(4) for _ in range(5)]
        enc_fw = encode_one(feats, ps)
        enc_rv = encode_one(feats[::-1], ps)
        np.testing.assert_allclose(enc_rv.final.data[:, :3], enc_fw.final.data[:, 3:],
                                   rtol=1e-12)
        np.testing.assert_allclose(enc_rv.final.data[:, 3:], enc_fw.final.data[:, :3],
                                   rtol=1e-12)
        swapped = np.concatenate([enc_rv.V.data[::-1, :, 3:],
                                  enc_rv.V.data[::-1, :, :3]], axis=-1)
        np.testing.assert_allclose(swapped, enc_fw.V.data, rtol=1e-12)

    def test_batch_rows_equal_album_calls(self):
        rng = np.random.default_rng(9)
        ps = make_params(rng, 4, 3)
        lengths = np.array([2, 5, 1, 4])
        feats = rng.standard_normal((5, 4, 4))
        feats[np.arange(5)[:, None] >= lengths] = 0.0   # zero padding
        batch = encode_photos(feats, ps, lengths)
        for b, n in enumerate(lengths):
            want_v, want_fwd, want_bwd = np_encode(list(feats[:n, b]), ps)
            np.testing.assert_allclose(batch.V.data[:n, b], want_v, rtol=1e-12)
            np.testing.assert_allclose(batch.final.data[b],
                                       np.concatenate([want_fwd, want_bwd]), rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 5),
           st.lists(st.integers(1, 7), min_size=2, max_size=5)
           .filter(lambda sizes: len(set(sizes)) > 1))
    def test_one_scan_equals_per_direction_scans(self, seed, f_dim, hid, sizes):
        # both directions as one scan of width 2H: the same V and finals bit
        # for bit, and the same gradients up to summation order
        rng = np.random.default_rng(seed)
        ps = make_params(rng, f_dim, hid)
        lengths = np.array(sizes)
        feats = rng.standard_normal((lengths.max(), len(sizes), f_dim))
        feats[np.arange(lengths.max())[:, None] >= lengths] = 0.0
        w_v = rng.standard_normal((lengths.max(), len(sizes), 2 * hid))
        w_final = rng.standard_normal((len(sizes), 2 * hid))
        outs = []
        for encode in (lambda: encode_photos(feats, ps, lengths),
                       lambda: per_direction_scans(feats, ps, lengths)):
            ps.zero_grads()
            enc = encode()
            V, final = (enc.V, enc.final) if hasattr(enc, "V") else enc
            (T.arr_sum(V * T.wrap(w_v)) + T.arr_sum(final * T.wrap(w_final))).backward()
            outs.append((V.data, final.data, {n: ps[n].grad for n in ps.names()}))
        (got_v, got_final, got), (want_v, want_final, want) = outs
        np.testing.assert_array_equal(got_v, want_v)
        np.testing.assert_array_equal(got_final, want_final)
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-10, atol=1e-10,
                                       err_msg=name)

    def test_batch_lengths_checked(self):
        ps = make_params(np.random.default_rng(10), 4, 3)
        feats = np.zeros((3, 2, 4))
        for lengths in ([3], [0, 3], [4, 1]):
            with pytest.raises(ValueError, match="^step counts .* do not fit 3 steps"):
                encode_photos(feats, ps, lengths)

    def test_empty_album_rejected(self):
        ps = make_params(np.random.default_rng(0), 4, 3)
        with pytest.raises(ValueError):
            encode_photos(np.zeros((0, 1, 4)), ps, [0])

    def test_feature_dim_mismatch(self):
        rng = np.random.default_rng(7)
        ps = make_params(rng, 4, 3)
        with pytest.raises(T.DimensionError, match="photo features have 9 values, "
                                                   "the photo encoder takes 4"):
            encode_one([rng.standard_normal(9)], ps)

    def test_gradients(self):
        rng = np.random.default_rng(8)
        ps = make_params(rng, 4, 3)
        feats = [rng.standard_normal(4) for _ in range(3)]
        w = rng.standard_normal((3, 1, 6))

        def fn(p):
            enc = encode_one(feats, p)
            return T.arr_sum(enc.V * T.wrap(w)) + T.arr_sum(enc.final)

        assert T.grad_check(fn, ps) < 1e-4
