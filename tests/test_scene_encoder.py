import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storyforge import data as D
from storyforge import tensor as T
from storyforge.model import ModelConfig, build_parameters
from storyforge.photo_encoder import encode_photos
from storyforge.scene_encoder import detect_boundary, encode_scenes, scene_indices

from helpers import (encode_scenes_per_step, fill_oracle_scene_weights,
                     scale_gru_step_backward)


def small_params(seed=0, feature_dim=5, photo_hidden=3):
    cfg = ModelConfig(vocab_size=10, feature_dim=feature_dim,
                      photo_hidden=photo_hidden)
    return cfg, build_parameters(cfg, np.random.default_rng(seed))


def photo_rows(features, ps):
    """A lone album's photo vectors (m, D_v): the rows of a batch-of-one
    `encode_photos`."""
    V = encode_photos(np.stack(features)[:, None], ps, [len(features)]).V
    return T.reshape(V, (len(features), -1))


def zero_detector(ps, bias):
    ps["scene.detect.w_v"].data[...] = 0.0
    ps["scene.detect.w_h"].data[...] = 0.0
    ps["scene.detect.b"].data[...] = bias


class TestDetectBoundary:
    def test_saturated_low(self):
        cfg, ps = small_params()
        zero_detector(ps, -10.0)
        k, soft = detect_boundary(T.zeros((1, cfg.d_v)), T.zeros((1, cfg.d_v)), ps)
        assert k.data.item() == 0.0
        assert soft.data.item() < 1e-4

    def test_saturated_high(self):
        cfg, ps = small_params()
        zero_detector(ps, 10.0)
        k, soft = detect_boundary(T.zeros((1, cfg.d_v)), T.zeros((1, cfg.d_v)), ps)
        assert k.data.item() == 1.0
        assert soft.data.item() > 1 - 1e-4


class TestEncodeScenes:
    def test_forced_all_zero_flags(self):
        cfg, ps = small_params(3)
        rng = np.random.default_rng(3)
        feats = [rng.standard_normal(cfg.feature_dim) for _ in range(4)]
        V = photo_rows(feats, ps)
        seg = encode_scenes(V, ps, force_flags=[0, 0, 0, 0])
        assert seg.u.tolist() == [1]
        assert seg.scene_mask[:, 0].tolist() == [0, 0, 0, 0, 1]
        np.testing.assert_array_equal(seg.X.data[:4], np.zeros((4, 1, cfg.d_v)))
        # the one true scene is the GRU state after all four photos
        h = T.zeros(cfg.d_v)
        for v in V.data:
            h = T.gru_cell(v, h, ps.gru("scene.gru"))
        np.testing.assert_allclose(seg.X.data[4, 0], h.data, rtol=1e-12)

    def test_forced_all_one_flags(self):
        cfg, ps = small_params(4)
        rng = np.random.default_rng(4)
        m = 5
        feats = [rng.standard_normal(cfg.feature_dim) for _ in range(m)]
        V = photo_rows(feats, ps)
        seg = encode_scenes(V, ps, force_flags=[1] * m)
        assert seg.u.tolist() == [m]
        assert seg.scene_mask[:, 0].tolist() == [0] + [1] * m
        # every scene row is a one-step GRU state from a fresh zero state
        for i, v in enumerate(V.data):
            one_step = T.gru_cell(v, T.zeros(cfg.d_v), ps.gru("scene.gru"))
            np.testing.assert_allclose(seg.X.data[i + 1, 0], one_step.data, rtol=1e-12)

    def test_masked_rows_exactly_zero_random_params(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            cfg, ps = small_params(100 + trial)
            m = int(rng.integers(1, 7))
            feats = [2.0 * rng.standard_normal(cfg.feature_dim) for _ in range(m)]
            seg = encode_scenes(photo_rows(feats, ps), ps)
            u = seg.u.item()
            assert u == int(seg.scene_mask.sum())
            assert 1 <= u <= m
            assert seg.X.shape == (m + 1, 1, cfg.d_v)
            for row, mk in zip(seg.X.data[:, 0], seg.scene_mask[:, 0]):
                if mk == 0:
                    assert np.all(row == 0.0)

    def test_reset_semantics(self):
        # after a fired boundary the state entering the step is zero, so the
        # slot emitted at the NEXT boundary only accumulates post-reset steps
        cfg, ps = small_params(6)
        rng = np.random.default_rng(6)
        feats = [rng.standard_normal(cfg.feature_dim) for _ in range(4)]
        V = photo_rows(feats, ps)
        seg = encode_scenes(V, ps, force_flags=[0, 1, 0, 1])
        w = ps.gru("scene.gru")
        h = T.gru_cell(V.data[1], T.zeros(cfg.d_v), w)
        h = T.gru_cell(V.data[2], h, w)
        np.testing.assert_allclose(seg.X.data[3, 0], h.data, rtol=1e-12)

    def test_flags_match_gold_boundaries_from_geometry(self):
        spec = D.SynthSpec(albums=25, scenes_per_album=(1, 3),
                           photos_per_scene=(1, 4), feature_dim=8,
                           vocab_size=27, noise_scale=0.0, seed=7)
        assert spec.num_clusters == 8
        cfg = ModelConfig(vocab_size=27, feature_dim=8, photo_hidden=8)
        ps = build_parameters(cfg, np.random.default_rng(7))
        fill_oracle_scene_weights(ps, spec)
        for album in D.synth_dataset(spec):
            seg = encode_scenes(photo_rows(album.features, ps), ps)
            assert seg.flags[:, 0].tolist() == album.gold_boundaries
            assert seg.u.tolist() == [1 + sum(album.gold_boundaries)]

    def test_oracle_softs_saturated(self):
        spec = D.SynthSpec(albums=5, feature_dim=8, vocab_size=27,
                           noise_scale=0.0, seed=8)
        cfg = ModelConfig(vocab_size=27, feature_dim=8, photo_hidden=8)
        ps = build_parameters(cfg, np.random.default_rng(8))
        fill_oracle_scene_weights(ps, spec)
        for album in D.synth_dataset(spec):
            seg = encode_scenes(photo_rows(album.features, ps), ps)
            for s in seg.softs[:, 0]:
                assert s < 1e-9 or s > 1 - 1e-9

    def test_fixed_flag_gradients(self):
        cfg, ps = small_params(9)
        rng = np.random.default_rng(9)
        feats = [rng.standard_normal(cfg.feature_dim) for _ in range(4)]
        w = rng.standard_normal((5, 1, cfg.d_v))

        def fn(p):
            seg = encode_scenes(photo_rows(feats, p), p, force_flags=[0, 1, 0, 1])
            return T.arr_sum(seg.X * T.wrap(w))

        include = [n for n in ps.names()
                   if n.startswith(("photo.", "scene.gru"))]
        assert T.grad_check(fn, ps, include=include) < 1e-4

    def test_forced_flags_leave_the_detector_out_of_the_graph(self):
        # with the decisions given, the detector takes no part: the scene
        # node's parents are the input pre-activations V W_x + b and W_h
        # alone, and the detector weights get no gradient
        cfg, ps = small_params(11)
        rng = np.random.default_rng(11)
        ps.zero_grads()
        V = T.NumArray(rng.standard_normal((4, 2, cfg.d_v)), requires_grad=True)
        seg = encode_scenes(V, ps, force_flags=rng.integers(0, 2, size=(4, 2)))
        (node,) = seg.X._parents
        gx, w_h = node._parents
        assert gx._backward.__qualname__.startswith("add.") and w_h is ps["scene.gru.w_h"]
        T.arr_sum(seg.X).backward()
        assert [ps[f"scene.detect.{p}"].grad for p in ("w_v", "w_h", "b")] == [None] * 3
        assert V.grad is not None

    def test_ste_gradients_finite_nonzero(self):
        cfg, ps = small_params(10)
        rng = np.random.default_rng(10)
        feats = [1.5 * rng.standard_normal(cfg.feature_dim) for _ in range(5)]
        ps.zero_grads()
        seg = encode_scenes(photo_rows(feats, ps), ps)
        T.arr_sum(seg.X * T.wrap(rng.standard_normal(seg.X.shape))).backward()
        for name in ("scene.detect.w_v", "scene.detect.w_h", "scene.detect.b"):
            g = ps[name].grad
            assert g is not None and np.all(np.isfinite(g))
            assert np.any(g != 0.0)

    @pytest.mark.parametrize("forced", [False, True])
    def test_batch_rows_equal_album_calls(self, forced):
        # a padded batch gives every album the slots, flags and gradients of
        # its own call; the padding steps reach none of them
        cfg, ps = small_params(13)
        rng = np.random.default_rng(13)
        lengths = np.array([3, 1, 5, 4])
        V = 2.0 * rng.standard_normal((5, 4, cfg.d_v))
        flags = rng.integers(0, 2, size=(5, 4)) if forced else None
        weights = rng.standard_normal((6, 4, cfg.d_v))
        ps.zero_grads()
        batch = encode_scenes(V, ps, force_flags=flags, lengths=lengths)
        T.arr_sum(batch.X * T.wrap(weights)).backward()
        batch_grads = {n: ps[n].grad.copy() for n in ps.names() if ps[n].grad is not None}
        ps.zero_grads()
        for b, n in enumerate(lengths):
            one = encode_scenes(V[:n, b], ps, force_flags=None if flags is None
                                else flags[:n, b])
            T.arr_sum(one.X * T.wrap(weights[:n + 1, b:b + 1])).backward()
            np.testing.assert_allclose(batch.X.data[:n + 1, b], one.X.data[:, 0],
                                       rtol=1e-12, atol=1e-15)
            np.testing.assert_array_equal(batch.X.data[n + 1:, b], 0.0)
            np.testing.assert_array_equal(batch.flags[:n, b], one.flags[:, 0])
            np.testing.assert_array_equal(batch.scene_mask[:n + 1, b], one.scene_mask[:, 0])
            assert batch.scene_mask[n + 1:, b].sum() == 0
            assert batch.u[b] == one.u[0]
            if not forced:
                np.testing.assert_allclose(batch.softs[:n, b], one.softs[:, 0], rtol=1e-12)
        assert batch_grads
        for name, grad in batch_grads.items():
            np.testing.assert_allclose(grad, ps[name].grad, rtol=1e-11, atol=1e-13,
                                       err_msg=name)

    def test_force_flags_length_checked(self):
        cfg, ps = small_params(11)
        feats = [np.zeros(cfg.feature_dim) for _ in range(3)]
        with pytest.raises(ValueError, match="force_flags"):
            encode_scenes(photo_rows(feats, ps), ps, force_flags=[0, 1])

    def test_empty_input_rejected(self):
        cfg, ps = small_params(12)
        with pytest.raises(ValueError):
            encode_scenes([], ps)

    @pytest.mark.parametrize("flags", [[0, 2, 0], [0, -1, 0], [0, 0.5, 1]])
    def test_force_flags_values_checked(self, flags):
        cfg, ps = small_params(14)
        with pytest.raises(ValueError, match="^force_flags must be 0 or 1, got"):
            encode_scenes(np.ones((3, cfg.d_v)), ps, force_flags=flags)

    @pytest.mark.parametrize("lengths", [[0, 3], [4, 3], [2.5, 3], [3]])
    def test_photo_counts_checked(self, lengths):
        # a count outside 1..m steps, a fractional one, or one for two albums
        cfg, ps = small_params(15)
        with pytest.raises(ValueError, match="^step counts .* do not fit 3 steps"):
            encode_scenes(np.ones((3, 2, cfg.d_v)), ps, lengths=lengths)


def assert_fused_matches_per_step(seed, mode, lengths, batched):
    """`encode_scenes` against `encode_scenes_per_step` on albums of
    `lengths` photos, padded (`batched`) or one album of the longest count:
    flags, softs, mask and counts equal, slots to 1e-12, and the gradients
    of V and of the photo and scene weights to 1e-10."""
    rng = np.random.default_rng(seed)
    cfg, ps = small_params(seed % 1000, photo_hidden=int(rng.integers(1, 5)))
    m = max(lengths)
    if batched:
        feats = np.zeros((m, len(lengths), cfg.feature_dim))
        for b, n in enumerate(lengths):
            feats[:n, b] = 2.0 * rng.standard_normal((n, cfg.feature_dim))
        lengths = np.array(lengths)
    else:
        feats, lengths = 2.0 * rng.standard_normal((m, 1, cfg.feature_dim)), None
    flags = rng.integers(0, 2, size=feats.shape[:2]) if mode == "forced" else None
    weights = T.wrap(rng.standard_normal((m + 1, feats.shape[1], cfg.d_v)))
    runs = []
    fused = functools.partial(encode_scenes, relax=mode == "relax")
    for encode in (fused, encode_scenes_per_step):
        ps.zero_grads()
        photos = encode_photos(feats, ps, [m] if lengths is None else lengths).V
        V = T.NumArray(photos.data, requires_grad=True)
        seg = encode(V, ps, force_flags=flags, lengths=lengths)
        T.arr_sum(seg.X * weights).backward()
        T.arr_sum(photos * T.wrap(V.grad)).backward()   # on into the photo weights
        # a weight the graph never reached has no gradient: zero
        runs.append((seg, V.grad, {n: np.zeros_like(ps[n].data) if ps[n].grad is None
                                   else ps[n].grad for n in ps.names()
                                   if n.startswith(("photo.", "scene."))}))
    (fused, d_v, grads), (oracle, d_v_oracle, grads_oracle) = runs
    np.testing.assert_array_equal(fused.flags, oracle.flags)
    if mode == "forced":
        assert fused.softs is None and oracle.softs is None
    else:
        np.testing.assert_array_equal(fused.softs, oracle.softs)
    np.testing.assert_allclose(fused.X.data, oracle.X.data, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(fused.scene_mask, oracle.scene_mask)
    np.testing.assert_array_equal(fused.u, oracle.u)
    np.testing.assert_allclose(d_v, d_v_oracle, rtol=1e-10, atol=1e-12)
    for name, grad in grads_oracle.items():
        np.testing.assert_allclose(grads[name], grad, rtol=1e-10, atol=1e-12,
                                   err_msg=name)


class TestFusedEqualsPerStep:
    """The one-node scene encoder against the per-step graph it replaced:
    the same values to the bit, and the same gradients, on padded batches
    with photo counts and on one album without them (the rows of a
    batch-of-one `encode_photos`)."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["live", "forced", "relax"]),
           st.lists(st.integers(1, 7), min_size=1, max_size=4), st.booleans())
    def test_fused_equals_per_step(self, seed, mode, lengths, batched):
        assert_fused_matches_per_step(seed, mode, lengths, batched)

    @pytest.mark.parametrize("mode", ["live", "forced", "relax"])
    def test_per_step_catches_a_wrong_gru_kernel(self, monkeypatch, mode):
        # the per-step cells differentiate by autodiff, so a fault in the
        # hand-written GRU backward reaches the fused node alone
        assert_fused_matches_per_step(5, mode, [3, 5, 2], True)
        scale_gru_step_backward(monkeypatch, 1.01)
        with pytest.raises(AssertionError):
            assert_fused_matches_per_step(5, mode, [3, 5, 2], True)


def _bytes(a):
    """Array bits, None kept: a gradient or soft score that is absent."""
    return None if a is None else (a.shape, a.tobytes())


class TestLoneAlbumIsBatchOfOne:
    """One album given as a list of (D_v,) vectors, as (m, D_v) rows or as
    an (m, 1, D_v) batch is the same batch of one: every field of the
    segmentation, in its (m, B) layout, and every gradient agree to the
    bit."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["live", "forced", "relax"]),
           st.integers(1, 7))
    def test_forms_agree_to_the_bit(self, seed, mode, m):
        rng = np.random.default_rng(seed)
        cfg, ps = small_params(seed % 1000)
        rows = 2.0 * rng.standard_normal((m, cfg.d_v))
        flags = rng.integers(0, 2, size=m) if mode == "forced" else None
        weights = T.wrap(rng.standard_normal((m + 1, 1, cfg.d_v)))
        runs = []
        for form in ("list", "rows", "batch"):
            ps.zero_grads()
            V = T.NumArray(rows[:, None] if form == "batch" else rows, requires_grad=True)
            if form == "list":
                album, forced = list(rows), None if flags is None else flags.tolist()
            else:
                album, forced = V, flags if form == "rows" or flags is None else flags[:, None]
            seg = encode_scenes(album, ps, force_flags=forced, relax=mode == "relax")
            T.arr_sum(seg.X * weights).backward()
            assert (seg.flags.shape, seg.X.shape, seg.scene_mask.shape, seg.u.shape) == \
                ((m, 1), (m + 1, 1, cfg.d_v), (m + 1, 1), (1,))
            runs.append([_bytes(x) for x in (seg.flags, seg.softs, seg.X.data,
                                             seg.scene_mask, seg.u)]
                        + [_bytes(ps[n].grad) for n in ps.names() if n.startswith("scene.")]
                        + [None if form == "list" else _bytes(V.grad.reshape(m, -1))])
        listed, as_rows, as_batch = runs
        assert as_rows == as_batch
        assert listed[:-1] == as_rows[:-1]   # a list of arrays takes no gradient
        assert (mode == "forced") == (as_rows[1] is None)


class TestSceneIndices:
    def test_no_boundaries(self):
        assert scene_indices([0, 0, 0]) == [1, 1, 1]

    def test_boundaries_advance_index(self):
        assert scene_indices([0, 1, 0, 1, 0]) == [1, 2, 2, 3, 3]

    def test_first_flag_ignored(self):
        assert scene_indices([1, 0]) == [1, 1]
