import math

import numpy as np
import pytest

from storyforge import tensor as T
from storyforge.data import BOS, EOS
from storyforge.decoder import (AttentionState, attend, decode_sentence_beam,
                                decode_sentence_greedy, sentence_log_prob)
from storyforge.model import ModelConfig, build_parameters


def small_cfg():
    return ModelConfig(vocab_size=8, feature_dim=4, photo_hidden=2,
                       attn_hidden=3, attn_score_dim=3, dec_hidden=3,
                       emb_dim=3, mlp_hidden=4, max_photos=3)


def make(seed=0):
    cfg = small_cfg()
    return cfg, build_parameters(cfg, np.random.default_rng(seed))


def fresh_state(cfg):
    return AttentionState(T.zeros(cfg.attn_hidden), T.zeros(cfg.alpha_len))


def np_gru_step(x, h, wx, wh, b):
    hid = h.shape[0]
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    px, ph = x @ wx + b, h @ wh
    z = sig(px[:hid] + ph[:hid])
    r = sig(px[hid:2 * hid] + ph[hid:2 * hid])
    c = np.tanh(px[2 * hid:] + (r * h) @ wh[:, 2 * hid:])
    return (1 - z) * h + z * c


def np_attend(R, mask, alpha_prev, h_attn, ps):
    """Direct evaluation of the four attention formulas in plain numpy."""
    h_new = np_gru_step(alpha_prev, h_attn, ps["attn.gru.w_x"].data,
                        ps["attn.gru.w_h"].data, ps["attn.gru.b"].data)
    keys = np.tanh(R @ ps["attn.score.w_mem"].data
                   + h_new @ ps["attn.score.w_state"].data
                   + ps["attn.score.b"].data)
    scores = keys @ ps["attn.score.w_out"].data
    e = np.exp(scores - scores[mask > 0].max()) * mask
    alpha = e / e.sum()
    return alpha @ R, alpha, h_new


class TestAttend:
    def test_single_valid_column_is_copied(self):
        cfg, ps = make(0)
        rng = np.random.default_rng(0)
        R = rng.standard_normal((cfg.alpha_len, cfg.d_v))
        mask = np.zeros(cfg.alpha_len)
        mask[2] = 1.0
        z, alpha, _ = attend(T.wrap(R), mask, fresh_state(cfg), ps)
        np.testing.assert_array_equal(alpha.data, mask)
        np.testing.assert_allclose(z.data, R[2], rtol=1e-12)

    def test_zero_readout_gives_uniform_mean(self):
        cfg, ps = make(1)
        ps["attn.score.w_out"].data[...] = 0.0
        rng = np.random.default_rng(1)
        R = rng.standard_normal((cfg.alpha_len, cfg.d_v))
        mask = np.array([1, 0, 1, 1, 0, 0, 0], dtype=float)
        z, alpha, _ = attend(T.wrap(R), mask, fresh_state(cfg), ps)
        np.testing.assert_allclose(alpha.data[mask > 0], 1 / 3, rtol=1e-12)
        np.testing.assert_allclose(z.data, R[[0, 2, 3]].mean(axis=0), rtol=1e-12)

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_matches_numpy_oracle(self, seed):
        cfg, ps = make(seed)
        rng = np.random.default_rng(seed)
        R = rng.standard_normal((cfg.alpha_len, cfg.d_v))
        mask = np.array([1, 1, 0, 1, 0, 1, 0], dtype=float)
        state = AttentionState(T.wrap(rng.standard_normal(cfg.attn_hidden)),
                               T.wrap(rng.standard_normal(cfg.alpha_len)))
        z, alpha, new_state = attend(T.wrap(R), mask, state, ps)
        want_z, want_alpha, want_h = np_attend(
            R, mask, state.alpha_prev.data, state.h_attn.data, ps)
        np.testing.assert_allclose(alpha.data, want_alpha, rtol=1e-10)
        np.testing.assert_allclose(z.data, want_z, rtol=1e-10)
        np.testing.assert_allclose(new_state.h_attn.data, want_h, rtol=1e-10)

    def test_alpha_is_masked_distribution(self):
        cfg, ps = make(5)
        rng = np.random.default_rng(5)
        for _ in range(10):
            R = rng.standard_normal((cfg.alpha_len, cfg.d_v))
            mask = (rng.random(cfg.alpha_len) < 0.6).astype(float)
            if mask.sum() == 0:
                mask[0] = 1.0
            _, alpha, _ = attend(T.wrap(R), mask, fresh_state(cfg), ps)
            assert alpha.data.sum() == pytest.approx(1.0)
            assert np.all(alpha.data[mask == 0] == 0.0)

    def test_z_in_convex_hull_of_valid_rows(self):
        cfg, ps = make(6)
        rng = np.random.default_rng(6)
        R = rng.standard_normal((cfg.alpha_len, cfg.d_v))
        mask = np.array([1, 1, 1, 0, 0, 1, 0], dtype=float)
        z, _, _ = attend(T.wrap(R), mask, fresh_state(cfg), ps)
        valid = R[mask > 0]
        eps = 1e-12
        assert np.all(z.data >= valid.min(axis=0) - eps)
        assert np.all(z.data <= valid.max(axis=0) + eps)

    def test_all_invalid_mask_rejected(self):
        cfg, ps = make(7)
        R = T.wrap(np.zeros((cfg.alpha_len, cfg.d_v)))
        with pytest.raises(T.InvalidMaskError):
            attend(R, np.zeros(cfg.alpha_len), fresh_state(cfg), ps)

    def test_state_persists_and_gradients_flow(self):
        cfg, ps = make(8)
        rng = np.random.default_rng(8)
        R = rng.standard_normal((cfg.alpha_len, cfg.d_v))
        mask = np.array([1, 1, 0, 1, 0, 0, 1], dtype=float)
        w = rng.standard_normal(cfg.d_v)

        def fn(p):
            state = fresh_state(cfg)
            out = T.wrap(0.0)
            for _ in range(3):  # three sentences sharing the evolving state
                z, _, state = attend(T.wrap(R), mask, state, p)
                out = out + T.arr_sum(z * T.wrap(w))
            return out

        include = [n for n in ps.names() if n.startswith("attn.")
                   and "init" not in n]
        assert T.grad_check(fn, ps, include=include) < 1e-4


def np_sentence_log_prob(z, ids, ps):
    """Plain-numpy mirror of the teacher-forced decoder."""
    table = ps["dec.embed.table"].data
    wx, wh, b = (ps[f"dec.gru.{k}"].data for k in ("w_x", "w_h", "b"))
    w1, b1 = ps["dec.out.w1"].data, ps["dec.out.b1"].data
    w2, b2 = ps["dec.out.w2"].data, ps["dec.out.b2"].data
    h = np.zeros(wh.shape[0])
    prev, total = BOS, 0.0
    for tok in ids:
        x = np.concatenate([table[prev], z])
        h = np_gru_step(x, h, wx, wh, b)
        d = np.tanh(np.concatenate([h, z]) @ w1 + b1) @ w2 + b2
        log_p = d - (np.log(np.exp(d - d.max()).sum()) + d.max())
        total += log_p[tok]
        prev = tok
    return total


class TestSentenceLogProb:
    def test_uniform_when_readout_zero(self):
        cfg, ps = make(9)
        for name in ("dec.out.w1", "dec.out.b1", "dec.out.w2", "dec.out.b2"):
            ps[name].data[...] = 0.0
        z = T.wrap(np.random.default_rng(9).standard_normal(cfg.d_v))
        ids = [4, 5, 6, EOS]
        total, logits, word_logps = sentence_log_prob(z, ids, ps)
        want = len(ids) * math.log(1.0 / cfg.vocab_size)
        assert total.item() == pytest.approx(want, rel=1e-12)
        assert len(logits) == len(ids) == len(word_logps)

    @pytest.mark.parametrize("seed", [10, 11])
    def test_matches_numpy_oracle(self, seed):
        cfg, ps = make(seed)
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(cfg.d_v)
        ids = [int(i) for i in rng.integers(0, cfg.vocab_size, size=5)] + [EOS]
        total, _, _ = sentence_log_prob(T.wrap(z), ids, ps)
        assert total.item() == pytest.approx(np_sentence_log_prob(z, ids, ps),
                                             rel=1e-10)

    def test_log_prob_nonpositive(self):
        cfg, ps = make(12)
        rng = np.random.default_rng(12)
        for _ in range(5):
            z = T.wrap(rng.standard_normal(cfg.d_v))
            ids = [int(i) for i in rng.integers(0, cfg.vocab_size, 4)] + [EOS]
            total, _, _ = sentence_log_prob(z, ids, ps)
            assert total.item() <= 0.0

    def test_out_of_range_token_rejected(self):
        cfg, ps = make(13)
        with pytest.raises(ValueError, match="token id"):
            sentence_log_prob(T.zeros(cfg.d_v), [cfg.vocab_size], ps)

    def test_gradients(self):
        cfg, ps = make(14)
        rng = np.random.default_rng(14)
        store = T.ParamStore()
        for name in ps.names():
            if name.startswith("dec."):
                store.add(name, ps[name].data, "dec")
        store.add("z", rng.standard_normal(cfg.d_v), "inputs")
        ids = [4, 6, EOS]

        def fn(p):
            total, _, _ = sentence_log_prob(p["z"], ids, p)
            return total

        assert T.grad_check(fn, store) < 1e-4


class TestGeneration:
    def test_greedy_deterministic(self):
        cfg, ps = make(15)
        z = T.wrap(np.random.default_rng(15).standard_normal(cfg.d_v))
        out1 = decode_sentence_greedy(z, ps, cfg.max_words)
        out2 = decode_sentence_greedy(z, ps, cfg.max_words)
        assert out1[0] == out2[0] and out1[1] == out2[1]

    def test_length_cap(self):
        cfg, ps = make(16)
        z = T.wrap(np.random.default_rng(16).standard_normal(cfg.d_v))
        ids, _, _ = decode_sentence_greedy(z, ps, max_words=4)
        assert len(ids) <= 5
        assert ids[-1] == EOS or len(ids) == 5

    @pytest.mark.parametrize("seed", range(17, 23))
    def test_beam_width_one_equals_greedy(self, seed):
        cfg, ps = make(seed)
        z = T.wrap(np.random.default_rng(seed).standard_normal(cfg.d_v))
        g_ids, g_logps, _ = decode_sentence_greedy(z, ps, cfg.max_words)
        b_ids, b_logps, _ = decode_sentence_beam(z, ps, cfg.max_words, width=1)
        assert g_ids == b_ids
        np.testing.assert_allclose(g_logps, b_logps, rtol=1e-12)

    def test_greedy_per_step_locally_optimal(self):
        # teacher-forcing greedy's own output must reproduce its choices:
        # at every step the argmax of the step logits is the emitted token
        cfg, ps = make(23)
        z = T.wrap(np.random.default_rng(23).standard_normal(cfg.d_v))
        ids, _, _ = decode_sentence_greedy(z, ps, cfg.max_words)
        _, logits, _ = sentence_log_prob(z, ids, ps)
        for tok, d in zip(ids, logits):
            assert int(np.argmax(d.data)) == tok

    def test_beam_returns_finished_or_capped(self):
        cfg, ps = make(24)
        z = T.wrap(np.random.default_rng(24).standard_normal(cfg.d_v))
        ids, logps, rows = decode_sentence_beam(z, ps, cfg.max_words, width=3)
        assert len(ids) == len(logps) == rows.shape[0]
        assert ids[-1] == EOS or len(ids) == cfg.max_words + 1

    def test_bad_beam_width(self):
        cfg, ps = make(25)
        with pytest.raises(ValueError):
            decode_sentence_beam(T.zeros(cfg.d_v), ps, 5, width=0)
