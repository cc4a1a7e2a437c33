import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storyforge import decoder
from storyforge import tensor as T
from storyforge.data import BOS, EOS, ConfigError
from storyforge.decoder import (AttentionState, attend,
                                decode_sentence_beam, decode_sentence_greedy,
                                score_sentences, sentence_log_prob)
from storyforge.model import ModelConfig, build_parameters

from helpers import log_softmax, np_gru_step, two_line_log_softmax


def small_cfg():
    return ModelConfig(vocab_size=8, feature_dim=4, photo_hidden=2,
                       attn_hidden=3, attn_score_dim=3, dec_hidden=3,
                       emb_dim=3, mlp_hidden=4, max_photos=3)


def make(seed=0):
    cfg = small_cfg()
    return cfg, build_parameters(cfg, np.random.default_rng(seed))


def fresh_state(cfg):
    """A lone album's first attention state: rows of a batch of one."""
    return AttentionState(T.zeros((1, cfg.attn_hidden)), T.zeros((1, cfg.alpha_len)))


def attend_step(R, mask, state, ps):
    """One `attend` step over memory R, its keys projected for this step."""
    R = T.wrap(R)
    return attend(R, R @ ps["attn.score.w_mem"], mask, state, ps)


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
        R = rng.standard_normal((1, cfg.alpha_len, cfg.d_v))
        mask = np.zeros((1, cfg.alpha_len))
        mask[0, 2] = 1.0
        z, alpha, _ = attend_step(R, mask, fresh_state(cfg), ps)
        np.testing.assert_array_equal(alpha.data, mask)
        np.testing.assert_allclose(z.data, R[:, 2], rtol=1e-12)

    def test_zero_readout_gives_uniform_mean(self):
        cfg, ps = make(1)
        ps["attn.score.w_out"].data[...] = 0.0
        rng = np.random.default_rng(1)
        R = rng.standard_normal((1, cfg.alpha_len, cfg.d_v))
        mask = np.array([[1, 0, 1, 1, 0, 0, 0]], dtype=float)
        z, alpha, _ = attend_step(R, mask, fresh_state(cfg), ps)
        np.testing.assert_allclose(alpha.data[mask > 0], 1 / 3, rtol=1e-12)
        np.testing.assert_allclose(z.data[0], R[0, [0, 2, 3]].mean(axis=0), rtol=1e-12)

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_matches_numpy_oracle(self, seed):
        cfg, ps = make(seed)
        rng = np.random.default_rng(seed)
        R = rng.standard_normal((cfg.alpha_len, cfg.d_v))
        mask = np.array([1, 1, 0, 1, 0, 1, 0], dtype=float)
        h_attn = rng.standard_normal(cfg.attn_hidden)
        alpha_prev = rng.standard_normal(cfg.alpha_len)
        state = AttentionState(T.wrap(h_attn[None]), T.wrap(alpha_prev[None]))
        z, alpha, new_state = attend_step(R[None], mask[None], state, ps)
        want_z, want_alpha, want_h = np_attend(R, mask, alpha_prev, h_attn, ps)
        np.testing.assert_allclose(alpha.data[0], want_alpha, rtol=1e-10)
        np.testing.assert_allclose(z.data[0], want_z, rtol=1e-10)
        np.testing.assert_allclose(new_state.h_attn.data[0], want_h, rtol=1e-10)

    def test_alpha_is_masked_distribution(self):
        cfg, ps = make(5)
        rng = np.random.default_rng(5)
        for _ in range(10):
            R = rng.standard_normal((1, cfg.alpha_len, cfg.d_v))
            mask = (rng.random((1, cfg.alpha_len)) < 0.6).astype(float)
            if mask.sum() == 0:
                mask[0, 0] = 1.0
            _, alpha, _ = attend_step(R, mask, fresh_state(cfg), ps)
            assert alpha.data.sum() == pytest.approx(1.0)
            assert np.all(alpha.data[mask == 0] == 0.0)

    def test_z_in_convex_hull_of_valid_rows(self):
        cfg, ps = make(6)
        rng = np.random.default_rng(6)
        R = rng.standard_normal((1, cfg.alpha_len, cfg.d_v))
        mask = np.array([[1, 1, 1, 0, 0, 1, 0]], dtype=float)
        z, _, _ = attend_step(R, mask, fresh_state(cfg), ps)
        valid = R[mask > 0]
        eps = 1e-12
        assert np.all(z.data >= valid.min(axis=0) - eps)
        assert np.all(z.data <= valid.max(axis=0) + eps)

    def test_all_invalid_mask_rejected(self):
        cfg, ps = make(7)
        R = T.wrap(np.zeros((1, cfg.alpha_len, cfg.d_v)))
        with pytest.raises(T.InvalidMaskError):
            attend_step(R, np.zeros((1, cfg.alpha_len)), fresh_state(cfg), ps)

    def test_batch_rows_equal_album_calls(self):
        cfg, ps = make(9)
        rng = np.random.default_rng(9)
        R = rng.standard_normal((3, cfg.alpha_len, cfg.d_v))
        mask = (rng.random((3, cfg.alpha_len)) < 0.6).astype(float)
        mask[:, 0] = 1.0
        state = AttentionState(T.wrap(rng.standard_normal((3, cfg.attn_hidden))),
                               T.wrap(rng.standard_normal((3, cfg.alpha_len))))
        z, alpha, new_state = attend_step(R, mask, state, ps)
        assert z.shape == (3, cfg.d_v) and alpha.shape == (3, cfg.alpha_len)
        for b in range(3):
            one = AttentionState(T.wrap(state.h_attn.data[b:b + 1]),
                                 T.wrap(state.alpha_prev.data[b:b + 1]))
            want_z, want_alpha, want_state = attend_step(R[b:b + 1], mask[b:b + 1],
                                                         one, ps)
            np.testing.assert_allclose(z.data[b], want_z.data[0], rtol=1e-12)
            np.testing.assert_allclose(alpha.data[b], want_alpha.data[0], rtol=1e-12)
            np.testing.assert_allclose(new_state.h_attn.data[b],
                                       want_state.h_attn.data[0], rtol=1e-12)

    def test_state_persists_and_gradients_flow(self):
        cfg, ps = make(8)
        rng = np.random.default_rng(8)
        R = rng.standard_normal((1, cfg.alpha_len, cfg.d_v))
        mask = np.array([[1, 1, 0, 1, 0, 0, 1]], dtype=float)
        w = rng.standard_normal((1, cfg.d_v))

        def fn(p):
            state = fresh_state(cfg)
            out = T.wrap(0.0)
            for _ in range(3):  # three sentences sharing the evolving state
                z, _, state = attend_step(R, mask, state, p)
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

    def test_batch_of_one_z_scores_alike(self):
        # a lone album's z rows come from `summarize_album` as (1, D_v)
        cfg, ps = make(15)
        rng = np.random.default_rng(15)
        z = rng.standard_normal(cfg.d_v)
        ids = [int(i) for i in rng.integers(0, cfg.vocab_size, size=4)] + [EOS]
        flat_total, flat_logits, flat_logps = sentence_log_prob(T.wrap(z), ids, ps)
        total, logits, word_logps = sentence_log_prob(T.wrap(z[None]), ids, ps)
        assert total.data.tobytes() == flat_total.data.tobytes()
        assert len(logits) == len(word_logps) == len(ids)
        for got, want in zip(logits + word_logps, flat_logits + flat_logps):
            assert got.shape == want.shape
            assert got.data.tobytes() == want.data.tobytes()

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


def random_story(rng, cfg, lengths):
    return [[int(t) for t in rng.integers(0, cfg.vocab_size, size=n - 1)] + [EOS]
            for n in lengths]


class TestScoreSentences:
    @pytest.mark.parametrize("seed", range(30, 34))
    def test_rows_match_oracle_and_ignore_padding(self, seed):
        cfg, ps = make(seed)
        rng = np.random.default_rng(seed)
        sentences = random_story(rng, cfg, [1, 4, 2, 6])
        Z = rng.standard_normal((4, cfg.d_v))
        totals, logits, word_logps = score_sentences(T.wrap(Z), sentences, ps)
        assert totals.shape == (4,) and logits.shape == (6, 4, cfg.vocab_size)
        for b, ids in enumerate(sentences):
            assert totals.data[b] == pytest.approx(
                np_sentence_log_prob(Z[b], ids, ps), rel=1e-12)
            assert np.all(word_logps.data[len(ids):, b] == 0.0)
        # a longer row added to the batch leaves every other row unchanged
        more, more_logits, _ = score_sentences(
            T.wrap(np.vstack([Z, Z[:1]])), sentences + random_story(rng, cfg, [9]), ps)
        np.testing.assert_allclose(more.data[:4], totals.data, rtol=1e-12)
        for b, ids in enumerate(sentences):
            np.testing.assert_allclose(more_logits.data[:len(ids), b],
                                       logits.data[:len(ids), b], rtol=1e-12)

    def test_gradients_with_unequal_lengths(self):
        cfg, ps = make(34)
        rng = np.random.default_rng(34)
        store = T.ParamStore()
        for name in ps.names():
            if name.startswith("dec."):
                store.add(name, ps[name].data, "dec")
        store.add("Z", rng.standard_normal((3, cfg.d_v)), "inputs")
        sentences = random_story(rng, cfg, [3, 1, 4])
        w = rng.standard_normal(3)

        def fn(p):
            totals, _, _ = score_sentences(p["Z"], sentences, p)
            return T.arr_sum(totals * T.wrap(w))

        assert T.grad_check(fn, store) < 1e-4

    def test_sentence_log_prob_lists_per_step_rows(self):
        cfg, ps = make(35)
        rng = np.random.default_rng(35)
        z = rng.standard_normal(cfg.d_v)
        ids = random_story(rng, cfg, [5])[0]
        total, logits, word_logps = sentence_log_prob(T.wrap(z), ids, ps)
        assert total.shape == () and len(logits) == len(word_logps) == len(ids)
        assert all(d.data.shape == (cfg.vocab_size,) for d in logits)
        assert all(lp.data.shape == () for lp in word_logps)
        for tok, d, lp in zip(ids, logits, word_logps):
            log_p = log_softmax(d).data
            assert float(lp.data) == pytest.approx(log_p[tok], rel=1e-12)
        assert math.fsum(float(lp.data) for lp in word_logps) == pytest.approx(
            total.item(), rel=1e-12)

    def test_empty_sentence_rejected(self):
        cfg, ps = make(36)
        with pytest.raises(ValueError, match=r"^step counts \[1, 0\] do not fit 1 steps"):
            score_sentences(T.zeros((2, cfg.d_v)), [[EOS], []], ps)

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_out_of_vocabulary_id_rejected(self, bad):
        # the target gather would wrap a negative id and fault past the table
        cfg, ps = make(36)
        assert cfg.vocab_size == 8
        with pytest.raises(ValueError, match=f"^token id {bad} outside vocabulary of 8$"):
            score_sentences(T.zeros((2, cfg.d_v)), [[EOS], [4, bad, EOS]], ps)

    def test_z_rows_must_match_the_sentences(self):
        # Z's projections broadcast over the steps, so a lone row would
        # otherwise score every sentence
        cfg, ps = make(37)
        for rows, n in ((1, 2), (3, 2)):
            with pytest.raises(T.DimensionError,
                               match=f"^Z has {rows} rows for {n} sentences$"):
                score_sentences(T.zeros((rows, cfg.d_v)), [[EOS]] * n, ps)


def next_log_probs(z, ids, params):
    """Log-probs of the word after `ids` given z (1, D_v): ids + [EOS]
    teacher-forced through `score_sentences`, read at step len(ids). The
    search's word step takes teacher forcing's form, so a lone row's step
    equals this to the bit."""
    _, logits, _ = score_sentences(z, [ids + [EOS]], params)
    return log_softmax(logits.data[len(ids)]).data[0]


def greedy_oracle(z, params, max_words):
    """Argmax decoding with a loop of its own, each word scored by
    teacher-forcing its prefix."""
    z, ids, logps = T.reshape(z, (1, -1)), [], []
    with T.no_grad():
        for _ in range(max_words + 1):
            log_p = next_log_probs(z, ids, params)
            tok = int(np.argmax(log_p))
            ids.append(tok)
            logps.append(float(log_p[tok]))
            if tok == EOS:
                break
    return ids, logps


def beam_oracle(z, params, max_words, width):
    """Beam search that scores each hypothesis on its own, by teacher-forcing
    its prefix, and ranks by (summed log-prob, ids)."""
    beams, z = [([], [], False)], T.reshape(z, (1, -1))
    with T.no_grad():
        for _ in range(max_words + 1):
            candidates = []
            for ids, logps, done in beams:
                if done:
                    candidates.append((ids, logps, True))
                    continue
                log_p = next_log_probs(z, ids, params)
                for tok in np.argsort(-log_p, kind="stable")[:width]:
                    tok = int(tok)
                    candidates.append((ids + [tok], logps + [float(log_p[tok])],
                                       tok == EOS))
            candidates.sort(key=lambda c: (-sum(c[1]), c[0]))
            beams = candidates[:width]
            if all(done for _, _, done in beams):
                break
    return beams[0][0], beams[0][1]


class TestGeneration:
    def test_greedy_deterministic(self):
        cfg, ps = make(15)
        z = T.wrap(np.random.default_rng(15).standard_normal(cfg.d_v))
        out1 = decode_sentence_greedy(z, ps, cfg.max_words)
        out2 = decode_sentence_greedy(z, ps, cfg.max_words)
        assert out1 == out2

    def test_length_cap(self):
        cfg, ps = make(16)
        z = T.wrap(np.random.default_rng(16).standard_normal(cfg.d_v))
        ids, _ = decode_sentence_greedy(z, ps, max_words=4)
        assert len(ids) <= 5
        assert ids[-1] == EOS or len(ids) == 5

    @pytest.mark.parametrize("seed", range(17, 23))
    def test_beam_width_one_equals_greedy(self, seed):
        # bit for bit, log-probs included, and equal to the one-row loop
        cfg, ps = make(seed)
        z = T.wrap(np.random.default_rng(seed).standard_normal(cfg.d_v))
        want = greedy_oracle(z, ps, cfg.max_words)
        assert decode_sentence_beam(z, ps, cfg.max_words, width=1) == want
        assert decode_sentence_greedy(z, ps, cfg.max_words) == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 12),
           st.sampled_from([0.0, -10.0]), st.booleans())
    def test_search_equals_per_hypothesis_oracles(self, seed, width, max_words,
                                                  eos_bias, tied):
        # eos_bias -10 runs to the length cap; tied makes every token equally
        # likely, so the ranking falls to the tie rule (lower ids first)
        cfg, ps = make(seed)
        ps["dec.out.b2"].data[EOS] = eos_bias
        if tied:
            ps["dec.out.w2"].data[...] = 0.0
            ps["dec.out.b2"].data[...] = 0.0
        z = T.wrap(np.random.default_rng(seed).standard_normal(cfg.d_v))
        assert decode_sentence_greedy(z, ps, max_words) == \
            greedy_oracle(z, ps, max_words)
        ids, logps = decode_sentence_beam(z, ps, max_words, width)
        want_ids, want_logps = beam_oracle(z, ps, max_words, width)
        assert ids == want_ids
        np.testing.assert_allclose(logps, want_logps, rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 3, 4, 5, 10]),
           st.integers(1, 6), st.integers(1, 8), st.sampled_from([0.0, -10.0, 1.5]),
           st.sampled_from(["none", "full", "partial"]))
    def test_rows_search_equals_oracles(self, seed, width, rows, max_words, eos_bias,
                                        ties):
        # every row of one search decodes as the one-row oracles do; width 10
        # exceeds the vocabulary of 8. "full" zeroes the readout so every
        # token ties, "partial" keeps only a rounded output bias so some do
        cfg, ps = make(seed)
        rng = np.random.default_rng(seed)
        w2, b2 = ps["dec.out.w2"].data, ps["dec.out.b2"].data
        if ties != "none":
            w2[...] = 0.0
            b2[...] = 0.0 if ties == "full" else np.round(rng.standard_normal(len(b2)))
        b2[EOS] = eos_bias
        Z = rng.standard_normal((rows, cfg.d_v))
        got = decoder._search(Z, ps, max_words, width)
        for (ids, logps), z in zip(got, Z):
            if width == 1:
                want_ids, want_logps = greedy_oracle(T.wrap(z), ps, max_words)
            else:
                want_ids, want_logps = beam_oracle(T.wrap(z), ps, max_words, width)
            assert ids == want_ids
            np.testing.assert_allclose(logps, want_logps, rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 6), st.integers(1, 8),
           st.sampled_from([0.0, -10.0, 1.5]), st.sampled_from(["none", "full", "partial"]))
    def test_argmax_loop_equals_ranking_loop(self, seed, rows, max_words, eos_bias, ties):
        # greedy's own loop returns the width-1 ranking's ids and the very
        # same log-prob floats; the ties are drawn as in the test above
        cfg, ps = make(seed)
        rng = np.random.default_rng(seed)
        w2, b2 = ps["dec.out.w2"].data, ps["dec.out.b2"].data
        if ties != "none":
            w2[...] = 0.0
            b2[...] = 0.0 if ties == "full" else np.round(rng.standard_normal(len(b2)))
        b2[EOS] = eos_bias
        Z = rng.standard_normal((rows, cfg.d_v))
        want = decoder._ranking_loop(decoder._project(Z, ps), max_words, 1)
        assert decoder._search(Z, ps, max_words, 1) == want
        assert len(want) == rows

    @pytest.mark.parametrize("width", [1, 3])
    def test_no_rows_decode_to_nothing(self, width):
        cfg, ps = make(30)
        assert decoder._search(np.zeros((0, cfg.d_v)), ps, cfg.max_words, width) == []

    def test_greedy_sorts_no_log_probs(self, monkeypatch):
        # at a large vocabulary a sort of each row dominates the word step;
        # an argmax needs none. Width 3 sorts its log-softmax of the fake
        # logits, which shows the fake is read.
        class Sorted(Exception):
            pass

        class Unsortable(np.ndarray):
            def argsort(self, *args, **kwargs):
                raise Sorted

            sort = argpartition = argsort

        cfg, ps = make(31)
        ps["dec.out.b2"].data[EOS] = -10.0  # every row runs to the length cap
        Z = np.random.default_rng(31).standard_normal((4, cfg.d_v))
        want, step = decoder._search(Z, ps, cfg.max_words, 1), decoder._word_logits

        def unsortable_step(*args):
            h, logits = step(*args)
            return h, logits.view(Unsortable)

        monkeypatch.setattr(decoder, "_word_logits", unsortable_step)
        got = decoder._search(Z, ps, cfg.max_words, 1)
        assert got == want and len(got[0][0]) == cfg.max_words + 1
        with pytest.raises(Sorted):
            decoder._search(Z, ps, cfg.max_words, 3)

    def test_beam_makes_floats_only_of_kept_log_probs(self, monkeypatch):
        # at a large vocabulary a full row's `tolist` makes a float per word;
        # a beam keeps `width` log-probs of each row and converts only those
        cfg, ps = make(32)

        class Listed(Exception):
            pass

        class Unlistable(np.ndarray):
            def tolist(self):
                if self.shape[-1] == cfg.vocab_size:
                    raise Listed
                return np.asarray(self).tolist()

        ps["dec.out.b2"].data[EOS] = -10.0  # every row runs to the length cap
        Z = np.random.default_rng(32).standard_normal((4, cfg.d_v))
        want, step = decoder._search(Z, ps, cfg.max_words, 3), decoder._decoder_step

        def unlistable_step(*args):
            h, log_p = step(*args)
            with pytest.raises(Listed):   # the fake refuses a full row
                log_p.view(Unlistable)[:1].tolist()
            return h, log_p.view(Unlistable)

        monkeypatch.setattr(decoder, "_decoder_step", unlistable_step)
        got = decoder._search(Z, ps, cfg.max_words, 3)
        assert got == want and len(got[0][0]) == cfg.max_words + 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 7))
    def test_decoder_step_writes_only_its_own_arrays(self, seed, rows):
        # the step adds ZX into its gather of TX and runs the readout in place
        # on its own products: nothing it is handed moves, and its output is
        # the out-of-place form's, to the bit, as logits (greedy's step) and
        # as log-probs (the beam's)
        cfg, ps = make(seed)
        rng = np.random.default_rng(seed)
        weights, ZX, ZR = decoder._project(rng.standard_normal((rows, cfg.d_v)), ps)
        prev = rng.integers(0, cfg.vocab_size, rows)
        H = rng.standard_normal((rows, cfg.dec_hidden))
        handed = (prev, H, ZX, ZR) + weights
        before = [a.copy() for a in handed]
        prev, H, ZX, ZR, tx, w_h, w1, w2, b2 = before
        want_h, _ = T._gru_step(tx[prev] + ZX, H, w_h)
        want_logits = np.tanh(want_h @ w1 + ZR) @ w2 + b2
        for step, want in ((decoder._word_logits, want_logits),
                           (decoder._decoder_step, two_line_log_softmax(want_logits))):
            h, out = step(*handed[:4], weights)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(handed, before))
            assert (h.shape, h.tobytes()) == (want_h.shape, want_h.tobytes())
            assert (out.shape, out.tobytes()) == (want.shape, want.tobytes())

    def test_greedy_forms_no_log_softmax_row(self, monkeypatch):
        # greedy needs each row's argmax and exp sum of the logits, not a
        # (rows, vocab) log-softmax; width 3 ranks log-probs, which shows the
        # fake is read
        class LogSoftmaxed(Exception):
            pass

        def no_log_softmax(x):
            raise LogSoftmaxed

        cfg, ps = make(34)
        ps["dec.out.b2"].data[EOS] = -10.0  # every row runs to the length cap
        Z = np.random.default_rng(34).standard_normal((4, cfg.d_v))
        want = decoder._search(Z, ps, cfg.max_words, 1)
        monkeypatch.setattr(decoder.T, "_log_softmax", no_log_softmax)
        got = decoder._search(Z, ps, cfg.max_words, 1)
        assert got == want
        assert all(len(ids) == cfg.max_words + 1 for ids, _ in got)
        with pytest.raises(LogSoftmaxed):
            decoder._search(Z, ps, cfg.max_words, 3)

    def test_greedy_takes_the_larger_logit_where_log_probs_merge(self, monkeypatch):
        # 64 logits of 1.0 and id 6 one ulp above: rounding gives ids 0 and 6
        # one log-prob, so a ranking by log-probs would take id 0; greedy
        # takes the first maximum of the logits, id 6, at that log-prob
        cfg, ps = make(35)
        logits = np.ones(64)
        logits[6] = np.nextafter(1.0, 2.0)
        log_p = T._log_softmax(logits)
        assert logits[6] > logits[0] and log_p[6] == log_p[0]

        def fake_logits(prev, H, ZX, ZR, weights):
            return H, np.tile(logits, (len(prev), 1))

        monkeypatch.setattr(decoder, "_word_logits", fake_logits)
        max_words = 3
        [(ids, logps)] = decoder._search(np.zeros((1, cfg.d_v)), ps, max_words, 1)
        assert ids == [6] * (max_words + 1)
        assert [np.float64(lp).tobytes() for lp in logps] == \
            [log_p[6].tobytes()] * (max_words + 1)

    @pytest.mark.parametrize("max_words", [-2, -1, 0, True, 1.5])
    @pytest.mark.parametrize("width", [1, 3])
    def test_search_checks_max_words(self, width, max_words):
        # at -1 a search returned sentences with no token, at -2 it failed
        # in numpy, and True decoded as 1
        cfg, ps = make(36)
        z = T.wrap(np.random.default_rng(36).standard_normal(cfg.d_v))
        with pytest.raises(ConfigError, match="^max_words must be"):
            if width == 1:
                decode_sentence_greedy(z, ps, max_words)
            else:
                decode_sentence_beam(z, ps, max_words, width)

    def test_search_builds_no_graph_arrays(self, monkeypatch):
        # the search runs on plain arrays: no NumArray, so no graph node
        cfg, ps = make(29)
        Z = np.random.default_rng(29).standard_normal((4, cfg.d_v))
        made, init = [], T.NumArray.__init__
        monkeypatch.setattr(T.NumArray, "__init__",
                            lambda self, *a, **k: made.append(1) or init(self, *a, **k))
        for width in (1, 3):
            decoder._search(Z, ps, cfg.max_words, width)
        assert made == []

    @pytest.mark.parametrize("width", [None, 1, 3])
    def test_batch_of_one_z_decodes_alike(self, width):
        # a lone album's z rows come from `summarize_album` as (1, D_v)
        cfg, ps = make(27)
        z = np.random.default_rng(27).standard_normal(cfg.d_v)

        def decode(z):
            if width is None:
                return decode_sentence_greedy(z, ps, cfg.max_words)
            return decode_sentence_beam(z, ps, cfg.max_words, width)

        assert decode(T.wrap(z[None])) == decode(T.wrap(z))

    def test_one_decoder_step_per_word(self, monkeypatch):
        # the hypotheses of a step are rows of one call, not one call each
        cfg, ps = make(26)
        ps["dec.out.b2"].data[EOS] = -10.0  # no hypothesis finishes early
        z = T.wrap(np.random.default_rng(26).standard_normal(cfg.d_v))
        rows, step = [], decoder._decoder_step
        monkeypatch.setattr(decoder, "_decoder_step",
                            lambda prev, *rest: rows.append(len(prev)) or step(prev, *rest))
        ids, _ = decode_sentence_beam(z, ps, cfg.max_words, width=3)
        assert len(ids) == cfg.max_words + 1
        assert rows == [1] + [3] * cfg.max_words

    @pytest.mark.parametrize("table, want", [
        # [5] outranks [4], so the beam holds [5] first; [5, 6] and [4, 7]
        # tie at -2.5 for the second place behind [5, 4], and only the
        # parent ids put [4, 7] first (its token 7 is the higher one)
        ({(): {5: -1.0, 4: -1.5}, (5,): {4: -0.5, 6: -1.5}, (4,): {7: -1.0},
          (5, 4): {EOS: -8.0}, (4, 7): {EOS: -0.5}, (5, 6): {EOS: -0.25}},
         ([4, 7, EOS], [-1.5, -1.0, -0.5])),
        # the finished [5, EOS] and the live [4, 6, 4] tie at -2 behind
        # [4, 6, 7]; [4, 6] < [5, EOS] keeps [4, 6, 4], though a finished
        # hypothesis ranks as token -1
        ({(): {4: -0.5, 5: -1.0}, (4,): {6: -0.5, 7: -2.0}, (5,): {EOS: -1.0},
          (4, 6): {7: -0.5, 4: -1.0}, (4, 6, 7): {EOS: -4.0}, (4, 6, 4): {EOS: -0.5}},
         ([4, 6, 4, EOS], [-0.5, -0.5, -1.0, -0.5])),
    ], ids=["live-tie", "finished-tie"])
    def test_ties_across_parents_rank_by_ids(self, monkeypatch, table, want):
        # a fake word step whose state rows hold each hypothesis's tokens and
        # whose log-probs are dyadic, so candidates from different parents
        # tie exactly at the width cut and lead to different best sentences
        cfg, ps = make(29)

        def step(prev, H, ZX, ZR, weights):
            hist = [[int(t) - 1 for t in row if t] + [int(p)] for row, p in zip(H, prev)]
            log_p = np.full((len(prev), cfg.vocab_size), -64.0)
            for row, h in zip(log_p, hist):
                for t, lp in table.get(tuple(h[1:]), {}).items():
                    row[t] = lp
            states = np.zeros((len(prev), cfg.max_words + 2))
            for row, h in zip(states, hist):
                row[:len(h)] = np.add(h, 1)
            return states, log_p

        monkeypatch.setattr(decoder, "_decoder_step", step)
        Z = np.zeros((1, cfg.d_v))
        assert decoder._search(Z, ps, cfg.max_words, 2) == [want]

    def test_finished_rows_leave_the_step(self, monkeypatch):
        # one beam per row of Z; a step runs only the rows still decoding,
        # and each row decodes as it would alone
        cfg, ps = make(28)
        ps["dec.out.b2"].data[EOS] = 1.0   # rows end after 1, 2, 15 and 26 tokens
        Z = np.random.default_rng(28).standard_normal((6, cfg.d_v))
        want = [decode_sentence_greedy(z, ps, cfg.max_words) for z in Z]
        rows, step = [], decoder._word_logits
        monkeypatch.setattr(decoder, "_word_logits",
                            lambda prev, *rest: rows.append(len(prev)) or step(prev, *rest))
        got = decoder._search(Z, ps, cfg.max_words, 1)
        lengths = [len(ids) for ids, _ in got]
        assert len(set(lengths)) > 1
        assert rows == [sum(n > t for n in lengths) for t in range(max(lengths))]
        assert [ids for ids, _ in got] == [ids for ids, _ in want]
        for (_, logps), (_, want_logps) in zip(got, want):
            np.testing.assert_allclose(logps, want_logps, rtol=0, atol=1e-12)

    def test_greedy_per_step_locally_optimal(self):
        # teacher-forcing greedy's own output must reproduce its choices:
        # at every step the argmax of the step logits is the emitted token
        cfg, ps = make(23)
        z = T.wrap(np.random.default_rng(23).standard_normal(cfg.d_v))
        ids, _ = decode_sentence_greedy(z, ps, cfg.max_words)
        _, logits, _ = sentence_log_prob(z, ids, ps)
        for tok, d in zip(ids, logits):
            assert int(np.argmax(d.data)) == tok

    def test_beam_returns_finished_or_capped(self):
        cfg, ps = make(24)
        z = T.wrap(np.random.default_rng(24).standard_normal(cfg.d_v))
        ids, logps = decode_sentence_beam(z, ps, cfg.max_words, width=3)
        assert len(ids) == len(logps)
        assert ids[-1] == EOS or len(ids) == cfg.max_words + 1

    def test_bad_beam_width(self):
        cfg, ps = make(25)
        with pytest.raises(ValueError):
            decode_sentence_beam(T.zeros(cfg.d_v), ps, 5, width=0)


LONE_Z_CONFIGS = {"small": small_cfg(), "v30": ModelConfig(vocab_size=30),
                  "v999": ModelConfig(vocab_size=999)}


class TestSearchIsTeacherForcing:
    """The search projects the embedding table and z once, as
    `score_sentences` does, so its word log-probs are teacher forcing's."""

    @staticmethod
    def decode_and_force(cfg, seed, width):
        ps = build_parameters(cfg, np.random.default_rng(seed))
        z = np.random.default_rng(seed).standard_normal((1, cfg.d_v))
        ids, logps = decoder._search(z, ps, cfg.max_words, width)[0]
        with T.no_grad():
            _, _, word_logps = score_sentences(T.wrap(z), [ids], ps)
        return ps, z, ids, np.array(logps), word_logps.data[:, 0]

    @pytest.mark.parametrize("name", LONE_Z_CONFIGS)
    def test_lone_greedy_equals_teacher_forcing_bit_for_bit(self, name):
        cfg = LONE_Z_CONFIGS[name]
        differ = []
        for seed in range(60):
            _, _, _, logps, forced = self.decode_and_force(cfg, seed, 1)
            if logps.tobytes() != forced.tobytes():
                differ.append(seed)
        assert differ == []

    @pytest.mark.parametrize("name", LONE_Z_CONFIGS)
    def test_lone_beam_equals_oracle_and_teacher_forcing(self, name):
        # beam rows run their products at other row counts than teacher
        # forcing's one row, which may move a log-prob by an ulp
        cfg = LONE_Z_CONFIGS[name]
        for seed in range(20):
            ps, z, ids, logps, forced = self.decode_and_force(cfg, seed, 3)
            assert ids == beam_oracle(T.wrap(z), ps, cfg.max_words, 3)[0]
            np.testing.assert_allclose(logps, forced, rtol=1e-12, atol=0)
