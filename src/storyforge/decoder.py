"""Per-sentence attention over photo+scene rows and word-level decoding.

One attention step per sentence: a GRU advances the attention state from
the previous sentence's weight vector, every valid row of the memory R is
scored against that state through a shared tanh layer, and the sentence
vector z_j is the weight-averaged memory. The word decoder is a GRU over
[previous-word embedding ; z_j] with a one-hidden-layer readout.

The attention state persists across the n sentences of an album; its
input alpha vector is padded to a fixed length so parameter shapes do not
depend on album size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import BOS, EOS


@dataclass
class AttentionState:
    h_attn: T.NumArray     # (H_a,)
    alpha_prev: T.NumArray  # (L_max,) zero before the first sentence


@dataclass
class StoryHypothesis:
    sentences: list        # n token-id lists, each ending with EOS or at length cap
    word_logps: list       # matching per-token log-probs (floats)
    alphas: list           # n attention vectors over the album's 2m+1 slots
    logits: list           # n arrays (T_j, vocab) of raw output scores
    flags: list            # scene boundary decisions for the album


def attend(memory, valid_mask, state: AttentionState, params):
    """One attention step. Returns (z, alpha, new_state).

    memory: (L_max, D_v) rows = photos then scene slots then zero padding;
    valid_mask marks the photo rows and true scene rows.
    """
    h_new = T.gru_cell(state.alpha_prev, state.h_attn, params.gru("attn.gru"))
    keys = T.tanh(memory @ params["attn.score.w_mem"]
                  + h_new @ params["attn.score.w_state"]
                  + params["attn.score.b"])
    alpha = T.masked_softmax(keys @ params["attn.score.w_out"], valid_mask)
    z = alpha @ memory
    return z, alpha, AttentionState(h_new, alpha)


def _decoder_step(prev, h, z, table, gru_w, params):
    """One word step: the GRU consumes [embedding of prev ; z], then the
    readout scores the vocabulary from [h_new ; z]. Returns (h_new, logits)."""
    h = T.gru_cell(T.concat([T.pick(table, prev), z]), h, gru_w)
    hidden = T.tanh(T.concat([h, z]) @ params["dec.out.w1"] + params["dec.out.b1"])
    return h, hidden @ params["dec.out.w2"] + params["dec.out.b2"]


def sentence_log_prob(z, sentence_ids, params):
    """Teacher-forced score of an EOS-terminated sentence given z.

    Step t consumes the embedding of the previous token (BOS first) joined
    with z. Returns (total log-prob node, per-step logits, per-word
    log-prob nodes); the total includes the EOS term.
    """
    table = params["dec.embed.table"]
    vocab_size = table.shape[0]
    for i in sentence_ids:
        if not 0 <= i < vocab_size:
            raise ValueError(f"token id {i} outside vocabulary of {vocab_size}")
    gru_w = params.gru("dec.gru")
    h = T.zeros(gru_w.hidden_size)
    prev = BOS
    logits_seq, word_logps = [], []
    for target in sentence_ids:
        h, d = _decoder_step(prev, h, z, table, gru_w, params)
        logits_seq.append(d)
        word_logps.append(T.pick(T.log_softmax(d), target))
        prev = target
    total = word_logps[0]
    for lp in word_logps[1:]:
        total = total + lp
    return total, logits_seq, word_logps


def decode_sentence_greedy(z, params, max_words: int):
    """Argmax decoding until EOS or max_words+1 tokens."""
    table = params["dec.embed.table"]
    gru_w = params.gru("dec.gru")
    h = T.zeros(gru_w.hidden_size)
    prev = BOS
    ids, logps, logits_rows = [], [], []
    with T.no_grad():
        for _ in range(max_words + 1):
            h, d = _decoder_step(prev, h, z, table, gru_w, params)
            log_p = T.log_softmax(d).data
            tok = int(np.argmax(log_p))
            ids.append(tok)
            logps.append(float(log_p[tok]))
            logits_rows.append(d.data.copy())
            if tok == EOS:
                break
            prev = tok
    return ids, logps, np.stack(logits_rows)


def decode_sentence_beam(z, params, max_words: int, width: int):
    """Beam search over token sequences by total log-prob; ties break toward
    lower token ids so width 1 reproduces greedy exactly."""
    if width < 1:
        raise ValueError("beam width must be >= 1")
    table = params["dec.embed.table"]
    gru_w = params.gru("dec.gru")
    # beam entries: (ids, per-word logps, logits rows, state, finished)
    beams = [([], [], [], T.zeros(gru_w.hidden_size), False)]
    with T.no_grad():
        for _ in range(max_words + 1):
            candidates = []
            for ids, logps, rows, h, done in beams:
                if done:
                    candidates.append((ids, logps, rows, h, True))
                    continue
                h_new, d = _decoder_step(ids[-1] if ids else BOS, h, z, table,
                                         gru_w, params)
                log_p = T.log_softmax(d).data
                order = np.argsort(-log_p, kind="stable")[:width]
                for tok in order:
                    tok = int(tok)
                    candidates.append((ids + [tok], logps + [float(log_p[tok])],
                                       rows + [d.data.copy()], h_new, tok == EOS))
            candidates.sort(key=lambda c: (-sum(c[1]), c[0]))
            beams = candidates[:width]
            if all(done for _, _, _, _, done in beams):
                break
    ids, logps, rows, _, _ = beams[0]
    return ids, logps, np.stack(rows)
