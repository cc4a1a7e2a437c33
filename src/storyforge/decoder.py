"""Per-sentence attention over photo+scene rows and word-level decoding.

One attention step per sentence: a GRU advances the attention state from
the previous sentence's weight vector, every valid row of the memory R is
scored against that state through a shared tanh layer, and the sentence
vector z_j is the weight-averaged memory. Attention steps every album of
a batch at once, each over its own memory rows, and the weight vectors of
its n steps are one graph node, on keys projected once, in `attend_scan`;
`attend`, one step, is its reference in tests.
The word decoder is a GRU over [previous-word embedding ; z_j] with a
one-hidden-layer readout over [h ; z_j].
Teacher-forced scoring runs any number of sentences (all of a batch's) as
one padded batch through one GRU scan; the embedding table and each z_j
are projected once, by row blocks of the GRU input and readout matrices,
not joined onto every word step. Decoding is one beam search over
any number of z rows (at inference, every sentence of a chunk of albums),
a beam per row, on plain arrays, since nothing differentiates it; its word
step runs the unfinished hypotheses of all beams as the rows of one GRU
step, and greedy decoding is that search at width 1.

The attention state persists across the n sentences of an album. A
batch's memory, and with it the alpha vector the attention GRU reads, has
L = 2*m_max+1 slots for its longest album of m_max photos; the GRU reads
the first L rows of its input matrix, which is sized for `alpha_len`
slots, so parameter shapes do not depend on album size and the rows past
L get no gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import BOS, EOS, PAD, ConfigError, check_number


@dataclass
class AttentionState:
    h_attn: T.NumArray     # (B, H_a)
    alpha_prev: T.NumArray  # (B, L) on the batch's slots, zero before the first sentence


@dataclass
class StoryHypothesis:
    sentences: list        # n token-id lists, each ending with EOS or at length cap
    word_logps: list       # matching per-token log-probs (floats)
    alphas: list           # n attention vectors over the album's 2m+1 slots
    flags: list            # scene boundary decisions for the album


def _attention_gru(params, slots: int) -> T.GruWeights:
    """The attention GRU's weights for alpha inputs over `slots` slots: the
    first `slots` rows of attn.gru.w_x as one pick node, whose backward
    leaves the other rows' gradient 0."""
    w = params.gru("attn.gru")
    return T.GruWeights(T.pick(w.w_x, slice(None, slots)), w.w_h, w.b)


def attend(memory, keys, valid_mask, state: AttentionState, params):
    """One attention step. Returns (z, alpha, new_state).

    memory: (B, L, D_v) rows = photos then scene slots then zero padding,
    per album, and keys its projection memory @ attn.score.w_mem, which
    the steps over one memory share; valid_mask (B, L) marks the photo rows
    and true scene rows. The state holds (B, H_a) and (B, L) rows, and L
    is at most `alpha_len`.
    """
    h_new = T.gru_cell(state.alpha_prev, state.h_attn,
                       _attention_gru(params, np.shape(valid_mask)[-1]))
    query = h_new @ params["attn.score.w_state"]
    act = T.tanh(keys + T.reshape(query, query.shape[:-1] + (1, -1)) + params["attn.score.b"])
    scores = act @ T.reshape(params["attn.score.w_out"], (-1, 1))   # (B, L, 1)
    alpha = T.masked_softmax(T.reshape(scores, scores.shape[:-1]), valid_mask)
    z = T.reshape(alpha, alpha.shape[:-1] + (1, -1)) @ memory
    return T.reshape(z, z.shape[:-2] + (-1,)), alpha, AttentionState(h_new, alpha)


def attend_scan(memory, valid_mask, state: AttentionState, n: int, params):
    """n `attend` steps on memory (B, L, D_v) from `state`, whose alpha_prev
    is a constant. The keys are projected once and the mask checked once,
    the alphas of the steps are one graph node with a hand-written backward
    through the steps, and Z is their weighted memory. Returns Z, one
    (n, B, D_v) node, and the (n, B, L) array of the alphas."""
    memory, h0 = T.wrap(memory), state.h_attn
    gru_w = _attention_gru(params, memory.shape[-2])
    w_state, b, w_out = (params[f"attn.score.{p}"] for p in ("w_state", "b", "w_out"))
    keys = memory @ params["attn.score.w_mem"]
    offset = T._mask_offset(valid_mask, keys.shape[:-1])
    wx, wh, ws, wo = (p.data for p in (gru_w.w_x, gru_w.w_h, w_state, w_out))
    hid = gru_w.hidden_size
    hs, alphas = np.empty((n + 1,) + h0.shape), np.empty((n + 1,) + offset.shape)
    hs[0], alphas[0] = h0.data, state.alpha_prev.data
    acts, caches = np.empty((n,) + keys.shape), []
    for t in range(n):   # `attend`'s arithmetic, to the bit
        caches.append(T._gru_step(alphas[t] @ wx + gru_w.b.data, hs[t], wh, hid,
                                  out=hs[t + 1])[1])
        np.tanh(keys.data + (hs[t + 1] @ ws)[:, None, :] + b.data, out=acts[t])
        T._softmax_offset(acts[t] @ wo, offset, out=alphas[t + 1])

    def bw(g):   # alpha_t reaches Z and, through the GRU input, step t+1
        d_scores, d_keys = np.empty_like(g), np.zeros_like(keys.data)
        d_query, d_gates = (np.empty((n, len(hs[0]), k)) for k in (ws.shape[1], 3 * hid))
        d_x, d_h = 0.0, np.zeros_like(hs[0])
        for t in range(n - 1, -1, -1):   # small temporaries: one step's (B, L, S)
            a, d_a = alphas[t + 1], g[t] + d_x
            d_scores[t] = a * (d_a - (d_a * a).sum(axis=-1, keepdims=True))
            d_pre = d_scores[t][..., None] * wo * (1.0 - acts[t] * acts[t])
            d_keys += d_pre
            d_query[t] = d_pre.sum(axis=-2)
            d_gates[t], d_h = T._gru_step_backward(d_query[t] @ ws.T + d_h, hs[t],
                                                   caches[t], wh, hid)
            d_x = d_gates[t] @ wx.T
        T._recurrent_grads(h0, gru_w.w_h, hs[:-1], np.stack([c[2] for c in caches]),
                           d_gates, d_h)
        for p, grad in ((keys, d_keys),
                        (gru_w.w_x, T._rows(alphas[:-1]).T @ T._rows(d_gates)),
                        (gru_w.b, T._rows(d_gates).sum(axis=0)),
                        (w_state, T._rows(hs[1:]).T @ T._rows(d_query)),
                        (b, T._rows(d_keys).sum(axis=0)),
                        (w_out, T._rows(acts).T @ d_scores.reshape(-1))):
            if p.requires_grad:
                T._acc(p, grad)

    A = T._make(alphas[1:], (keys, h0, gru_w.w_x, gru_w.w_h, gru_w.b, w_state, b, w_out),
                bw)
    Z = T.reshape(A, A.shape[:-1] + (1, -1)) @ memory
    return T.reshape(Z, Z.shape[:-2] + (-1,)), A.data


def _decoder_step(prev, H, Z, weights):
    """One word step for B rows on plain arrays: the GRU consumes [embedding
    of prev (B,) ; Z (B, D_v)] from states H (B, H), then the readout scores
    [h_new ; Z]. It equals the tests' one-hypothesis step to the bit, and
    `score_sentences`, which projects the table and Z apart, to rounding.
    `weights`: the table, GRU (w_x, w_h, b) and readout (w1, b1, w2, b2)
    arrays. Returns (h_new (B, H), log-probs (B, vocab))."""
    table, w_x, w_h, b, w1, b1, w2, b2 = weights
    h, _ = T._gru_step(np.concatenate([table[prev], Z], axis=-1) @ w_x + b, H, w_h,
                       len(w_h))
    hidden = np.tanh(np.concatenate([h, Z], axis=-1) @ w1 + b1)
    return h, T._log_softmax(hidden @ w2 + b2)


def score_sentences(Z, sentences, params):
    """Teacher-forced scores of B EOS-terminated sentences, sentence b given
    row b of Z (B, D_v), as one batch padded to the longest sentence; step
    t consumes the embedding of the previous token (BOS first) joined with
    Z. What does not change per word is projected once: the GRU input is
    pick(table W_x[:E], prev) + (Z W_x[E:] + b) and the readout's hidden
    layer tanh(H W1[:H] + (Z W1[H:] + b1)), Z's terms broadcast over the
    steps. Returns ((B,) total log-probs including EOS, (T_max, B, vocab)
    logits, (T_max, B) per-word log-probs, 0 past a sentence's end)."""
    Z, table = T.wrap(Z), params["dec.embed.table"]
    if len(Z.data) != len(sentences):
        raise T.DimensionError(f"Z has {len(Z.data)} rows for {len(sentences)} sentences")
    vocab_size, emb = table.shape
    lengths = np.array([len(s) for s in sentences])
    if lengths.min() < 1:
        raise ValueError("cannot score an empty sentence")
    ids = np.full((lengths.max(), len(sentences)), PAD)
    for b, sent in enumerate(sentences):
        ids[:len(sent), b] = sent
    bad = ids[(ids < 0) | (ids >= vocab_size)]
    if bad.size:
        raise ValueError(f"token id {bad[0]} outside vocabulary of {vocab_size}")
    prev = np.vstack([np.full((1, len(sentences)), BOS), ids[:-1]])
    valid = np.arange(len(ids))[:, None] < lengths
    targets = (ids[..., None] == np.arange(vocab_size)) & valid[..., None]

    gru_w, w1 = params.gru("dec.gru"), params["dec.out.w1"]
    hid = gru_w.hidden_size
    gx = (T.pick(table @ T.pick(gru_w.w_x, slice(None, emb)), prev)
          + (Z @ T.pick(gru_w.w_x, slice(emb, None)) + gru_w.b))
    H = T.gru_scan(gx, T.zeros((len(sentences), hid)), gru_w.w_h)
    hidden = T.tanh(H @ T.pick(w1, slice(None, hid))
                    + (Z @ T.pick(w1, slice(hid, None)) + params["dec.out.b1"]))
    logits = hidden @ params["dec.out.w2"] + params["dec.out.b2"]
    word_logps = T.arr_sum(T.log_softmax(logits) * targets, axis=2)
    return T.arr_sum(word_logps, axis=0), logits, word_logps


def sentence_log_prob(z, sentence_ids, params):
    """Teacher-forced score of one EOS-terminated sentence given z, (D_v,)
    or a batch of one (1, D_v): a one-row `score_sentences`. Returns (total
    log-prob node, per-step logits, per-word log-prob nodes); the total
    includes the EOS term."""
    total, logits, word_logps = score_sentences(T.reshape(z, (1, -1)), [sentence_ids],
                                                params)
    logits, word_logps = T.arr_sum(logits, axis=1), T.arr_sum(word_logps, axis=1)
    steps = range(len(sentence_ids))
    return (T.pick(total, 0), [T.pick(logits, t) for t in steps],
            [T.pick(word_logps, t) for t in steps])


def decode_width(mode, beam_width) -> int:
    """The search width of decode `mode`: 1 for "greedy", which ignores
    `beam_width`, and `beam_width` for "beam". Raises a ConfigError for
    any other mode or a width that is not an integer >= 1."""
    if mode not in ("greedy", "beam"):
        raise ConfigError(f"unknown decode mode '{mode}'")
    if mode == "greedy":
        return 1
    check_number("beam width", beam_width)
    if beam_width < 1:
        raise ConfigError("beam width must be >= 1")
    return beam_width


def _search(Z, params, max_words: int, width: int):
    """Beam search by total log-prob until EOS or max_words+1 tokens, one
    beam per row of Z (R, D_v), on plain arrays. Each step runs the
    unfinished hypotheses of every beam as the rows of one `_decoder_step`,
    so finished ones drop out of the batch; each beam ranks the top `width`
    tokens of its rows, with its finished hypotheses, by (total log-prob,
    ids): ties go to lower token ids, and width 1 is greedy. Returns each
    row's best hypothesis as (ids, per-word logps)."""
    weights = tuple(params[name].data for name in (
        "dec.embed.table", "dec.gru.w_x", "dec.gru.w_h", "dec.gru.b",
        "dec.out.w1", "dec.out.b1", "dec.out.w2", "dec.out.b2"))
    H = np.zeros((len(Z), len(weights[2])))
    # per row: hypotheses (total log-prob, [BOS] + ids, per-word logps, row of H, finished)
    beams = [[(0.0, [BOS], [], r, False)] for r in range(len(Z))]
    z_rows, Z_live = list(range(len(Z))), Z
    for _ in range(max_words + 1):
        live = [(r, b) for r, beam in enumerate(beams) for b in beam if not b[4]]
        if not live:
            break
        # the live rows' states and z rows, gathered only when they moved
        parents, rows = [b[3] for _, b in live], [r for r, _ in live]
        if parents != list(range(len(H))):
            H = H.take(parents, axis=0)
        if rows != z_rows:
            z_rows, Z_live = rows, Z.take(rows, axis=0)
        H, log_p = _decoder_step(np.array([b[1][-1] for _, b in live]), H, Z_live,
                                 weights)
        top = (-log_p).argsort(axis=-1, kind="stable")[:, :width]
        # candidates rank as (-total, parent ids, token), token -1 for a finished
        # hypothesis, and only the kept ones are built. No parent's ids are a
        # prefix of another's (live ones share one length and hold no EOS, and
        # finished ones end at their only EOS), so this orders as (-total,
        # ids + [token]) does, and the first three entries never tie.
        ranked = [[(-b[0], b[1], -1, b) for b in beam if b[4]] for beam in beams]
        for i, ((r, (total, ids, logps, _, _)), lp, toks) in enumerate(
                zip(live, log_p.tolist(), top.tolist())):
            ranked[r] += [(-(total + lp[t]), ids, t, (logps, lp[t], i)) for t in toks]
        beams = [[b if t < 0 else (-neg, ids + [t], b[0] + [b[1]], b[2], t == EOS)
                  for neg, ids, t, b in sorted(cands)[:width]] for cands in ranked]
    return [(beam[0][1][1:], beam[0][2]) for beam in beams]


def decode_sentence_greedy(z, params, max_words: int):
    """Argmax decoding of one z, (D_v,) or (1, D_v), a one-row search at
    width 1: (ids, per-word logps)."""
    return _search(T.reshape(z, (1, -1)).data, params, max_words, 1)[0]


def decode_sentence_beam(z, params, max_words: int, width: int):
    """Beam search of one z, (D_v,) or (1, D_v), at the given width, a
    one-row search: (ids, per-word logps)."""
    return _search(T.reshape(z, (1, -1)).data, params, max_words,
                   decode_width("beam", width))[0]
