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
one padded batch through one GRU scan and one target log-prob node; the
embedding table and each z_j are projected once, by row blocks of the GRU
input and readout matrices, not joined onto every word step. Decoding is
one search over any number of z rows (at inference, every sentence of a
chunk of albums) on plain arrays, since nothing differentiates it. It
projects the table and Z once per search, as teacher forcing does, so its
word step takes teacher forcing's arithmetic, and each step runs only the
unfinished rows. The word step adds Z's projection into its gather of the
table's and runs the readout in place on its own products, so it writes
nothing it is handed. Greedy decoding reads the step's logits: each live
row's first maximum, ties to the lower id, and its exp sum; finished rows
leave the step, and nothing is sorted. Beam search keeps a beam per row
and runs the unfinished hypotheses of all beams as the rows of one GRU
step; only each row's top `width` log-probs become Python floats. At
width 1 its ranking loop, greedy's reference in tests, gives greedy's ids
but where unequal logits round to one log-prob: greedy takes the larger.

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
        T._recurrent_grads(gru_w.w_h, hs[:-1], np.stack([c[2] for c in caches]), d_gates)
        for p, grad in ((keys, d_keys), (h0, d_h),
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


def _word_logits(prev, H, ZX, ZR, weights):
    """One word step for B rows on plain arrays, in `score_sentences`'
    form: the GRU input is TX[prev (B,)] + ZX (B, 3H) and the readout's
    hidden layer tanh(h_new W1[:H] + ZR (B, M)), where TX = table W_x[:E],
    ZX = Z W_x[E:] + b and ZR = Z W1[H:] + b1 are projected once per search.
    `weights`: the TX, GRU w_h and readout (W1[:H], w2, b2) arrays. ZX is
    added into the gathered rows of TX and the readout runs in place on its
    products, so nothing it is handed is written. Returns (h_new (B, H)
    from states H (B, H), logits (B, vocab))."""
    tx, w_h, w1, w2, b2 = weights
    gx = tx.take(prev, axis=0)   # a gathered copy, whatever prev's shape
    gx += ZX
    h, _ = T._gru_step(gx, H, w_h, len(w_h))
    hidden = h @ w1
    hidden += ZR
    np.tanh(hidden, out=hidden)
    logits = hidden @ w2
    logits += b2
    return h, logits


def _decoder_step(prev, H, ZX, ZR, weights):
    """`_word_logits` and their log-softmax (B, vocab). A lone row's log-probs
    equal teacher forcing's to the bit; a wider step runs the products at
    another row count, which may move them by an ulp."""
    h, logits = _word_logits(prev, H, ZX, ZR, weights)
    return h, T._log_softmax(logits)


def score_sentences(Z, sentences, params):
    """Teacher-forced scores of B EOS-terminated sentences, sentence b given
    row b of Z (B, D_v), as one batch padded to the longest sentence; step
    t consumes the embedding of the previous token (BOS first) joined with
    Z. What does not change per word is projected once: the GRU input is
    pick(table W_x[:E], prev) + (Z W_x[E:] + b) and the readout's hidden
    layer tanh(H W1[:H] + (Z W1[H:] + b1)), Z's terms broadcast over the
    steps. The per-word log-probs are one `T.target_log_probs` node, each
    word's log-softmax at its id, with no (T_max, B, vocab) target mask.
    An empty sentence fails `tensor.step_lengths`. Returns ((B,) total
    log-probs including EOS, (T_max, B, vocab) logits, (T_max, B) per-word
    log-probs, 0 past a sentence's end)."""
    Z, table = T.wrap(Z), params["dec.embed.table"]
    if len(Z.data) != len(sentences):
        raise T.DimensionError(f"Z has {len(Z.data)} rows for {len(sentences)} sentences")
    vocab_size, emb = table.shape
    lengths = [len(s) for s in sentences]
    lengths = T.step_lengths(lengths, max(lengths, default=0), len(lengths))
    ids = np.full((lengths.max(), len(sentences)), PAD)
    for b, sent in enumerate(sentences):
        ids[:len(sent), b] = sent
    bad = ids[(ids < 0) | (ids >= vocab_size)]
    if bad.size:
        raise ValueError(f"token id {bad[0]} outside vocabulary of {vocab_size}")
    prev = np.vstack([np.full((1, len(sentences)), BOS), ids[:-1]])
    valid = np.arange(len(ids))[:, None] < lengths

    gru_w, w1 = params.gru("dec.gru"), params["dec.out.w1"]
    hid = gru_w.hidden_size
    gx = (T.pick(table @ T.pick(gru_w.w_x, slice(None, emb)), prev)
          + (Z @ T.pick(gru_w.w_x, slice(emb, None)) + gru_w.b))
    H = T.gru_scan(gx, gru_w.w_h)
    hidden = T.tanh(H @ T.pick(w1, slice(None, hid))
                    + (Z @ T.pick(w1, slice(hid, None)) + params["dec.out.b1"]))
    logits = hidden @ params["dec.out.w2"] + params["dec.out.b2"]
    word_logps = T.target_log_probs(logits, ids, valid)
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
    check_number("beam width", beam_width, "Size")
    return beam_width


def _search(Z, params, max_words: int, width: int):
    """Decode each row of Z (R, D_v) on plain arrays until EOS or
    max_words+1 tokens (max_words an integer >= 1, else a ConfigError), on
    `_project`'s once-per-search projections, as `score_sentences`
    projects. Width 1 is `_argmax_loop`, an argmax of each live row's
    logits; a wider search is `_ranking_loop`'s beam search. Returns each
    row's best hypothesis as (ids, per-word logps)."""
    check_number("max_words", max_words, "Size")
    proj = _project(Z, params)
    if width == 1:
        return _argmax_loop(proj, max_words)
    return _ranking_loop(proj, max_words, width)


def _project(Z, params):
    """What a search projects once: `_word_logits`' weights (TX = table
    W_x[:E] first) and Z's terms ZX = Z W_x[E:] + b and ZR = Z W1[H:] + b1."""
    table, w_x, w_h, b_x, w1, b1, w2, b2 = (params[name].data for name in (
        "dec.embed.table", "dec.gru.w_x", "dec.gru.w_h", "dec.gru.b",
        "dec.out.w1", "dec.out.b1", "dec.out.w2", "dec.out.b2"))
    emb, hid = table.shape[1], len(w_h)
    weights = (table @ w_x[:emb], w_h, w1[:hid], w2, b2)
    return weights, Z @ w_x[emb:] + b_x, Z @ w1[hid:] + b1


def _argmax_loop(proj, max_words: int):
    """Greedy decoding of `_project`'s rows on the word step's logits: each
    step takes every live row's first maximum (exact ties to the lower id)
    and sum of exp(logits - max); rows that emit EOS leave the step. At the
    end the (steps, rows) tables of ids and sums give each word's log-prob,
    0.0 - log(sum): the log-softmax at the argmax, to the bit. The ids are
    the width-1 ranking's but at one edge: where two unequal logits round
    to one log-prob, it takes the lower id, this loop the larger logit."""
    weights, ZX, ZR = proj
    n = len(ZX)
    rows, prev, H = np.arange(n), np.full(n, BOS), np.zeros((n, len(weights[1])))
    emitted = []   # per step: the live rows, their ids and their exp sums
    for _ in range(max_words + 1):
        if not len(rows):
            break
        H, logits = _word_logits(prev, H, ZX, ZR, weights)
        prev = logits.argmax(axis=-1)
        emitted.append((rows, prev, T._exp_sums(logits)[1]))
        if EOS in prev:
            going = prev != EOS
            rows, prev, H, ZX, ZR = (a[going] for a in (rows, prev, H, ZX, ZR))
    if not emitted:
        return []
    live, chosen, exp_sums = zip(*emitted)
    at = np.repeat(np.arange(len(live)), [len(r) for r in live]), np.concatenate(live)
    ids, sums = np.full((len(live), n), -1), np.ones((len(live), n))
    ids[at], sums[at] = np.concatenate(chosen), np.concatenate(exp_sums)[:, 0]
    logps = 0.0 - np.log(sums)
    lengths = (ids >= 0).sum(axis=0).tolist()
    return [(i[:k], lp[:k]) for i, lp, k in zip(ids.T.tolist(), logps.T.tolist(), lengths)]


def _ranking_loop(proj, max_words: int, width: int):
    """Beam search of `_project`'s rows by total log-prob, a beam per row.
    Each step runs the unfinished hypotheses of every beam as the rows of
    one `_decoder_step`; each beam ranks the top `width` tokens of its
    rows, with its finished hypotheses, by (total log-prob, ids): ties go
    to lower token ids. Only those tokens' log-probs, `width` per row,
    become Python floats. At width 1 it is `_argmax_loop`'s reference."""
    weights, ZX, ZR = proj
    H = np.zeros((len(ZX), len(weights[1])))
    # per row: hypotheses (total log-prob, [BOS] + ids, per-word logps, row of H, finished)
    beams = [[(0.0, [BOS], [], r, False)] for r in range(len(ZX))]
    z_rows, ZX_live, ZR_live = list(range(len(ZX))), ZX, ZR
    for _ in range(max_words + 1):
        live = [(r, b) for r, beam in enumerate(beams) for b in beam if not b[4]]
        if not live:
            break
        # the live rows' states and z projections, gathered only when they moved
        parents, rows = [b[3] for _, b in live], [r for r, _ in live]
        if parents != list(range(len(H))):
            H = H.take(parents, axis=0)
        if rows != z_rows:
            z_rows, ZX_live, ZR_live = rows, ZX.take(rows, axis=0), ZR.take(rows, axis=0)
        H, log_p = _decoder_step(np.array([b[1][-1] for _, b in live]), H, ZX_live,
                                 ZR_live, weights)
        top = (-log_p).argsort(axis=-1, kind="stable")[:, :width]
        kept = log_p[np.arange(len(top))[:, None], top]   # only these become floats
        # candidates rank as (-total, parent ids, token), token -1 for a finished
        # hypothesis, and only the kept ones are built. No parent's ids are a
        # prefix of another's (live ones share one length and hold no EOS, and
        # finished ones end at their only EOS), so this orders as (-total,
        # ids + [token]) does, and the first three entries never tie.
        ranked = [[(-b[0], b[1], -1, b) for b in beam if b[4]] for beam in beams]
        for i, ((r, (total, ids, logps, _, _)), lps, toks) in enumerate(
                zip(live, kept.tolist(), top.tolist())):
            ranked[r] += [(-(total + lp), ids, t, (logps, lp, i)) for lp, t in zip(lps, toks)]
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
