"""Model configuration, parameter registry, and the full album pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import AlbumExample
from .decoder import (AttentionState, StoryHypothesis, attend,
                      decode_sentence_beam, decode_sentence_greedy,
                      sentence_log_prob)
from .losses import LossReport, nll_loss, rank_loss, recon_loss, total_loss
from .photo_encoder import encode_photos
from .reconstructor import reconstruct
from .scene_encoder import encode_scenes


@dataclass
class ModelConfig:
    vocab_size: int
    feature_dim: int = 8
    photo_hidden: int = 16   # per direction; photo vectors get twice this
    attn_hidden: int = 32
    attn_score_dim: int = 32
    dec_hidden: int = 32
    emb_dim: int = 32
    mlp_hidden: int = 32
    alpha_len: int = 0       # 0: derive from max_photos
    max_words: int = 25
    sentences: int = 5
    max_photos: int = 40

    def __post_init__(self):
        if self.alpha_len == 0:
            # m photo slots + (m+1) scene slots at the maximum album size
            self.alpha_len = 2 * self.max_photos + 1
        if self.vocab_size < 4:
            raise ValueError("vocab_size must cover the special tokens")

    @property
    def d_v(self):
        return 2 * self.photo_hidden


def _add_gru(ps, rng, prefix, in_dim, hid, group):
    ps.add(f"{prefix}.w_x", T.init_matrix(rng, (in_dim, 3 * hid)), group)
    ps.add(f"{prefix}.w_h", T.init_matrix(rng, (hid, 3 * hid)), group)
    ps.add(f"{prefix}.b", np.zeros(3 * hid), group)


def build_parameters(cfg: ModelConfig, rng) -> T.ParamStore:
    """All weights, grouped for the stagewise freeze schedule."""
    ps = T.ParamStore()
    f, dv, ha = cfg.feature_dim, cfg.d_v, cfg.attn_hidden

    _add_gru(ps, rng, "photo.fwd", f, cfg.photo_hidden, "photo_encoder")
    _add_gru(ps, rng, "photo.bwd", f, cfg.photo_hidden, "photo_encoder")
    ps.add("photo.skip.w", T.init_matrix(rng, (f, dv)), "photo_encoder")

    _add_gru(ps, rng, "scene.gru", dv, dv, "scene_encoder")
    ps.add("scene.detect.w_v", T.init_matrix(rng, (dv,)), "scene_encoder")
    ps.add("scene.detect.w_h", T.init_matrix(rng, (dv,)), "scene_encoder")
    ps.add("scene.detect.b", np.zeros(()), "scene_encoder")

    ps.add("attn.init.w", T.init_matrix(rng, (dv, ha)), "attention")
    ps.add("attn.init.b", np.zeros(ha), "attention")
    _add_gru(ps, rng, "attn.gru", cfg.alpha_len, ha, "attention")
    ps.add("attn.score.w_mem", T.init_matrix(rng, (dv, cfg.attn_score_dim)), "attention")
    ps.add("attn.score.w_state", T.init_matrix(rng, (ha, cfg.attn_score_dim)), "attention")
    ps.add("attn.score.b", np.zeros(cfg.attn_score_dim), "attention")
    ps.add("attn.score.w_out", T.init_matrix(rng, (cfg.attn_score_dim,)), "attention")

    ps.add("dec.embed.table", T.init_matrix(rng, (cfg.vocab_size, cfg.emb_dim)),
           "sentence_decoder")
    _add_gru(ps, rng, "dec.gru", cfg.emb_dim + dv, cfg.dec_hidden, "sentence_decoder")
    ps.add("dec.out.w1", T.init_matrix(rng, (cfg.dec_hidden + dv, cfg.mlp_hidden)),
           "sentence_decoder")
    ps.add("dec.out.b1", np.zeros(cfg.mlp_hidden), "sentence_decoder")
    ps.add("dec.out.w2", T.init_matrix(rng, (cfg.mlp_hidden, cfg.vocab_size)),
           "sentence_decoder")
    ps.add("dec.out.b2", np.zeros(cfg.vocab_size), "sentence_decoder")

    _add_gru(ps, rng, "recon.gru", 2 * cfg.vocab_size, dv, "reconstructor")
    return ps


@dataclass
class AlbumEncoding:
    photos: object           # PhotoEncoding
    scenes: object           # SceneSegmentation
    memory: T.NumArray       # (alpha_len, D_v): photo rows, scene slots, padding
    valid_mask: np.ndarray   # (alpha_len,) floats, 1 on photos and true scenes
    init_state: AttentionState

    @property
    def used_slots(self):
        return 2 * self.photos.num_photos + 1


def encode_album(features, params, cfg: ModelConfig,
                 force_flags=None, relax=False) -> AlbumEncoding:
    """Photo pass, scene segmentation, and the padded attention memory."""
    enc = encode_photos(features, params)
    m = enc.num_photos
    used = 2 * m + 1
    if used > cfg.alpha_len:
        raise T.DimensionError(
            f"{m} photos need {used} attention slots, config allows {cfg.alpha_len}")
    seg = encode_scenes(enc, params, force_flags=force_flags, relax=relax)

    pad = np.zeros((cfg.alpha_len - used, cfg.d_v))
    memory = T.concat([enc.V, seg.X, pad])
    valid = np.zeros(cfg.alpha_len)
    valid[:m] = 1.0
    valid[m:used] = seg.scene_mask.astype(float)

    h0 = T.concat([enc.fwd_final, enc.bwd_final]) @ params["attn.init.w"] \
        + params["attn.init.b"]
    state = AttentionState(h0, T.zeros(cfg.alpha_len))
    return AlbumEncoding(enc, seg, memory, valid, state)


def summarize_album(encoding: AlbumEncoding, n: int, params):
    """Run n attention steps; returns (z list, alpha list)."""
    state = encoding.init_state
    zs, alphas = [], []
    for _ in range(n):
        z, alpha, state = attend(encoding.memory, encoding.valid_mask, state, params)
        zs.append(z)
        alphas.append(alpha)
    return zs, alphas


def story_objective(album, story_idx, params, cfg: ModelConfig,
                    derange=None, lam: float = 0.2, mu: float = 0.8,
                    force_flags=None, relax=False):
    """Composite loss for one album/story pair.

    derange: permutation of range(n) without fixed points, used to score
    each true sentence against the sentence landing at its position after
    the shuffle. None skips the order term (also skipped when n < 2).
    Reconstruction is evaluated only when mu > 0.
    Returns (loss node, LossReport).
    """
    encoding = encode_album(album.features, params, cfg,
                            force_flags=force_flags, relax=relax)
    story = album.stories[story_idx]
    zs, _ = summarize_album(encoding, len(story), params)

    pos_logps, all_word_logps, logits_per_sentence = [], [], []
    word_count = 0
    for z, sent in zip(zs, story):
        logp, logits_seq, word_logps = sentence_log_prob(z, sent, params)
        pos_logps.append(logp)
        all_word_logps.extend(word_logps)
        logits_per_sentence.append(logits_seq)
        word_count += len(sent)
    nll = nll_loss(all_word_logps)

    if derange is not None and len(story) >= 2:
        neg_logps = [sentence_log_prob(z, story[int(derange[j])], params)[0]
                     for j, z in enumerate(zs)]
        rank = rank_loss(pos_logps, neg_logps)
    else:
        rank = T.wrap(0.0)

    if mu > 0:
        z_tilde = [reconstruct(seq, params) for seq in logits_per_sentence]
        recon = recon_loss(zs, z_tilde)
    else:
        recon = T.wrap(0.0)

    loss = total_loss(nll, rank, recon, lam=lam, mu=mu)
    report = LossReport(nll=float(nll.data), rank=float(rank.data),
                        recon=float(recon.data), total=float(loss.data),
                        word_count=word_count)
    return loss, report


def generate_story(album, params, cfg: ModelConfig, mode: str = "greedy",
                   beam_width: int = 3) -> StoryHypothesis:
    """Decode n sentences for an album with the live boundary detector."""
    if mode not in ("greedy", "beam"):
        raise ValueError(f"unknown decode mode '{mode}'")
    with T.no_grad():
        encoding = encode_album(album.features, params, cfg)
        zs, alphas = summarize_album(encoding, cfg.sentences, params)
        sentences, word_logps, logits = [], [], []
        for z in zs:
            if mode == "greedy":
                ids, lps, rows = decode_sentence_greedy(z, params, cfg.max_words)
            else:
                ids, lps, rows = decode_sentence_beam(z, params, cfg.max_words,
                                                      beam_width)
            sentences.append(ids)
            word_logps.append(lps)
            logits.append(rows)
    used = encoding.used_slots
    return StoryHypothesis(sentences, word_logps,
                           [a.data[:used].copy() for a in alphas],
                           logits, list(encoding.scenes.flags))


def full_pipeline_grad_check(seed: int, lam: float = 0.2, mu: float = 0.8,
                             delta: float = 1e-5, coords_per_param: int = 4,
                             feature_dim: int = 8, photo_hidden: int = 6,
                             vocab_size: int = 20) -> float:
    """End-to-end analytic-vs-numeric gradient comparison on a random album.

    Scene flags are frozen to the detector's own decisions so the loss is an
    ordinary differentiable function of every parameter (the hard threshold
    intentionally breaks the finite-difference equivalence otherwise).
    """
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(vocab_size=vocab_size, feature_dim=feature_dim,
                      photo_hidden=photo_hidden, attn_hidden=8,
                      attn_score_dim=8, dec_hidden=8, emb_dim=8, mlp_hidden=8,
                      sentences=3, max_photos=6)
    params = build_parameters(cfg, rng)
    m = int(rng.integers(3, 7))
    features = [rng.standard_normal(cfg.feature_dim) for _ in range(m)]
    story = [[int(t) for t in rng.integers(4, vocab_size, size=rng.integers(2, 5))] + [2]
             for _ in range(cfg.sentences)]
    album = AlbumExample("grad-check", features, [story], [])
    flags = [int(b) for b in rng.integers(0, 2, size=m)]
    derange = np.array([1, 2, 0])

    def fn(ps):
        loss, _ = story_objective(album, 0, ps, cfg, derange=derange,
                                  lam=lam, mu=mu, force_flags=flags)
        return loss

    return T.grad_check(fn, params, delta=delta,
                        max_coords_per_param=coords_per_param,
                        rng=np.random.default_rng(seed + 1))
