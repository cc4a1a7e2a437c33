"""Model configuration, parameter registry, and the full album pipeline.

The pipeline runs on B albums padded into one batch, and a lone album is
a batch of one: the encoders and attention keep one (step, album, ...)
shape, and the training objective scores a batch's true and deranged
sentences as the rows of one padded batch, so a batch is one graph.
Inference runs the training step's `batch_z` on each of `chunks`, and
all of a chunk's sentences are decoded as the rows of one search. The
scene views encode the same chunks without attention, an album's view
being its column of the chunk's batch.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .data import AlbumExample, ConfigError, check_field_types
from .decoder import (AttentionState, StoryHypothesis, _search, attend, attend_scan,
                      decode_width, score_sentences)
from .losses import LossReport, nll_loss, rank_loss, recon_loss, total_loss
from .photo_encoder import encode_photos
from .reconstructor import reconstruct
from .scene_encoder import encode_scenes, scene_indices


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
    max_words: int = 25
    sentences: int = 5
    max_photos: int = 40

    def __post_init__(self):
        check_field_types(self)
        if self.vocab_size < 4:
            raise ConfigError("vocab_size must cover the special tokens")
        for f in fields(self)[1:]:
            if getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be >= 1")

    @property
    def alpha_len(self):
        """Attention slots: m photo slots + (m+1) scene slots at m = max_photos."""
        return 2 * self.max_photos + 1

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
    memory: T.NumArray       # (B, L, D_v): photo rows, scene slots, padding, L = 2*m_max+1
    valid_mask: np.ndarray   # (B, L) floats, 1 on photos and true scenes
    init_state: AttentionState

    @property
    def used_slots(self):
        return 2 * self.photos.lengths + 1


def pad_steps(sequences):
    """B sequences of equal-shape rows (an album's photo features, or its
    boundary flags) padded time-major with zeros: ((T_max, B, *row) array,
    (B,) lengths)."""
    lengths = np.array([len(seq) for seq in sequences])
    if lengths.size == 0 or lengths.min() < 1:
        raise ValueError("album has no photos")
    padded = np.zeros((lengths.max(), len(sequences)) + np.shape(sequences[0][0]))
    for b, seq in enumerate(sequences):
        padded[:len(seq), b] = seq
    return padded, lengths


def encode_album(features, params, cfg: ModelConfig, force_flags=None, relax=False,
                 lengths=None) -> AlbumEncoding:
    """Photo pass, scene segmentation, and the attention memory of B albums
    padded by `pad_steps` with their photo counts in `lengths`, over the
    batch's own 2*m_max+1 slots for its longest album of m_max photos.
    Without `lengths`, `features` is one album's (m, F) rows, encoded as a
    batch of one."""
    if lengths is None:
        features, lengths = pad_steps([features])
    enc = encode_photos(features, params, lengths)
    m, n = len(enc.V.data), enc.lengths
    slots = 2 * n.max() + 1
    if slots > cfg.alpha_len:
        raise T.DimensionError(f"{n.max()} photos need {slots} attention "
                               f"slots, config allows {cfg.alpha_len}")
    seg = encode_scenes(enc.V, params, force_flags=force_flags, relax=relax,
                        lengths=n)

    # slot s of an album of n photos: photo s below n, scene slot s - n up
    # to 2n, then padding; photos, scene slots and a zero row form one source
    s = np.arange(slots)
    n_col = n[:, None]
    index = (np.where(s < n_col, s, np.where(s <= 2 * n_col, m + s - n_col, 2 * m + 1)),
             np.arange(len(n))[:, None])
    zero = np.zeros((1,) + enc.V.shape[1:])
    memory = T.pick(T.concat([enc.V, seg.X, zero]), index)
    valid = np.concatenate([np.ones((m, len(n))), seg.scene_mask, zero[..., 0]])[index]

    h0 = enc.final @ params["attn.init.w"] + params["attn.init.b"]
    state = AttentionState(h0, T.zeros(valid.shape))
    return AlbumEncoding(enc, seg, memory, valid, state)


def summarize_album(encoding: AlbumEncoding, n: int, params):
    """The per-step reference of `attend_scan`: n `attend` steps over one
    projection of the memory's keys; returns (z list, alpha list), (B, D_v)
    and (B, L) each over the memory's L slots."""
    state = encoding.init_state
    keys = encoding.memory @ params["attn.score.w_mem"]
    zs, alphas = [], []
    for _ in range(n):
        z, alpha, state = attend(encoding.memory, keys, encoding.valid_mask, state, params)
        zs.append(z)
        alphas.append(alpha)
    return zs, alphas


def batch_z(albums, n: int, params, cfg: ModelConfig, force_flags=None, relax=False):
    """B albums padded into one batch, encoded and summarized in n attention
    steps; `force_flags` is an (m_max, B) 0/1 array of boundary decisions.
    Returns Z, one (n*B, D_v) node whose row j*B + b is step j of album b,
    the batch's AlbumEncoding and the (n, B, L) alphas over its L slots."""
    feats, lengths = pad_steps([album.features for album in albums])
    enc = encode_album(feats, params, cfg, force_flags=force_flags, relax=relax,
                       lengths=lengths)
    Z, alphas = attend_scan(enc.memory, enc.valid_mask, enc.init_state, n, params)
    return T.reshape(Z, (-1, cfg.d_v)), enc, alphas


def stories_objective(Z, stories, params, deranges=None, lam: float = 0.2,
                      mu: float = 0.8):
    """Composite loss summed over B stories of n sentences each, as one
    graph: the true and the deranged sentences are scored against Z, whose
    row j*B + b goes with sentence j of story b, as the rows of one batch.

    deranges: one permutation of range(n) without fixed points per story,
    used to score each true sentence against the sentence landing at its
    position after the shuffle. None skips the order term (also skipped
    when n < 2). Reconstruction is evaluated only when mu > 0.
    Returns (loss node, LossReport of the sums over the batch).
    """
    n = len(stories[0])
    if any(len(story) != n for story in stories):
        raise ValueError("every story in a batch needs the same sentence count")
    sentences = [story[j] for j in range(n) for story in stories]
    true = slice(0, len(sentences))
    order = deranges is not None and n >= 2
    if order:   # the deranged rows follow the true ones, against Z again
        sentences += [story[int(der[j])] for j in range(n)
                      for story, der in zip(stories, deranges)]
    logps, logits, _ = score_sentences(T.concat([Z, Z] if order else [Z]), sentences,
                                       params)
    pos_logps = T.pick(logps, true)
    nll = nll_loss(pos_logps)

    rank = recon = T.wrap(0.0)
    if order:
        rank = rank_loss(pos_logps, T.pick(logps, slice(true.stop, None)))
    if mu > 0:
        recon = recon_loss(Z, reconstruct(T.pick(logits, (slice(None), true)),
                                          [len(s) for s in sentences[true]], params))

    loss = total_loss(nll, rank, recon, lam=lam, mu=mu)
    report = LossReport(nll=float(nll.data), rank=float(rank.data),
                        recon=float(recon.data), total=float(loss.data),
                        word_count=sum(len(sent) for sent in sentences[true]))
    return loss, report


def story_objective(album, story_idx, params, cfg: ModelConfig,
                    derange=None, lam: float = 0.2, mu: float = 0.8,
                    force_flags=None, relax=False):
    """Composite loss for one album/story pair: `stories_objective` of
    `batch_z` at B=1, with the album's m 0/1 `force_flags`.
    Returns (loss node, LossReport)."""
    story = album.stories[story_idx]
    flags = None if force_flags is None else np.reshape(force_flags, (-1, 1))
    Z, _, _ = batch_z([album], len(story), params, cfg, force_flags=flags, relax=relax)
    return stories_objective(Z, [story], params,
                             deranges=None if derange is None else [derange],
                             lam=lam, mu=mu)


DECODE_CHUNK = 32   # albums padded, encoded and searched together at inference


def chunks(albums) -> list:
    """The albums in runs of DECODE_CHUNK, each one batch at inference."""
    return [albums[lo:lo + DECODE_CHUNK] for lo in range(0, len(albums), DECODE_CHUNK)]


def generate_stories(albums, params, cfg: ModelConfig, mode: str = "greedy",
                     beam_width: int = 3) -> list:
    """Decode n sentences for each album with the live boundary detector:
    each of `chunks` is one `batch_z` under no_grad, and every (album,
    sentence, hypothesis) is a row of one search. Greedy ignores
    `beam_width`. Returns one StoryHypothesis per album."""
    width = decode_width(mode, beam_width)
    stories = []
    for chunk in chunks(albums):
        with T.no_grad():
            Z, encoding, alphas = batch_z(chunk, cfg.sentences, params, cfg)
        # row j*B + b holds sentence j of album b
        decoded = _search(Z.data, params, cfg.max_words, width)
        for b, (m, used) in enumerate(zip(encoding.photos.lengths, encoding.used_slots)):
            rows = decoded[b::len(chunk)]
            stories.append(StoryHypothesis([ids for ids, _ in rows],
                                           [lps for _, lps in rows],
                                           [a[b, :used].copy() for a in alphas],
                                           encoding.scenes.flags[:m, b].tolist()))
    return stories


def generate_story(album, params, cfg: ModelConfig, mode: str = "greedy",
                   beam_width: int = 3) -> StoryHypothesis:
    """One album's `generate_stories`."""
    return generate_stories([album], params, cfg, mode, beam_width)[0]


def scene_views(albums, params, cfg: ModelConfig) -> list:
    """Each album's scenes, encoded a chunk of `chunks` at a time: boundary
    flags, soft scores, the scene of each photo and the number of scenes."""
    views = []
    for chunk in chunks(albums):
        feats, lengths = pad_steps([a.features for a in chunk])
        with T.no_grad():
            seg = encode_album(feats, params, cfg, lengths=lengths).scenes
        for b, (m, u) in enumerate(zip(lengths, seg.u)):
            flags = seg.flags[:m, b].tolist()
            views.append({"flags": flags, "softs": seg.softs[:m, b].tolist(),
                          "scene_of_photo": scene_indices(flags), "num_scenes": int(u)})
    return views


def full_pipeline_grad_check(seed: int, lam: float = 0.2, mu: float = 0.8) -> float:
    """End-to-end analytic-vs-numeric gradient comparison on a random album.

    Scene flags are frozen to the detector's own decisions so the loss is an
    ordinary differentiable function of every parameter (the hard threshold
    intentionally breaks the finite-difference equivalence otherwise).
    """
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(vocab_size=20, feature_dim=8, photo_hidden=6, attn_hidden=8,
                      attn_score_dim=8, dec_hidden=8, emb_dim=8, mlp_hidden=8,
                      sentences=3, max_photos=6)
    params = build_parameters(cfg, rng)
    m = int(rng.integers(3, 7))
    features = [rng.standard_normal(cfg.feature_dim) for _ in range(m)]
    story = [[int(t) for t in rng.integers(4, cfg.vocab_size, size=rng.integers(2, 5))]
             + [2] for _ in range(cfg.sentences)]
    album = AlbumExample("grad-check", features, [story], [])
    flags = [int(b) for b in rng.integers(0, 2, size=m)]
    derange = np.array([1, 2, 0])

    def fn(ps):
        loss, _ = story_objective(album, 0, ps, cfg, derange=derange,
                                  lam=lam, mu=mu, force_flags=flags)
        return loss

    return T.grad_check(fn, params, max_coords_per_param=4,
                        rng=np.random.default_rng(seed + 1))
