import dataclasses
import math
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storyforge import model
from storyforge import tensor as T
from storyforge.data import EOS, SynthSpec, synth_dataset, synth_vocab
from storyforge.decoder import (AttentionState, attend, attend_scan, decode_sentence_beam,
                                decode_sentence_greedy, score_sentences, sentence_log_prob)
from storyforge.losses import derangement, nll_loss, rank_loss, recon_loss, total_loss
from storyforge.model import (DECODE_CHUNK, ConfigError, ModelConfig, batch_z,
                              build_parameters, chunks, encode_album,
                              full_pipeline_grad_check, generate_stories,
                              generate_story, pad_steps, scene_views,
                              stories_objective, story_objective, summarize_album)
from storyforge.photo_encoder import encode_photos
from storyforge.reconstructor import reconstruct
from storyforge.scene_encoder import encode_scenes, scene_indices
from storyforge.trainer import STAGE1_FROZEN, STAGE2_FROZEN

from helpers import grads_both_ways, scale_gru_step_backward


def tiny_cfg(vocab_size=12):
    return ModelConfig(vocab_size=vocab_size, feature_dim=4, photo_hidden=3,
                       attn_hidden=4, attn_score_dim=4, dec_hidden=4,
                       emb_dim=4, mlp_hidden=4, sentences=3, max_photos=5)


def tiny_album(rng, cfg, m=4, words=3):
    feats = [rng.standard_normal(cfg.feature_dim) for _ in range(m)]
    story = [[int(t) for t in rng.integers(4, cfg.vocab_size, size=words)] + [EOS]
             for _ in range(cfg.sentences)]

    class A:
        features = feats
        stories = [story]
    return A()


class TestBuildParameters:
    def test_groups_cover_all_parameters(self):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(0))
        groups = {ps.group_of(n) for n in ps.names()}
        assert groups == {"photo_encoder", "scene_encoder", "attention",
                          "sentence_decoder", "reconstructor"}

    def test_shapes_consistent(self):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(0))
        assert ps["photo.skip.w"].shape == (cfg.feature_dim, cfg.d_v)
        assert ps["scene.gru.w_h"].shape == (cfg.d_v, 3 * cfg.d_v)
        assert ps["attn.gru.w_x"].shape == (cfg.alpha_len, 3 * cfg.attn_hidden)
        assert ps["dec.embed.table"].shape == (cfg.vocab_size, cfg.emb_dim)
        assert ps["recon.gru.w_x"].shape == (2 * cfg.vocab_size, 3 * cfg.d_v)

    def test_deterministic_given_seed(self):
        cfg = tiny_cfg()
        a = build_parameters(cfg, np.random.default_rng(5))
        b = build_parameters(cfg, np.random.default_rng(5))
        for n in a.names():
            assert a[n].data.tobytes() == b[n].data.tobytes()

    def test_alpha_len_autoderived(self):
        cfg = ModelConfig(vocab_size=10, max_photos=40)
        assert cfg.alpha_len == 81
        # derived from max_photos only; no longer a field to set
        with pytest.raises(TypeError):
            ModelConfig(vocab_size=10, alpha_len=99)

    @pytest.mark.parametrize("field", ["sentences", "dec_hidden", "max_photos"])
    def test_values_below_one_rejected(self, field):
        with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
            ModelConfig(vocab_size=10, **{field: 0})


class TestEncodeAlbum:
    def test_memory_layout_and_mask(self):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(1))
        rng = np.random.default_rng(1)
        album = tiny_album(rng, cfg, m=4)
        out = encode_album(album.features, ps, cfg)   # a batch of one
        # the batch's own 2*4+1 slots, not alpha_len's 11
        assert out.memory.shape == (1, 9, cfg.d_v)
        assert out.used_slots.tolist() == [9]
        np.testing.assert_array_equal(out.valid_mask[0, :4], np.ones(4))
        np.testing.assert_allclose(out.memory.data[0, :4], out.photos.V.data[:, 0])
        np.testing.assert_allclose(out.memory.data[0, 4:9], out.scenes.X.data[:, 0])
        # a shorter album is padded to the longest album's slots
        feats, lengths = pad_steps([album.features, album.features[:2]])
        batch = encode_album(feats, ps, cfg, lengths=lengths)
        assert batch.memory.shape == (2, 9, cfg.d_v)
        assert batch.used_slots.tolist() == [9, 5]
        np.testing.assert_array_equal(batch.valid_mask[1, :2], np.ones(2))
        np.testing.assert_array_equal(batch.valid_mask[1, 5:], np.zeros(4))
        np.testing.assert_array_equal(batch.memory.data[1, 5:], np.zeros((4, cfg.d_v)))

    def test_album_too_long_rejected(self):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(2))
        rng = np.random.default_rng(2)
        album = tiny_album(rng, cfg, m=6)  # needs 13 slots, cap is 11
        with pytest.raises(T.DimensionError, match="slots"):
            encode_album(album.features, ps, cfg)

    def test_init_state_is_projected_finals(self):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        album = tiny_album(rng, cfg)
        out = encode_album(album.features, ps, cfg)
        want = out.photos.final.data @ ps["attn.init.w"].data + ps["attn.init.b"].data
        np.testing.assert_allclose(out.init_state.h_attn.data, want, rtol=1e-12)
        assert np.all(out.init_state.alpha_prev.data == 0.0)


# every entry point that takes the step counts of a padded batch, given
# counts for a batch of 3 steps and 2 rows (`tiny_cfg` sizes): the encoders
# and the reconstructor take them beside the batch, `pad_steps` and
# `score_sentences` read them off the sequences they pad
STEP_COUNT_ENTRIES = {
    "encode_photos": lambda ps, n: encode_photos(np.zeros((3, 2, 4)), ps, n),
    "encode_scenes": lambda ps, n: encode_scenes(np.ones((3, 2, 6)), ps, lengths=n),
    "reconstruct": lambda ps, n: reconstruct(T.zeros((3, 2, 12)), n, ps),
    "pad_steps": lambda ps, n: pad_steps([np.ones((k, 4)) for k in n]),
    "score_sentences": lambda ps, n: score_sentences(T.zeros((2, 6)),
                                                     [[EOS] * k for k in n], ps),
}
GOOD_STEP_COUNTS = [3, 1]
STEP_COUNT_CASES = (
    [(entry, n) for entry in ("encode_photos", "encode_scenes", "reconstruct")
     for n in ([0, 3], [4, 3], [3], [3.0, 3.0])]
    + [("pad_steps", [3, 0]), ("score_sentences", [3, 0])]
    + [(entry, GOOD_STEP_COUNTS) for entry in STEP_COUNT_ENTRIES])


@pytest.mark.parametrize("entry, counts", STEP_COUNT_CASES,
                         ids=[f"{e}-{n}" for e, n in STEP_COUNT_CASES])
def test_one_rule_for_the_step_counts_of_every_padded_batch(entry, counts):
    # `tensor.step_lengths` owns the rule, so each entry point raises its one
    # message for a count of 0, one past the steps, a wrong row count,
    # floats or an empty sequence, and takes a good batch
    ps = build_parameters(tiny_cfg(), np.random.default_rng(0))
    if counts == GOOD_STEP_COUNTS:
        STEP_COUNT_ENTRIES[entry](ps, counts)
        return
    with pytest.raises(ValueError, match=r"^step counts \[.*\] do not fit"):
        STEP_COUNT_ENTRIES[entry](ps, counts)


class TestStoryObjective:
    def test_report_composition(self):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        album = tiny_album(rng, cfg)
        loss, rep = story_objective(album, 0, ps, cfg, derange=np.array([1, 2, 0]),
                                    lam=0.3, mu=0.5)
        assert rep.total == pytest.approx(rep.nll + 0.3 * rep.rank + 0.5 * rep.recon)
        assert loss.data == pytest.approx(rep.total)
        assert rep.word_count == sum(len(s) for s in album.stories[0])
        assert rep.nll > 0 and rep.recon > 0

    def test_nll_is_minus_the_teacher_forced_word_log_probs(self):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(12))
        album = tiny_album(np.random.default_rng(12), cfg, words=5)
        _, rep = story_objective(album, 0, ps, cfg, derange=np.array([2, 0, 1]))
        zs, _ = summarize_album(encode_album(album.features, ps, cfg),
                                cfg.sentences, ps)
        words = [float(lp.data) for z, sent in zip(zs, album.stories[0])
                 for lp in sentence_log_prob(z, sent, ps)[2]]
        assert len(words) == rep.word_count
        assert rep.nll == pytest.approx(-math.fsum(words), rel=1e-12)

    def test_no_derangement_zero_rank(self):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(5))
        album = tiny_album(np.random.default_rng(5), cfg)
        _, rep = story_objective(album, 0, ps, cfg, derange=None)
        assert rep.rank == 0.0

    def test_mu_zero_skips_reconstruction(self):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(6))
        album = tiny_album(np.random.default_rng(6), cfg)
        _, rep = story_objective(album, 0, ps, cfg, mu=0.0)
        assert rep.recon == 0.0

    @pytest.mark.parametrize("weights", [{"lam": math.nan}, {"mu": math.inf}],
                             ids=["lam-nan", "mu-inf"])
    def test_non_finite_weight_is_an_error_not_a_loss(self, weights):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(6))
        album = tiny_album(np.random.default_rng(6), cfg)
        name = next(iter(weights))
        with pytest.raises(ConfigError, match=f"^{name} must be >= 0 and finite$"):
            story_objective(album, 0, ps, cfg, derange=np.array([1, 2, 0]), **weights)

    def test_forced_flags_change_segmentation_not_interface(self):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(7))
        album = tiny_album(np.random.default_rng(7), cfg)
        loss_a, _ = story_objective(album, 0, ps, cfg, force_flags=[0, 0, 0, 0])
        loss_b, _ = story_objective(album, 0, ps, cfg, force_flags=[0, 1, 1, 0])
        assert loss_a.data != loss_b.data

    @pytest.mark.parametrize("flags", [[0, 1, 1], [0, 1, 1, 0, 0]], ids=["short", "long"])
    def test_forced_flags_of_wrong_length_rejected(self, flags):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(7))
        album = tiny_album(np.random.default_rng(7), cfg)   # 4 photos
        with pytest.raises(ValueError, match="force_flags"):
            story_objective(album, 0, ps, cfg, force_flags=flags)


def op_nodes(root):
    """Operation nodes reachable from `root` (leaves are not counted)."""
    seen, stack, count = {id(root)}, [root], 0
    while stack:
        node = stack.pop()
        count += bool(node._parents)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return count


class TestGraphSize:
    def test_node_budget_at_acceptance_dimensions(self):
        # sequences are one node each: the encoders, the attention steps, the
        # decoder's 10 teacher-forced sentences and the reconstructor cost a
        # fixed count, not one node per photo, sentence or word. Every album
        # builds 61 nodes; the
        # per-photo scene encoder built 227 for the largest (11 photos), and
        # one node per decoder word step would add about 650.
        spec = SynthSpec(albums=8, scenes_per_album=(2, 3), photos_per_scene=(2, 4),
                         feature_dim=8, cluster_separation=4.0, noise_scale=0.05,
                         vocab_size=30, sentences=5, seed=42)
        vocab = synth_vocab(spec)
        cfg = ModelConfig(vocab_size=len(vocab), feature_dim=8, photo_hidden=16,
                          attn_hidden=32, attn_score_dim=32, dec_hidden=32,
                          emb_dim=32, mlp_hidden=32, max_photos=12)
        ps = build_parameters(cfg, np.random.default_rng(0))
        derange = np.array([1, 2, 3, 4, 0])
        counts = [op_nodes(story_objective(album, 0, ps, cfg, derange=derange)[0])
                  for album in synth_dataset(spec, vocab)]
        assert max(counts) <= 160, counts

    def test_node_count_independent_of_photo_count(self):
        # nothing repeats per photo
        cfg = ModelConfig(vocab_size=30, feature_dim=8, photo_hidden=16,
                          attn_hidden=32, attn_score_dim=32, dec_hidden=32,
                          emb_dim=32, mlp_hidden=32, max_photos=40)
        ps = build_parameters(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        derange = np.array([1, 2, 3, 4, 0])
        counts = [op_nodes(story_objective(tiny_album(rng, cfg, m=m), 0, ps, cfg,
                                           derange=derange)[0])
                  for m in (7, 37)]
        assert counts[0] == counts[1], counts

    def test_batched_step_node_budget(self):
        # one optimizer step over the 8 albums builds one graph whose size
        # follows the longest album, not the number of albums: the 8
        # per-example graphs of a step used to total about 1,650 nodes
        spec = SynthSpec(albums=8, scenes_per_album=(2, 3), photos_per_scene=(2, 4),
                         feature_dim=8, cluster_separation=4.0, noise_scale=0.05,
                         vocab_size=30, sentences=5, seed=42)
        vocab = synth_vocab(spec)
        cfg = ModelConfig(vocab_size=len(vocab), feature_dim=8, photo_hidden=16,
                          attn_hidden=32, attn_score_dim=32, dec_hidden=32,
                          emb_dim=32, mlp_hidden=32, max_photos=12)
        ps = build_parameters(cfg, np.random.default_rng(0))
        albums = synth_dataset(spec, vocab)
        derange = np.array([1, 2, 3, 4, 0])
        single = max(op_nodes(story_objective(album, 0, ps, cfg, derange=derange)[0])
                     for album in albums)
        batched = op_nodes(stories_objective(batch_z(albums, 5, ps, cfg)[0],
                                             [album.stories[0] for album in albums], ps,
                                             deranges=[derange] * len(albums))[0])
        assert batched <= 1.5 * single, (batched, single)


class TestBatchObjective:
    """The batch objective, `stories_objective` of `batch_z`, is one graph;
    its loss, report and gradients are the sums of the per-example ones."""

    def albums(self, cfg, sizes, seed):
        rng = np.random.default_rng(seed)
        return [tiny_album(rng, cfg, m=m, words=int(rng.integers(1, 6))) for m in sizes]

    @pytest.mark.parametrize("frozen", [(), ("photo_encoder", "scene_encoder",
                                             "attention")])
    def test_batch_equals_per_example_sums(self, frozen):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(20))
        ps.freeze(*frozen)
        albums = self.albums(cfg, (3, 5, 1, 4), seed=20)
        ders = [np.array([1, 2, 0]), np.array([2, 0, 1]), np.array([1, 2, 0]),
                np.array([2, 0, 1])]
        ps.zero_grads()
        loss, rep = stories_objective(batch_z(albums, cfg.sentences, ps, cfg)[0],
                                      [a.stories[0] for a in albums], ps, deranges=ders,
                                      lam=0.3, mu=0.7)
        loss.backward()
        batched = {n: ps[n].grad for n in ps.names() if ps[n].requires_grad}

        ps.zero_grads()
        reps = []
        for album, der in zip(albums, ders):
            one, r = story_objective(album, 0, ps, cfg, derange=der, lam=0.3, mu=0.7)
            one.backward()
            reps.append(r)
        for field in ("nll", "rank", "recon", "total"):
            want = math.fsum(getattr(r, field) for r in reps)
            assert getattr(rep, field) == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert getattr(rep, field) > 0
        assert loss.item() == pytest.approx(rep.total, rel=1e-15)
        assert rep.word_count == sum(r.word_count for r in reps)
        assert batched
        for name, grad in batched.items():
            np.testing.assert_allclose(grad, ps[name].grad, rtol=1e-12, atol=1e-12,
                                       err_msg=name)

    def test_forced_flags_per_album(self):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(21))
        albums = self.albums(cfg, (2, 4), seed=21)
        stories = [a.stories[0] for a in albums]
        flags = np.array([[0, 0], [1, 1], [0, 1], [0, 0]])   # (m_max, B), column b album b
        Z, enc, alphas = batch_z(albums, cfg.sentences, ps, cfg, force_flags=flags)
        # the batch's encoding holds the forced flags, and Z is the alphas'
        # weighted memory
        np.testing.assert_array_equal(enc.scenes.flags, flags)
        assert alphas.shape == (cfg.sentences, len(albums), 2 * 4 + 1)
        assert Z.shape == (cfg.sentences, len(albums), cfg.d_v)
        np.testing.assert_allclose(Z.data, np.einsum("nbl,bld->nbd", alphas, enc.memory.data),
                                   rtol=1e-12, atol=1e-15)
        _, rep = stories_objective(Z, stories, ps)
        want = sum(story_objective(a, 0, ps, cfg, force_flags=flags[:len(a.features), b])[1]
                   .total for b, a in enumerate(albums))
        assert rep.total == pytest.approx(want, rel=1e-12)
        with pytest.raises(ValueError, match="force_flags"):
            batch_z(albums, cfg.sentences, ps, cfg, force_flags=flags[:2])

    def test_unequal_sentence_counts_rejected(self):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(22))
        a, b = self.albums(cfg, (2, 3), seed=22)
        b.stories = [b.stories[0][:2]]
        with pytest.raises(ValueError, match="sentence count"):
            stories_objective(batch_z([a, b], 3, ps, cfg)[0], [a.stories[0], b.stories[0]],
                              ps)

    @pytest.mark.parametrize("sizes", [(2, 3), (2, 3, 1, 4)])
    def test_z_not_in_sentence_album_shape_rejected(self, sizes):
        # Z flattened to (n*B, D_v) rows, or (B, n, D_v) with B != n
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(22))
        albums = self.albums(cfg, sizes, seed=22)
        stories = [a.stories[0] for a in albums]
        Z = batch_z(albums, cfg.sentences, ps, cfg)[0]
        for bad in (T.reshape(Z, (-1, cfg.d_v)), T.wrap(Z.data.transpose(1, 0, 2))):
            with pytest.raises(T.DimensionError, match="for .* stories of 3"):
                stories_objective(bad, stories, ps)

    def test_batched_encoding_holds_each_albums_own_layout(self):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(23))
        albums = self.albums(cfg, (1, 5, 3), seed=23)
        feats, lengths = pad_steps([a.features for a in albums])
        assert feats.shape == (5, 3, cfg.feature_dim) and lengths.tolist() == [1, 5, 3]
        batch = encode_album(feats, ps, cfg, lengths=lengths)
        zs, alphas = summarize_album(batch, 2, ps)
        assert batch.memory.shape[1] == 2 * 5 + 1
        for b, album in enumerate(albums):
            one = encode_album(album.features, ps, cfg)   # a batch of one
            used = one.used_slots[0]   # the lone album's own slots; padding past them
            assert batch.used_slots[b] == used == one.memory.shape[1]
            np.testing.assert_allclose(batch.memory.data[b, :used], one.memory.data[0],
                                       rtol=1e-12, atol=1e-15)
            np.testing.assert_array_equal(batch.valid_mask[b, :used], one.valid_mask[0])
            assert not batch.memory.data[b, used:].any()
            assert not batch.valid_mask[b, used:].any()
            np.testing.assert_allclose(batch.init_state.h_attn.data[b],
                                       one.init_state.h_attn.data[0], rtol=1e-12)
            m = len(album.features)
            assert [row[b] for row in batch.scenes.flags[:m]] == \
                [row[0] for row in one.scenes.flags]
            want_z, want_alpha = summarize_album(one, 2, ps)
            for z, alpha, wz, wa in zip(zs, alphas, want_z, want_alpha):
                np.testing.assert_allclose(z.data[b], wz.data[0], rtol=1e-12, atol=1e-15)
                np.testing.assert_allclose(alpha.data[b, :used], wa.data[0], rtol=1e-12,
                                           atol=1e-15)
                assert not alpha.data[b, used:].any()


def two_scan_objective(Z, stories, ps, deranges, lam, mu):
    """`stories_objective` with the true and the deranged sentences scored
    by a `score_sentences` call each: the loss node."""
    n = len(stories[0])
    Z = T.reshape(Z, (-1, Z.shape[-1]))   # row j*B + b: sentence j of story b
    sentences = [story[j] for j in range(n) for story in stories]
    pos, logits, _ = score_sentences(Z, sentences, ps)
    neg, _, _ = score_sentences(Z, [story[int(der[j])] for j in range(n)
                                    for story, der in zip(stories, deranges)], ps)
    recon = recon_loss(Z, reconstruct(logits, [len(s) for s in sentences], ps)) \
        if mu > 0 else T.wrap(0.0)
    return total_loss(nll_loss(pos), rank_loss(pos, neg), recon, lam=lam, mu=mu)


def summarize_per_step(encoding, n, ps):
    """`summarize_album` with the keys projected again for every step."""
    state, zs, alphas = encoding.init_state, [], []
    for _ in range(n):
        keys = encoding.memory @ ps["attn.score.w_mem"]
        z, alpha, state = attend(encoding.memory, keys, encoding.valid_mask, state, ps)
        zs.append(z)
        alphas.append(alpha)
    return zs, alphas


class TestFewerLoopSteps:
    """A stage-1 step scores the true and deranged sentences as one scan and
    projects the attention keys once per batch; both equal their unmerged
    forms."""

    def albums(self, cfg, sizes, seed):
        rng = np.random.default_rng(seed)
        return [tiny_album(rng, cfg, m=m, words=int(rng.integers(1, 6))) for m in sizes]

    @pytest.mark.parametrize("mu", [0.0, 0.8])
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.integers(1, 5), min_size=2, max_size=5)
           .filter(lambda sizes: len(set(sizes)) > 1),
           st.integers(2, 4), st.floats(0, 2))
    def test_one_teacher_forced_scan_equals_two(self, mu, seed, sizes, n, lam):
        cfg = dataclasses.replace(tiny_cfg(), sentences=n)
        ps = build_parameters(cfg, np.random.default_rng(seed))
        albums = self.albums(cfg, sizes, seed + 1)
        rng = np.random.default_rng(seed + 2)
        ders = [derangement(n, rng) for _ in albums]
        stories = [a.stories[0] for a in albums]
        results = []
        for objective in (lambda Z: stories_objective(Z, stories, ps, deranges=ders,
                                                      lam=lam, mu=mu)[0],
                          lambda Z: two_scan_objective(Z, stories, ps, ders, lam, mu)):
            ps.zero_grads()
            loss = objective(batch_z(albums, n, ps, cfg)[0])
            loss.backward()
            results.append((loss.item(), {name: ps[name].grad for name in ps.names()}))
        (got, grads), (want, want_grads) = results
        assert got == pytest.approx(want, rel=1e-12, abs=0)
        for name, grad in want_grads.items():
            if grad is None:   # the reconstructor, when mu is 0
                assert grads[name] is None and mu == 0, name
            else:
                np.testing.assert_allclose(grads[name], grad, rtol=1e-10, atol=1e-10,
                                           err_msg=name)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.integers(1, 5), min_size=2, max_size=7)
           .filter(lambda sizes: len(set(sizes)) > 1),
           st.integers(1, 3), st.integers(1, 3))
    def test_keys_once_equal_keys_per_step(self, seed, sizes, n, chunk):
        # chunk by chunk, as inference encodes, with gradients on
        cfg = dataclasses.replace(tiny_cfg(), sentences=n)
        ps = build_parameters(cfg, np.random.default_rng(seed))
        albums = self.albums(cfg, sizes, seed + 1)
        rng = np.random.default_rng(seed + 2)
        w_z, w_alpha = rng.standard_normal(cfg.d_v), rng.standard_normal(cfg.alpha_len)
        for lo in range(0, len(albums), chunk):
            feats, lengths = pad_steps([a.features for a in albums[lo:lo + chunk]])
            slots = 2 * lengths.max() + 1   # the chunk's own attention slots
            results = []
            for summarize in (summarize_album, summarize_per_step):
                ps.zero_grads()
                zs, alphas = summarize(encode_album(feats, ps, cfg, lengths=lengths), n, ps)
                (T.arr_sum(T.concat(zs) * T.wrap(w_z))
                 + T.arr_sum(T.concat(alphas) * T.wrap(w_alpha[:slots]))).backward()
                results.append(([z.data for z in zs], [a.data for a in alphas],
                                {name: ps[name].grad for name in ps.names()}))
            (zs, alphas, grads), (want_zs, want_alphas, want_grads) = results
            for got, want in zip(zs + alphas, want_zs + want_alphas):
                np.testing.assert_array_equal(got, want)
            for name, grad in want_grads.items():
                if grad is None:   # the decoder and the reconstructor
                    assert grads[name] is None, name
                else:
                    np.testing.assert_allclose(grads[name], grad, rtol=1e-10,
                                               atol=1e-10, err_msg=name)

    def test_stage_one_forward_gru_steps(self, monkeypatch):
        # per photo: one step for both photo directions and one for the
        # scenes; per word position: one step for the true and deranged
        # sentences together; per sentence: one attention step
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(24))
        albums = self.albums(cfg, (3, 5, 2, 4), seed=24)
        stories = [a.stories[0] for a in albums]
        rng = np.random.default_rng(25)
        ders = [derangement(cfg.sentences, rng) for _ in albums]
        steps, gru_step = [], T._gru_step
        monkeypatch.setattr(T, "_gru_step",
                            lambda *args, **kw: steps.append(1) or gru_step(*args, **kw))
        stories_objective(batch_z(albums, cfg.sentences, ps, cfg)[0], stories, ps,
                          deranges=ders, mu=0.0)
        m_max, t_max = 5, max(len(s) for story in stories for s in story)
        assert len(steps) == m_max + m_max + t_max + cfg.sentences


def assert_attention_node_matches_loop(seed, sizes, n, chunk):
    """`attend_scan` against `summarize_album` on albums of `sizes` photos,
    padded `chunk` albums at a time: values to 1e-12, gradients to 1e-10."""
    # flags forced off at photo 1 (a slice: a chunk may hold one photo)
    # leave every album of two photos or more a false scene slot
    cfg = dataclasses.replace(tiny_cfg(), sentences=n)
    ps = build_parameters(cfg, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    albums = [tiny_album(rng, cfg, m=m) for m in sizes]
    for lo in range(0, len(albums), chunk):
        feats, lengths = pad_steps([a.features for a in albums[lo:lo + chunk]])
        flags = rng.integers(0, 2, size=feats.shape[:2])
        flags[1:2] = 0
        w = rng.standard_normal((n, len(lengths), cfg.d_v))
        results = []
        for one_node in (True, False):
            ps.zero_grads()
            enc = encode_album(feats, ps, cfg, force_flags=flags, lengths=lengths)
            if one_node:
                Z, alphas = attend_scan(enc.memory, enc.valid_mask, enc.init_state, n, ps)
            else:
                zs, steps = summarize_album(enc, n, ps)
                Z = T.reshape(T.concat(zs), (n, len(lengths), -1))
                alphas = np.stack([a.data for a in steps])
            T.arr_sum(Z * T.wrap(w)).backward()
            results.append((Z.data, alphas, {name: ps[name].grad for name in ps.names()}))
        (z, alphas, grads), (want_z, want_alphas, want_grads) = results
        assert not enc.scenes.scene_mask[1][lengths >= 2].any()
        np.testing.assert_allclose(z, want_z, rtol=1e-12, atol=0)
        np.testing.assert_allclose(alphas, want_alphas, rtol=1e-12, atol=0)
        for name, grad in want_grads.items():
            if grad is None:   # the decoder and the reconstructor
                assert grads[name] is None, name
            else:
                np.testing.assert_allclose(grads[name], grad, rtol=1e-10,
                                           atol=1e-10, err_msg=name)


class TestAttentionNode:
    """`attend_scan`, the n attention steps as one node, equals
    `summarize_album`, the per-step `attend` loop: values to 1e-12 and
    gradients to 1e-10."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.integers(1, 5), min_size=2, max_size=7)
           .filter(lambda sizes: len(set(sizes)) > 1),
           st.integers(1, 4), st.integers(1, 3))
    def test_one_node_equals_the_per_step_loop(self, seed, sizes, n, chunk):
        # chunk by chunk, as inference pads DECODE_CHUNK albums, here 1-3 a chunk
        assert_attention_node_matches_loop(seed, sizes, n, chunk)

    def test_the_loop_catches_a_wrong_gru_kernel(self, monkeypatch):
        # the loop's steps differentiate by autodiff, so a fault in the
        # hand-written GRU backward reaches the node alone
        assert_attention_node_matches_loop(3, [2, 4, 3], 3, 3)
        scale_gru_step_backward(monkeypatch, 1.01)
        with pytest.raises(AssertionError):
            assert_attention_node_matches_loop(3, [2, 4, 3], 3, 3)

    def test_stage_one_graph_size_does_not_grow_with_sentences(self):
        # one node per attention step gave 60 nodes at n = 2 and 81 at n = 5
        counts = [op_nodes(stage_one_loss(n)[1]) for n in (2, 5)]
        assert counts[0] == counts[1], counts

    def test_input_projections_are_primitive_nodes(self):
        # the recurrence nodes take and return only what recurs: the scene
        # GRU's input side V W_x + b and the attention keys memory W_mem are
        # `matmul` and `add` nodes, which give those weights their gradients
        ps, loss = stage_one_loss(5)
        names = ("scene.gru.w_x", "scene.gru.b", "attn.score.w_mem")
        makers = {name: set() for name in names}   # the functions that made each child
        seen, stack = {id(loss)}, [loss]
        while stack:
            node = stack.pop()
            for p in node._parents:
                for name in names:
                    if p is ps[name]:
                        makers[name].add(node._backward.__qualname__.split(".")[0])
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        assert makers == {"scene.gru.w_x": {"matmul"}, "scene.gru.b": {"add"},
                          "attn.score.w_mem": {"matmul"}}


class TestOwnSlots:
    """Attention over a batch's own 2*m_max+1 slots equals the per-step
    oracle over the same memory zero-padded to `alpha_len` slots."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(1, 5), min_size=1, max_size=4),
           st.integers(1, 5))
    def test_own_slots_equal_alpha_len_padding(self, seed, sizes, n):
        cfg = dataclasses.replace(tiny_cfg(), sentences=n)
        ps = build_parameters(cfg, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        feats, lengths = pad_steps([tiny_album(rng, cfg, m=m).features for m in sizes])
        B, slots, full = len(sizes), 2 * max(sizes) + 1, cfg.alpha_len
        w = rng.standard_normal((n, B, cfg.d_v))
        results = []
        for padded in (False, True):
            ps.zero_grads()
            enc = encode_album(feats, ps, cfg, lengths=lengths)
            assert enc.memory.shape == (B, slots, cfg.d_v)
            if padded:
                memory = T.assemble((B, full, cfg.d_v), [(np.s_[:, :slots], enc.memory)])
                mask = np.pad(enc.valid_mask, ((0, 0), (0, full - slots)))
                state = AttentionState(enc.init_state.h_attn, T.zeros((B, full)))
                zs, steps = summarize_album(dataclasses.replace(
                    enc, memory=memory, valid_mask=mask, init_state=state), n, ps)
                Z = T.reshape(T.concat(zs), (n, B, -1))
                alphas = np.stack([a.data for a in steps])
            else:
                Z, alphas = attend_scan(enc.memory, enc.valid_mask, enc.init_state, n, ps)
            T.arr_sum(Z * T.wrap(w)).backward()
            results.append((Z.data, alphas, {name: ps[name].grad for name in ps.names()}))
        (z, alphas, grads), (want_z, want_alphas, want_grads) = results
        # relative to Z's scale: a component that cancels keeps rounding's share
        np.testing.assert_allclose(z, want_z, rtol=0, atol=1e-14 * np.abs(want_z).max())
        np.testing.assert_allclose(alphas, want_alphas[..., :slots], rtol=1e-14, atol=0)
        assert not want_alphas[..., slots:].any()
        for b, used in enumerate(2 * lengths + 1):
            assert not alphas[:, b, used:].any()
        assert not grads["attn.gru.w_x"][slots:].any()
        for name, grad in want_grads.items():
            if grad is None:   # the decoder and the reconstructor
                assert grads[name] is None, name
            else:
                np.testing.assert_allclose(grads[name], grad, rtol=1e-12, atol=1e-12,
                                           err_msg=name)


def stage_one_loss(n):
    """The stage-1 loss (reconstruction off) of the train-overfit batch, 8
    albums of 7-11 photos at the acceptance dimensions, on n sentences:
    (params, loss node)."""
    spec = SynthSpec(albums=8, scenes_per_album=(2, 3), photos_per_scene=(2, 4),
                     feature_dim=8, cluster_separation=4.0, noise_scale=0.05,
                     vocab_size=30, sentences=5, seed=42)
    vocab = synth_vocab(spec)
    cfg = ModelConfig(vocab_size=len(vocab), feature_dim=8, photo_hidden=16,
                      attn_hidden=32, attn_score_dim=32, dec_hidden=32,
                      emb_dim=32, mlp_hidden=32, max_photos=12)
    ps = build_parameters(cfg, np.random.default_rng(0))
    ps.freeze(*STAGE1_FROZEN)
    albums = synth_dataset(spec, vocab)
    loss, _ = stories_objective(batch_z(albums, n, ps, cfg)[0],
                                [a.stories[0][:n] for a in albums], ps,
                                deranges=[np.roll(np.arange(n), 1)] * len(albums), mu=0.0)
    return ps, loss


class TestCachedZ:
    """Stage 2's path: Z encoded once per album, one of `chunks` per no_grad
    pass (here by the per-step `summarize_album`), then gathered for a batch
    and fed to `stories_objective`, gives the loss and trained gradients of
    stage 1's call, `stories_objective` of `batch_z` on the batch."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.integers(1, 5), min_size=2, max_size=5)
           .filter(lambda sizes: len(set(sizes)) > 1),
           st.lists(st.integers(0, 4), min_size=1, max_size=6),
           st.integers(1, 3), st.integers(1, 3),
           st.floats(0, 2), st.floats(0, 2))
    def test_loss_half_on_cached_z_equals_batch_objective(self, seed, sizes, picks, n,
                                                          chunk, lam, mu):
        cfg = dataclasses.replace(tiny_cfg(), sentences=n)
        ps = build_parameters(cfg, np.random.default_rng(seed))
        ps.freeze(*STAGE2_FROZEN)
        rng = np.random.default_rng(seed + 1)
        albums = [tiny_album(rng, cfg, m=m, words=int(rng.integers(1, 6))) for m in sizes]
        batch = [i % len(albums) for i in picks]   # albums may repeat
        ders = [derangement(n, rng) for _ in batch] if n >= 2 else None
        runs = []
        with mock.patch.object(model, "DECODE_CHUNK", chunk), T.no_grad():
            for run in chunks(albums):
                feats, lengths = pad_steps([a.features for a in run])
                zs, _ = summarize_album(encode_album(feats, ps, cfg, lengths=lengths), n, ps)
                runs.append(np.stack([z.data for z in zs]))
        cache = np.concatenate(runs, axis=1)
        assert cache.shape == (n, len(albums), cfg.d_v)

        def trained(objective):
            ps.zero_grads()
            loss, rep = objective()
            loss.backward()
            return loss.item(), rep, {name: ps[name].grad for name in ps.names()
                                      if ps[name].requires_grad}

        stories = [albums[i].stories[0] for i in batch]
        want, want_rep, want_grads = trained(lambda: stories_objective(
            batch_z([albums[i] for i in batch], n, ps, cfg)[0], stories, ps, deranges=ders,
            lam=lam, mu=mu))
        Z = T.wrap(cache[:, batch])
        got, rep, grads = trained(lambda: stories_objective(
            Z, stories, ps, deranges=ders, lam=lam, mu=mu))

        assert got == pytest.approx(want, rel=1e-12, abs=0)
        assert rep.word_count == want_rep.word_count
        assert {ps.group_of(name) for name in grads} == {"sentence_decoder",
                                                          "reconstructor"}
        for name, grad in grads.items():
            if want_grads[name] is None:   # the reconstructor, when mu is 0
                assert grad is None and mu == 0, name
            else:
                np.testing.assert_allclose(grad, want_grads[name], rtol=1e-10,
                                           atol=1e-10, err_msg=name)


class TestGenerateStory:
    def test_structure_and_determinism(self):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(8))
        album = tiny_album(np.random.default_rng(8), cfg)
        h1 = generate_story(album, ps, cfg)
        h2 = generate_story(album, ps, cfg)
        assert h1.sentences == h2.sentences
        assert len(h1.sentences) == cfg.sentences
        assert len(h1.flags) == 4
        for ids, alpha in zip(h1.sentences, h1.alphas):
            assert ids[-1] == EOS or len(ids) == cfg.max_words + 1
            assert alpha.shape == (9,)
            assert alpha.sum() == pytest.approx(1.0)

    def test_beam_one_equals_greedy_full_story(self):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(9))
        album = tiny_album(np.random.default_rng(9), cfg)
        g = generate_story(album, ps, cfg, mode="greedy")
        b = generate_story(album, ps, cfg, mode="beam", beam_width=1)
        assert g.sentences == b.sentences

    def test_unknown_mode(self):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(10))
        album = tiny_album(np.random.default_rng(10), cfg)
        with pytest.raises(ValueError):
            generate_story(album, ps, cfg, mode="sample")

    def test_generation_on_synth_album(self):
        spec = SynthSpec(albums=2, seed=11)
        vocab = synth_vocab(spec)
        albums = synth_dataset(spec, vocab)
        cfg = ModelConfig(vocab_size=len(vocab), feature_dim=spec.feature_dim,
                          photo_hidden=4, attn_hidden=4, attn_score_dim=4,
                          dec_hidden=4, emb_dim=4, mlp_hidden=4,
                          max_photos=12)
        ps = build_parameters(cfg, np.random.default_rng(11))
        hyp = generate_story(albums[0], ps, cfg)
        assert len(hyp.sentences) == 5


def per_album_story(album, ps, cfg, mode, width):
    """The per-album oracle: one album's own encoding (a batch of one),
    then one decode call per sentence. Returns (ids, word logps, alphas,
    flags)."""
    with T.no_grad():
        encoding = encode_album(album.features, ps, cfg)
        zs, alphas = summarize_album(encoding, cfg.sentences, ps)
    decoded = [decode_sentence_greedy(z.data[0], ps, cfg.max_words) if mode == "greedy"
               else decode_sentence_beam(z.data[0], ps, cfg.max_words, width) for z in zs]
    return ([ids for ids, _ in decoded], [lps for _, lps in decoded],
            [a.data[0, :encoding.used_slots[0]] for a in alphas],
            [row[0] for row in encoding.scenes.flags])


class TestGenerateStories:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.integers(1, 5), min_size=1, max_size=4, unique=True),
           st.sampled_from([("greedy", 1), ("beam", 1), ("beam", 2), ("beam", 3)]),
           st.booleans())
    def test_batched_equals_per_album_oracle(self, seed, sizes, mode_width, early):
        # the EOS bias stays as initialised (untrained rows mostly run to the
        # cap), or `early` shifts it just enough that the row most inclined
        # to EOS at its first step ends there and others end at other steps
        mode, width = mode_width
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        albums = [tiny_album(rng, cfg, m=m) for m in sizes]
        if early:
            with T.no_grad():
                zs = [z for a in albums for z in summarize_album(
                    encode_album(a.features, ps, cfg), cfg.sentences, ps)[0]]
            first = [sentence_log_prob(z, [EOS], ps)[1][0].data for z in zs]
            margin = max(d[EOS] - np.delete(d, EOS).max() for d in first)
            ps["dec.out.b2"].data[EOS] += 1e-6 - margin
        hyps = generate_stories(albums, ps, cfg, mode=mode, beam_width=width)
        assert len(hyps) == len(albums)
        wants = [per_album_story(a, ps, cfg, mode, width) for a in albums]
        if early:
            assert [EOS] in [ids for want in wants for ids in want[0]]
        for hyp, (ids, logps, alphas, flags) in zip(hyps, wants):
            assert hyp.sentences == ids
            assert hyp.flags == flags
            for got, want in zip(hyp.word_logps, logps):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            for got, want in zip(hyp.alphas, alphas):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_no_albums(self):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(12))
        assert generate_stories([], ps, cfg) == []

    def test_bad_beam_width_raises_before_encoding(self, monkeypatch):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(13))
        album = tiny_album(np.random.default_rng(13), cfg)
        want = generate_story(album, ps, cfg)
        assert generate_story(album, ps, cfg, beam_width=0).sentences == want.sentences

        def no_encoding(*args, **kwargs):
            raise AssertionError("encoded an album")

        monkeypatch.setattr(model, "encode_album", no_encoding)
        with pytest.raises(ValueError, match="^beam width must be >= 1$"):
            generate_stories([album], ps, cfg, mode="beam", beam_width=0)


def test_chunks_are_runs_of_decode_chunk():
    albums = list(range(2 * DECODE_CHUNK + 1))
    assert [len(run) for run in chunks(albums)] == [DECODE_CHUNK, DECODE_CHUNK, 1]
    assert [a for run in chunks(albums) for a in run] == albums and chunks([]) == []


class TestSceneViews:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.integers(1, 5), min_size=DECODE_CHUNK + 1,
                    max_size=DECODE_CHUNK + 8).filter(lambda sizes: len(set(sizes)) > 1))
    def test_chunked_views_equal_lone_encodings(self, seed, sizes):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        albums = [tiny_album(rng, cfg, m=m) for m in sizes]
        views = scene_views(albums, ps, cfg)
        assert len(views) == len(albums)
        for album, view in zip(albums, views):
            with T.no_grad():
                seg = encode_album(album.features, ps, cfg).scenes
            flags = seg.flags[:, 0].tolist()
            assert view["flags"] == flags
            assert view["scene_of_photo"] == scene_indices(flags)
            assert view["num_scenes"] == int(seg.u[0])
            np.testing.assert_allclose(view["softs"], seg.softs[:, 0], rtol=1e-12, atol=0)

    def test_no_albums(self):
        cfg = tiny_cfg()
        assert scene_views([], build_parameters(cfg, np.random.default_rng(3)), cfg) == []

    def test_attention_overflow_raises_as_decoding_does(self):
        # the views read the encoding that decoding attends over, so weights
        # whose attention alone overflows fail both
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(5))
        for name in ps.names():
            if ps.group_of(name) == "attention":
                ps[name].data *= 1e160
        album = tiny_album(np.random.default_rng(5), cfg)
        for run in (scene_views, generate_stories):
            with pytest.raises(T.EvaluationError, match="^overflow encountered"):
                run([album], ps, cfg)


class TestFloatFaults:
    """Inference, the scene views and the gradient check raise EvaluationError
    on an overflow, emit no warning and leave numpy's rule as they found it."""

    @pytest.mark.parametrize("run", [
        lambda album, ps, cfg: generate_story(album, ps, cfg),
        lambda album, ps, cfg: generate_story(album, ps, cfg, mode="beam", beam_width=3),
        lambda album, ps, cfg: scene_views([album], ps, cfg),
        lambda album, ps, cfg: full_pipeline_grad_check(seed=0, lam=1e308),
    ], ids=["greedy", "beam-3", "scene-views", "grad-check"])
    def test_overflow_raises_evaluation_error(self, run):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(4))
        for p in ps.entries.values():   # finite weights whose arithmetic overflows
            p.data *= 1e160
        album = tiny_album(np.random.default_rng(4), cfg)
        before = np.geterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(T.EvaluationError, match="^overflow encountered") as info:
                run(album, ps, cfg)
        assert isinstance(info.value.__cause__, FloatingPointError)
        assert caught == [] and np.geterr() == before


class TestFullPipelineGradients:
    def test_single_seed_under_tolerance(self):
        assert full_pipeline_grad_check(seed=0) < 1e-4

    def test_rank_and_recon_terms_carry_gradients(self):
        # nonzero lambda/mu must not break the check, and the check must
        # actually exercise those heads: fails if recon weights get no grads
        err = full_pipeline_grad_check(seed=1, lam=0.5, mu=1.0)
        assert err < 1e-4

    def test_runtime_budget_sample(self):
        t0 = time.time()
        full_pipeline_grad_check(seed=2)
        assert time.time() - t0 < 3.0


class TestGradientOwnership:
    """The objectives' leaf gradients keep their bytes when `_acc` copies
    every array it is handed: the gate on the rule that lets every
    backward (the hand-written recurrence nodes, `target_log_probs` and the
    primitives) hand over views and shared arrays, that no gradient is
    written in place, by `_acc` or by a backward after handing it over."""

    @pytest.mark.parametrize("stage,relax", [(1, False), (1, True), (2, False)])
    def test_stories_objective(self, monkeypatch, stage, relax):
        cfg = tiny_cfg()
        ps = build_parameters(cfg, np.random.default_rng(40))
        ps.freeze(*(STAGE1_FROZEN if stage == 1 else STAGE2_FROZEN))
        rng = np.random.default_rng(41)
        albums = [tiny_album(rng, cfg, m=m, words=w) for m, w in ((3, 2), (5, 4), (2, 1))]
        ders = [derangement(cfg.sentences, rng) for _ in albums]
        stories = [a.stories[0] for a in albums]
        with T.no_grad():
            cached = batch_z(albums, cfg.sentences, ps, cfg)[0].data

        def run():
            ps.zero_grads()
            # stage 2 also differentiates its cached Z, a leaf here
            Z = (batch_z(albums, cfg.sentences, ps, cfg, relax=relax)[0] if stage == 1
                 else T.NumArray(cached, requires_grad=True))
            loss, _ = stories_objective(Z, stories, ps, deranges=ders, lam=0.3,
                                        mu=0.0 if stage == 1 else 0.8)
            loss.backward()
            leaves = {n: ps[n] for n in ps.names() if ps[n].requires_grad}
            return leaves if stage == 1 else {**leaves, "Z": Z}

        owned, copied = grads_both_ways(monkeypatch, run)
        assert owned == copied

    def test_story_objective_on_the_grad_check_album(self, monkeypatch):
        # the album, flags and derangement that `full_pipeline_grad_check` builds
        with monkeypatch.context() as m:
            checks = []
            m.setattr(T, "grad_check", lambda fn, params, **kw: checks.append(
                (fn, params)) or 0.0)
            full_pipeline_grad_check(seed=0, lam=0.5, mu=1.0)
        (fn, ps), = checks

        def run():
            ps.zero_grads()
            fn(ps).backward()
            return {n: ps[n] for n in ps.names()}

        owned, copied = grads_both_ways(monkeypatch, run)
        assert owned == copied
