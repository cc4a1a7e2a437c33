import dataclasses
import json
import time

import numpy as np
import pytest

from storyforge import tensor as T
from storyforge import model, trainer
from storyforge.data import DataFormatError, SynthSpec, synth_dataset, synth_vocab
from storyforge.metrics import cider
from storyforge.model import DECODE_CHUNK, ModelConfig, build_parameters, story_objective
from storyforge.trainer import (STAGE2_FROZEN, TrainConfig, canonical_log,
                                decoded_pairs, run_stage1, run_stage2,
                                run_training, validate, write_log)

from helpers import per_album_pairs


@pytest.fixture(scope="module")
def corpus():
    spec = SynthSpec(albums=3, scenes_per_album=(2, 2), photos_per_scene=(2, 2),
                     feature_dim=6, vocab_size=25, seed=0)
    vocab = synth_vocab(spec)
    albums = synth_dataset(spec, vocab)
    return spec, vocab, albums


def tiny_tcfg(vocab, **kw):
    cfg = ModelConfig(vocab_size=len(vocab), feature_dim=6, photo_hidden=3,
                      attn_hidden=4, attn_score_dim=4, dec_hidden=6,
                      emb_dim=5, mlp_hidden=6, max_photos=4)
    defaults = dict(model=cfg, lr=0.01, batch_size=3, max_steps=5,
                    validate_every=100, seed=1)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainConfig:
    def test_bad_stage(self, corpus):
        _, vocab, _ = corpus
        with pytest.raises(ValueError):
            tiny_tcfg(vocab, stage="3")

    def test_patience_minimum(self, corpus):
        _, vocab, _ = corpus
        with pytest.raises(ValueError):
            tiny_tcfg(vocab, patience=0)

    @pytest.mark.parametrize("weights", [{"lam": -1.0}, {"mu": -0.5}])
    def test_negative_loss_weight(self, corpus, weights):
        _, vocab, _ = corpus
        with pytest.raises(ValueError,
                           match=f"^{next(iter(weights))} must be >= 0 and finite$"):
            tiny_tcfg(vocab, **weights)


class TestEmptySets:
    @pytest.mark.parametrize("which", ["train", "val"])
    def test_raises_before_any_step(self, corpus, which):
        _, vocab, albums = corpus
        train, val = ([], albums) if which == "train" else (albums, [])
        with pytest.raises(ValueError, match="must hold albums"):
            run_training(train, val, tiny_tcfg(vocab), vocab)


class TestReferences:
    @pytest.mark.parametrize("which", ["train", "val"])
    def test_storyless_albums_are_named_before_any_step(self, corpus, monkeypatch, which):
        # named as story-less, not as an empty set: they give no examples
        _, vocab, albums = corpus
        bare = [dataclasses.replace(a, stories=[], raw_stories=[]) for a in albums]
        train, val = (bare, albums) if which == "train" else (albums, bare)
        monkeypatch.setattr(trainer, "batch_z", lambda *a, **k: pytest.fail("a step ran"))
        with pytest.raises(DataFormatError, match=f"^{'validation: ' * (which == 'val')}"
                                                  "album 'synth0000' has no reference stories$"):
            run_training(train, val, tiny_tcfg(vocab), vocab)

    def test_decoded_pairs_need_references(self, corpus, monkeypatch):
        _, vocab, albums = corpus
        params = build_parameters(tiny_tcfg(vocab).model, np.random.default_rng(0))
        bare = albums[:1] + [dataclasses.replace(albums[1], stories=[], raw_stories=[])]
        monkeypatch.setattr(trainer, "generate_stories",
                            lambda *a, **k: pytest.fail("decoding ran"))
        with pytest.raises(DataFormatError, match="^album 'synth0001' has no reference stories$"):
            decoded_pairs(params, tiny_tcfg(vocab).model, bare, vocab)

    def test_validation_stories_of_any_length(self, corpus):
        spec, vocab, albums = corpus
        val = synth_dataset(dataclasses.replace(spec, sentences=3), vocab)
        r1, r2 = run_training(albums, val, tiny_tcfg(vocab, max_steps=1), vocab)
        assert r1.best_cider is not None and r2.best_cider is not None


class TestSentenceCount:
    @pytest.mark.parametrize("stage", ["1", "2", "all"])
    def test_story_of_another_length_raises_before_any_step(self, corpus, stage):
        spec, vocab, _ = corpus   # the model tells 5 sentences, these stories 3
        albums = synth_dataset(dataclasses.replace(spec, sentences=3), vocab)
        tcfg = tiny_tcfg(vocab, stage=stage)
        init = build_parameters(tcfg.model, np.random.default_rng(0)) if stage == "2" else None
        with pytest.raises(ValueError,
                           match="^album 'synth0000': story has 3 sentences, expected 5$"):
            run_training(albums, albums, tcfg, vocab, init_params=init)


class TestStage1:
    def test_loss_decreases_on_tiny_batch(self, corpus):
        _, vocab, albums = corpus
        tcfg = tiny_tcfg(vocab, max_steps=8)
        res = run_stage1(albums, albums, tcfg, vocab)
        nll = [e["nll"] for e in res.log]
        assert nll[-1] < nll[0]
        assert res.steps == 8
        assert [e["step"] for e in res.log] == list(range(1, 9))

    def test_reconstructor_untouched_and_recon_unevaluated(self, corpus):
        _, vocab, albums = corpus
        tcfg = tiny_tcfg(vocab)
        init = build_parameters(tcfg.model, np.random.default_rng(tcfg.seed))
        before = {n: init[n].data.tobytes() for n in init.names()
                  if init.group_of(n) == "reconstructor"}
        res = run_stage1(albums, albums, tcfg, vocab, params=init)
        for n, blob in before.items():
            assert res.final_params[n].data.tobytes() == blob
        assert all(e["recon"] == 0.0 for e in res.log)

    def test_zero_steps_returns_untrained(self, corpus):
        _, vocab, albums = corpus
        tcfg = tiny_tcfg(vocab, max_steps=0)
        init = build_parameters(tcfg.model, np.random.default_rng(tcfg.seed))
        snapshot = {n: init[n].data.tobytes() for n in init.names()}
        res = run_stage1(albums, albums, tcfg, vocab, params=init)
        assert res.steps == 0 and res.log == []
        for n, blob in snapshot.items():
            assert res.params[n].data.tobytes() == blob
        assert np.isfinite(res.best_cider)


class TestStage2:
    def test_frozen_groups_leave_the_graph(self, corpus):
        _, vocab, albums = corpus
        tcfg = tiny_tcfg(vocab)
        params = build_parameters(tcfg.model, np.random.default_rng(0))
        params.freeze(*STAGE2_FROZEN)
        loss, _ = story_objective(albums[0], 0, params, tcfg.model,
                                  derange=np.array([1, 2, 3, 4, 0]), mu=0.8)
        reached, stack = set(), [loss]
        while stack:
            node = stack.pop()
            for p in node._parents:
                if id(p) not in reached:
                    reached.add(id(p))
                    stack.append(p)
        frozen = [n for n in params.names()
                  if params.group_of(n) in STAGE2_FROZEN]
        assert not any(id(params[n]) in reached for n in frozen)
        assert {params.group_of(n) for n in params.names()
                if id(params[n]) in reached} == {"sentence_decoder",
                                                 "reconstructor"}
        loss.backward()
        opt = T.Adam(params)
        opt.step()
        for n in frozen:
            assert params[n].grad is None and n not in opt.m

    def test_frozen_groups_bit_identical(self, corpus):
        _, vocab, albums = corpus
        tcfg = tiny_tcfg(vocab, max_steps=4)
        r1 = run_stage1(albums, albums, tcfg, vocab)
        start = r1.params.copy()
        r2 = run_stage2(start, albums, albums, tcfg, vocab)
        changed = 0
        for n in start.names():
            same = r2.final_params[n].data.tobytes() == r1.params[n].data.tobytes()
            if start.group_of(n) in STAGE2_FROZEN:
                assert same, f"frozen parameter {n} moved"
            elif not same:
                changed += 1
        assert changed > 0
        assert all(e["recon"] > 0.0 for e in r2.log)

    def test_stage2_trains_reconstructor(self, corpus):
        _, vocab, albums = corpus
        tcfg = tiny_tcfg(vocab, max_steps=4)
        r1 = run_stage1(albums, albums, tcfg, vocab)
        start = r1.params.copy()
        r2 = run_stage2(start, albums, albums, tcfg, vocab)
        moved = any(
            r2.final_params[n].data.tobytes() != r1.params[n].data.tobytes()
            for n in start.names() if start.group_of(n) == "reconstructor")
        assert moved

    def test_encodes_each_album_once(self, corpus, monkeypatch):
        # only the stage's close validates, so a step that encoded its batch
        # would add calls with every step
        _, vocab, albums = corpus
        start = build_parameters(tiny_tcfg(vocab).model, np.random.default_rng(0))
        encode_album, calls = model.encode_album, []

        def counted(*args, **kwargs):
            calls.append(1)
            return encode_album(*args, **kwargs)

        monkeypatch.setattr(model, "encode_album", counted)
        counts = []
        for steps in (2, 6):
            calls.clear()
            res = run_stage2(start.copy(), albums, albums,
                             tiny_tcfg(vocab, max_steps=steps, validate_every=100), vocab)
            assert res.steps == steps and "val_cider" in res.log[-1]
            counts.append(len(calls))
        assert counts[0] == counts[1] == 2   # the training set, then validation

    def test_run_training_all_chains_stages(self, corpus):
        _, vocab, albums = corpus
        tcfg = tiny_tcfg(vocab, stage="all", max_steps=3)
        r1, r2 = run_training(albums, albums, tcfg, vocab)
        assert r1.steps == 3 and r2.steps == 6
        stages = {e["stage"] for e in r1.log} | {e["stage"] for e in r2.log}
        assert stages == {1, 2}

    def test_stage2_alone_requires_params(self, corpus):
        _, vocab, albums = corpus
        tcfg = tiny_tcfg(vocab, stage="2")
        with pytest.raises(ValueError):
            run_training(albums, albums, tcfg, vocab)


class TestEarlyStopping:
    def test_fires_after_exact_patience(self, corpus):
        _, vocab, albums = corpus
        # lr=0 keeps weights constant, so the first validation sets the best
        # and every following one is a non-improvement
        tcfg = tiny_tcfg(vocab, lr=0.0, max_steps=50, validate_every=1,
                         patience=3)
        res = run_stage1(albums, albums, tcfg, vocab)
        assert res.stop_reason == "patience"
        assert res.steps == 1 + 3
        assert sum(1 for e in res.log if "val_cider" in e) == 4

    def test_nll_stop(self, corpus):
        _, vocab, albums = corpus
        tcfg = tiny_tcfg(vocab, max_steps=500, nll_stop=1e9)
        res = run_stage1(albums, albums, tcfg, vocab)
        assert res.stop_reason == "nll_stop" and res.steps == 1


class TestDivergence:
    def test_abort_returns_last_good(self, corpus):
        _, vocab, albums = corpus
        tcfg = tiny_tcfg(vocab, max_steps=10)
        init = build_parameters(tcfg.model, np.random.default_rng(tcfg.seed))
        init["dec.gru.b"].data[0] = np.nan  # corrupt weight -> non-finite loss
        snapshot = {n: init[n].data.tobytes() for n in init.names()}
        res = run_stage1(albums, albums, tcfg, vocab, params=init)
        assert res.diverged and res.stop_reason == "diverged"
        for n, blob in snapshot.items():
            assert res.params[n].data.tobytes() == blob

    @pytest.mark.parametrize("validate_every", [1, 100])
    def test_overflowing_validation_stops_as_diverged(self, corpus, validate_every):
        # one step at lr 1e200 leaves finite weights near 1e200, whose decode
        # overflows: a validation in the loop (1) or the closing one (100)
        # stops the stage and keeps the last good weights, here the initial
        _, vocab, albums = corpus
        tcfg = tiny_tcfg(vocab, lr=1e200, max_steps=1, validate_every=validate_every)
        init = build_parameters(tcfg.model, np.random.default_rng(tcfg.seed))
        snapshot = {n: init[n].data.tobytes() for n in init.names()}
        res = run_stage1(albums, albums, tcfg, vocab, params=init)
        assert res.stop_reason == "diverged" and res.diverged and res.steps == 1
        assert res.best_cider is None
        assert not any("val_cider" in e for e in res.log)
        assert max(np.abs(res.final_params[n].data).max() for n in snapshot) > 1e199
        for n, blob in snapshot.items():
            assert res.params[n].data.tobytes() == blob

    def test_an_overflow_inside_a_step_stops_as_diverged(self, corpus, monkeypatch):
        # the third step's objective first overflows to a finite result: the
        # stage stops there, before any validation, with the initial weights
        _, vocab, albums = corpus
        tcfg = tiny_tcfg(vocab, max_steps=5, validate_every=100)
        init = build_parameters(tcfg.model, np.random.default_rng(tcfg.seed))
        snapshot = {n: init[n].data.tobytes() for n in init.names()}
        real, calls = trainer.stories_objective, []

        def overflowing_on_the_third_call(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                assert np.tanh(np.array([1e308]) * 10.0)[0] == 1.0
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer, "stories_objective", overflowing_on_the_third_call)
        res = run_stage1(albums, albums, tcfg, vocab, params=init)
        assert (res.stop_reason, res.steps, res.best_cider) == ("diverged", 2, None)
        assert len(res.log) == 2
        for n, blob in snapshot.items():
            assert res.params[n].data.tobytes() == blob

    def test_diverged_is_the_stop_reason(self, corpus):
        _, vocab, albums = corpus
        res = run_stage1(albums, albums, tiny_tcfg(vocab, max_steps=1), vocab)
        assert (res.stop_reason, res.diverged) == ("max_steps", False)
        assert "diverged" not in {f.name for f in dataclasses.fields(res)}
        res.stop_reason = "diverged"
        assert res.diverged

    def test_overflowed_adam_moment_stops_as_diverged(self, corpus):
        # the order term's weight makes finite grads whose squares overflow
        _, vocab, albums = corpus
        tcfg = tiny_tcfg(vocab, lam=1e300, max_steps=2, validate_every=1)
        init = build_parameters(tcfg.model, np.random.default_rng(tcfg.seed))
        snapshot = {n: init[n].data.tobytes() for n in init.names()}
        with np.errstate(over="ignore"):
            r1, r2 = run_training(albums, albums, tcfg, vocab, init_params=init)
        assert r1.stop_reason == "diverged" and r2 is None
        for n, blob in snapshot.items():
            assert r1.params[n].data.tobytes() == blob


class TestDeterminism:
    def test_single_step_bitwise_reproducible(self, corpus):
        _, vocab, albums = corpus
        tcfg = tiny_tcfg(vocab, max_steps=1)
        base = build_parameters(tcfg.model, np.random.default_rng(9))
        outs = []
        for _ in range(2):
            res = run_stage1(albums, albums, tcfg, vocab, params=base.copy())
            outs.append(res)
        a, b = outs
        assert a.log[0]["total"] == b.log[0]["total"]
        assert a.log[0]["nll"] == b.log[0]["nll"]
        for n in a.final_params.names():
            assert a.final_params[n].data.tobytes() == \
                b.final_params[n].data.tobytes()

    def test_wall_time_follows_the_monotonic_clock(self, corpus, monkeypatch):
        # a wall-clock step after the stage starts must not reach the log
        _, vocab, albums = corpus
        real_time, calls = time.time, []

        def stepping_time():
            calls.append(None)
            return real_time() + (1000.0 if len(calls) > 1 else 0.0)

        monkeypatch.setattr(time, "time", stepping_time)
        t0 = time.perf_counter()
        r1, r2 = run_training(albums, albums, tiny_tcfg(vocab, max_steps=2), vocab)
        span = time.perf_counter() - t0
        entries = r1.log + r2.log
        assert len(entries) == 4
        assert all(0.0 <= e["wall_time"] <= span for e in entries)

    def test_canonical_log_strips_wall_time(self, corpus, tmp_path):
        _, vocab, albums = corpus
        tcfg = tiny_tcfg(vocab, max_steps=2)
        res = run_stage1(albums, albums, tcfg, vocab)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_log(p1, res.log, header={"created": "2026-01-01T00:00:00"})
        for e in res.log:
            e["wall_time"] = e.get("wall_time", 0.0) + 123.0
        write_log(p2, res.log, header={"created": "2031-12-31T23:59:59"})
        assert canonical_log(p1) == canonical_log(p2)
        assert all("wall_time" not in line for line in canonical_log(p1))


class Hyp:
    """A decoded story: only its sentences are read by validation."""

    def __init__(self, sentences):
        self.sentences = sentences


def emitting(monkeypatch, story_of):
    """Make validation decode each album as `story_of(album)`."""
    monkeypatch.setattr(trainer, "generate_stories",
                        lambda albums, *rest: [Hyp(story_of(a)) for a in albums])


class TestValidate:
    def test_verbatim_emitter_beats_perturbed(self, corpus, monkeypatch):
        _, vocab, albums = corpus
        cfg = tiny_tcfg(vocab).model
        params = build_parameters(cfg, np.random.default_rng(3))

        def perturbed(album):
            sents = [list(s) for s in album.stories[0]]
            sents[0][0] = 4 if sents[0][0] != 4 else 5
            return sents

        emitting(monkeypatch, lambda album: [list(s) for s in album.stories[0]])
        hi = validate(params, cfg, albums, vocab)
        emitting(monkeypatch, perturbed)
        lo = validate(params, cfg, albums, vocab)
        assert hi > lo
        assert hi > 5.0

    def test_deterministic(self, corpus):
        _, vocab, albums = corpus
        cfg = tiny_tcfg(vocab).model
        params = build_parameters(cfg, np.random.default_rng(4))
        assert validate(params, cfg, albums, vocab) == \
            validate(params, cfg, albums, vocab)

    def test_batched_path_equals_per_album_calls(self, corpus):
        # batched decoding over more albums than one chunk, of unequal sizes
        _, vocab, _ = corpus
        cfg = tiny_tcfg(vocab).model
        params = build_parameters(cfg, np.random.default_rng(6))
        albums = synth_dataset(SynthSpec(albums=DECODE_CHUNK + 3, scenes_per_album=(1, 2),
                                         photos_per_scene=(1, 2), feature_dim=6,
                                         vocab_size=25, seed=6), vocab)
        assert len({a.num_photos for a in albums}) > 1
        pairs = per_album_pairs(params, cfg, albums, vocab)
        assert decoded_pairs(params, cfg, albums, vocab) == pairs
        assert validate(params, cfg, albums, vocab) == cider(pairs)

    def test_empty_generation_scores_zero(self, corpus, monkeypatch):
        _, vocab, albums = corpus
        cfg = tiny_tcfg(vocab).model
        params = build_parameters(cfg, np.random.default_rng(5))
        emitting(monkeypatch, lambda album: [[], [], [], [], []])
        assert validate(params, cfg, albums, vocab) == 0.0
