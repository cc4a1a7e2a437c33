import json

import numpy as np
import pytest

from storyforge import tensor as T
from storyforge.data import SynthSpec, synth_dataset, synth_vocab
from storyforge.model import ModelConfig, build_parameters, story_objective
from storyforge.trainer import (STAGE2_FROZEN, TrainConfig, canonical_log,
                                run_stage1, run_stage2, run_training, validate,
                                write_log)


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


class TestValidate:
    def test_verbatim_emitter_beats_perturbed(self, corpus):
        _, vocab, albums = corpus
        cfg = tiny_tcfg(vocab).model
        params = build_parameters(cfg, np.random.default_rng(3))

        class Hyp:
            def __init__(self, sentences):
                self.sentences = sentences

        def verbatim(album, ps, c):
            return Hyp([list(s) for s in album.stories[0]])

        def perturbed(album, ps, c):
            sents = [list(s) for s in album.stories[0]]
            sents[0][0] = 4 if sents[0][0] != 4 else 5
            return Hyp(sents)

        hi = validate(params, cfg, albums, vocab, generate_fn=verbatim)
        lo = validate(params, cfg, albums, vocab, generate_fn=perturbed)
        assert hi > lo
        assert hi > 5.0

    def test_deterministic(self, corpus):
        _, vocab, albums = corpus
        cfg = tiny_tcfg(vocab).model
        params = build_parameters(cfg, np.random.default_rng(4))
        assert validate(params, cfg, albums, vocab) == \
            validate(params, cfg, albums, vocab)

    def test_empty_generation_scores_zero(self, corpus):
        _, vocab, albums = corpus
        cfg = tiny_tcfg(vocab).model
        params = build_parameters(cfg, np.random.default_rng(5))

        class Hyp:
            sentences = [[], [], [], [], []]

        score = validate(params, cfg, albums, vocab,
                         generate_fn=lambda a, p, c: Hyp())
        assert score == 0.0
