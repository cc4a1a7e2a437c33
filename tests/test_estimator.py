"""Estimator facade: parameter handling, validation, fit/predict/transform."""

import copy
import dataclasses
import inspect

import numpy as np
import pytest

from storyforge import estimator, trainer
from storyforge import tensor as T
from storyforge.data import (UNK, AlbumExample, ConfigError, DataFormatError, SynthSpec,
                             synth_dataset, synth_vocab)
from storyforge.estimator import (AlbumStoryteller, NotFittedError,
                                  check_albums, check_is_fitted)
from storyforge.metrics import cider
from storyforge.model import ModelConfig
from storyforge.trainer import TrainConfig, validate

from helpers import per_album_pairs

SPEC = SynthSpec(albums=3, scenes_per_album=(2, 2), photos_per_scene=(2, 2),
                 feature_dim=6, vocab_size=25, seed=0)
TINY = dict(feature_dim=6, photo_hidden=3, attn_hidden=4, attn_score_dim=4,
            dec_hidden=6, emb_dim=5, mlp_hidden=6, max_photos=4,
            max_steps=2, validate_every=2, batch_size=3, seed=1)


@pytest.fixture(scope="module")
def corpus():
    vocab = synth_vocab(SPEC)
    return synth_dataset(SPEC, vocab), vocab


@pytest.fixture(scope="module")
def fitted(corpus):
    albums, vocab = corpus
    return AlbumStoryteller(**TINY).fit(albums, vocab=vocab)


class TestParams:
    def test_get_params_round_trip(self):
        est = AlbumStoryteller(lr=0.01, seed=7)
        clone = AlbumStoryteller(**est.get_params())
        assert clone.get_params() == est.get_params()

    def test_set_params_returns_self(self):
        est = AlbumStoryteller()
        assert est.set_params(lam=0.3).lam == 0.3

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            AlbumStoryteller().set_params(gamma=1.0)

    def test_constructor_does_not_validate(self):
        # sklearn convention: bad values surface at fit, not construction
        AlbumStoryteller(stage="nonsense")

    def test_defaults_match_config_fields(self):
        # fit builds both configs from get_params(), so every config field
        # needs a constructor argument with the same default
        fields = {f.name: f.default
                  for cls in (ModelConfig, TrainConfig)
                  for f in dataclasses.fields(cls)
                  if f.name not in ("vocab_size", "model")}
        sig = inspect.signature(AlbumStoryteller.__init__).parameters
        assert len(fields) == 20
        for name, default in fields.items():
            assert sig[name].default == default, name

    def test_repr_shows_changed_params_only(self):
        text = repr(AlbumStoryteller(seed=9))
        assert text == "AlbumStoryteller(seed=9)"


class TestValidationHelpers:
    def test_feature_list_shapes(self):
        (album,) = check_albums([np.zeros((3, 6))], 6, 40)
        out = album.features
        assert len(out) == 3 and out[0].shape == (6,)

    def test_wrong_dim_rejected(self):
        with pytest.raises(ValueError, match="expected 6, got 4"):
            check_albums([np.zeros((3, 4))], 6, 40)

    @pytest.mark.parametrize("n", [0, -2, True, 5.0])
    def test_sentence_count_is_a_setting(self, corpus, monkeypatch, n):
        # a bad count names the setting, not the first album with stories
        monkeypatch.setattr(estimator, "run_training", _no_training)
        albums, _ = corpus
        with pytest.raises(ConfigError, match="^sentences must be "):
            AlbumStoryteller(**{**TINY, "sentences": n}).fit(albums)

    def test_non_finite_rejected(self):
        bad = np.zeros((2, 6))
        bad[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            check_albums([bad], 6, 40)

    def test_integer_beyond_float_range_rejected(self, fitted):
        # a JSON-sized integer that no float holds, in a bare matrix or an album
        rows = [[0] * 6, [10 ** 400] + [0] * 5]
        album = AlbumExample("big", rows, [], [])
        for method in (AlbumStoryteller(**TINY).fit, fitted.predict):
            for X in ([rows], [album]):
                with pytest.raises(DataFormatError,
                                   match="^album 0: non-finite feature value$"):
                    method(X)

    def test_empty_album_rejected(self):
        with pytest.raises(ValueError):
            check_albums([np.zeros((0, 6))], 6, 40)

    def test_check_albums_wraps_matrices(self):
        albums = check_albums([np.ones((2, 6)), np.ones((3, 6))], 6, 40)
        assert [a.num_photos for a in albums] == [2, 3]
        assert albums[0].stories == []

    def test_check_albums_truncates_examples(self, corpus):
        albums, _ = corpus
        (album,) = check_albums([albums[0]], 6, 2)
        assert album.num_photos == 2
        assert album.gold_boundaries == albums[0].gold_boundaries[:2]
        assert album.stories == albums[0].stories

    def test_check_albums_empty_input(self):
        with pytest.raises(ValueError, match="non-empty"):
            check_albums([], 6, 40)

    def test_check_is_fitted(self):
        with pytest.raises(NotFittedError):
            check_is_fitted(AlbumStoryteller())


class TestUnfitted:
    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            AlbumStoryteller().predict([np.zeros((2, 8))])

    def test_transform_before_fit(self):
        with pytest.raises(NotFittedError):
            AlbumStoryteller().transform([np.zeros((2, 8))])


class TestFitted:
    def test_fit_returns_self_and_sets_state(self, fitted, corpus):
        albums, vocab = corpus
        assert fitted.params_ is not None
        assert fitted.vocab_ is vocab
        assert fitted.n_iter_ > 0
        assert isinstance(fitted.best_score_, float)

    def test_predict_shape(self, fitted, corpus):
        albums, _ = corpus
        stories = fitted.predict(albums)
        assert len(stories) == len(albums)
        for story in stories:
            assert len(story) == fitted.sentences
            assert all(isinstance(s, str) for s in story)

    def test_predict_accepts_bare_matrices(self, fitted):
        rng = np.random.default_rng(0)
        stories = fitted.predict([rng.normal(size=(3, 6))])
        assert len(stories) == 1

    def test_inference_reads_references_of_any_length(self, fitted):
        # the model tells 5 sentences; predict and transform do not read the
        # references, so 3-sentence ones change nothing
        spec = dataclasses.replace(SPEC, sentences=3)
        albums = synth_dataset(spec, synth_vocab(spec))
        bare = [np.array(a.features) for a in albums]
        assert fitted.predict(albums) == fitted.predict(bare)
        assert fitted.transform(albums) == fitted.transform(bare)

    def test_albums_past_max_photos_are_truncated(self, fitted):
        # the loader's contract: photos past max_photos are dropped
        rng = np.random.default_rng(3)
        long_album = rng.normal(size=(fitted.max_photos + 3, 6))
        (story,) = fitted.predict([long_album])
        assert len(story) == fitted.sentences
        (view,) = fitted.transform([long_album])
        assert len(view["flags"]) == fitted.max_photos

    def test_fit_truncates_long_albums(self):
        spec = dataclasses.replace(SPEC, photos_per_scene=(4, 4))
        albums = synth_dataset(spec, synth_vocab(spec))
        assert all(a.num_photos > TINY["max_photos"] for a in albums)
        est = AlbumStoryteller(**{**TINY, "max_steps": 1}).fit(albums)
        assert est.n_iter_ > 0

    def test_transform_segmentation(self, fitted, corpus):
        albums, _ = corpus
        views = fitted.transform(albums)
        for album, view in zip(albums, views):
            assert len(view["flags"]) == album.num_photos
            assert set(view["flags"]) <= {0, 1}
            assert len(view["scene_of_photo"]) == album.num_photos
            assert view["num_scenes"] >= 1

    def test_score_is_finite(self, fitted, corpus):
        albums, _ = corpus
        score = fitted.score(albums)
        assert np.isfinite(score) and score >= 0.0

    def test_score_needs_references(self, fitted):
        with pytest.raises(ValueError, match="reference stories"):
            fitted.score([np.zeros((2, 6))])

    def test_fit_builds_vocab_when_missing(self, corpus):
        albums, _ = corpus
        est = AlbumStoryteller(**TINY).fit(albums)
        assert len(est.vocab_) > 4

    def test_fit_rejects_storyless_albums(self):
        with pytest.raises(ValueError, match="reference stories"):
            AlbumStoryteller(**TINY).fit([np.zeros((2, 6))])

    def test_fit_rejects_bad_stage(self, corpus):
        albums, vocab = corpus
        with pytest.raises(ValueError):
            AlbumStoryteller(**TINY).set_params(stage="x").fit(
                albums, vocab=vocab)

    def test_fit_transform_matches_transform(self, corpus):
        albums, vocab = corpus
        est = AlbumStoryteller(**TINY)
        views = est.fit_transform(albums, vocab=vocab)
        assert views == est.transform(albums)

    @pytest.mark.parametrize("weights,stage", [({"lam": 1e300}, "1"), ({"mu": 1e300}, "2")])
    def test_diverged_fit_raises_and_stays_unfitted(self, weights, stage):
        # the huge loss weight overflows Adam's second moment, which the
        # trainer stops as a diverged stage
        est = AlbumStoryteller(max_steps=2, validate_every=1, **weights)
        with np.errstate(over="ignore"), \
                pytest.raises(T.EvaluationError, match=f"diverged in stage {stage}$"):
            est.fit(synth_dataset(SynthSpec(albums=2, seed=1)))
        with pytest.raises(NotFittedError):
            check_is_fitted(est)
        assert not hasattr(est, "log_")

    def test_overflowing_weights_raise_in_each_method(self):
        # a fitted model whose arithmetic overflows raises fit's error class,
        # with numpy's message, instead of empty sentences, NaN soft scores
        # and a score of 0
        albums = synth_dataset(SynthSpec(albums=2, seed=1))
        est = AlbumStoryteller(max_steps=1, validate_every=1).fit(albums)
        for p in est.params_.entries.values():
            p.data *= 1e160
        for method in ("predict", "transform", "score"):
            with pytest.raises(T.EvaluationError, match="^overflow encountered"):
                getattr(est, method)(albums)


class TestFittedSizes:
    """After fit, albums are checked and cut to the fitted model, whatever
    the size settings say since."""

    @pytest.fixture(scope="class")
    def fitted12(self, corpus):
        albums, vocab = corpus
        return AlbumStoryteller(**{**TINY, "max_photos": 12}).fit(albums, vocab=vocab)

    def test_predict_cuts_to_the_fitted_max_photos(self, fitted12):
        album = np.random.default_rng(5).normal(size=(20, 6))
        est = copy.copy(fitted12).set_params(max_photos=40)
        assert est.predict([album]) == fitted12.predict([album[:12]])
        (view,) = est.transform([album])
        assert len(view["flags"]) == 12

    def test_predict_checks_features_against_the_fitted_dim(self, fitted12, corpus):
        albums, _ = corpus
        est = copy.copy(fitted12).set_params(feature_dim=16)
        assert est.predict(albums) == fitted12.predict(albums)

    def test_score_checks_references_against_the_fitted_count(self, fitted12, corpus):
        albums, _ = corpus
        est = copy.copy(fitted12).set_params(sentences=3)
        assert est.score(albums) == fitted12.score(albums)

    def test_transform_keeps_the_fitted_cut(self, fitted12):
        rng = np.random.default_rng(6)
        X = [rng.normal(size=(4, 6)), rng.normal(size=(7, 6))]
        est = copy.copy(fitted12).set_params(max_photos=-3)
        views = est.transform(X)
        assert [len(view["flags"]) for view in views] == [4, 7]
        assert views == fitted12.transform(X)


def _no_training(*args, **kwargs):
    pytest.fail("fit started training on input it should have rejected")


def _no_steps(monkeypatch):
    """Fail the test if a training stage builds a batch's Z, as its first
    step (or stage 2's encoding of the training albums) does."""
    monkeypatch.setattr(trainer, "batch_z", _no_training)


class TestSharedPaths:
    """score is the trainer's validation CIDEr, and fit rejects what the
    album loader rejects, before any step."""

    @pytest.fixture(scope="class")
    def unk_model(self):
        albums = synth_dataset(SynthSpec(albums=4, seed=3))
        est = AlbumStoryteller(photo_hidden=3, attn_hidden=4, attn_score_dim=4,
                               dec_hidden=8, emb_dim=8, mlp_hidden=8, max_steps=60,
                               validate_every=30, batch_size=4, lr=0.01,
                               min_count=1).fit(albums)
        est.params_["dec.out.b2"].data[UNK] = 5.0   # decoded stories hold <unk>
        return est, albums

    def test_score_equals_validate(self, unk_model):
        est, albums = unk_model
        assert any("<unk>" in sent for story in est.predict(albums) for sent in story)
        assert est.score(albums) == validate(est.params_, est.model_config_,
                                             albums, est.vocab_)

    def test_score_decodes_in_the_estimator_mode(self, unk_model):
        est, albums = unk_model
        beam = copy.copy(est).set_params(mode="beam", beam_width=2)
        assert beam.score(albums) == cider(per_album_pairs(
            est.params_, est.model_config_, albums, est.vocab_, mode="beam", beam_width=2))

    def test_fit_checks_sentence_count_before_any_step(self, monkeypatch):
        _no_steps(monkeypatch)
        albums = synth_dataset(SynthSpec(albums=2, sentences=3, seed=1))
        with pytest.raises(DataFormatError,
                           match="^album 'synth0000': story has 3 sentences, expected 5$"):
            AlbumStoryteller(sentences=5).fit(albums)
        # validation stories are only scored against: any length will do
        val = synth_dataset(SynthSpec(albums=2, sentences=3, seed=2))
        est = AlbumStoryteller(**{**TINY, "feature_dim": 8, "max_steps": 0})
        assert est.fit(synth_dataset(SynthSpec(albums=2, seed=1)), validation=val).n_iter_ == 0

    def test_fit_names_the_bad_album(self, monkeypatch):
        monkeypatch.setattr(estimator, "run_training", _no_training)
        albums = synth_dataset(SynthSpec(albums=3, seed=1))
        bad = dataclasses.replace(albums[2], features=[f[:4] for f in albums[2].features])
        with pytest.raises(ValueError,
                           match="^album 2: feature-dim mismatch: expected 8, got 4$"):
            AlbumStoryteller(max_steps=1, validate_every=1).fit(albums[:2] + [bad])
        with pytest.raises(ValueError,
                           match="^validation: album 0: feature-dim mismatch: expected 8, got 4$"):
            AlbumStoryteller(max_steps=1, validate_every=1).fit(albums[:2], validation=[bad])

    @pytest.mark.parametrize("setting, message", [
        ("feature_dim", "^feature_dim must be >= 1$"),
        ("sentences", "^sentences must be >= 1$")])
    def test_fit_checks_settings_before_albums(self, monkeypatch, setting, message):
        # a setting out of range is named as such, not as an album mismatch
        monkeypatch.setattr(estimator, "run_training", _no_training)
        albums = synth_dataset(SynthSpec(albums=2))
        with pytest.raises(ValueError, match=message):
            AlbumStoryteller(max_steps=1, **{setting: 0}).fit(albums)

    @pytest.mark.parametrize("settings, message", [
        (dict(mode="sample"), "^unknown decode mode 'sample'$"),
        (dict(mode="beam", beam_width=0), "^beam width must be >= 1$"),
        (dict(mode="beam", beam_width=2.5), "^beam width must be an integer, got 2.5$"),
        (dict(batch_size=2.5), "^batch_size must be an integer, got 2.5$"),
        (dict(seed=1.5), "^seed must be an integer, got 1.5$"),
        (dict(lr="0.1"), "^lr must be a number, got '0.1'$"),
        (dict(photo_hidden="16"), "^photo_hidden must be an integer, got '16'$"),
        (dict(min_count=-1), "^min_count must be >= 0$")],
        ids=["mode", "beam-width-0", "beam-width-float", "batch-size-float",
             "seed-float", "lr-string", "photo-hidden-string", "min-count-negative"])
    def test_fit_checks_decoding_and_types_before_any_step(self, monkeypatch, settings,
                                                           message):
        # a setting that predict would reject, or of the wrong type, stops
        # fit with a ConfigError before training starts
        monkeypatch.setattr(estimator, "run_training", _no_training)
        albums = synth_dataset(SynthSpec(albums=2, seed=1))
        with pytest.raises(ConfigError, match=message):
            AlbumStoryteller(max_steps=1, validate_every=1, **settings).fit(albums)

    @pytest.mark.parametrize("validation", [[], ()], ids=["list", "tuple"])
    def test_fit_names_empty_validation(self, monkeypatch, validation):
        monkeypatch.setattr(estimator, "run_training", _no_training)
        albums = synth_dataset(SynthSpec(albums=2, seed=1))
        with pytest.raises(ValueError,
                           match="^validation must be a non-empty list of albums$"):
            AlbumStoryteller(max_steps=1, validate_every=1).fit(albums,
                                                                validation=validation)

    @pytest.mark.parametrize("sentence", ["", "  "], ids=["empty", "blank"])
    def test_fit_rejects_stories_without_tokens(self, monkeypatch, sentence):
        monkeypatch.setattr(estimator, "run_training", _no_training)
        albums = [dataclasses.replace(a, raw_stories=[[sentence] * 5])
                  for a in synth_dataset(SynthSpec(albums=2, seed=1))]
        with pytest.raises(ValueError, match="^empty corpus$"):
            AlbumStoryteller(min_count=1).fit(albums)

    def test_fit_needs_validation_references_before_any_step(self, monkeypatch):
        # the trainer's check, which runs before the stage's first step
        _no_steps(monkeypatch)
        albums = synth_dataset(SynthSpec(albums=2, seed=1))
        with pytest.raises(DataFormatError, match="^validation: album 'album0000' has no "
                                                  "reference stories$"):
            AlbumStoryteller().fit(albums, validation=[np.zeros((3, 8))])
        with pytest.raises(DataFormatError,
                           match="^album 'album0000' has no reference stories$"):
            AlbumStoryteller().fit([np.zeros((3, 8))], validation=albums)
