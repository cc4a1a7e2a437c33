"""Estimator-style facade over the training and decoding pipeline.

AlbumStoryteller follows scikit-learn conventions without depending on
scikit-learn itself: constructor arguments are stored verbatim and only
validated in fit, get_params/set_params expose them for cloning and grid
search, and fitted state lives in trailing-underscore attributes.
"""

from __future__ import annotations

import dataclasses
import inspect
from contextlib import contextmanager

import numpy as np

from . import tensor as T
from .data import (SPECIALS, AlbumExample, DataFormatError, Vocabulary, at_record,
                   build_vocab, check_gold, check_stories, encode_sentence, feature_rows,
                   story_text)
from .model import ModelConfig, decode_width, generate_stories, scene_views
from .trainer import TrainConfig, config_from, run_training, validate


class NotFittedError(RuntimeError):
    """Raised when predict/transform/score run before fit."""


def check_is_fitted(estimator):
    if not hasattr(estimator, "params_"):
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; call fit first")


def check_albums(X, feature_dim: int, max_photos: int,
                 n_sentences: int | None = None):
    """Validate AlbumExamples or bare feature matrices with the album
    loader's checks, dropping photos past max_photos; reference stories,
    where an album has any, need `n_sentences` sentences (None: any).
    Bare matrices become story-less albums, which fit and score reject.
    An error names the album by its index in X: `album N: ...`.
    """
    if not isinstance(X, (list, tuple)) or len(X) == 0:
        raise ValueError("X must be a non-empty list of albums")
    albums = []
    for pos, item in enumerate(X):
        with at_record(f"album {pos}"):
            if isinstance(item, AlbumExample):
                features = feature_rows(item.features, feature_dim, max_photos)
                if item.raw_stories:
                    check_stories(item.raw_stories, n_sentences)
                gold = check_gold(item.gold_boundaries, len(item.features), max_photos)
                albums.append(dataclasses.replace(item, features=features,
                                                  gold_boundaries=gold))
            else:
                albums.append(AlbumExample(
                    album_id=f"album{pos:04d}",
                    features=feature_rows(item, feature_dim, max_photos),
                    stories=[], raw_stories=[]))
    return albums


@contextmanager
def _float_faults(method: str):
    """A float fault in `method`'s arithmetic, which runs under
    `np.errstate(over="raise", invalid="raise")`, raises the EvaluationError
    that `fit` raises on divergence, naming the method."""
    try:
        yield
    except FloatingPointError as e:
        raise T.EvaluationError(f"{method}: {e}") from e


class AlbumStoryteller:
    """Generates a fixed-length story for an album of photo features.

    fit trains the encoder/decoder stack on albums that carry reference
    stories; predict emits decoded sentences; transform exposes the scene
    segmentation for each album.
    """

    def __init__(self, feature_dim=ModelConfig.feature_dim,
                 photo_hidden=ModelConfig.photo_hidden,
                 attn_hidden=ModelConfig.attn_hidden,
                 attn_score_dim=ModelConfig.attn_score_dim,
                 dec_hidden=ModelConfig.dec_hidden, emb_dim=ModelConfig.emb_dim,
                 mlp_hidden=ModelConfig.mlp_hidden, max_words=ModelConfig.max_words,
                 sentences=ModelConfig.sentences, max_photos=ModelConfig.max_photos,
                 stage=TrainConfig.stage, lr=TrainConfig.lr, lam=TrainConfig.lam,
                 mu=TrainConfig.mu, batch_size=TrainConfig.batch_size,
                 max_steps=TrainConfig.max_steps,
                 validate_every=TrainConfig.validate_every,
                 patience=TrainConfig.patience, seed=TrainConfig.seed,
                 nll_stop=TrainConfig.nll_stop, min_count=1, mode="greedy",
                 beam_width=3):
        args = locals()
        for name in self._param_names():
            setattr(self, name, args[name])

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = self._param_names()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for "
                                 f"{type(self).__name__}")
            setattr(self, name, value)
        return self

    def __repr__(self):
        changed = {k: v for k, v in self.get_params().items()
                   if v != inspect.signature(self.__init__).parameters[k].default}
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(changed.items()))
        return f"{type(self).__name__}({inner})"

    def _albums(self, X, refs_for: str | None = None):
        """`check_albums` at this estimator's sizes; caller `refs_for` needs refs."""
        albums = check_albums(X, self.feature_dim, self.max_photos, self.sentences)
        if refs_for and any(not a.raw_stories for a in albums):
            raise DataFormatError(f"{refs_for} needs albums with reference stories")
        return albums

    def fit(self, X, y=None, vocab: Vocabulary | None = None,
            validation=None):
        """Train on albums with reference stories; returns self."""
        # the settings, decoding's too, are checked before the albums are
        # checked against them; the vocabulary, and with it vocab_size,
        # comes later
        decode_width(self.mode, self.beam_width)
        settings = self.get_params()
        mcfg = config_from(ModelConfig, settings, vocab_size=len(SPECIALS))
        tcfg = config_from(TrainConfig, settings, model=mcfg)
        albums = self._albums(X, "fit")
        val = albums
        if validation is not None:
            if not isinstance(validation, (list, tuple)) or len(validation) == 0:
                raise ValueError("validation must be a non-empty list of albums")
            with at_record("validation"):
                val = self._albums(validation, "fit")
        if vocab is None:
            vocab = build_vocab([s for a in albums for story in a.raw_stories
                                 for s in story], min_count=self.min_count)
        # token ids must come from the working vocabulary, whatever encoded
        # the albums originally
        albums = [dataclasses.replace(a, stories=[
            [encode_sentence(s, vocab, self.max_words) for s in story]
            for story in a.raw_stories]) for a in albums]
        mcfg = dataclasses.replace(mcfg, vocab_size=len(vocab))
        tcfg = dataclasses.replace(tcfg, model=mcfg)
        r1, r2 = run_training(albums, val, tcfg, vocab)
        for stage, res in (("1", r1), ("2", r2)):
            if res is not None and res.diverged:
                raise T.EvaluationError(f"training diverged in stage {stage}")
        last = r2 if r2 is not None else r1
        self.vocab_ = vocab
        self.model_config_ = mcfg
        self.params_ = last.params
        self.best_score_ = last.best_cider
        self.n_iter_ = last.steps
        self.log_ = (r1.log if r1 else []) + (r2.log if r2 else [])
        return self

    @np.errstate(over="raise", invalid="raise")
    def predict(self, X):
        """Decode one story per album: a list of sentence-string lists."""
        check_is_fitted(self)
        with _float_faults("predict"):
            return [story_text(hyp.sentences, self.vocab_)
                    for hyp in generate_stories(self._albums(X), self.params_,
                                                self.model_config_, mode=self.mode,
                                                beam_width=self.beam_width)]

    @np.errstate(over="raise", invalid="raise")
    def transform(self, X):
        """Scene view per album: boundary flags, soft scores, scene index."""
        check_is_fitted(self)
        with _float_faults("transform"):
            return scene_views(self._albums(X), self.params_, self.model_config_)

    def fit_transform(self, X, y=None, **fit_kwargs):
        return self.fit(X, y, **fit_kwargs).transform(X)

    @np.errstate(over="raise", invalid="raise")
    def score(self, X, y=None):
        """`trainer.validate`: CIDEr of the stories decoded in this estimator's
        `mode` and `beam_width` against the albums' references."""
        check_is_fitted(self)
        with _float_faults("score"):
            return validate(self.params_, self.model_config_, self._albums(X, "score"),
                            self.vocab_, mode=self.mode, beam_width=self.beam_width)
