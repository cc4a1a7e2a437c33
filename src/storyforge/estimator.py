"""Estimator-style facade over the training and decoding pipeline.

AlbumStoryteller follows scikit-learn conventions without depending on
scikit-learn itself: constructor arguments are stored verbatim and only
validated in fit, get_params/set_params expose them for cloning and grid
search, and fitted state lives in trailing-underscore attributes.
"""

from __future__ import annotations

import dataclasses
import inspect

from .data import (AlbumExample, Vocabulary, build_vocab, decode_ids,
                   encode_sentence, feature_rows, story_tokens)
from .metrics import EvalPair, cider
from .model import ModelConfig, encode_album, generate_story
from .scene_encoder import scene_indices
from .tensor import no_grad
from .trainer import TrainConfig, config_from, run_training


class NotFittedError(RuntimeError):
    """Raised when predict/transform/score run before fit."""


def check_is_fitted(estimator, attr: str = "params_"):
    if not hasattr(estimator, attr):
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; call fit first")


def check_albums(X, feature_dim: int, max_photos: int):
    """Validate fit/predict input: AlbumExamples or bare feature matrices.

    Photos past max_photos are dropped, as the album loader drops them.
    Bare matrices are wrapped into story-less albums, which is enough for
    predict and transform but rejected by fit.
    """
    if not isinstance(X, (list, tuple)) or len(X) == 0:
        raise ValueError("X must be a non-empty list of albums")
    albums = []
    for pos, item in enumerate(X):
        if isinstance(item, AlbumExample):
            gold = item.gold_boundaries
            albums.append(dataclasses.replace(
                item, features=feature_rows(item.features, feature_dim, max_photos),
                gold_boundaries=None if gold is None else gold[:max_photos]))
        else:
            albums.append(AlbumExample(
                album_id=f"album{pos:04d}",
                features=feature_rows(item, feature_dim, max_photos),
                stories=[], raw_stories=[]))
    return albums


class AlbumStoryteller:
    """Generates a fixed-length story for an album of photo features.

    fit trains the encoder/decoder stack on albums that carry reference
    stories; predict emits decoded sentences; transform exposes the scene
    segmentation for each album.
    """

    def __init__(self, feature_dim=8, photo_hidden=16, attn_hidden=32,
                 attn_score_dim=32, dec_hidden=32, emb_dim=32, mlp_hidden=32,
                 alpha_len=0, max_words=25, sentences=5, max_photos=40,
                 stage="all", lr=0.0004, lam=0.2, mu=0.8, batch_size=1,
                 max_steps=1000, validate_every=100, patience=30, seed=0,
                 nll_stop=0.0, min_count=1, mode="greedy", beam_width=3):
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

    def _encode(self, album, vocab):
        if not album.raw_stories:
            return album
        stories = [[encode_sentence(s, vocab, self.max_words)
                    for s in story] for story in album.raw_stories]
        return dataclasses.replace(album, stories=stories)

    def fit(self, X, y=None, vocab: Vocabulary | None = None,
            validation=None):
        """Train on albums with reference stories; returns self."""
        albums = check_albums(X, self.feature_dim, self.max_photos)
        if any(not a.stories for a in albums):
            raise ValueError("fit needs albums with reference stories")
        if vocab is None:
            corpus = [s for a in albums for story in a.raw_stories
                      for s in story]
            vocab = build_vocab(corpus, min_count=self.min_count)
        # token ids must come from the working vocabulary, whatever encoded
        # the albums originally
        albums = [self._encode(a, vocab) for a in albums]
        val = ([self._encode(a, vocab)
                for a in check_albums(validation, self.feature_dim, self.max_photos)]
               if validation else albums)
        settings = self.get_params()
        mcfg = config_from(ModelConfig, settings, vocab_size=len(vocab))
        tcfg = config_from(TrainConfig, settings, model=mcfg)
        r1, r2 = run_training(albums, val, tcfg, vocab)
        last = r2 if r2 is not None else r1
        self.vocab_ = vocab
        self.model_config_ = mcfg
        self.params_ = last.params
        self.best_score_ = last.best_cider
        self.n_iter_ = last.steps
        self.log_ = (r1.log if r1 else []) + (r2.log if r2 else [])
        return self

    def predict(self, X):
        """Decode one story per album: a list of sentence-string lists."""
        check_is_fitted(self)
        albums = check_albums(X, self.feature_dim, self.max_photos)
        stories = []
        for album in albums:
            hyp = generate_story(album, self.params_, self.model_config_,
                                 mode=self.mode, beam_width=self.beam_width)
            stories.append([" ".join(decode_ids(ids, self.vocab_))
                            for ids in hyp.sentences])
        return stories

    def transform(self, X):
        """Scene view per album: boundary flags, soft scores, scene index."""
        check_is_fitted(self)
        albums = check_albums(X, self.feature_dim, self.max_photos)
        out = []
        for album in albums:
            with no_grad():
                enc = encode_album(album.features, self.params_,
                                   self.model_config_)
            seg = enc.scenes
            out.append({"flags": list(seg.flags), "softs": list(seg.softs),
                        "scene_of_photo": scene_indices(seg.flags),
                        "num_scenes": seg.u})
        return out

    def fit_transform(self, X, y=None, **fit_kwargs):
        return self.fit(X, y, **fit_kwargs).transform(X)

    def score(self, X, y=None):
        """Consensus metric of decoded stories against the albums' references."""
        check_is_fitted(self)
        albums = check_albums(X, self.feature_dim, self.max_photos)
        if any(not a.raw_stories for a in albums):
            raise ValueError("score needs albums with reference stories")
        predictions = self.predict(albums)
        return cider([EvalPair(story_tokens(sents),
                               [story_tokens(story) for story in album.raw_stories])
                      for album, sents in zip(albums, predictions)])
