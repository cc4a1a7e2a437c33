"""No setting value ends in a traceback.

Every field of ModelConfig and TrainConfig, plus the estimator's `mode`,
`beam_width` and `min_count`, takes values drawn from strings, floats,
bools, None, lists and negative numbers. Every field of SynthSpec takes
the same values, and each draw must build synthetic albums or raise a
ConfigError. Through `AlbumStoryteller.fit` a
draw must train or raise a ConfigError, or, for a valid setting whose run
diverges (a huge finite `lr`, say), the EvaluationError that names the
diverged stage; through a checkpoint's saved
config, `storyforge generate` must succeed or exit 1 with one `error:`
line.
"""

import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from storyforge import tensor as T
from storyforge.cli import main
from storyforge.data import (ConfigError, SynthSpec, save_albums, synth_dataset,
                             synth_vocab)
from storyforge.estimator import AlbumStoryteller
from storyforge.model import ModelConfig, build_parameters
from storyforge.trainer import TrainConfig

SPEC = SynthSpec(albums=2, scenes_per_album=(2, 2), photos_per_scene=(1, 2),
                 feature_dim=4, vocab_size=12, sentences=2, seed=0)
DIMS = dict(feature_dim=4, photo_hidden=2, attn_hidden=3, attn_score_dim=3,
            dec_hidden=3, emb_dim=3, mlp_hidden=3, max_words=4, sentences=2,
            max_photos=4)
TINY = dict(DIMS, max_steps=1, validate_every=1, batch_size=2)

SETTINGS = ([f.name for f in dataclasses.fields(ModelConfig) if f.name != "vocab_size"]
            + [f.name for f in dataclasses.fields(TrainConfig) if f.name != "model"]
            + ["mode", "beam_width", "min_count"])
VALUES = st.one_of(st.text(max_size=4), st.floats(), st.booleans(), st.none(),
                   st.lists(st.integers(-2, 2), max_size=2),
                   st.integers(max_value=-1), st.floats(max_value=-0.0))


@pytest.fixture(scope="module")
def corpus():
    vocab = synth_vocab(SPEC)
    return synth_dataset(SPEC, vocab), vocab


@pytest.fixture(scope="module")
def checkpoint_run(tmp_path_factory, corpus):
    """Albums, vocabulary and a checkpoint of seeded weights whose saved
    config records DIMS, as `storyforge train` records its run config."""
    albums, vocab = corpus
    root = tmp_path_factory.mktemp("settings")
    save_albums(root / "albums.jsonl", albums)
    vocab.save(root / "vocab.txt")
    cfg = ModelConfig(vocab_size=len(vocab), **DIMS)
    T.save_checkpoint(root / "good.ckpt.json",
                      build_parameters(cfg, np.random.default_rng(0)),
                      meta={"config": dict(TINY)})
    return root


@settings(max_examples=120, deadline=None)
@given(key=st.sampled_from([f.name for f in dataclasses.fields(SynthSpec)]), value=VALUES)
@example(key="noise_scale", value=10 ** 400)   # a real number no float holds
def test_synth_spec_builds_albums_or_raises_config_error(key, value):
    try:
        spec = dataclasses.replace(SPEC, **{key: value})
    except ConfigError:
        return
    assert len(synth_dataset(spec)) == spec.albums


@settings(max_examples=120, deadline=None)
@given(key=st.sampled_from(SETTINGS), value=VALUES)
@example(key="nll_stop", value=-2 ** 64)   # an int beyond numpy's integer types
@example(key="lr", value=10 ** 400)
@example(key="lr", value=1e200)   # finite, but a step overflows the weights
def test_fit_trains_or_raises_config_error(corpus, key, value):
    albums, _ = corpus
    try:
        est = AlbumStoryteller(**{**TINY, key: value}).fit(albums)
    except ConfigError:
        return
    except T.EvaluationError as e:
        assert str(e) in ("training diverged in stage 1", "training diverged in stage 2")
        return
    assert est.n_iter_ >= 0


@settings(max_examples=120, deadline=None)
@given(key=st.sampled_from(SETTINGS), value=VALUES)
def test_generate_on_saved_config_succeeds_or_exits_1(checkpoint_run, key, value):
    root = checkpoint_run
    obj = json.loads((root / "good.ckpt.json").read_text())
    obj["meta"]["config"][key] = value
    (root / "bad.ckpt.json").write_text(json.dumps(obj))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["generate", "--out-dir", str(root / "out"),
                     "--data", str(root / "albums.jsonl"),
                     "--checkpoint", str(root / "bad.ckpt.json"),
                     "--vocab-file", str(root / "vocab.txt")])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 1
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith(f"error: {root / 'bad.ckpt.json'}: ")
