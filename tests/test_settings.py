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

The album sizes (`max_photos`, `sentences`, `max_words`) take integers
from -5 to 60, floats, bools, None and integers past the float range.
Through `load_albums`, and `check_albums` with the one size it cuts to,
`max_photos`, a draw must keep exactly each album's first photos, gold
flags and words, or raise a ConfigError naming the first bad size (or,
for a sentence count the stories do not have, the DataFormatError that
says so); through `storyforge evaluate` it must score, or exit 1 with one
`error:` line and write nothing.
"""

import contextlib
import dataclasses
import io
import json
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from storyforge import tensor as T
from storyforge.cli import DEFAULTS, main
from storyforge.data import (EOS, ConfigError, DataFormatError, SynthSpec, load_albums,
                             save_albums, synth_dataset, synth_vocab)
from storyforge.estimator import AlbumStoryteller, check_albums
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


SIZE = st.one_of(st.integers(-5, 60), st.floats(), st.booleans(), st.none(),
                 st.integers(min_value=2 ** 1024), st.integers(max_value=-2 ** 1024))
CUTS = ("max_photos", "sentences", "max_words")   # in the order the loader checks them


def _half(loading):
    """Half the draws from `loading`, sizes that load; half from SIZE."""
    return st.booleans().flatmap(lambda ok: loading if ok else SIZE)


CUT_DRAWS = st.fixed_dictionaries({"max_photos": _half(st.integers(1, 5)),
                                   "sentences": _half(st.just(SPEC.sentences)),
                                   "max_words": _half(st.integers(1, 6))})


def _is_size(value):
    return type(value) is int and value >= 1


def _first_bad(sizes):
    return next((name for name in CUTS if not _is_size(sizes[name])), None)


@pytest.fixture(scope="module")
def album_files(tmp_path_factory, corpus):
    """The corpus, its vocabulary and the first album's own story on disk."""
    albums, vocab = corpus
    root = tmp_path_factory.mktemp("sizes")
    save_albums(root / "albums.jsonl", albums)
    vocab.save(root / "vocab.txt")
    (root / "stories.jsonl").write_text(json.dumps(
        {"album_id": albums[0].album_id, "sentences": albums[0].raw_stories[0]}) + "\n")
    return root


def _assert_cut(cut, albums, max_photos, max_words):
    for got, album in zip(cut, albums, strict=True):
        keep = min(album.num_photos, max_photos)
        assert len(got.features) == keep
        np.testing.assert_array_equal(got.features, album.features[:keep])
        assert got.gold_boundaries == album.gold_boundaries[:keep]
        assert got.stories == [[ids[:-1][:max_words] + [EOS] for ids in story]
                               for story in album.stories]


@settings(max_examples=150, deadline=None)
@given(sizes=CUT_DRAWS)
@example(sizes=dict(max_photos=-3, sentences=2, max_words=25))
@example(sizes=dict(max_photos=2, sentences=2, max_words=-2))
def test_load_albums_cuts_to_its_sizes_or_raises_config_error(corpus, album_files, sizes):
    albums, vocab = corpus
    try:
        loaded = load_albums(album_files / "albums.jsonl", vocab,
                             max_photos=sizes["max_photos"],
                             n_sentences=sizes["sentences"], max_words=sizes["max_words"])
    except ConfigError as e:
        assert str(e).startswith(f"{_first_bad(sizes)} must be ")
        return
    except DataFormatError as e:   # a valid count that the stories do not have
        assert _first_bad(sizes) is None
        assert str(e).endswith(f"story has {SPEC.sentences} sentences, "
                               f"expected {sizes['sentences']}")
        return
    assert _first_bad(sizes) is None and sizes["sentences"] == SPEC.sentences
    _assert_cut(loaded, albums, sizes["max_photos"], sizes["max_words"])


@settings(max_examples=100, deadline=None)
@given(max_photos=_half(st.integers(1, 5)))
@example(max_photos=-3)
def test_check_albums_cuts_to_max_photos_or_raises_config_error(corpus, max_photos):
    albums, _ = corpus
    try:
        checked = check_albums(albums, SPEC.feature_dim, max_photos, SPEC.sentences)
    except ConfigError as e:
        assert not _is_size(max_photos) and str(e).startswith("max_photos must be ")
        return
    assert _is_size(max_photos)
    _assert_cut(checked, albums, max_photos, max_words=5)   # stories kept as given


@settings(max_examples=60, deadline=None)
@given(sizes=CUT_DRAWS)
@example(sizes=dict(max_photos=-3, sentences=2, max_words=None))
def test_evaluate_scores_or_exits_1_writing_nothing(album_files, sizes):
    root, out = album_files, album_files / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = ["evaluate", "--out-dir", str(out), "--stories", str(root / "stories.jsonl"),
            "--data", str(root / "albums.jsonl"), "--vocab-file", str(root / "vocab.txt")]
    for name, value in sizes.items():
        if value is not None:
            argv.append(f"--{name.replace('_', '-')}={value}")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    given_sizes = {name: DEFAULTS[name][0] if value is None else value
                   for name, value in sizes.items()}
    if _first_bad(given_sizes) is None and given_sizes["sentences"] == SPEC.sentences:
        assert code == 0 and err.getvalue() == ""
        assert (out / "metrics.txt").exists()
    else:
        assert code == 1
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")
        assert not out.exists()
