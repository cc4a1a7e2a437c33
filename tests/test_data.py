import json

import numpy as np
import pytest

from storyforge import data as D


class TestTokenize:
    def test_lowercase_and_punct_split(self):
        assert D.tokenize("The cat, sat!") == ["the", "cat", ",", "sat", "!"]

    def test_numbers_kept(self):
        assert D.tokenize("photo 42") == ["photo", "42"]

    def test_empty(self):
        assert D.tokenize("   ") == []


class TestVocabulary:
    def test_special_ids_fixed(self):
        v = D.Vocabulary(["cat"])
        assert (v.encode("<pad>"), v.encode("<bos>"),
                v.encode("<eos>"), v.encode("<unk>")) == (0, 1, 2, 3)
        assert v.decode(0) == "<pad>" and v.decode(3) == "<unk>"

    def test_min_count_threshold(self):
        corpus = ["cat"] * 4 + ["dog"] * 5
        v = D.build_vocab(corpus, min_count=5)
        assert v.encode("cat") == D.UNK
        assert v.encode("dog") == 4

    def test_repeated_sentence_reaches_threshold(self):
        v = D.build_vocab(["the cat sat"] * 5, min_count=5)
        assert all(v.encode(t) != D.UNK for t in ["the", "cat", "sat"])

    def test_order_by_count_then_token(self):
        v = D.build_vocab(["b b a a c"], min_count=1)
        assert v.id_to_token[4:] == ["a", "b", "c"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            D.build_vocab([], min_count=1)

    def test_round_trip_in_vocab_tokens(self):
        v = D.build_vocab(["red green blue"], min_count=1)
        for t in ["red", "green", "blue"]:
            assert v.decode(v.encode(t)) == t

    def test_save_load(self, tmp_path):
        v = D.build_vocab(["x y z y"], min_count=1)
        p = tmp_path / "vocab.txt"
        v.save(p)
        w = D.Vocabulary.load(p)
        assert w.id_to_token == v.id_to_token
        assert w.min_count == v.min_count

    def test_load_rejects_headerless_file(self, tmp_path):
        p = tmp_path / "vocab.txt"
        p.write_text("cat\ndog\n")
        with pytest.raises(D.DataFormatError):
            D.Vocabulary.load(p)


class TestEncodeSentence:
    def test_truncates_then_appends_eos(self):
        v = D.build_vocab(["w"], min_count=1)
        ids = D.encode_sentence(["w"] * 30, v, t_max=25)
        assert len(ids) == 26 and ids[-1] == D.EOS
        assert all(i == v.encode("w") for i in ids[:-1])

    def test_empty_sentence_is_eos(self):
        v = D.build_vocab(["w"], min_count=1)
        assert D.encode_sentence([], v) == [D.EOS]

    def test_default_t_max(self):
        v = D.build_vocab(["w"], min_count=1)
        assert len(D.encode_sentence(["w"] * 100, v)) == 26

    def test_decode_ids_stops_at_eos(self):
        v = D.build_vocab(["a b"], min_count=1)
        ids = D.encode_sentence("a b", v)
        assert D.decode_ids(ids + [5, 5], v) == ["a", "b"]
        assert D.decode_ids([D.BOS, D.PAD] + ids, v) == ["a", "b"]

    def test_story_tokens_concatenates_sentences(self):
        assert D.story_tokens(["The cat.", "", "A dog"]) == \
            ["the", "cat", ".", "a", "dog"]


def make_record(m=3, f_dim=4, n_sent=5, **extra):
    rec = {"album_id": "a1",
           "features": [[float(i)] * f_dim for i in range(m)],
           "stories": [[f"word {j}" for j in range(n_sent)]]}
    rec.update(extra)
    return rec


def write_albums(tmp_path, records):
    p = tmp_path / "albums.jsonl"
    p.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return p


@pytest.fixture
def vocab():
    return D.build_vocab(["word 0 1 2 3 4"], min_count=1)


class TestLoadAlbums:
    def test_basic_load(self, tmp_path, vocab):
        p = write_albums(tmp_path, [make_record()])
        (a,) = D.load_albums(p, vocab)
        assert a.album_id == "a1" and a.num_photos == 3
        assert len(a.stories[0]) == 5
        assert a.stories[0][0][-1] == D.EOS

    def test_photo_truncation(self, tmp_path, vocab):
        p = write_albums(tmp_path, [make_record(m=50)])
        (a,) = D.load_albums(p, vocab, max_photos=40)
        assert a.num_photos == 40
        np.testing.assert_array_equal(a.features[39], np.full(4, 39.0))

    def test_malformed_line_number_reported(self, tmp_path, vocab):
        p = tmp_path / "albums.jsonl"
        p.write_text(json.dumps(make_record()) + "\n{broken\n")
        with pytest.raises(D.DataFormatError, match="line 2"):
            D.load_albums(p, vocab)

    def test_feature_dim_mismatch(self, tmp_path, vocab):
        bad = make_record()
        bad["features"][1] = [1.0, 2.0]
        p = write_albums(tmp_path, [bad])
        with pytest.raises(D.DataFormatError, match="feature-dim mismatch"):
            D.load_albums(p, vocab)

    def test_wrong_sentence_count(self, tmp_path, vocab):
        p = write_albums(tmp_path, [make_record(n_sent=4)])
        with pytest.raises(D.DataFormatError, match="4 sentences"):
            D.load_albums(p, vocab, n_sentences=5)

    def test_missing_field(self, tmp_path, vocab):
        rec = make_record()
        del rec["stories"]
        p = write_albums(tmp_path, [rec])
        with pytest.raises(D.DataFormatError, match="stories"):
            D.load_albums(p, vocab)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_feature_rejected(self, tmp_path, vocab, value):
        bad = make_record()
        bad["features"][2][1] = value
        p = write_albums(tmp_path, [make_record(), bad])
        with pytest.raises(D.DataFormatError,
                           match="line 2: non-finite feature value"):
            D.load_albums(p, vocab)

    def test_gold_boundaries_validated(self, tmp_path, vocab):
        p = write_albums(tmp_path, [make_record(gold_boundaries=[0, 1, 2])])
        with pytest.raises(D.DataFormatError, match="0/1"):
            D.load_albums(p, vocab)

    def test_blank_lines_skipped(self, tmp_path, vocab):
        p = tmp_path / "albums.jsonl"
        p.write_text(json.dumps(make_record()) + "\n\n")
        assert len(D.load_albums(p, vocab)) == 1


ROW = [1.0, 2.0, 3.0, 4.0]


class TestFeatureRows:
    """One album checker: the loader and the estimator give the same
    answer for the same features."""

    @pytest.mark.parametrize("rows, message", [
        ([ROW] * 6, None),
        ([], "features must be a non-empty list"),
        ({"a": ROW}, "features must be a non-empty list"),
        ([ROW, 5], "feature row is not a list of numbers"),
        ([ROW, [ROW]], "feature row is not a list of numbers"),
        ([ROW, [1.0, "x", 3.0, 4.0]], "non-numeric feature value"),
        ([ROW, [1.0, 2.0]], "feature-dim mismatch: expected 4, got 2"),
        ([ROW, [1.0, float("nan"), 3.0, 4.0]], "non-finite feature value"),
        ([ROW, [1.0, float("inf"), 3.0, 4.0]], "non-finite feature value"),
    ], ids=["valid", "empty", "object", "number-row", "nested-row",
            "string-value", "short-row", "nan", "inf"])
    def test_loader_and_estimator_agree(self, tmp_path, vocab, rows, message):
        from storyforge.estimator import check_albums
        p = write_albums(tmp_path, [make_record(), make_record(),
                                    {**make_record(), "features": rows}])
        if message is None:
            (album,) = check_albums([rows], 4, 4)
            loaded = D.load_albums(p, vocab, max_photos=4, feature_dim=4)[2]
            for feats in (album.features, loaded.features):
                assert all(f.dtype == np.float64 for f in feats)
                np.testing.assert_array_equal(feats, [ROW] * 4)
            return
        with pytest.raises(D.DataFormatError, match=f"^line 3: {message}$"):
            D.load_albums(p, vocab, feature_dim=4)
        with pytest.raises(D.DataFormatError, match=f"^{message}$"):
            check_albums([rows], 4, 40)

    @pytest.mark.parametrize("rows", [np.ones((6, 4)), [np.ones(4)] * 6])
    def test_array_inputs(self, rows):
        feats = D.feature_rows(rows, 4, max_photos=4)
        np.testing.assert_array_equal(feats, np.ones((4, 4)))

    def test_rows_past_max_photos_are_not_read(self):
        assert len(D.feature_rows([ROW, ROW, "junk"], 4, max_photos=2)) == 2

    def test_first_row_decides_without_feature_dim(self, tmp_path, vocab):
        p = write_albums(tmp_path, [make_record(f_dim=3), make_record(f_dim=4)])
        with pytest.raises(D.DataFormatError,
                           match="line 2: feature-dim mismatch: expected 3, got 4"):
            D.load_albums(p, vocab)


class TestSynth:
    def test_deterministic(self):
        spec = D.SynthSpec(albums=4, seed=123)
        a1 = D.synth_dataset(spec)
        a2 = D.synth_dataset(spec)
        for x, y in zip(a1, a2):
            assert x.raw_stories == y.raw_stories
            assert x.gold_boundaries == y.gold_boundaries
            for fx, fy in zip(x.features, y.features):
                assert (fx == fy).all()

    def test_zero_noise_scene_photos_identical(self):
        spec = D.SynthSpec(albums=3, noise_scale=0.0, seed=1)
        for a in D.synth_dataset(spec):
            start = 0
            cuts = [i for i, b in enumerate(a.gold_boundaries) if b] + [a.num_photos]
            for end in cuts:
                seg = a.features[start:end]
                for f in seg[1:]:
                    assert (f == seg[0]).all()
                start = end

    def test_single_scene_albums_have_zero_boundaries(self):
        spec = D.SynthSpec(albums=3, scenes_per_album=(1, 1), seed=2)
        for a in D.synth_dataset(spec):
            assert all(b == 0 for b in a.gold_boundaries)

    def test_first_photo_never_marked(self):
        for a in D.synth_dataset(D.SynthSpec(albums=10, seed=3)):
            assert a.gold_boundaries[0] == 0

    def test_boundary_count_matches_scene_count(self):
        spec = D.SynthSpec(albums=10, scenes_per_album=(2, 3), seed=4,
                           noise_scale=0.0)
        for a in D.synth_dataset(spec):
            n_scenes = 1 + sum(a.gold_boundaries)
            distinct = {tuple(f) for f in a.features}
            assert len(distinct) == n_scenes
            assert 2 <= n_scenes <= 3

    def test_cluster_levels_ascend_across_scenes(self):
        # scene cluster ids are drawn distinct and sorted, so the center norm
        # pattern (one-hot index) must strictly increase across segments
        spec = D.SynthSpec(albums=10, noise_scale=0.0, seed=5)
        centers = D.cluster_centers(spec)
        lookup = {tuple(c): i for i, c in enumerate(centers)}
        for a in D.synth_dataset(spec):
            ids = [lookup[tuple(a.features[0])]]
            for i, b in enumerate(a.gold_boundaries):
                if b:
                    ids.append(lookup[tuple(a.features[i])])
            assert ids == sorted(set(ids))

    def test_vocab_fits_budget(self):
        spec = D.SynthSpec(vocab_size=30)
        v = D.synth_vocab(spec)
        assert len(v) <= 30
        assert spec.num_clusters == 9

    def test_story_tokens_in_vocab(self):
        spec = D.SynthSpec(albums=5, seed=6)
        v = D.synth_vocab(spec)
        for a in D.synth_dataset(spec, v):
            for sent in a.stories[0]:
                assert D.UNK not in sent

    def test_sentences_follow_template(self):
        (a,) = D.synth_dataset(D.SynthSpec(albums=1, seed=7))
        for j, s in enumerate(a.raw_stories[0]):
            toks = s.split()
            assert toks[0] == "the" and toks[2] == "shows"
            assert toks[4] == f"step{j}"

    def test_too_small_vocab_rejected(self):
        with pytest.raises(ValueError, match="clusters"):
            D.SynthSpec(vocab_size=12, scenes_per_album=(2, 4))

    def test_file_round_trip(self, tmp_path):
        spec = D.SynthSpec(albums=4, seed=8)
        v = D.synth_vocab(spec)
        albums = D.synth_dataset(spec, v)
        p = tmp_path / "synth.jsonl"
        D.save_albums(p, albums)
        loaded = D.load_albums(p, v)
        assert len(loaded) == len(albums)
        for x, y in zip(albums, loaded):
            assert x.album_id == y.album_id
            assert x.stories == y.stories
            assert x.gold_boundaries == y.gold_boundaries
            for fx, fy in zip(x.features, y.features):
                assert (fx == fy).all()
