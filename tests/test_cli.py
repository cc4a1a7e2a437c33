"""End-to-end checks for the command-line interface."""

import argparse
import base64
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from storyforge import cli
from storyforge.cli import main
from storyforge.data import Vocabulary, load_albums


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)


DIMS = ["--feature-dim", "6", "--photo-hidden", "3", "--attn-hidden", "4",
        "--attn-score-dim", "4", "--dec-hidden", "6", "--emb-dim", "5",
        "--mlp-hidden", "6", "--max-photos", "4"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synthetic corpus plus a briefly trained checkpoint."""
    root = tmp_path_factory.mktemp("cliwork")
    assert main(["synth-data", "--out-dir", str(root / "d"), "--n-albums", "3",
                 "--scenes-lo", "2", "--scenes-hi", "2", "--photos-lo", "2",
                 "--photos-hi", "2", "--feature-dim", "6", "--vocab-size", "25",
                 "--seed", "0"]) == 0
    assert main(["train", "--out-dir", str(root / "t"),
                 "--train-data", str(root / "d" / "albums.jsonl"),
                 "--vocab-file", str(root / "d" / "vocab.txt"), *DIMS,
                 "--stage", "all", "--max-steps", "4", "--validate-every", "4",
                 "--batch-size", "3", "--lr", "0.01", "--seed", "1"]) == 0
    return root


def data_args(root):
    return ["--data", str(root / "d" / "albums.jsonl"),
            "--checkpoint", str(root / "t" / "stage2.ckpt.json"),
            "--vocab-file", str(root / "d" / "vocab.txt")]


class TestConfigResolution:
    def test_defaults_then_file_then_flag(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n_albums=2\nseed=5\n# comment\n\n")
        out = tmp_path / "o"
        assert main(["synth-data", "--config", str(cfgfile), "--out-dir",
                     str(out), "--seed", "9"]) == 0
        resolved = dict(line.split("=", 1) for line in
                        (out / "resolved_config.txt").read_text().splitlines())
        assert resolved["n_albums"] == "2"      # from file
        assert resolved["seed"] == "9"          # flag wins
        assert resolved["noise"] == "0.05"      # default survives

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("no_such_option=1\n")
        assert main(["synth-data", "--config", str(cfgfile),
                     "--out-dir", str(tmp_path)]) == 1
        assert "unknown key 'no_such_option'" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("just some words\n")
        assert main(["synth-data", "--config", str(cfgfile),
                     "--out-dir", str(tmp_path)]) == 1

    def test_bad_value_type(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("seed=not_a_number\n")
        assert main(["synth-data", "--config", str(cfgfile),
                     "--out-dir", str(tmp_path)]) == 1

    def test_env_var_names_config(self, tmp_path, monkeypatch):
        cfgfile = tmp_path / "env.cfg"
        cfgfile.write_text("n_albums=2\nfeature_dim=6\nvocab_size=25\n")
        monkeypatch.setenv(cli.CONFIG_ENV, str(cfgfile))
        out = tmp_path / "o"
        assert main(["synth-data", "--out-dir", str(out)]) == 0
        vocab = Vocabulary.load(out / "vocab.txt")
        albums = load_albums(out / "albums.jsonl", vocab)
        assert len(albums) == 2
        assert albums[0].features[0].shape == (6,)

    def test_missing_required_key(self, tmp_path, capsys):
        assert main(["train", "--out-dir", str(tmp_path)]) == 1
        assert "train-data" in capsys.readouterr().err

    def test_usage_error_is_exit_1(self):
        assert main(["no-such-command"]) == 1
        assert main([]) == 1


class TestSynthAndVocab:
    def test_synth_data_round_trips(self, workdir):
        vocab = Vocabulary.load(workdir / "d" / "vocab.txt")
        albums = load_albums(workdir / "d" / "albums.jsonl", vocab)
        assert len(albums) == 3
        assert all(len(a.stories) >= 1 for a in albums)

    def test_build_vocab(self, workdir, tmp_path):
        out = tmp_path / "v"
        assert main(["build-vocab", "--train-data",
                     str(workdir / "d" / "albums.jsonl"),
                     "--out-dir", str(out), "--min-count", "1"]) == 0
        vocab = Vocabulary.load(out / "vocab.txt")
        assert len(vocab) > 4   # beyond the reserved specials

    @pytest.mark.parametrize("stories", [[["", ""]], [[]]], ids=["empty-sentences", "no-sentences"])
    def test_build_vocab_on_stories_without_tokens_exits_1(self, tmp_path, capsys,
                                                           stories):
        data = tmp_path / "albums.jsonl"
        data.write_text(json.dumps({"album_id": "a", "stories": stories}) + "\n")
        assert main(["build-vocab", "--out-dir", str(tmp_path / "v"),
                     "--train-data", str(data)]) == 1
        assert capsys.readouterr().err == f"error: --train-data {data}: empty corpus\n"


class TestTrain:
    def test_artifacts_exist(self, workdir):
        t = workdir / "t"
        assert (t / "stage1.ckpt.json").exists()
        assert (t / "stage2.ckpt.json").exists()
        assert (t / "resolved_config.txt").exists()
        lines = (t / "train_log.jsonl").read_text().splitlines()
        assert "log_header" in lines[0]
        assert all(json.loads(line) for line in lines)

    def test_checkpoint_meta_records_config(self, workdir):
        import storyforge.tensor as T
        _, meta = T.load_checkpoint(workdir / "t" / "stage2.ckpt.json")
        assert meta["stage"] == "2"
        assert meta["config"]["photo_hidden"] == 3

    def test_zero_steps_writes_untrained_checkpoint(self, workdir, tmp_path):
        out = tmp_path / "z"
        assert main(["train", "--out-dir", str(out),
                     "--train-data", str(workdir / "d" / "albums.jsonl"),
                     "--vocab-file", str(workdir / "d" / "vocab.txt"), *DIMS,
                     "--stage", "1", "--max-steps", "0"]) == 0
        assert (out / "stage1.ckpt.json").exists()

    def test_stage2_alone_needs_checkpoint(self, workdir, tmp_path, capsys):
        assert main(["train", "--out-dir", str(tmp_path),
                     "--train-data", str(workdir / "d" / "albums.jsonl"),
                     "--vocab-file", str(workdir / "d" / "vocab.txt"), *DIMS,
                     "--stage", "2", "--max-steps", "2"]) == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_stage2_alone_from_checkpoint(self, workdir, tmp_path):
        out = tmp_path / "s2"
        assert main(["train", "--out-dir", str(out),
                     "--train-data", str(workdir / "d" / "albums.jsonl"),
                     "--vocab-file", str(workdir / "d" / "vocab.txt"),
                     "--checkpoint", str(workdir / "t" / "stage1.ckpt.json"),
                     *DIMS, "--stage", "2", "--max-steps", "2",
                     "--validate-every", "2", "--batch-size", "3"]) == 0
        assert (out / "stage2.ckpt.json").exists()
        assert not (out / "stage1.ckpt.json").exists()

    def test_divergence_before_any_validation_writes_strict_json(self, workdir, tmp_path,
                                                                  capsys):
        # the first validation overflows, so no best CIDEr exists: null, not -Infinity
        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        assert main(_train_argv(workdir, tmp_path, "--lr", "1e200",
                                "--validate-every", "1")) == 2
        assert "stop=diverged best_cider=none" in capsys.readouterr().out
        text = (tmp_path / "run" / "stage1.ckpt.json").read_text()
        assert json.loads(text, parse_constant=reject)["meta"]["best_cider"] is None


class TestGenerate:
    def test_story_records(self, workdir, tmp_path):
        out = tmp_path / "g"
        assert main(["generate", "--out-dir", str(out),
                     *data_args(workdir)]) == 0
        records = [json.loads(line) for line in
                   (out / "stories.jsonl").read_text().splitlines()]
        assert len(records) == 3
        for rec in records:
            assert set(rec) == {"album_id", "sentences", "flags", "alpha"}
            assert all(isinstance(s, str) for s in rec["sentences"])
            assert all(flag in (0, 1) for flag in rec["flags"])
            # one attention vector per sentence, weights on a simplex
            assert len(rec["alpha"]) == len(rec["sentences"])
            for weights in rec["alpha"]:
                assert abs(sum(weights) - 1.0) < 1e-4

    def test_missing_checkpoint(self, workdir, tmp_path):
        assert main(["generate", "--out-dir", str(tmp_path),
                     "--data", str(workdir / "d" / "albums.jsonl"),
                     "--checkpoint", str(tmp_path / "nope.json"),
                     "--vocab-file", str(workdir / "d" / "vocab.txt")]) == 1

    def test_beam_mode_runs(self, workdir, tmp_path):
        out = tmp_path / "gb"
        assert main(["generate", "--out-dir", str(out), *data_args(workdir),
                     "--mode", "beam", "--beam-width", "2"]) == 0

    def test_greedy_ignores_beam_width(self, workdir, tmp_path):
        for name, width in (("g", []), ("g0", ["--beam-width", "0"])):
            assert main(["generate", "--out-dir", str(tmp_path / name),
                         *data_args(workdir), "--mode", "greedy", *width]) == 0
        assert (tmp_path / "g0" / "stories.jsonl").read_bytes() == \
            (tmp_path / "g" / "stories.jsonl").read_bytes()

    def test_version_1_checkpoint_gives_the_same_stories(self, workdir, tmp_path):
        # the trained checkpoint rewritten as a version 1 container
        v1 = _bad_checkpoint(workdir, tmp_path, _edit_first_values(lambda values: None))
        assert json.loads(v1.read_text())["version"] == 1
        for name, ckpt in (("v2", []), ("v1", ["--checkpoint", str(v1)])):
            assert main(["generate", "--out-dir", str(tmp_path / name),
                         *data_args(workdir), *ckpt]) == 0
        assert (tmp_path / "v1" / "stories.jsonl").read_bytes() == \
            (tmp_path / "v2" / "stories.jsonl").read_bytes()


class TestInspectScenes:
    def test_line_format(self, workdir, tmp_path, capsys):
        out = tmp_path / "i"
        assert main(["inspect-scenes", "--out-dir", str(out),
                     *data_args(workdir)]) == 0
        stdout = capsys.readouterr().out
        assert (out / "scenes.txt").read_text().strip() == stdout.strip()
        photo_lines = [l for l in stdout.splitlines() if " photo=" in l]
        vocab = Vocabulary.load(workdir / "d" / "vocab.txt")
        albums = load_albums(workdir / "d" / "albums.jsonl", vocab)
        assert len(photo_lines) == sum(a.num_photos for a in albums)
        for line in photo_lines:
            fields = dict(kv.split("=") for kv in line.split()[1:])
            assert 0.0 <= float(fields["soft"]) <= 1.0
            assert fields["flag"] in ("0", "1")
            assert int(fields["scene"]) >= 0


class TestEvaluate:
    def test_identity_scores(self, workdir, tmp_path, capsys):
        vocab = Vocabulary.load(workdir / "d" / "vocab.txt")
        albums = load_albums(workdir / "d" / "albums.jsonl", vocab)
        stories = tmp_path / "stories.jsonl"
        with open(stories, "w") as fh:
            for a in albums:
                fh.write(json.dumps({"album_id": a.album_id,
                                     "sentences": a.raw_stories[0]}) + "\n")
        out = tmp_path / "e"
        assert main(["evaluate", "--out-dir", str(out), "--stories",
                     str(stories), "--data", str(workdir / "d" / "albums.jsonl"),
                     "--vocab-file", str(workdir / "d" / "vocab.txt")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [l.split()[0] for l in lines] == [
            "bleu-1", "bleu-2", "bleu-3", "bleu-4", "rouge-l", "cider"]
        scores = {l.split()[0]: float(l.split()[1]) for l in lines}
        assert all(l.split()[2] == "3" for l in lines)
        for name in ("bleu-1", "bleu-2", "bleu-3", "bleu-4", "rouge-l"):
            assert scores[name] == pytest.approx(1.0)
        assert scores["cider"] == pytest.approx(10.0)
        assert (out / "metrics.txt").read_text().strip() == "\n".join(lines)

    def test_four_decimal_places(self, workdir, tmp_path, capsys):
        stories = tmp_path / "s.jsonl"
        vocab = Vocabulary.load(workdir / "d" / "vocab.txt")
        albums = load_albums(workdir / "d" / "albums.jsonl", vocab)
        with open(stories, "w") as fh:
            fh.write(json.dumps({"album_id": albums[0].album_id,
                                 "sentences": ["the show"]}) + "\n")
        assert main(["evaluate", "--out-dir", str(tmp_path), "--stories",
                     str(stories), "--data", str(workdir / "d" / "albums.jsonl"),
                     "--vocab-file", str(workdir / "d" / "vocab.txt")]) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            value = line.split()[1]
            assert len(value.split(".")[1]) == 4

    def test_unknown_album_rejected(self, workdir, tmp_path):
        stories = tmp_path / "s.jsonl"
        stories.write_text(json.dumps(
            {"album_id": "ghost", "sentences": ["hi"]}) + "\n")
        assert main(["evaluate", "--out-dir", str(tmp_path), "--stories",
                     str(stories), "--data", str(workdir / "d" / "albums.jsonl"),
                     "--vocab-file", str(workdir / "d" / "vocab.txt")]) == 1


def _evaluate_without_album_id(root, tmp_path):
    stories = tmp_path / "s.jsonl"
    stories.write_text(json.dumps({"sentences": ["hi"]}) + "\n")
    return ["evaluate", "--out-dir", str(tmp_path), "--stories", str(stories),
            "--data", str(root / "d" / "albums.jsonl"),
            "--vocab-file", str(root / "d" / "vocab.txt")]


def _build_vocab_on_broken_json(root, tmp_path):
    data = tmp_path / "albums.jsonl"
    first = (root / "d" / "albums.jsonl").read_text().splitlines()[0]
    data.write_text(first + "\n{broken\n")
    return ["build-vocab", "--out-dir", str(tmp_path), "--train-data", str(data)]


def _build_vocab_with_stories(*stories):
    """build-vocab on one record whose `stories` field is `stories`, or that
    has no such field when none is given."""
    def make_argv(root, tmp_path):
        data = tmp_path / "albums.jsonl"
        data.write_text(json.dumps(dict(album_id="a", stories=stories[0])
                                   if stories else {"album_id": "a"}) + "\n")
        return ["build-vocab", "--out-dir", str(tmp_path), "--train-data", str(data)]
    return make_argv


def _evaluate_with_duplicate_album_id(root, tmp_path):
    """Reference data whose second record takes the first's album_id, scored
    on the first record's own reference."""
    rows = [json.loads(line) for line in
            (root / "d" / "albums.jsonl").read_text().splitlines()]
    rows[1]["album_id"] = rows[0]["album_id"]
    data = tmp_path / "dup.jsonl"
    data.write_text("".join(json.dumps(rec) + "\n" for rec in rows))
    stories = tmp_path / "s.jsonl"
    stories.write_text(json.dumps({"album_id": rows[0]["album_id"],
                                   "sentences": rows[0]["stories"][0]}) + "\n")
    return ["evaluate", "--out-dir", str(tmp_path), "--stories", str(stories),
            "--data", str(data), "--vocab-file", str(root / "d" / "vocab.txt")]


def _evaluate_with_album_id(album_id):
    """evaluate on one stories record whose `album_id` is `album_id`."""
    def make_argv(root, tmp_path):
        stories = tmp_path / "s.jsonl"
        stories.write_text(json.dumps({"album_id": album_id, "sentences": ["hi"]}) + "\n")
        return ["evaluate", "--out-dir", str(tmp_path), "--stories", str(stories),
                "--data", str(root / "d" / "albums.jsonl"),
                "--vocab-file", str(root / "d" / "vocab.txt")]
    return make_argv


def _evaluate_with_duplicate_story(root, tmp_path):
    """A stories file that lists one album twice, its first record a
    perfect story."""
    rec = json.loads((root / "d" / "albums.jsonl").read_text().splitlines()[0])
    stories = tmp_path / "s.jsonl"
    stories.write_text(2 * (json.dumps({"album_id": rec["album_id"],
                                        "sentences": rec["stories"][0]}) + "\n"))
    return ["evaluate", "--out-dir", str(tmp_path), "--stories", str(stories),
            "--data", str(root / "d" / "albums.jsonl"),
            "--vocab-file", str(root / "d" / "vocab.txt")]


def _build_vocab_with_min_count(count):
    def make_argv(root, tmp_path):
        return ["build-vocab", "--out-dir", str(tmp_path), "--min-count", count,
                "--train-data", str(root / "d" / "albums.jsonl")]
    return make_argv


def _generate_with_smaller_vocab(root, tmp_path):
    vocab = Vocabulary.load(root / "d" / "vocab.txt")
    small = tmp_path / "vocab.txt"
    Vocabulary(vocab.id_to_token[4:-3], min_count=vocab.min_count).save(small)
    return ["generate", "--out-dir", str(tmp_path),
            "--data", str(root / "d" / "albums.jsonl"),
            "--checkpoint", str(root / "t" / "stage2.ckpt.json"),
            "--vocab-file", str(small)]


def _edited_albums(root, tmp_path, edit, field="features"):
    """The synthetic album file with the first record's `field` edited."""
    lines = (root / "d" / "albums.jsonl").read_text().splitlines()
    rec = json.loads(lines[0])
    rec[field] = edit(rec[field])
    data = tmp_path / "albums.jsonl"
    data.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
    return data


def _evaluate_data_with(edit):
    def make_argv(root, tmp_path):
        stories = tmp_path / "s.jsonl"
        stories.write_text(json.dumps({"album_id": "x", "sentences": ["hi"]}) + "\n")
        return ["evaluate", "--out-dir", str(tmp_path), "--stories", str(stories),
                "--data", str(_edited_albums(root, tmp_path, edit)),
                "--vocab-file", str(root / "d" / "vocab.txt")]
    return make_argv


def _evaluate_data_with_album_id(album_id):
    """evaluate on the synthetic albums with the first record's `album_id`
    replaced, scoring a story of the second album."""
    def make_argv(root, tmp_path):
        data = _edited_albums(root, tmp_path, lambda _: album_id, field="album_id")
        second = json.loads(data.read_text().splitlines()[1])["album_id"]
        stories = tmp_path / "s.jsonl"
        stories.write_text(json.dumps({"album_id": second, "sentences": ["hi"]}) + "\n")
        return ["evaluate", "--out-dir", str(tmp_path), "--stories", str(stories),
                "--data", str(data), "--vocab-file", str(root / "d" / "vocab.txt")]
    return make_argv


def _evaluate_with(*extra):
    """evaluate of the first album's own reference story, with `extra` flags."""
    def make_argv(root, tmp_path):
        rec = json.loads((root / "d" / "albums.jsonl").read_text().splitlines()[0])
        stories = tmp_path / "s.jsonl"
        stories.write_text(json.dumps({"album_id": rec["album_id"],
                                       "sentences": rec["stories"][0]}) + "\n")
        return ["evaluate", "--out-dir", str(tmp_path), "--stories", str(stories),
                "--data", str(root / "d" / "albums.jsonl"),
                "--vocab-file", str(root / "d" / "vocab.txt"), *extra]
    return make_argv


def _evaluate_sentences_not_a_list(root, tmp_path):
    first = json.loads((root / "d" / "albums.jsonl").read_text().splitlines()[0])
    stories = tmp_path / "s.jsonl"
    stories.write_text(json.dumps({"album_id": first["album_id"], "sentences": 5}) + "\n")
    return ["evaluate", "--out-dir", str(tmp_path), "--stories", str(stories),
            "--data", str(root / "d" / "albums.jsonl"),
            "--vocab-file", str(root / "d" / "vocab.txt")]


def _generate_with_other_feature_dim(root, tmp_path):
    data = _edited_albums(root, tmp_path, lambda rows: [r[:4] for r in rows])
    return ["generate", "--out-dir", str(tmp_path), "--data", str(data),
            "--checkpoint", str(root / "t" / "stage2.ckpt.json"),
            "--vocab-file", str(root / "d" / "vocab.txt")]


def _train_argv(root, tmp_path, *extra, data=None):
    return ["train", "--out-dir", str(tmp_path / "run"),
            "--train-data", str(data or root / "d" / "albums.jsonl"),
            "--vocab-file", str(root / "d" / "vocab.txt"), *DIMS,
            "--max-steps", "2", *extra]


def _empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    return path


def _train_on_empty_data(root, tmp_path):
    return _train_argv(root, tmp_path, data=_empty_file(tmp_path))


def _train_with_empty_val_data(root, tmp_path):
    return _train_argv(root, tmp_path, "--val-data", str(_empty_file(tmp_path)))


def _train_with(*extra):
    def make_argv(root, tmp_path):
        return _train_argv(root, tmp_path, *extra)
    return make_argv


def _bad_checkpoint(root, tmp_path, edit):
    """The trained stage-2 checkpoint after `edit` (JSON object -> text)."""
    obj = json.loads((root / "t" / "stage2.ckpt.json").read_text())
    path = tmp_path / "bad.ckpt.json"
    path.write_text(edit(obj))
    return path


def _as_version_1(edit=lambda records: None, version=1):
    """The container as version 1 (float lists, the layout written before
    version 2) with `edit` applied to its records and `version` stored."""
    def apply(obj):
        for rec in obj["params"].values():
            rec["values"] = np.frombuffer(base64.b64decode(rec["values"]), "<f8").tolist()
        edit(obj["params"])
        return json.dumps({**obj, "version": version})
    return apply


def _edit_first_values(edit):
    """Edit the first parameter's values as a version 1 container."""
    return _as_version_1(lambda records: edit(records[sorted(records)[0]]["values"]))


def _set_detector_bias(values):
    """A version 1 container whose one-value 0-d record holds `values`."""
    return _as_version_1(lambda records: records["scene.detect.b"].__setitem__(
        "values", values))


def _edit_first_record(edit):
    """Edit the first parameter's record (base64 payload of "<f8" bytes)."""
    def apply(obj):
        edit(obj["params"][sorted(obj["params"])[0]])
        return json.dumps(obj)
    return apply


def _edit_first_payload(edit):
    """Edit the bytes of the first parameter's payload."""
    def apply(rec):
        rec["values"] = base64.b64encode(edit(base64.b64decode(rec["values"]))).decode()
    return _edit_first_record(apply)


def _scale_weights(obj):
    """Every weight times 1e160: finite, so the loader takes them, but the
    model's arithmetic overflows."""
    for rec in obj["params"].values():
        values = np.frombuffer(base64.b64decode(rec["values"]), "<f8") * 1e160
        rec["values"] = base64.b64encode(values.astype("<f8").tobytes()).decode()
    return json.dumps(obj)


def _edit_saved_config(key, value):
    def apply(obj):
        obj["meta"]["config"][key] = value
        return json.dumps(obj)
    return apply


CHECKPOINT_EDITS = {
    "version-only": lambda obj: json.dumps({"version": 1}),
    "config-dim-string": _edit_saved_config("photo_hidden", "16"),
    "config-dim-float": _edit_saved_config("photo_hidden", 16.5),
    "config-dim-null": _edit_saved_config("photo_hidden", None),
    "unknown-frozen-group": lambda obj: json.dumps({**obj, "frozen": ["nope"]}),
    "values-one-short": _edit_first_values(list.pop),
    "null-value": _edit_first_values(lambda values: values.__setitem__(0, None)),
    "value-beyond-float": _edit_first_values(lambda values: values.__setitem__(0, 10 ** 400)),
    "payload-8-bytes-short": _edit_first_payload(lambda raw: raw[:-8]),
    "payload-not-base64": _edit_first_record(
        lambda rec: rec.__setitem__("values", "*" + rec["values"])),
    "payload-nan": _edit_first_payload(lambda raw: struct.pack("<d", math.nan) + raw[8:]),
    "shape-minus-one": _edit_first_record(lambda rec: rec.__setitem__("shape", [-1])),
    "not-json": lambda obj: "not json at all\n",
    "config-not-an-object": lambda obj: json.dumps({**obj, "meta": {**obj["meta"],
                                                                    "config": 3}}),
    "version-true": _as_version_1(version=True),
    "version-float": _as_version_1(version=1.0),
    "values-string": _set_detector_bias("1.5"),
    "values-nested": _set_detector_bias([[1.5]]),
}


def _generate_with_checkpoint(name):
    def make_argv(root, tmp_path):
        path = _bad_checkpoint(root, tmp_path, CHECKPOINT_EDITS[name])
        return ["generate", "--out-dir", str(tmp_path),
                "--data", str(root / "d" / "albums.jsonl"), "--checkpoint", str(path),
                "--vocab-file", str(root / "d" / "vocab.txt")]
    return make_argv


def _stage2_with_checkpoint(name):
    def make_argv(root, tmp_path):
        path = _bad_checkpoint(root, tmp_path, CHECKPOINT_EDITS[name])
        return _train_argv(root, tmp_path, "--stage", "2", "--checkpoint", str(path))
    return make_argv


def _stage2_with_other_dims(root, tmp_path):
    return _train_argv(root, tmp_path, "--stage", "2", "--dec-hidden", "8",
                       "--checkpoint", str(root / "t" / "stage1.ckpt.json"))


def _generate_with(*extra):
    def make_argv(root, tmp_path):
        return ["generate", "--out-dir", str(tmp_path),
                "--data", str(root / "d" / "albums.jsonl"),
                "--checkpoint", str(root / "t" / "stage2.ckpt.json"),
                "--vocab-file", str(root / "d" / "vocab.txt"), *extra]
    return make_argv


def _command(*argv):
    def make_argv(root, tmp_path):
        return [argv[0], "--out-dir", str(tmp_path), *argv[1:]]
    return make_argv


def _with_directory(flag, make_argv):
    """`make_argv`'s command with `flag` naming a directory."""
    def with_directory(root, tmp_path):
        path = tmp_path / "adir"
        path.mkdir()
        return make_argv(root, tmp_path) + [flag, str(path)]
    return with_directory


def _with_albums(flag, edit, make_argv):
    """`make_argv`'s command with `flag` naming the synthetic albums, the
    first record's features edited by `edit`."""
    def with_albums(root, tmp_path):
        return make_argv(root, tmp_path) + [flag, str(_edited_albums(root, tmp_path, edit))]
    return with_albums


def _huge_first_feature(rows):
    """A JSON integer beyond the float range in place of the first value."""
    return [[10 ** 400] + rows[0][1:]] + rows[1:]


# a JSON integer of 4,301 digits, past Python's limit for reading one
LONG_INT = b"1" + b"0" * 4300


def _inspect_scenes(root, tmp_path):
    return ["inspect-scenes", "--out-dir", str(tmp_path), *data_args(root)]


def _synth_into_a_file(root, tmp_path):
    path = tmp_path / "afile"
    path.write_text("")
    return ["synth-data", "--out-dir", str(path)]


def _with_file(flag, name, content: bytes, make_argv):
    """`make_argv`'s command with `flag` naming a file `name` that holds
    `content`."""
    def with_file(root, tmp_path):
        path = tmp_path / name
        path.write_bytes(content)
        return make_argv(root, tmp_path) + [flag, str(path)]
    return with_file


SPECIALS_HEADER = "#vocab specials=<pad>,<bos>,<eos>,<unk>"


def _vocab_file(*tokens, header=SPECIALS_HEADER + " min_count=1"):
    return "\n".join([header, *tokens, ""]).encode()


class TestBadInputExitCodes:
    @pytest.mark.parametrize("make_argv, message", [
        (_evaluate_without_album_id, "line 1: missing field 'album_id'"),
        (_build_vocab_on_broken_json, "line 2: invalid record"),
        (_generate_with_smaller_vocab, "parameter 'dec.embed.table' has shape"),
        (_evaluate_data_with(lambda rows: rows[:1] + [5]),
         "line 1: feature row is not a list of numbers"),
        (_evaluate_data_with(lambda rows: [["x"] + rows[0][1:]] + rows[1:]),
         "line 1: non-numeric feature value"),
        (_evaluate_sentences_not_a_list, "line 1: sentences must be a list of strings"),
        (_generate_with_other_feature_dim,
         "line 1: feature-dim mismatch: expected 6, got 4"),
        (_train_on_empty_data, "empty.jsonl: holds no albums"),
        (_train_with_empty_val_data, "empty.jsonl: holds no albums"),
        (_generate_with_checkpoint("version-only"),
         "bad.ckpt.json: field 'params' is missing or malformed"),
        (_stage2_with_checkpoint("version-only"),
         "bad.ckpt.json: field 'params' is missing or malformed"),
        (_generate_with_checkpoint("unknown-frozen-group"),
         "bad.ckpt.json: field 'frozen' names unknown groups ['nope']"),
        (_generate_with_checkpoint("values-one-short"),
         "bad.ckpt.json: parameter 'attn.gru.b' needs a shape and that many finite"),
        (_generate_with_checkpoint("null-value"),
         "bad.ckpt.json: parameter 'attn.gru.b' needs a shape and that many finite"),
        (_generate_with_checkpoint("value-beyond-float"),
         "bad.ckpt.json: parameter 'attn.gru.b' needs a shape and that many finite"),
        (_generate_with_checkpoint("payload-8-bytes-short"),
         "bad.ckpt.json: parameter 'attn.gru.b' needs a shape and that many finite"),
        (_generate_with_checkpoint("payload-not-base64"),
         "bad.ckpt.json: parameter 'attn.gru.b' needs a shape and that many finite"),
        (_generate_with_checkpoint("payload-nan"),
         "bad.ckpt.json: parameter 'attn.gru.b' needs a shape and that many finite"),
        (_generate_with_checkpoint("shape-minus-one"),
         "bad.ckpt.json: parameter 'attn.gru.b' needs a shape and that many finite"),
        (_generate_with_checkpoint("not-json"), "bad.ckpt.json: not a JSON checkpoint"),
        (_generate_with_checkpoint("version-true"),
         "bad.ckpt.json: field 'version' must be 1 or 2"),
        (_generate_with_checkpoint("version-float"),
         "bad.ckpt.json: field 'version' must be 1 or 2"),
        (_generate_with_checkpoint("values-string"),
         "bad.ckpt.json: parameter 'scene.detect.b' needs a shape and that many finite"),
        (_generate_with_checkpoint("values-nested"),
         "bad.ckpt.json: parameter 'scene.detect.b' needs a shape and that many finite"),
        (_stage2_with_other_dims, "parameter 'dec.gru.b' has shape (18,), "
                                  "vocabulary and config need (24,)"),
        (_train_with("--patience", "0"), "patience must be >= 1"),
        (_train_with("--lambda", "-1"), "lam must be >= 0 and finite"),
        (_train_with("--sentences", "0"), "sentences must be >= 1"),
        (_evaluate_with("--max-photos", "-3"), "max_photos must be >= 1"),
        (_evaluate_with("--max-photos", "0"), "max_photos must be >= 1"),
        (_evaluate_with("--max-words", "0"), "max_words must be >= 1"),
        (_evaluate_with("--sentences", "-1"), "sentences must be >= 1"),
        (_generate_with("--mode", "sample"), "unknown decode mode 'sample'"),
        (_generate_with("--mode", "beam", "--beam-width", "0"),
         "beam width must be >= 1"),
        (_command("grad-check", "--lambda", "-1"), "lam must be >= 0 and finite"),
        (_command("grad-check", "--gc-seeds", "0"), "gc_seeds must be >= 1"),
        (_command("grad-check", "--tolerance", "-1"), "tolerance must be finite and > 0"),
        (_command("grad-check", "--tolerance", "0"), "tolerance must be finite and > 0"),
        (_command("grad-check", "--tolerance", "nan"), "tolerance must be finite and > 0"),
        (_command("grad-check", "--tolerance", "inf"), "tolerance must be finite and > 0"),
        (_command("synth-data", "--sentences", "0"), "sentences must be >= 1"),
        (_command("synth-data", "--feature-dim", "0"), "feature_dim must be >= 1"),
        (_command("synth-data", "--feature-dim", "1"), "cluster centers collide"),
        (_command("synth-data", "--scenes-lo", "3", "--scenes-hi", "2"),
         "scenes_per_album range (3, 2) needs 1 <= lo <= hi"),
        (_command("synth-data", "--photos-lo", "3", "--photos-hi", "2"),
         "photos_per_scene range (3, 2) needs 1 <= lo <= hi"),
        (_command("synth-data", "--photos-lo", "0"),
         "photos_per_scene range (0, 4) needs 1 <= lo <= hi"),
        (_command("synth-data", "--scenes-lo", "0"),
         "scenes_per_album range (0, 3) needs 1 <= lo <= hi"),
        (_command("synth-data", "--noise", "-1"), "noise_scale must be >= 0 and finite"),
        (_command("synth-data", "--separation", "nan"),
         "cluster_separation must be finite and > 0"),
        (_build_vocab_with_stories(5), "line 1: stories must be a non-empty list"),
        (_build_vocab_with_stories([[5, "x"]]),
         "line 1: each story must be a list of sentence strings"),
        (_build_vocab_with_stories(["hello world"]),
         "line 1: each story must be a list of sentence strings"),
        (_build_vocab_with_stories(), "line 1: missing field 'stories'"),
        (_train_with("--seed", "-1"), "seed must be >= 0"),
        (_command("synth-data", "--seed", "-1"), "seed must be >= 0"),
        (_command("grad-check", "--seed", "-1"), "seed must be >= 0"),
        (_command("grad-check", "--lambda", "nan"), "lam must be >= 0 and finite"),
        (_train_with("--lr", "nan"), "lr must be >= 0 and finite"),
        (_train_with("--lr", "-1"), "lr must be >= 0 and finite"),
        (_train_with("--lambda", "nan"), "lam must be >= 0 and finite"),
        (_train_with("--mu", "inf"), "mu must be >= 0 and finite"),
        (_train_with("--nll-stop", "nan"), "nll_stop must be finite"),
        (_train_with("--max-steps", "-1"), "max_steps must be >= 0"),
        (_command("synth-data", "--noise", "nan"), "noise_scale must be >= 0 and finite"),
        (_command("grad-check", "--mu", "inf"), "mu must be >= 0 and finite"),
        (_with_directory("--train-data", _train_with()), "adir: Is a directory"),
        (_with_directory("--vocab-file", _train_with()), "adir: Is a directory"),
        (_with_directory("--checkpoint", _generate_with()), "adir: Is a directory"),
        (_with_directory("--stories", _evaluate_without_album_id),
         "adir: Is a directory"),
        (_with_directory("--config", _command("synth-data")), "adir: Is a directory"),
        (_synth_into_a_file, "afile: File exists"),
        (_with_file("--train-data", "bad.jsonl", b'\xff{"album_id": "a"}\n',
                    _train_with()), "bad.jsonl: not UTF-8 text (invalid start byte)"),
        (_with_file("--vocab-file", "bad.txt", _vocab_file("a") + b"caf\xe9\n",
                    _train_with()), "bad.txt: not UTF-8 text"),
        (_with_file("--config", "bad.cfg", b"seed=\xff\n", _command("synth-data")),
         "bad.cfg: not UTF-8 text"),
        (_with_file("--vocab-file", "twice.txt", _vocab_file("a", "b", "a"),
                    _train_with()), "twice.txt: duplicate token 'a' in vocabulary"),
        (_with_file("--vocab-file", "unk.txt", _vocab_file("a", "<unk>"), _train_with()),
         "unk.txt: duplicate token '<unk>' in vocabulary"),
        (_with_file("--val-data", "val.jsonl", b'{"album_id": "a"}\n', _train_with()),
         "val.jsonl: line 1: missing field 'features'"),
        (_with_file("--stories", "stories.jsonl",
                    b'{"album_id": "nope", "sentences": ["hi"]}\n',
                    _evaluate_without_album_id),
         "stories.jsonl: line 1: album 'nope' not in reference data"),
        (_generate_with_checkpoint("config-dim-string"),
         "bad.ckpt.json: photo_hidden must be an integer, got '16'"),
        (_generate_with_checkpoint("config-dim-float"),
         "bad.ckpt.json: photo_hidden must be an integer, got 16.5"),
        (_generate_with_checkpoint("config-dim-null"),
         "bad.ckpt.json: photo_hidden must be an integer, got None"),
        (_build_vocab_with_min_count("-1"), "min_count must be >= 0"),
        (_evaluate_with_duplicate_album_id, "dup.jsonl: duplicate album_id 'synth0000'"),
        (_evaluate_with_duplicate_story, "s.jsonl: line 2: duplicate album_id 'synth0000'"),
        (_command("synth-data", "--noise", "1e308"),
         "noise_scale 1e+308 with cluster_separation 4.0 overflows the photo features"),
        *[(_evaluate_with_album_id(album_id), "s.jsonl: line 1: album_id must be a string")
          for album_id in (["synth0000"], {"id": "synth0000"}, 0, True, None)],
        *[(_evaluate_data_with_album_id(album_id),
           "albums.jsonl: line 1: album_id must be a string or an integer")
          for album_id in (None, True, 7.5, [1, 2], {"x": 1})],
        *[(make_argv, "albums.jsonl: line 1: non-finite feature value") for make_argv in (
            _with_albums("--train-data", _huge_first_feature, _train_with()),
            _with_albums("--data", _huge_first_feature, _generate_with()),
            _with_albums("--data", _huge_first_feature, _inspect_scenes),
            _evaluate_data_with(_huge_first_feature))],
        *[(_with_file(flag, "long.jsonl", b'{"album_id": ' + LONG_INT + rest, make_argv),
           "long.jsonl: line 1: invalid record: Exceeds the limit (4300 digits)")
          for flag, rest, make_argv in (
              ("--train-data", b', "stories": [["a"]]}\n', _command("build-vocab")),
              ("--train-data", b', "features": [[0]], "stories": [["a"]]}\n',
               _train_with()),
              ("--stories", b', "sentences": ["hi"]}\n', _evaluate_without_album_id))],
        (_with_file("--vocab-file", "long.txt",
                    _vocab_file("a", header=SPECIALS_HEADER + " min_count=" + LONG_INT.decode()),
                    _train_with()), "long.txt: Exceeds the limit (4300 digits)"),
        (_with_file("--train-data", "list.jsonl", b"[1, 2]\n", _command("build-vocab")),
         "list.jsonl: line 1: record is not an object"),
        (_with_file("--vocab-file", "nomin.txt", _vocab_file("a", header=SPECIALS_HEADER),
                    _train_with()), "nomin.txt: header lacks min_count"),
        (_with_file("--stories", "blank.jsonl", b"\n \n", _evaluate_without_album_id),
         "blank.jsonl: holds no records"),
        (_generate_with_checkpoint("config-not-an-object"),
         "bad.ckpt.json: meta field 'config' is malformed"),
    ], ids=["evaluate-without-album-id", "build-vocab-broken-json",
            "generate-smaller-vocab", "evaluate-number-feature-row",
            "evaluate-string-feature-value", "evaluate-sentences-not-a-list",
            "generate-other-feature-dim", "train-empty-data", "train-empty-val-data",
            "generate-checkpoint-version-only", "stage2-checkpoint-version-only",
            "generate-checkpoint-unknown-frozen-group",
            "generate-checkpoint-values-one-short", "generate-checkpoint-null-value",
            "generate-checkpoint-value-beyond-float",
            "generate-checkpoint-payload-8-bytes-short",
            "generate-checkpoint-payload-not-base64", "generate-checkpoint-payload-nan",
            "generate-checkpoint-shape-minus-one", "generate-checkpoint-not-json",
            "generate-checkpoint-version-true", "generate-checkpoint-version-float",
            "generate-checkpoint-values-string", "generate-checkpoint-values-nested",
            "stage2-other-dims", "train-patience-0", "train-lambda-negative",
            "train-sentences-0", "evaluate-max-photos-negative",
            "evaluate-max-photos-0", "evaluate-max-words-0", "evaluate-sentences-negative",
            "generate-mode-sample", "generate-beam-width-0",
            "grad-check-lambda-negative", "grad-check-gc-seeds-0",
            "grad-check-tolerance-negative", "grad-check-tolerance-0",
            "grad-check-tolerance-nan", "grad-check-tolerance-inf",
            "synth-data-sentences-0",
            "synth-data-feature-dim-0", "synth-data-feature-dim-1",
            "synth-data-scenes-lo-above-hi",
            "synth-data-photos-lo-above-hi", "synth-data-photos-lo-0",
            "synth-data-scenes-lo-0", "synth-data-noise-negative",
            "synth-data-separation-nan", "build-vocab-stories-number",
            "build-vocab-sentence-number", "build-vocab-story-string",
            "build-vocab-without-stories", "train-seed-negative",
            "synth-data-seed-negative", "grad-check-seed-negative",
            "grad-check-lambda-nan", "train-lr-nan",
            "train-lr-negative", "train-lambda-nan", "train-mu-inf",
            "train-nll-stop-nan", "train-max-steps-negative", "synth-data-noise-nan",
            "grad-check-mu-inf", "train-data-directory", "train-vocab-directory",
            "generate-checkpoint-directory", "evaluate-stories-directory",
            "config-directory", "synth-data-out-dir-a-file", "train-data-not-utf8",
            "train-vocab-not-utf8", "config-not-utf8", "train-vocab-token-twice",
            "train-vocab-lists-unk", "train-bad-val-data", "evaluate-bad-stories",
            "generate-config-dim-string", "generate-config-dim-float",
            "generate-config-dim-null", "build-vocab-min-count-negative",
            "evaluate-duplicate-album-id", "evaluate-duplicate-story",
            "synth-data-noise-overflow", "evaluate-album-id-list",
            "evaluate-album-id-object", "evaluate-album-id-number",
            "evaluate-album-id-bool", "evaluate-album-id-null",
            "evaluate-data-album-id-null", "evaluate-data-album-id-bool",
            "evaluate-data-album-id-float", "evaluate-data-album-id-list",
            "evaluate-data-album-id-object", "train-feature-beyond-float",
            "generate-feature-beyond-float", "inspect-scenes-feature-beyond-float",
            "evaluate-feature-beyond-float", "build-vocab-album-id-past-digit-limit",
            "train-album-id-past-digit-limit", "evaluate-story-album-id-past-digit-limit",
            "train-vocab-min-count-past-digit-limit", "build-vocab-record-a-list",
            "train-vocab-header-without-min-count", "evaluate-blank-stories",
            "generate-checkpoint-config-not-an-object"])
    def test_one_line_and_exit_1(self, workdir, tmp_path, capsys,
                                 make_argv, message):
        assert main(make_argv(workdir, tmp_path)) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        # the message starts a field of the line, right after "error: ", ": "
        # or a path's "/", so it cannot be the tail of a wider message
        assert err.startswith("error: ")
        assert re.search(r"(?:^error: |: |/)" + re.escape(message), err), err


    @pytest.mark.parametrize("make_argv", [
        _evaluate_data_with(lambda rows: rows[:1] + [5]),
        _evaluate_with("--max-photos", "0")], ids=["malformed-data", "max-photos-0"])
    def test_evaluate_on_bad_input_writes_nothing(self, workdir, tmp_path, capsys,
                                                   make_argv):
        # evaluate loads before it writes, as generate and inspect-scenes do
        out = tmp_path / "out"
        assert main(make_argv(workdir, tmp_path) + ["--out-dir", str(out)]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()


class TestRuntimeFailureExitCodes:
    @pytest.mark.parametrize("command", ["generate", "inspect-scenes"])
    def test_overflowing_model_exits_2_and_writes_nothing(self, workdir, tmp_path, capsys,
                                                           command):
        path = _bad_checkpoint(workdir, tmp_path, _scale_weights)
        assert main([command, "--out-dir", str(tmp_path),
                     "--data", str(workdir / "d" / "albums.jsonl"), "--checkpoint", str(path),
                     "--vocab-file", str(workdir / "d" / "vocab.txt")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("runtime error: overflow encountered")
        assert not any((tmp_path / name).exists() for name in ("stories.jsonl", "scenes.txt"))

    def test_overflowing_grad_check_exits_2(self, tmp_path, capsys):
        assert main(["grad-check", "--out-dir", str(tmp_path), "--lambda", "1e308",
                     "--gc-seeds", "1"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("runtime error: overflow encountered")


class TestParser:
    FLAGS = {
        "synth-data": ["--n-albums", "--scenes-lo", "--scenes-hi",
                       "--photos-lo", "--photos-hi", "--separation", "--noise",
                       "--vocab-size", "--seed", "--feature-dim", "--sentences"],
        "build-vocab": ["--train-data", "--min-count"],
        "train": ["--train-data", "--val-data", "--vocab-file", "--checkpoint",
                  "--feature-dim", "--photo-hidden", "--attn-hidden",
                  "--attn-score-dim", "--dec-hidden", "--emb-dim",
                  "--mlp-hidden", "--max-words", "--sentences",
                  "--max-photos", "--stage", "--lr", "--lambda", "--mu",
                  "--batch-size", "--max-steps", "--validate-every",
                  "--patience", "--seed", "--nll-stop"],
        "generate": ["--data", "--checkpoint", "--vocab-file", "--stories",
                     "--mode", "--beam-width"],
        "inspect-scenes": ["--data", "--checkpoint", "--vocab-file"],
        "evaluate": ["--stories", "--data", "--vocab-file", "--max-photos",
                     "--sentences", "--max-words"],
        "grad-check": ["--gc-seeds", "--tolerance", "--lambda", "--mu", "--seed"],
        "sweep": ["--sweep-grid", "--sweep-steps", "--lr", "--batch-size",
                  "--patience", "--n-albums", "--scenes-lo", "--scenes-hi",
                  "--photos-lo", "--photos-hi", "--separation", "--noise",
                  "--vocab-size", "--seed", "--feature-dim", "--photo-hidden",
                  "--attn-hidden", "--attn-score-dim", "--dec-hidden",
                  "--emb-dim", "--mlp-hidden"],
    }

    def test_subcommand_flags_unchanged(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == list(self.FLAGS)
        for name, flags in self.FLAGS.items():
            got = [a.option_strings[0] for a in sub.choices[name]._actions
                   if a.option_strings and a.option_strings[0] != "-h"]
            assert got == ["--config", "--out-dir"] + flags, name


class TestGradCheckCommand:
    def test_pass_and_exit_zero(self, tmp_path, capsys):
        assert main(["grad-check", "--out-dir", str(tmp_path),
                     "--gc-seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("max_rel_err") == 2    # one line per seed
        assert "worst=" in out and "PASS" in out

    def test_impossible_tolerance_fails(self, tmp_path, capsys):
        assert main(["grad-check", "--out-dir", str(tmp_path),
                     "--gc-seeds", "1", "--tolerance", "1e-12"]) == 2
        assert "FAIL" in capsys.readouterr().out


class TestSweep:
    SMALL = ["--sweep-steps", "2", "--n-albums", "2", "--scenes-lo", "2",
             "--scenes-hi", "2", "--photos-lo", "2", "--photos-hi", "2",
             "--feature-dim", "6", "--vocab-size", "25", "--photo-hidden", "3",
             "--attn-hidden", "4", "--attn-score-dim", "4", "--dec-hidden", "6",
             "--emb-dim", "5", "--mlp-hidden", "6", "--batch-size", "2"]

    def test_lambda_grid_order(self, tmp_path, capsys):
        assert main(["sweep", "--out-dir", str(tmp_path),
                     "--sweep-grid", "lambda", *self.SMALL]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        lams = [float(l.split()[1].split("=")[1]) for l in lines]
        assert lams == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        assert all(l.split()[2] == "mu=0.0" for l in lines)
        # log file mirrors stdout, in completion order
        assert (tmp_path / "sweep.txt").read_text().strip() == "\n".join(lines)

    def test_mu_grid_order(self, tmp_path, capsys):
        assert main(["sweep", "--out-dir", str(tmp_path),
                     "--sweep-grid", "mu", *self.SMALL]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        mus = [float(l.split()[2].split("=")[1]) for l in lines]
        assert mus == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        assert all(l.split()[1] == "lambda=0.2" for l in lines)

    def test_metric_fields_per_cell(self, tmp_path, capsys):
        assert main(["sweep", "--out-dir", str(tmp_path),
                     "--sweep-grid", "lambda", *self.SMALL]) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            keys = [kv.split("=")[0] for kv in line.split()[1:]]
            assert keys == ["lambda", "mu", "bleu-1", "bleu-4",
                            "rouge-l", "cider"]

    def test_bad_grid_name(self, tmp_path):
        assert main(["sweep", "--out-dir", str(tmp_path),
                     "--sweep-grid", "gamma", *self.SMALL]) == 1
        assert not (tmp_path / "sweep.txt").exists()
        assert list(tmp_path.iterdir()) == []

    def test_negative_steps_name_the_flag_and_write_nothing(self, tmp_path, capsys):
        assert main(["sweep", "--out-dir", str(tmp_path), "--sweep-grid", "lambda",
                     *self.SMALL, "--sweep-steps", "-1"]) == 1   # the last one counts
        assert capsys.readouterr().err == "error: sweep_steps must be >= 0\n"
        assert not (tmp_path / "sweep.txt").exists()
        assert list(tmp_path.iterdir()) == []

    def test_bad_training_value_writes_nothing(self, tmp_path, capsys):
        # checked by each cell's TrainConfig, which is built before writing
        assert main(["sweep", "--out-dir", str(tmp_path), "--sweep-grid", "lambda",
                     *self.SMALL, "--lr", "-1"]) == 1
        assert "lr" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
