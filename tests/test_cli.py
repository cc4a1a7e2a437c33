"""End-to-end checks for the command-line interface."""

import argparse
import json
from pathlib import Path

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


def _generate_with_smaller_vocab(root, tmp_path):
    vocab = Vocabulary.load(root / "d" / "vocab.txt")
    small = tmp_path / "vocab.txt"
    Vocabulary(vocab.id_to_token[4:-3], min_count=vocab.min_count).save(small)
    return ["generate", "--out-dir", str(tmp_path),
            "--data", str(root / "d" / "albums.jsonl"),
            "--checkpoint", str(root / "t" / "stage2.ckpt.json"),
            "--vocab-file", str(small)]


def _albums_with_features(root, tmp_path, edit):
    """The synthetic album file with the first record's features edited."""
    lines = (root / "d" / "albums.jsonl").read_text().splitlines()
    rec = json.loads(lines[0])
    rec["features"] = edit(rec["features"])
    data = tmp_path / "albums.jsonl"
    data.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
    return data


def _evaluate_data_with(edit):
    def make_argv(root, tmp_path):
        stories = tmp_path / "s.jsonl"
        stories.write_text(json.dumps({"album_id": "x", "sentences": ["hi"]}) + "\n")
        return ["evaluate", "--out-dir", str(tmp_path), "--stories", str(stories),
                "--data", str(_albums_with_features(root, tmp_path, edit)),
                "--vocab-file", str(root / "d" / "vocab.txt")]
    return make_argv


def _evaluate_sentences_not_a_list(root, tmp_path):
    first = json.loads((root / "d" / "albums.jsonl").read_text().splitlines()[0])
    stories = tmp_path / "s.jsonl"
    stories.write_text(json.dumps({"album_id": first["album_id"], "sentences": 5}) + "\n")
    return ["evaluate", "--out-dir", str(tmp_path), "--stories", str(stories),
            "--data", str(root / "d" / "albums.jsonl"),
            "--vocab-file", str(root / "d" / "vocab.txt")]


def _generate_with_other_feature_dim(root, tmp_path):
    data = _albums_with_features(root, tmp_path, lambda rows: [r[:4] for r in rows])
    return ["generate", "--out-dir", str(tmp_path), "--data", str(data),
            "--checkpoint", str(root / "t" / "stage2.ckpt.json"),
            "--vocab-file", str(root / "d" / "vocab.txt")]


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
    ], ids=["evaluate-without-album-id", "build-vocab-broken-json",
            "generate-smaller-vocab", "evaluate-number-feature-row",
            "evaluate-string-feature-value", "evaluate-sentences-not-a-list",
            "generate-other-feature-dim"])
    def test_one_line_and_exit_1(self, workdir, tmp_path, capsys,
                                 make_argv, message):
        assert main(make_argv(workdir, tmp_path)) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and message in err


class TestParser:
    FLAGS = {
        "synth-data": ["--n-albums", "--scenes-lo", "--scenes-hi",
                       "--photos-lo", "--photos-hi", "--separation", "--noise",
                       "--vocab-size", "--seed", "--feature-dim", "--sentences"],
        "build-vocab": ["--train-data", "--min-count"],
        "train": ["--train-data", "--val-data", "--vocab-file", "--checkpoint",
                  "--feature-dim", "--photo-hidden", "--attn-hidden",
                  "--attn-score-dim", "--dec-hidden", "--emb-dim",
                  "--mlp-hidden", "--alpha-len", "--max-words", "--sentences",
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
