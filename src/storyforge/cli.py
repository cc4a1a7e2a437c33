"""Command-line entry point.

Subcommands: synth-data, build-vocab, train, generate, inspect-scenes,
evaluate, grad-check, sweep. Configuration resolves in three layers:
built-in defaults, then a key=value config file (--config flag or the
STORYFORGE_CONFIG environment variable), then explicit command flags.
Unknown config keys are rejected. Every run writes its resolved
configuration into the output directory.

Exit codes: 0 success, 1 usage, configuration or data error, 2 runtime
failure, among them the EvaluationError the model raises on an overflow
or invalid value.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import (DataFormatError, SynthSpec, Vocabulary, at_record, build_vocab,
                   check_album_id, check_number, check_stories, load_albums, read_records,
                   save_albums, story_text, story_tokens, synth_dataset, synth_vocab,
                   utf8_text)
from .metrics import EvalPair, bleu, cider, rouge_l
from .model import (ConfigError, ModelConfig, build_parameters,
                    full_pipeline_grad_check, generate_stories, scene_views)
from .trainer import (TrainConfig, config_from, decoded_pairs, run_training,
                      write_log)

CONFIG_ENV = "STORYFORGE_CONFIG"

# model dims and training keys are the config dataclasses' fields
MODEL_FIELDS = [f for f in dataclasses.fields(ModelConfig) if f.name != "vocab_size"]
TRAIN_FIELDS = [f for f in dataclasses.fields(TrainConfig) if f.name != "model"]
MODEL_KEYS = [f.name for f in MODEL_FIELDS]
TRAIN_KEYS = [f.name for f in TRAIN_FIELDS]

# key: (default, type). Paths default to None (required where used).
DEFAULTS = {
    # paths
    "train_data": (None, str),
    "val_data": (None, str),
    "vocab_file": (None, str),
    "checkpoint": (None, str),
    "stories": (None, str),
    "data": (None, str),
    "out_dir": (".", str),
    # model dims, then training
    **{f.name: (f.default, type(f.default)) for f in MODEL_FIELDS + TRAIN_FIELDS},
    "min_count": (5, int),
    # synthetic data: SynthSpec's defaults
    "n_albums": (SynthSpec.albums, int),
    "scenes_lo": (SynthSpec.scenes_per_album[0], int),
    "scenes_hi": (SynthSpec.scenes_per_album[1], int),
    "photos_lo": (SynthSpec.photos_per_scene[0], int),
    "photos_hi": (SynthSpec.photos_per_scene[1], int),
    "separation": (SynthSpec.cluster_separation, float),
    "noise": (SynthSpec.noise_scale, float),
    "vocab_size": (SynthSpec.vocab_size, int),
    # decoding
    "mode": ("greedy", str),
    "beam_width": (3, int),
    # grad-check / sweep
    "gc_seeds": (20, int),
    "tolerance": (1e-4, float),
    "sweep_grid": ("both", str),
    "sweep_steps": (20, int),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract reserves 2 for
    # runtime failures, so route usage errors through ConfigError instead
    def error(self, message):
        raise ConfigError(message)


def parse_config_file(path) -> dict:
    raw = {}
    with utf8_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{line_no}: expected key=value")
            key, value = text.split("=", 1)
            key = key.strip()
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{line_no}: unknown key '{key}'")
            raw[key] = value.strip()
    return raw


def resolve_config(args) -> dict:
    cfg = {k: v for k, (v, _) in DEFAULTS.items()}
    path = args.config or os.environ.get(CONFIG_ENV)
    if path:
        for key, text in parse_config_file(path).items():
            _, typ = DEFAULTS[key]
            try:
                cfg[key] = typ(text)
            except ValueError as e:
                raise ConfigError(f"config key '{key}': {e}") from e
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def write_resolved(cfg) -> Path:
    """Write the resolved configuration into the output directory, made if
    missing, and return that directory."""
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "resolved_config.txt", "w", encoding="utf-8") as fh:
        for key in sorted(cfg):
            if cfg[key] is not None:
                fh.write(f"{key}={cfg[key]}\n")
    return out


def _require(cfg, *keys):
    for key in keys:
        if cfg[key] is None:
            raise ConfigError(f"missing required key '{key.replace('_', '-')}'")


def _synth_spec(cfg) -> SynthSpec:
    return SynthSpec(albums=cfg["n_albums"],
                     scenes_per_album=(cfg["scenes_lo"], cfg["scenes_hi"]),
                     photos_per_scene=(cfg["photos_lo"], cfg["photos_hi"]),
                     feature_dim=cfg["feature_dim"],
                     cluster_separation=cfg["separation"],
                     noise_scale=cfg["noise"], vocab_size=cfg["vocab_size"],
                     sentences=cfg["sentences"], seed=cfg["seed"])


def _load_model(cfg, run_config: ModelConfig | None = None):
    """Checkpoint + vocab + the model config the weights must fit: the run's
    own `run_config` when given, else the config recorded at training time."""
    _require(cfg, "checkpoint", "vocab_file")
    try:
        params, meta = T.load_checkpoint(cfg["checkpoint"])
    except ValueError as e:
        raise ConfigError(str(e)) from None
    vocab = Vocabulary.load(cfg["vocab_file"])
    mcfg = run_config
    if mcfg is None:
        saved = meta.get("config", {})
        if not isinstance(saved, dict):
            raise ConfigError(f"{cfg['checkpoint']}: meta field 'config' is malformed")
        merged = dict(cfg)
        merged.update({k: saved[k] for k in MODEL_KEYS if k in saved})
        try:
            mcfg = config_from(ModelConfig, merged, vocab_size=len(vocab))
        except ConfigError as e:
            raise ConfigError(f"{cfg['checkpoint']}: {e}") from None
    expected = build_parameters(mcfg, np.random.default_rng(0))
    for name in sorted(set(params.names()) | set(expected.names())):
        got = params[name].shape if name in params else None
        need = expected[name].shape if name in expected else None
        if got != need:
            raise ConfigError(f"{cfg['checkpoint']}: parameter '{name}' has shape "
                              f"{got}, vocabulary and config need {need}")
    return params, vocab, mcfg


def _model_albums(path, vocab, mcfg: ModelConfig):
    """Albums with the model's photo cap, word cap and feature dim."""
    return load_albums(path, vocab, max_photos=mcfg.max_photos,
                       max_words=mcfg.max_words, feature_dim=mcfg.feature_dim)


def _scores(pairs) -> dict:
    b = bleu(pairs)
    return {**{f"bleu-{n}": b[n] for n in (1, 2, 3, 4)},
            "rouge-l": rouge_l(pairs), "cider": cider(pairs)}


def cmd_synth_data(cfg) -> int:
    out = write_resolved(cfg)
    spec = _synth_spec(cfg)
    vocab = synth_vocab(spec)
    albums = synth_dataset(spec, vocab)
    save_albums(out / "albums.jsonl", albums)
    vocab.save(out / "vocab.txt")
    print(f"wrote {len(albums)} albums, vocab {len(vocab)} -> {out}")
    return 0


def cmd_build_vocab(cfg) -> int:
    _require(cfg, "train_data")
    out = write_resolved(cfg)
    sentences = []
    for where, rec in read_records(cfg["train_data"], "stories"):
        with at_record(where):
            sentences += [s for story in check_stories(rec["stories"]) for s in story]
    with at_record(f"--train-data {cfg['train_data']}"):
        vocab = build_vocab(sentences, min_count=cfg["min_count"])
    vocab.save(out / "vocab.txt")
    print(f"vocab {len(vocab)} tokens (min_count={cfg['min_count']}) -> {out}")
    return 0


def cmd_train(cfg) -> int:
    _require(cfg, "train_data", "vocab_file")
    out = write_resolved(cfg)
    vocab = Vocabulary.load(cfg["vocab_file"])
    mcfg = config_from(ModelConfig, cfg, vocab_size=len(vocab))
    train_set = _model_albums(cfg["train_data"], vocab, mcfg)
    val_set = (_model_albums(cfg["val_data"], vocab, mcfg) if cfg["val_data"]
               else train_set)
    tcfg = config_from(TrainConfig, cfg, model=mcfg)

    # the checkpoint meta echoes the run config so generate/inspect can
    # rebuild the model; output location is irrelevant to that and would
    # break byte-level reproducibility across directories
    snapshot = {k: v for k, v in sorted(cfg.items())
                if v is not None and k != "out_dir"}
    init = None
    if cfg["stage"] == "2":
        init, _, _ = _load_model(cfg, run_config=mcfg)
    r1, r2 = run_training(train_set, val_set, tcfg, vocab, init_params=init)

    entries = (r1.log if r1 else []) + (r2.log if r2 else [])
    write_log(out / "train_log.jsonl", entries,
              header={"command": "train", "config": snapshot})
    for stage_no, res in (("1", r1), ("2", r2)):
        if res is None:
            continue
        T.save_checkpoint(out / f"stage{stage_no}.ckpt.json", res.params,
                          meta={"stage": stage_no, "steps": res.steps,
                                "best_cider": res.best_cider,
                                "config": snapshot})
        best = "none" if res.best_cider is None else f"{res.best_cider:.4f}"
        print(f"stage {stage_no}: steps={res.steps} stop={res.stop_reason} best_cider={best}")
        if res.diverged:
            print("training diverged; kept last good checkpoint", file=sys.stderr)
            return 2
    return 0


def cmd_generate(cfg) -> int:
    _require(cfg, "data")
    params, vocab, mcfg = _load_model(cfg)
    out = write_resolved(cfg)
    albums = _model_albums(cfg["data"], vocab, mcfg)
    path = Path(cfg["stories"]) if cfg["stories"] else out / "stories.jsonl"
    hyps = generate_stories(albums, params, mcfg, mode=cfg["mode"],
                            beam_width=cfg["beam_width"])
    with open(path, "w", encoding="utf-8") as fh:
        for album, hyp in zip(albums, hyps):
            rec = {"album_id": album.album_id,
                   "sentences": story_text(hyp.sentences, vocab),
                   "flags": hyp.flags,
                   "alpha": [[round(float(w), 6) for w in a] for a in hyp.alphas]}
            fh.write(json.dumps(rec) + "\n")
    print(f"wrote {len(albums)} stories -> {path}")
    return 0


def cmd_inspect_scenes(cfg) -> int:
    _require(cfg, "data")
    params, vocab, mcfg = _load_model(cfg)
    out = write_resolved(cfg)
    albums = _model_albums(cfg["data"], vocab, mcfg)
    lines = []
    for album, view in zip(albums, scene_views(albums, params, mcfg)):
        for i in range(album.num_photos):
            lines.append(f"{album.album_id} photo={i} soft={view['softs'][i]:.4f} "
                         f"flag={view['flags'][i]} scene={view['scene_of_photo'][i]}")
        lines.append(f"{album.album_id} scenes={view['num_scenes']}")
    text = "\n".join(lines)
    (out / "scenes.txt").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def cmd_evaluate(cfg) -> int:
    _require(cfg, "stories", "data")
    refs = {}   # the reference data's stories by album id; features are not read
    for where, rec in read_records(cfg["data"], "album_id", "stories"):
        with at_record(where):
            album_id = check_album_id(rec["album_id"])
            if album_id in refs:
                raise DataFormatError(f"duplicate album_id '{album_id}'")
            refs[album_id] = [story_tokens(s) for s in check_stories(rec["stories"])]
    if not refs:
        raise DataFormatError(f"{cfg['data']}: holds no albums")
    pairs = {}   # by album_id: an album is scored once
    for where, rec in read_records(cfg["stories"], "album_id", "sentences"):
        with at_record(where):
            if not isinstance(rec["album_id"], str):
                raise DataFormatError("album_id must be a string")
            if rec["album_id"] not in refs:
                raise DataFormatError(f"album '{rec['album_id']}' not in reference data")
            if rec["album_id"] in pairs:
                raise DataFormatError(f"duplicate album_id '{rec['album_id']}'")
            if not (isinstance(rec["sentences"], list)
                    and all(isinstance(s, str) for s in rec["sentences"])):
                raise DataFormatError("sentences must be a list of strings")
        pairs[rec["album_id"]] = EvalPair(story_tokens(rec["sentences"]),
                                          refs[rec["album_id"]])
    if not pairs:
        raise DataFormatError(f"{cfg['stories']}: holds no records")
    out = write_resolved(cfg)
    lines = [f"{name} {value:.4f} {len(pairs)}"
             for name, value in _scores(list(pairs.values())).items()]
    (out / "metrics.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


def cmd_grad_check(cfg) -> int:
    for key, kind in (("lam", "Weight"), ("mu", "Weight"), ("gc_seeds", "Size"),
                      ("seed", "Count")):
        check_number(key, cfg[key], kind)
    if not (np.isfinite(cfg["tolerance"]) and cfg["tolerance"] > 0):
        raise ConfigError("tolerance must be finite and > 0")
    write_resolved(cfg)
    worst = 0.0
    for seed in range(cfg["gc_seeds"]):
        err = full_pipeline_grad_check(seed=cfg["seed"] + seed,
                                       lam=cfg["lam"], mu=cfg["mu"])
        worst = max(worst, err)
        print(f"seed {cfg['seed'] + seed} max_rel_err {err:.3e}")
    ok = worst < cfg["tolerance"]
    print(f"grad-check worst={worst:.3e} tolerance={cfg['tolerance']:.1e} "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def _sweep_cells(cfg):
    if cfg["sweep_grid"] not in ("lambda", "mu", "both"):
        raise ConfigError(f"unknown sweep_grid '{cfg['sweep_grid']}'")
    cells = []
    if cfg["sweep_grid"] in ("lambda", "both"):
        cells += [(round(0.1 * i, 1), 0.0, "1") for i in range(6)]
    if cfg["sweep_grid"] in ("mu", "both"):
        cells += [(0.2, round(0.2 * i, 1), "all") for i in range(6)]
    return cells


def cmd_sweep(cfg) -> int:
    cells = _sweep_cells(cfg)   # the grid and step count, before any work
    check_number("sweep_steps", cfg["sweep_steps"], "Count")
    spec = _synth_spec(cfg)
    vocab = synth_vocab(spec)
    albums = synth_dataset(spec, vocab)
    mcfg = config_from(ModelConfig, cfg, vocab_size=len(vocab))
    # a cell sets the stage, weights and schedule; nll_stop keeps its
    # default. Every cell's config is checked before anything is written
    runs = [(lam, mu, config_from(TrainConfig, cfg, model=mcfg, stage=stage, lam=lam,
                                  mu=mu, max_steps=cfg["sweep_steps"],
                                  validate_every=max(1, cfg["sweep_steps"]),
                                  nll_stop=TrainConfig.nll_stop))
            for lam, mu, stage in cells]
    out = write_resolved(cfg)
    with open(out / "sweep.txt", "w", encoding="utf-8") as fh:
        for lam, mu, tcfg in runs:
            r1, r2 = run_training(albums, albums, tcfg, vocab)
            res = r2 if r2 is not None else r1
            scores = _scores(decoded_pairs(res.params, mcfg, albums, vocab))
            line = f"cell lambda={lam:.1f} mu={mu:.1f} " + " ".join(
                f"{name}={scores[name]:.4f}"
                for name in ("bleu-1", "bleu-4", "rouge-l", "cider"))
            fh.write(line + "\n")
            fh.flush()
            print(line)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="storyforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, keys):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        p.add_argument("--config", default=None)
        p.add_argument("--out-dir", dest="out_dir", default=None)
        for key in keys:
            _, typ = DEFAULTS[key]
            flag = "--" + key.replace("_", "-")
            if key == "lam":
                flag = "--lambda"
            p.add_argument(flag, dest=key, type=typ, default=None)
        return p

    synth = ["n_albums", "scenes_lo", "scenes_hi", "photos_lo", "photos_hi",
             "separation", "noise", "vocab_size", "seed"]

    add("synth-data", cmd_synth_data, synth + ["feature_dim", "sentences"])
    add("build-vocab", cmd_build_vocab, ["train_data", "min_count"])
    add("train", cmd_train,
        ["train_data", "val_data", "vocab_file", "checkpoint"] + MODEL_KEYS
        + TRAIN_KEYS)
    add("generate", cmd_generate,
        ["data", "checkpoint", "vocab_file", "stories", "mode", "beam_width"])
    add("inspect-scenes", cmd_inspect_scenes, ["data", "checkpoint", "vocab_file"])
    add("evaluate", cmd_evaluate, ["stories", "data"])
    add("grad-check", cmd_grad_check, ["gc_seeds", "tolerance", "lam", "mu", "seed"])
    add("sweep", cmd_sweep,
        ["sweep_grid", "sweep_steps", "lr", "batch_size"]
        + synth + MODEL_KEYS[:7])  # feature_dim .. mlp_hidden
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        return args.func(cfg)
    except (ConfigError, DataFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError,
            PermissionError) as e:   # a path given to read or write
        print(f"error: {e.filename}: {e.strerror}", file=sys.stderr)
        return 1
    except (ValueError, T.EvaluationError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
