"""Two-stage training loop with CIDEr-validated early stopping.

Stage 1 trains the photo encoder, scene encoder, attention, and sentence
decoder on word NLL plus the order margin (reconstruction weight treated
as zero, reconstructor untouched). Stage 2 freezes everything upstream of
the sentence decoder and adds the reconstruction term.

A "step" is one optimizer update over a batch of (album, story) examples:
one graph, one forward and one backward pass. `model.batch_z` pads,
encodes and summarizes the batch's albums into their attended vectors Z,
and all of its sentences are scored as the rows of one padded batch; the
losses are sums over the batch (`model.stories_objective`). Stage 2
encodes each training album once, on the stage's clock: its frozen layers
give every album's Z in one no_grad `model.batch_z` per `model.chunks`
run, and each step gathers its batch's columns of Z as a constant, so a
stage-2 step builds only decoder and reconstructor graphs. Albums with
several reference stories contribute one example per reference.
Order-loss derangements are drawn per example, in batch order, and
redrawn each epoch. Validation decodes every album with
`model.generate_stories`, a chunk of albums per search, and scores corpus
CIDEr. A stage diverges on any overflow or invalid value in it, or on a
non-finite loss or Adam update: it stops, keeps its best weights so far
and reports `best_cider` None if no validation succeeded.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .data import Count, Size, Weight, decode_ids, story_tokens
from .losses import derangement
from .metrics import EvalPair, cider
from .model import (ConfigError, ModelConfig, batch_z, build_parameters,
                    check_field_types, chunks, generate_stories, stories_objective)

STAGE1_FROZEN = ("reconstructor",)
STAGE2_FROZEN = ("photo_encoder", "scene_encoder", "attention")


@dataclass
class TrainConfig:
    model: ModelConfig
    stage: str = "all"          # "1", "2", or "all"
    lr: Weight = 0.0004
    lam: Weight = 0.2
    mu: Weight = 0.8
    batch_size: Size = 1
    max_steps: Count = 1000     # per stage
    validate_every: Size = 100
    patience: Size = 30         # consecutive non-improving validations
    seed: Count = 0
    nll_stop: float = 0.0       # stop a stage early below this per-word NLL

    def __post_init__(self):
        check_field_types(self)
        if self.stage not in ("1", "2", "all"):
            raise ConfigError(f"stage must be 1, 2, or all, got {self.stage!r}")
        if not math.isfinite(self.nll_stop):
            raise ConfigError("nll_stop must be finite")


def config_from(cls, values, **given):
    """A `cls` config (ModelConfig or TrainConfig) whose fields outside
    `given` are read by name from the mapping `values`."""
    rest = {f.name: values[f.name] for f in fields(cls) if f.name not in given}
    return cls(**given, **rest)


@dataclass
class TrainResult:
    params: T.ParamStore         # best-validation weights (last good on divergence)
    final_params: T.ParamStore   # weights at the last completed step
    log: list
    best_cider: float | None     # None until a validation succeeds
    steps: int
    stop_reason: str = "max_steps"

    @property
    def diverged(self) -> bool:
        return self.stop_reason == "diverged"


def decoded_pairs(params, cfg: ModelConfig, albums, vocab, mode: str = "greedy",
                  beam_width: int = 3):
    """Decode every album with `generate_stories` in `mode` and pair its
    tokens with all its reference stories."""
    hyps = generate_stories(albums, params, cfg, mode, beam_width)
    return [EvalPair([tok for ids in hyp.sentences for tok in decode_ids(ids, vocab)],
                     [story_tokens(story) for story in album.raw_stories])
            for album, hyp in zip(albums, hyps)]


def validate(params, cfg: ModelConfig, albums, vocab, mode: str = "greedy",
             beam_width: int = 3):
    """Decode every album as `decoded_pairs` does and score corpus CIDEr
    against all refs."""
    return cider(decoded_pairs(params, cfg, albums, vocab, mode, beam_width))


# every float fault in a stage is divergence: an overflow or an invalid value
# anywhere in it, forward, backward, the stage-2 cache or a validation, raises
# FloatingPointError or EvaluationError, and the stage stops on it as "diverged"
@T.float_faults()
def _run_stage(stage_no: int, params, train_set, val_set, tcfg: TrainConfig,
               vocab, start_step: int = 0) -> TrainResult:
    cfg = tcfg.model
    mu = 0.0 if stage_no == 1 else tcfg.mu
    params.unfreeze_all()
    params.freeze(*(STAGE1_FROZEN if stage_no == 1 else STAGE2_FROZEN))
    opt = T.Adam(params, lr=tcfg.lr)
    rng = np.random.default_rng([tcfg.seed, stage_no])
    examples = [(ai, si) for ai, album in enumerate(train_set)
                for si in range(len(album.stories))]
    if not (examples and val_set):
        raise ValueError("training and validation sets must hold albums")
    n_sent = cfg.sentences
    wrong = next(((album, len(story)) for album in train_set for story in album.stories
                  if len(story) != n_sent), None)
    if wrong:
        raise ValueError(f"album '{wrong[0].album_id}': story has {wrong[1]} sentences, "
                         f"expected {n_sent}")

    best, best_cider = params.copy(), None
    bad_validations = 0
    log, step, stop_reason = [], start_step, "max_steps"
    t0 = time.perf_counter()

    def keep_best(entry) -> bool:
        """Score the current weights into `entry`; keep them if they improve."""
        nonlocal best, best_cider
        score = entry["val_cider"] = validate(params, cfg, val_set, vocab)
        if best_cider is None or score > best_cider:
            best_cider, best = score, params.copy()
            return True
        return False

    def batches():
        while True:
            order = rng.permutation(len(examples))
            for lo in range(0, len(order), tcfg.batch_size):
                yield [examples[i] for i in order[lo:lo + tcfg.batch_size]]

    try:
        # stage 2 learns nothing below Z: each training album's Z is computed
        # once, on the stage's clock, and each step gathers its albums
        album_z = None
        if stage_no == 2 and tcfg.max_steps > 0:
            with T.no_grad():
                album_z = np.concatenate([batch_z(chunk, n_sent, params, cfg)[0].data
                                          for chunk in chunks(train_set)], axis=1)
        for batch in itertools.islice(batches(), tcfg.max_steps):
            params.zero_grads()
            # one derangement per example, drawn in batch order
            ders = [derangement(n_sent, rng) for _ in batch] if n_sent >= 2 else None
            stories = [train_set[ai].stories[si] for ai, si in batch]
            Z = (batch_z([train_set[ai] for ai, _ in batch], len(stories[0]), params, cfg)[0]
                 if album_z is None else T.wrap(album_z[:, [ai for ai, _ in batch]]))
            loss, rep = stories_objective(Z, stories, params, deranges=ders,
                                          lam=tcfg.lam, mu=mu)
            if not np.isfinite(rep.total):   # NaN weights compute without a fault
                raise T.EvaluationError("non-finite loss")
            loss.backward()
            opt.step()
            step += 1
            entry = {"step": step, "stage": stage_no, **asdict(rep),
                     "per_word_nll": rep.nll / max(1, rep.word_count)}
            if step % tcfg.validate_every == 0:
                bad_validations = 0 if keep_best(entry) else bad_validations + 1
            entry["wall_time"] = round(time.perf_counter() - t0, 6)
            log.append(entry)
            if bad_validations >= tcfg.patience:
                stop_reason = "patience"
                break
            if tcfg.nll_stop > 0 and entry["per_word_nll"] < tcfg.nll_stop:
                stop_reason = "nll_stop"
                break
        if not (log and "val_cider" in log[-1]):
            # close with a final validation so `best` reflects the end state
            keep_best(log[-1] if log else {})
    except (FloatingPointError, T.EvaluationError):
        stop_reason = "diverged"
    return TrainResult(best, params.copy(), log, best_cider, step, stop_reason)


def run_stage1(train_set, val_set, tcfg: TrainConfig, vocab,
               params=None) -> TrainResult:
    if params is None:
        params = build_parameters(tcfg.model, np.random.default_rng(tcfg.seed))
    return _run_stage(1, params, train_set, val_set, tcfg, vocab)


def run_stage2(params, train_set, val_set, tcfg: TrainConfig, vocab,
               start_step: int = 0) -> TrainResult:
    return _run_stage(2, params, train_set, val_set, tcfg, vocab,
                      start_step=start_step)


def run_training(train_set, val_set, tcfg: TrainConfig, vocab, init_params=None):
    """Run the configured stage(s); returns (stage1 result, stage2 result),
    either possibly None. init_params seeds stage 1 (warm start) or, for
    stage "2" alone, supplies the stage-1 checkpoint."""
    r1 = r2 = None
    if tcfg.stage in ("1", "all"):
        r1 = run_stage1(train_set, val_set, tcfg, vocab, params=init_params)
        if r1.diverged and tcfg.stage == "all":
            return r1, None
    if tcfg.stage in ("2", "all"):
        if r1 is not None:
            # stage 2 continues from the stage-1 checkpoint, i.e. its best weights
            base, start = r1.params.copy(), r1.steps
        elif init_params is not None:
            base, start = init_params, 0
        else:
            raise ConfigError("stage 2 needs stage-1 parameters")
        r2 = run_stage2(base, train_set, val_set, tcfg, vocab, start_step=start)
    return r1, r2


def write_log(path, entries, header: dict | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(json.dumps({"log_header": header}, sort_keys=True) + "\n")
        for e in entries:
            fh.write(json.dumps(e, sort_keys=True) + "\n")


def canonical_log(path) -> list:
    """Log lines with the header and per-entry wall times removed; two runs
    of the same config+seed must agree on this view byte for byte."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if "log_header" in rec:
                continue
            rec.pop("wall_time", None)
            out.append(json.dumps(rec, sort_keys=True))
    return out
