"""The benchmark's workloads: seeded inputs, timed operations and the checks
on what the program returns.

Every workload prepares its inputs on disk and loads them back through the
program's own readers (`setup`), then repeats one fixed unit of work
(`session`) until the run's time is up. Timings come from outside the
program: a clock around each public call, or the per-step wall times the
trainer writes to its log, which a check ties to the outside clock. Each
time is scaled to the reference speed that `speed.Speedometer` samples
next to it; the unscaled figures are kept in the details.

The seed draws the album contents and the weights. The album sizes are a
fixed profile, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import time
from pathlib import Path

import numpy as np

from storyforge import data as D
from storyforge import decoder as DEC
from storyforge import metrics as MET
from storyforge import model as M
from storyforge import tensor as T
from storyforge import trainer as TR

from speed import Speedometer

# Model dimensions of the acceptance `overfit` configuration.
DIMS = dict(feature_dim=8, photo_hidden=16, attn_hidden=32, attn_score_dim=32,
            dec_hidden=32, emb_dim=32, mlp_hidden=32)
SHORT_SHAPE = dict(scenes_per_album=(2, 3), photos_per_scene=(2, 4))
LONG_SHAPE = dict(scenes_per_album=(8, 10), photos_per_scene=(3, 4))
SHORT_SIZES = (7, 8, 9, 10, 11, 7, 9, 11)
LONG_SIZES = (26, 28, 29, 30, 32, 34, 35, 37)
CHUNK = 50   # albums drawn at a time to pick the size profile from

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# End-to-end metrics every workload reports: name -> unit. Each workload
# has two phases (stage 1 and stage 2 of training; greedy and beam-3
# decoding) and names its items and ops in `describe()`.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "phase1_items_per_s": "1/s",
    "phase2_items_per_s": "1/s",
    "phase1_op_ms_p50": "ms",
    "phase2_op_ms_p50": "ms",
}


def sized_albums(shape: dict, sizes, vocab_size: int, seed: int, vocab, prefix: str):
    """Albums with exactly `sizes` photos, drawn by `SynthSpec` in chunks of
    CHUNK albums seeded `seed * 1000 + chunk` until every size is found."""
    wanted = list(sizes)
    chosen = [None] * len(wanted)
    for chunk in range(1000):
        spec = D.SynthSpec(albums=CHUNK, feature_dim=DIMS["feature_dim"],
                           vocab_size=vocab_size, sentences=5,
                           seed=seed * 1000 + chunk, **shape)
        for album in D.synth_dataset(spec, vocab):
            if album.num_photos in wanted:
                i = next(i for i, n in enumerate(sizes)
                         if n == album.num_photos and chosen[i] is None)
                chosen[i] = dataclasses.replace(album, album_id=f"{prefix}{i:04d}")
                wanted.remove(album.num_photos)
        if not wanted:
            return chosen
    raise ValueError(f"seed {seed}: no album of {wanted} photos")


def quantile_summary(values, q: float):
    """The q-quantile and how many samples lie beyond it; None when fewer
    than ten do, because such a tail is not measured."""
    qv = float(np.quantile(values, q))
    beyond = int(sum(v > qv for v in values))
    return (qv if beyond >= 10 else None), beyond


def _same(recorded, value) -> bool:
    if isinstance(recorded, str):
        return recorded == value
    return abs(recorded - value) <= 1e-9 * max(1.0, abs(recorded))


class Workload:
    setups = 9

    def __init__(self, name: str, seed: int, smoke: bool):
        self.name = name
        self.seed = seed
        self.smoke = smoke
        if smoke:
            self.setups = 2
        self.meter = Speedometer()
        self.tracer = None          # set in traced runs
        self.sessions: list = []
        self.failures: list[str] = []
        self.reference_status = "not recorded"

    def fail(self, msg: str):
        if len(self.failures) < 20:
            self.failures.append(msg)

    def sample_speed(self, tasks: int) -> float:
        """A reference-speed sample; in traced runs its span keeps it out of
        the enclosing layer's self time."""
        if self.tracer is None:
            return self.meter.sample(tasks)
        with self.tracer.span("tracer.speed_sample"):
            return self.meter.sample(tasks)

    def speed_factor(self) -> float:
        """Median scale from measured to reference-speed time over the run."""
        return statistics.median(s["speed"] for s in self.sessions)

    def load_inputs(self, tmp: Path, albums, vocab, params, max_photos: int):
        """Round-trips albums, vocabulary and weights through the program's
        file formats, as a user's run starts from files."""
        D.save_albums(tmp / "albums.jsonl", albums)
        vocab.save(tmp / "vocab.txt")
        T.save_checkpoint(tmp / "init.ckpt.json", params, meta={"seed": self.seed})
        vocab = D.Vocabulary.load(tmp / "vocab.txt")
        albums = D.load_albums(tmp / "albums.jsonl", vocab, max_photos=max_photos)
        params, _ = T.load_checkpoint(tmp / "init.ckpt.json")
        return albums, vocab, params

    def check_reference(self):
        """Compares `reference_values()` with those recorded for this seed by
        record_reference.py, when there are any for this configuration."""
        if self.smoke or not REFERENCE_FILE.exists():
            return
        entry = json.loads(REFERENCE_FILE.read_text()).get(self.name)
        if entry is None or entry["config"] != self.config_key():
            return
        recorded = entry["seeds"].get(str(self.seed))
        if recorded is None:
            return
        values = self.reference_values()
        if all(_same(recorded[k], v) for k, v in values.items()):
            self.reference_status = "match"
        else:
            self.reference_status = "mismatch"
            self.sessions[0]["ok"] = False
            self.fail(f"outputs {values} differ from the recorded {recorded} "
                      f"for seed {self.seed}")


# --------------------------------------------------------------- training

class TrainWorkload(Workload):
    """A two-stage `run_training(stage="all")` call with a fixed step count
    per stage, validation only at each stage's close and no early stop.

    A reference-speed sample follows every optimizer step, so each step is
    scaled by the speed measured on both sides of it. The trainer logs the
    step's wall time after the optimizer step; the sample's own duration is
    subtracted from it."""

    def __init__(self, name, seed, smoke, shape: dict, sizes, vocab_size: int,
                 max_photos: int, steps: int):
        super().__init__(name, seed, smoke)
        self.shape, self.sizes = shape, sizes
        self.vocab_size = vocab_size
        self.max_photos = max_photos
        self.steps = steps
        if smoke:
            self.shape, self.sizes, self.steps = SHORT_SHAPE, (5, 6), 2

    def describe(self):
        return {"item": "training example", "op": "optimizer step",
                "phase1": "stage 1", "phase2": "stage 2"}

    def config_key(self) -> str:
        return json.dumps({"dims": DIMS, "shape": self.shape, "sizes": self.sizes,
                           "chunk": CHUNK, "vocab": self.vocab_size,
                           "max_photos": self.max_photos, "steps": self.steps},
                          sort_keys=True)

    def setup(self, tmp: Path):
        spec = D.SynthSpec(vocab_size=self.vocab_size, sentences=5, **self.shape)
        vocab = D.synth_vocab(spec)
        albums = sized_albums(self.shape, self.sizes, self.vocab_size, self.seed, vocab,
                              "album")
        cfg = M.ModelConfig(vocab_size=len(vocab), max_photos=self.max_photos, **DIMS)
        params = M.build_parameters(cfg, np.random.default_rng(self.seed))
        self.albums, self.vocab, self.params = self.load_inputs(
            tmp, albums, vocab, params, self.max_photos)
        batch = 8
        self.tcfg = TR.TrainConfig(model=cfg, stage="all", lr=0.0004, lam=0.2, mu=0.8,
                                   batch_size=batch, max_steps=self.steps,
                                   validate_every=10 ** 9, seed=self.seed, nll_stop=0.0)
        n = sum(len(a.stories) for a in self.albums)
        chunks = [min(batch, n - lo) for lo in range(0, n, batch)]
        self.examples = sum(chunks[i % len(chunks)] for i in range(self.steps))

    def session(self):
        init = self.params.copy()
        samples = []                    # (seconds the sample took, task time)
        adam_step = T.Adam.__dict__["step"]

        def step_then_sample(opt):
            adam_step(opt)
            t0 = time.perf_counter()
            task = self.sample_speed(4)
            samples.append((time.perf_counter() - t0, task))

        tasks = [self.sample_speed(8)]
        T.Adam.step = step_then_sample
        t0 = time.perf_counter()
        try:
            r1, r2 = TR.run_training(self.albums, self.albums, self.tcfg, self.vocab,
                                     init_params=init)
        finally:
            T.Adam.step = adam_step
        wall = time.perf_counter() - t0
        s = {"ok": self._check(r1, r2, wall, len(samples)), "ops": 2 * self.steps,
             "speed": 1.0}
        if s["ok"]:
            tasks += [task for _, task in samples]
            factors = np.array([Speedometer.scale(a, b) for a, b in zip(tasks, tasks[1:])])
            spent = np.array([d for d, _ in samples])
            s["speed"] = float(np.median(factors))
            for phase, res, sl in (("phase1", r1, slice(0, self.steps)),
                                   ("phase2", r2, slice(self.steps, None))):
                raw = np.diff([0.0] + [e["wall_time"] for e in res.log]) - spent[sl]
                s[phase] = {"raw_s": raw, "step_s": raw * factors[sl],
                            "final_nll": res.log[-1]["per_word_nll"]}
            s["final_recon"] = r2.log[-1]["recon"]
            s["canonical"] = json.dumps(
                [{k: v for k, v in e.items() if k != "wall_time"}
                 for e in r1.log + r2.log], sort_keys=True)
        self.sessions.append(s)

    def _check(self, r1, r2, wall, samples) -> bool:
        ok = True

        def need(cond, msg):
            nonlocal ok
            if not cond:
                ok = False
                self.fail(msg)

        need(r1 is not None and r2 is not None and not r1.diverged and not r2.diverged,
             "training diverged")
        if not ok:
            return False
        need(len(r1.log) == self.steps and len(r2.log) == self.steps
             and samples == 2 * self.steps,
             f"expected {self.steps} steps per stage, logged {len(r1.log)}+{len(r2.log)} "
             f"and took {samples} optimizer steps")
        for e in r1.log + r2.log:
            need(all(np.isfinite(e[k]) for k in ("nll", "rank", "recon", "total",
                                                  "per_word_nll")),
                 f"non-finite loss at step {e['step']}")
        need(r1.log[-1]["per_word_nll"] < r1.log[0]["per_word_nll"],
             "stage-1 per-word NLL did not fall")
        for name in r1.params.names():
            if r1.params.group_of(name) in TR.STAGE2_FROZEN:
                need(r1.params[name].data.tobytes() == r2.final_params[name].data.tobytes(),
                     f"stage 2 changed frozen weight {name}")
        logged = r1.log[-1]["wall_time"] + r2.log[-1]["wall_time"]
        need(0 < logged <= wall, f"logged step time {logged:.3f}s exceeds the "
                                 f"call's {wall:.3f}s")
        return ok

    def reference_values(self) -> dict:
        first = self.sessions[0]
        return {"stage1_final_per_word_nll": first["phase1"]["final_nll"],
                "stage2_final_recon": first["final_recon"]}

    def finish(self):
        """Every session repeats the first bit for bit; the first matches the
        recorded reference."""
        if not self.sessions[0]["ok"]:
            return
        for i, s in enumerate(self.sessions[1:], start=1):
            if s["ok"] and s["canonical"] != self.sessions[0]["canonical"]:
                s["ok"] = False
                self.fail(f"session {i} log differs from session 0 with the same seed")
        self.check_reference()

    def results(self):
        good = [s for s in self.sessions if s["ok"]]
        e2e, detail = {}, {}
        for phase, stage in (("phase1", "stage1"), ("phase2", "stage2")):
            steps_ms = [1e3 * t for s in good for t in s[phase]["step_s"]]
            raw_ms = [1e3 * t for s in good for t in s[phase]["raw_s"]]
            rates = [self.examples / s[phase]["step_s"].sum() for s in good]
            e2e[f"{phase}_items_per_s"] = statistics.median(rates)
            e2e[f"{phase}_op_ms_p50"] = statistics.median(steps_ms)
            detail[f"{stage}_examples_per_s"] = e2e[f"{phase}_items_per_s"]
            detail[f"{stage}_step_ms_p50"] = e2e[f"{phase}_op_ms_p50"]
            detail[f"{stage}_step_ms_p50_unscaled"] = statistics.median(raw_ms)
            detail[f"{stage}_steps_timed"] = len(steps_ms)
            detail[f"{stage}_final_per_word_nll"] = good[0][phase]["final_nll"]
        detail["stage2_final_recon"] = good[0]["final_recon"]
        detail["sessions"] = len(self.sessions)
        detail["steps_per_stage"] = self.steps
        detail["photos_per_album"] = list(self.sizes)
        detail["reference"] = self.reference_status
        return e2e, detail


# ------------------------------------------------------------- generation

class GenerateWorkload(Workload):
    """Greedy and beam-3 `generate_story` on every album of a mixed set of
    short and long albums, with untrained seeded weights, then corpus
    BLEU, ROUGE-L and CIDEr of both outputs.

    The EOS output bias is lowered to -10, so untrained decoding always runs
    to the length cap: every seed decodes the same number of tokens."""

    EOS_BIAS = -10.0

    def __init__(self, name, seed, smoke):
        super().__init__(name, seed, smoke)
        self.short_sizes, self.long_sizes = SHORT_SIZES, LONG_SIZES
        self.max_words = 25
        if smoke:
            self.short_sizes, self.long_sizes, self.max_words = (7,), (28,), 4

    def describe(self):
        return {"item": "decoded token", "op": "album decode",
                "phase1": "greedy", "phase2": "beam-3"}

    def config_key(self) -> str:
        return json.dumps({"dims": DIMS, "sizes": [self.short_sizes, self.long_sizes],
                           "chunk": CHUNK, "max_words": self.max_words, "vocab": 32,
                           "eos_bias": self.EOS_BIAS}, sort_keys=True)

    def setup(self, tmp: Path):
        vocab = D.synth_vocab(D.SynthSpec(vocab_size=32, sentences=5, **LONG_SHAPE))
        short = sized_albums(SHORT_SHAPE, self.short_sizes, 32, self.seed, vocab, "short")
        long_ = sized_albums(LONG_SHAPE, self.long_sizes, 32, self.seed, vocab, "long")
        albums = [a for pair in zip(short, long_) for a in pair]
        self.cfg = M.ModelConfig(vocab_size=len(vocab), max_photos=40,
                                 max_words=self.max_words, **DIMS)
        params = M.build_parameters(self.cfg, np.random.default_rng(self.seed))
        params["dec.out.b2"].data[D.EOS] = self.EOS_BIAS
        self.albums, self.vocab, self.params = self.load_inputs(
            tmp, albums, vocab, params, self.cfg.max_photos)
        self.refs = [[[t for sent in story for t in D.tokenize(sent)]
                      for story in a.raw_stories] for a in self.albums]

    def session(self):
        """One pass over the album set, a speed sample after each album.
        Only the first pass keeps its hypotheses; later passes are compared
        with it and dropped, so memory does not grow with the run."""
        s = {"ok": True, "ops": 2 * len(self.albums), "speeds": [],
             "phase1": {"ms": [], "raw_ms": [], "tokens": 0},
             "phase2": {"ms": [], "raw_ms": [], "tokens": 0}}
        hyps = {"phase1": [], "phase2": []}
        before = self.sample_speed(4)
        for album in self.albums:
            raw = {}
            for phase, kwargs in (("phase1", {"mode": "greedy"}),
                                  ("phase2", {"mode": "beam", "beam_width": 3})):
                t0 = time.perf_counter()
                hyp = M.generate_story(album, self.params, self.cfg, **kwargs)
                raw[phase] = 1e3 * (time.perf_counter() - t0)
                s[phase]["tokens"] += sum(len(ids) for ids in hyp.sentences)
                hyps[phase].append(hyp)
                if not self._check_hyp(album, hyp):
                    s["ok"] = False
            after = self.sample_speed(4)
            speed = Speedometer.scale(before, after)
            before = after
            s["speeds"].append(speed)
            for phase, ms in raw.items():
                s[phase]["raw_ms"].append(ms)
                s[phase]["ms"].append(ms * speed)
        s["speed"] = statistics.median(s["speeds"])
        s["scores"] = {phase: self._score(h) for phase, h in hyps.items()}
        if not self.sessions:
            self.first_hyps = hyps
        else:
            for phase in hyps:
                if [h.sentences for h in hyps[phase]] != \
                        [h.sentences for h in self.first_hyps[phase]]:
                    s["ok"] = False
                    self.fail(f"pass {len(self.sessions)} {phase} output differs "
                              f"from pass 0")
            if s["scores"] != self.sessions[0]["scores"]:
                s["ok"] = False
                self.fail(f"pass {len(self.sessions)} corpus scores differ from pass 0")
        self.sessions.append(s)

    def _check_hyp(self, album, hyp) -> bool:
        ok = True
        cap = self.cfg.max_words + 1
        if len(hyp.sentences) != self.cfg.sentences:
            self.fail(f"{album.album_id}: {len(hyp.sentences)} sentences")
            ok = False
        for ids in hyp.sentences:
            if D.EOS in ids[:-1] or not (ids[-1] == D.EOS or len(ids) == cap):
                self.fail(f"{album.album_id}: sentence neither ends in EOS nor "
                          f"at {cap} tokens: {ids}")
                ok = False
        m = album.num_photos
        # valid attention slots: photos, then the scene rows the detector emitted
        valid = np.array([1] * m + [0] + list(hyp.flags[1:]) + [1], dtype=bool)
        for alpha in hyp.alphas:
            if len(alpha) != len(valid) or abs(alpha[valid].sum() - 1.0) > 1e-9 \
                    or np.any(alpha < 0) or np.any(alpha[~valid] != 0):
                self.fail(f"{album.album_id}: alpha does not sum to 1 over valid slots")
                ok = False
        return ok

    def _score(self, hyps):
        pairs = [MET.EvalPair(D.decode_ids([t for ids in h.sentences for t in ids],
                                           self.vocab), refs)
                 for h, refs in zip(hyps, self.refs)]
        return {"bleu4": MET.bleu(pairs)[4], "rouge_l": MET.rouge_l(pairs),
                "cider": MET.cider(pairs)}

    def reference_values(self) -> dict:
        ids = [h.sentences for h in self.first_hyps["phase1"]]
        return {"greedy_digest": hashlib.sha256(json.dumps(ids).encode()).hexdigest()[:32]}

    def finish(self):
        """Greedy ids are the argmax of the teacher-forced scores of the same
        ids, and match the recorded reference."""
        for album, hyp in zip(self.albums, self.first_hyps["phase1"]):
            if not self._teacher_forced_agrees(album, hyp):
                self.sessions[0]["ok"] = False
        self.check_reference()

    def _teacher_forced_agrees(self, album, hyp) -> bool:
        with T.no_grad():
            enc = M.encode_album(album.features, self.params, self.cfg)
            zs, _ = M.summarize_album(enc, self.cfg.sentences, self.params)
            for z, ids, lps in zip(zs, hyp.sentences, hyp.word_logps):
                _, logits, word_logps = DEC.sentence_log_prob(z, ids, self.params)
                argmax = [int(np.argmax(d.data)) for d in logits]
                forced = np.array([float(lp.data) for lp in word_logps])
                if argmax != ids or np.max(np.abs(forced - lps)) > 1e-9:
                    self.fail(f"{album.album_id}: greedy ids are not the "
                              f"teacher-forced argmax")
                    return False
        return True

    def results(self):
        good = [s for s in self.sessions if s["ok"]]
        e2e, detail = {}, {}
        for phase, mode in (("phase1", "greedy"), ("phase2", "beam3")):
            ms = [v for s in good for v in s[phase]["ms"]]
            raw_ms = [v for s in good for v in s[phase]["raw_ms"]]
            rates = [1e3 * s[phase]["tokens"] / sum(s[phase]["ms"]) for s in good]
            hyps = self.first_hyps[phase]
            tokens = sum(len(ids) for h in hyps for ids in h.sentences)
            e2e[f"{phase}_items_per_s"] = statistics.median(rates)
            e2e[f"{phase}_op_ms_p50"] = statistics.median(ms)
            p90, beyond = quantile_summary(ms, 0.9)
            detail.update({
                f"{mode}_album_ms_p50": e2e[f"{phase}_op_ms_p50"],
                f"{mode}_album_ms_p90": p90,
                f"{mode}_album_ms_samples": len(ms),
                f"{mode}_album_ms_beyond_p90": beyond,
                f"{mode}_album_ms_p50_unscaled": statistics.median(raw_ms),
                f"{mode}_tokens_per_s": e2e[f"{phase}_items_per_s"],
                f"{mode}_tokens_per_album": tokens / len(hyps),
                f"{mode}_output_nll_per_token":
                    -sum(sum(w) for h in hyps for w in h.word_logps) / tokens,
                f"{mode}_corpus_scores": self.sessions[0]["scores"][phase],
            })
        detail["passes"] = len(self.sessions)
        detail["photos_per_album"] = [a.num_photos for a in self.albums]
        detail.update(self.reference_values())
        detail["reference"] = self.reference_status
        return e2e, detail


WORKLOADS = {
    "train-overfit": lambda name, seed, smoke: TrainWorkload(
        name, seed, smoke, SHORT_SHAPE, SHORT_SIZES, vocab_size=30, max_photos=12,
        steps=8),
    "train-long-albums": lambda name, seed, smoke: TrainWorkload(
        name, seed, smoke, LONG_SHAPE, LONG_SIZES, vocab_size=32, max_photos=40,
        steps=8),
    "generate": GenerateWorkload,
}
