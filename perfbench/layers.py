"""Which program functions the traced run wraps, and the per-layer metrics
derived from their spans.

Layers are the modules of `storyforge`. Tensor primitives are not wrapped:
graph building is measured as a node count instead, because a span around
every primitive would cost more than the primitive itself.
"""

from __future__ import annotations

from storyforge import data, decoder, losses, metrics, model
from storyforge import photo_encoder, reconstructor, scene_encoder, tensor, trainer

from spans import Tracer

STAGE_SCOPES = ("trainer.run_stage1", "trainer.run_stage2")

# (layer, owner, attribute)
TARGETS = [
    ("tensor", tensor.NumArray, "backward"),
    ("tensor", tensor.Adam, "step"),
    ("tensor", tensor, "save_checkpoint"),
    ("tensor", tensor, "load_checkpoint"),
    ("data", data, "synth_dataset"),
    ("data", data, "save_albums"),
    ("data", data, "load_albums"),
    ("data", data.Vocabulary, "load"),
    ("photo_encoder", photo_encoder, "encode_photos"),
    ("scene_encoder", scene_encoder, "encode_scenes"),
    ("decoder", decoder, "attend"),
    ("decoder", decoder, "sentence_log_prob"),
    ("decoder", decoder, "decode_sentence_greedy"),
    ("decoder", decoder, "decode_sentence_beam"),
    ("reconstructor", reconstructor, "reconstruct"),
    ("losses", losses, "nll_loss"),
    ("losses", losses, "rank_loss"),
    ("losses", losses, "recon_loss"),
    ("losses", losses, "total_loss"),
    ("model", model, "encode_album"),
    ("model", model, "summarize_album"),
    ("model", model, "story_objective"),
    ("model", model, "generate_story"),
    ("trainer", trainer, "run_training"),
    ("trainer", trainer, "run_stage1"),
    ("trainer", trainer, "run_stage2"),
    ("trainer", trainer, "validate"),
    ("metrics", metrics, "bleu"),
    ("metrics", metrics, "rouge_l"),
    ("metrics", metrics, "cider"),
]

# name -> unit, in report order
PER_LAYER = {
    "tensor.graph_nodes_per_example": "count",
    "tensor.backward_ms_per_example.stage1": "ms",
    "tensor.backward_ms_per_example.stage2": "ms",
    "tensor.adam_ms_per_step": "ms",
    "tensor.checkpoint_io_ms": "ms",
    "data.load_ms": "ms",
    "photo_encoder.ms_per_album": "ms",
    "scene_encoder.ms_per_album": "ms",
    "decoder.attend_ms_per_album": "ms",
    "decoder.teacher_forced_ms_per_example": "ms",
    "decoder.teacher_forced_calls_per_example": "count",
    "decoder.greedy_ms_per_sentence": "ms",
    "decoder.beam3_ms_per_sentence": "ms",
    "reconstructor.ms_per_example": "ms",
    "losses.ms_per_example": "ms",
    "model.encode_album_self_ms": "ms",
    "trainer.step_self_ms": "ms",
    "trainer.validate_ms": "ms",
    "metrics.score_ms": "ms",
}


def graph_nodes(root) -> int:
    """Operation nodes reachable from `root` (leaves such as parameters and
    constants are not counted)."""
    seen = {id(root)}
    stack = [root]
    nodes = 0
    while stack:
        node = stack.pop()
        if node._parents:
            nodes += 1
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return nodes


def _count_graph(tracer: Tracer, objective):
    """Counts the nodes of every loss graph `story_objective` returns. The
    walk runs in its own span, so it is not charged to the caller's self
    time."""
    def counted(*args, **kwargs):
        loss, report = objective(*args, **kwargs)
        with tracer.span("tracer.graph_walk"):
            tracer.counts["graph_nodes"] += graph_nodes(loss)
        return loss, report
    return counted


def install(tracer: Tracer):
    for layer, owner, attr in TARGETS:
        hook = _count_graph if attr == "story_objective" else None
        tracer.install(layer, owner, attr, hook)


def _per(x, n):
    return x / n if n else 0.0


def layer_metrics(tracer: Tracer, setups: int, speed: float) -> dict:
    """Every PER_LAYER metric; a layer the workload never calls reads 0.
    Times are scaled by `speed`, the run's median reference-speed factor."""
    p = tracer.profile(STAGE_SCOPES)
    s1, s2 = STAGE_SCOPES
    examples = p.count("model.story_objective")
    stage_examples = {s: p.count("model.story_objective", s) for s in STAGE_SCOPES}
    albums = p.count("model.encode_album")
    steps = p.count("tensor.Adam.step")

    def total(*names):
        return sum(p.ms(n) for n in names)

    scorers = ("metrics.bleu", "metrics.rouge_l", "metrics.cider")
    values = {
        "tensor.graph_nodes_per_example": _per(tracer.counts["graph_nodes"], examples),
        "tensor.backward_ms_per_example.stage1":
            _per(p.ms("tensor.NumArray.backward", s1), stage_examples[s1]),
        "tensor.backward_ms_per_example.stage2":
            _per(p.ms("tensor.NumArray.backward", s2), stage_examples[s2]),
        "tensor.adam_ms_per_step": _per(p.ms("tensor.Adam.step"), steps),
        "tensor.checkpoint_io_ms":
            _per(total("tensor.save_checkpoint", "tensor.load_checkpoint"), setups),
        "data.load_ms": _per(total("data.load_albums", "data.Vocabulary.load"), setups),
        "photo_encoder.ms_per_album": _per(p.ms("photo_encoder.encode_photos"),
                                           p.count("photo_encoder.encode_photos")),
        "scene_encoder.ms_per_album": _per(p.ms("scene_encoder.encode_scenes"),
                                           p.count("scene_encoder.encode_scenes")),
        "decoder.attend_ms_per_album": _per(p.ms("decoder.attend"), albums),
        "decoder.teacher_forced_ms_per_example":
            _per(p.ms("decoder.sentence_log_prob"), examples),
        "decoder.teacher_forced_calls_per_example":
            _per(p.count("decoder.sentence_log_prob"), examples),
        "decoder.greedy_ms_per_sentence": _per(p.ms("decoder.decode_sentence_greedy"),
                                               p.count("decoder.decode_sentence_greedy")),
        "decoder.beam3_ms_per_sentence": _per(p.ms("decoder.decode_sentence_beam"),
                                              p.count("decoder.decode_sentence_beam")),
        "reconstructor.ms_per_example":
            _per(p.ms("reconstructor.reconstruct", s2), stage_examples[s2]),
        "losses.ms_per_example": _per(total("losses.nll_loss", "losses.rank_loss",
                                            "losses.recon_loss", "losses.total_loss"),
                                      examples),
        "model.encode_album_self_ms": _per(p.self_ms("model.encode_album"), albums),
        "trainer.step_self_ms": _per(sum(p.self_ms(n) for n in (
            "trainer.run_training", "trainer.run_stage1", "trainer.run_stage2")), steps),
        "trainer.validate_ms": _per(p.ms("trainer.validate"), p.count("trainer.validate")),
        "metrics.score_ms": _per(total(*scorers), sum(p.count(n) for n in scorers)),
    }
    return {name: v * speed if PER_LAYER[name] == "ms" else v
            for name, v in values.items()}
