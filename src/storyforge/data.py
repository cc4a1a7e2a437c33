"""Album/story file formats, vocabulary handling, and a synthetic corpus.

Album files are line-delimited JSON, one album per line:
    {"album_id": str, "features": [[f..] x m], "stories": [[sent..] x refs],
     "gold_boundaries": [0/1 x m]?}
Vocabulary files are one token per line ordered by id, after a single header
row that records the special tokens and the min_count used to build it.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

PAD, BOS, EOS, UNK = 0, 1, 2, 3
SPECIALS = ["<pad>", "<bos>", "<eos>", "<unk>"]

_TOKEN_RE = re.compile(r"[a-z0-9]+|[^a-z0-9\s]")
_VOCAB_HEADER = "#vocab"


class DataFormatError(ValueError):
    """Malformed album record or vocabulary file."""


def tokenize(text: str) -> list[str]:
    """Lowercase, then split into alphanumeric runs and single punctuation marks."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Token ids with fixed specials: <pad>=0 <bos>=1 <eos>=2 <unk>=3."""

    def __init__(self, tokens, min_count: int = 5):
        self.min_count = min_count
        self.id_to_token = list(SPECIALS) + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self):
        return len(self.id_to_token)

    def encode(self, token: str) -> int:
        return self.token_to_id.get(token, UNK)

    def decode(self, idx: int) -> str:
        return self.id_to_token[idx]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{_VOCAB_HEADER} specials={','.join(SPECIALS)} "
                     f"min_count={self.min_count}\n")
            for tok in self.id_to_token[len(SPECIALS):]:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if not header.startswith(_VOCAB_HEADER):
                raise DataFormatError(f"{path}: missing vocabulary header")
            m = re.search(r"min_count=(\d+)", header)
            if m is None:
                raise DataFormatError(f"{path}: header lacks min_count")
            tokens = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
        return cls(tokens, min_count=int(m.group(1)))


def build_vocab(corpus, min_count: int = 5) -> Vocabulary:
    """Count tokens over an iterable of sentences (strings or token lists).

    Tokens seen fewer than min_count times are dropped and will encode as
    <unk>. Kept tokens are ordered by (-count, token) for stable ids.
    """
    counts = Counter()
    for sent in corpus:
        counts.update(tokenize(sent) if isinstance(sent, str) else sent)
    if not counts:
        raise ValueError("empty corpus")
    kept = sorted((t for t, c in counts.items() if c >= min_count and t not in SPECIALS),
                  key=lambda t: (-counts[t], t))
    return Vocabulary(kept, min_count=min_count)


def encode_sentence(tokens, vocab: Vocabulary, t_max: int = 25) -> list[int]:
    """Map to ids, truncate to t_max content tokens, append EOS."""
    if isinstance(tokens, str):
        tokens = tokenize(tokens)
    return [vocab.encode(t) for t in tokens[:t_max]] + [EOS]


def decode_ids(ids, vocab: Vocabulary) -> list[str]:
    """Inverse of encode_sentence for display; stops at EOS, skips pad and bos."""
    out = []
    for i in ids:
        if i == EOS:
            break
        if i not in (PAD, BOS):
            out.append(vocab.decode(i))
    return out


def story_tokens(sentences) -> list[str]:
    """One story's sentence strings as a single token list."""
    return [tok for sent in sentences for tok in tokenize(sent)]


@dataclass
class AlbumExample:
    album_id: str
    features: list          # m arrays of shape (F,)
    stories: list           # refs, each n sentences of token ids (EOS-terminated)
    raw_stories: list       # same shape, original sentence strings
    gold_boundaries: list | None = None

    @property
    def num_photos(self):
        return len(self.features)


def feature_rows(rows, feature_dim: int | None,
                 max_photos: int) -> list[np.ndarray]:
    """One album's features (JSON number lists, an (m, F) array or (F,)
    arrays) as float64 (F,) vectors; rows past `max_photos` are not read.
    `feature_dim` None takes F from the first row."""
    if not isinstance(rows, (list, np.ndarray)) or len(rows) == 0:
        raise DataFormatError("features must be a non-empty list")
    out = []
    for row in rows[:max_photos]:
        if not isinstance(row, (list, np.ndarray)):
            raise DataFormatError("feature row is not a list of numbers")
        try:
            vec = np.array(row, dtype=np.float64)
        except (TypeError, ValueError):
            raise DataFormatError("non-numeric feature value") from None
        if vec.ndim != 1:
            raise DataFormatError("feature row is not a list of numbers")
        if feature_dim is None:
            feature_dim = vec.shape[0]
        if vec.shape[0] != feature_dim:
            raise DataFormatError(f"feature-dim mismatch: expected {feature_dim}, "
                                  f"got {vec.shape[0]}")
        if not np.isfinite(vec).all():
            raise DataFormatError("non-finite feature value")
        out.append(vec)
    return out


def _check(cond, line_no, msg):
    if not cond:
        raise DataFormatError(f"line {line_no}: {msg}")


def read_records(path, *required):
    """(line number, object) for each non-blank line of a JSON-lines file;
    every record must be an object holding the `required` fields."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataFormatError(f"line {line_no}: invalid record: {e}") from e
            _check(isinstance(rec, dict), line_no, "record is not an object")
            for key in required:
                _check(key in rec, line_no, f"missing field '{key}'")
            yield line_no, rec


def load_albums(path, vocab: Vocabulary, max_photos: int = 40,
                n_sentences: int = 5, max_words: int = 25,
                feature_dim: int | None = None) -> list[AlbumExample]:
    """Read an album file; photo streams are truncated to max_photos.

    Every feature row must have `feature_dim` values; None lets the file's
    first row decide.
    """
    albums = []
    for line_no, rec in read_records(path, "album_id", "features", "stories"):
        feats_raw = rec["features"]
        try:
            feats = feature_rows(feats_raw, feature_dim, max_photos)
        except DataFormatError as e:
            raise DataFormatError(f"line {line_no}: {e}") from None
        if feats:  # empty only when max_photos < 1
            feature_dim = len(feats[0])
        raw_stories = rec["stories"]
        _check(isinstance(raw_stories, list) and len(raw_stories) >= 1,
               line_no, "stories must be a non-empty list")
        stories = []
        for ref in raw_stories:
            _check(isinstance(ref, list) and
                   all(isinstance(s, str) for s in ref), line_no,
                   "each story must be a list of sentence strings")
            _check(len(ref) == n_sentences, line_no,
                   f"story has {len(ref)} sentences, expected {n_sentences}")
            stories.append([encode_sentence(s, vocab, max_words) for s in ref])
        gold = rec.get("gold_boundaries")
        if gold is not None:
            _check(isinstance(gold, list) and
                   all(b in (0, 1) for b in gold), line_no,
                   "gold_boundaries must be a list of 0/1")
            _check(len(gold) == len(feats_raw), line_no,
                   f"gold_boundaries length {len(gold)} != photo count {len(feats_raw)}")
            gold = gold[:max_photos]
        albums.append(AlbumExample(str(rec["album_id"]), feats, stories,
                                   raw_stories, gold))
    return albums


def save_albums(path, albums):
    with open(path, "w", encoding="utf-8") as fh:
        for a in albums:
            rec = {"album_id": a.album_id,
                   "features": [f.tolist() for f in a.features],
                   "stories": a.raw_stories}
            if a.gold_boundaries is not None:
                rec["gold_boundaries"] = list(a.gold_boundaries)
            fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# synthetic corpus with known scene boundaries


@dataclass
class SynthSpec:
    albums: int = 8
    scenes_per_album: tuple = (2, 3)
    photos_per_scene: tuple = (2, 4)
    feature_dim: int = 8
    cluster_separation: float = 4.0
    noise_scale: float = 0.05
    vocab_size: int = 30
    sentences: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.cluster_separation <= 0:
            raise ValueError("cluster_separation must be > 0")
        if self.num_clusters < self.scenes_per_album[1]:
            raise ValueError(
                f"vocab_size {self.vocab_size} supports only {self.num_clusters} "
                f"clusters, need {self.scenes_per_album[1]}")

    @property
    def num_clusters(self):
        # template inventory: 4 specials + {the, shows} + {group_c, thing_c} + {step_j}
        return (self.vocab_size - 4 - 2 - self.sentences) // 2


def cluster_centers(spec: SynthSpec) -> np.ndarray:
    """(K, F) centers: one-hot axes scaled by the separation, then two-hot
    combinations once the axes run out."""
    k, f, s = spec.num_clusters, spec.feature_dim, spec.cluster_separation
    centers = np.zeros((k, f))
    for c in range(k):
        q, r = divmod(c, f)
        centers[c, r] += s
        if q > 0:
            centers[c, (r + q) % f] += s
    if len({tuple(row) for row in centers}) != k:
        raise ValueError("cluster centers collide; raise feature_dim")
    return centers


def _template(cluster_id: int, position: int) -> list[str]:
    return ["the", f"group{cluster_id}", "shows", f"thing{cluster_id}",
            f"step{position}"]


def synth_vocab(spec: SynthSpec) -> Vocabulary:
    """Vocabulary over the full template inventory, independent of album draws."""
    corpus = [_template(c, j) for c in range(spec.num_clusters)
              for j in range(spec.sentences)]
    return build_vocab(corpus, min_count=1)


def synth_dataset(spec: SynthSpec, vocab: Vocabulary | None = None) -> list[AlbumExample]:
    """Albums of clustered photo features with template stories.

    Scene cluster ids within an album are distinct and ascending, so a scene
    change always moves to a strictly larger cluster index. gold_boundaries
    marks the first photo of scenes 2..u with 1; the album's first photo is 0.
    Sentence j is keyed to segment j's cluster (clamped to the last segment
    when the story is longer than the album's scene count).
    """
    if vocab is None:
        vocab = synth_vocab(spec)
    centers = cluster_centers(spec)
    rng = np.random.default_rng(spec.seed)
    s_lo, s_hi = spec.scenes_per_album
    p_lo, p_hi = spec.photos_per_scene
    albums = []
    for a in range(spec.albums):
        u = int(rng.integers(s_lo, s_hi + 1))
        cluster_ids = np.sort(rng.choice(spec.num_clusters, size=u, replace=False))
        feats, gold = [], []
        for si, cid in enumerate(cluster_ids):
            for p in range(int(rng.integers(p_lo, p_hi + 1))):
                noise = spec.noise_scale * rng.standard_normal(spec.feature_dim)
                feats.append(centers[cid] + noise)
                gold.append(1 if (p == 0 and si > 0) else 0)
        raw = [" ".join(_template(int(cluster_ids[min(j, u - 1)]), j))
               for j in range(spec.sentences)]
        ids = [encode_sentence(s, vocab) for s in raw]
        albums.append(AlbumExample(f"synth{a:04d}", feats, [ids], [raw], gold))
    return albums
