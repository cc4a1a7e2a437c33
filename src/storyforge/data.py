"""Album/story file formats, vocabulary handling, and a synthetic corpus.

Album files are line-delimited JSON, one album per line:
    {"album_id": str | int, "features": [[f..] x m], "stories": [[sent..] x refs]?,
     "gold_boundaries": [0/1 x m]?}
Vocabulary files are one token per line ordered by id, after a single header
row that records the special tokens and the min_count used to build it.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

PAD, BOS, EOS, UNK = 0, 1, 2, 3
SPECIALS = ["<pad>", "<bos>", "<eos>", "<unk>"]

_TOKEN_RE = re.compile(r"[a-z0-9]+|[^a-z0-9\s]")
_VOCAB_HEADER = "#vocab"
# types in a feature row that numpy would read as a number, but JSON does not
_NOT_NUMBERS = {bool, np.bool_, str, type(None)}


class DataFormatError(ValueError):
    """Malformed album record or vocabulary file."""


class ConfigError(ValueError):
    """A configuration value outside its valid range."""


# The kinds of setting, by the name of a config field's annotation: (number
# type, its noun, least value or None); a real with a least value is finite
Size, Count, Weight = int, int, float
_KINDS = {"int": (numbers.Integral, "an integer", None),
          "Size": (numbers.Integral, "an integer", 1),
          "Count": (numbers.Integral, "an integer", 0),
          "float": (numbers.Real, "a number", None),
          "Weight": (numbers.Real, "a number", 0)}


def check_number(name, value, kind: str = "int"):
    """Raise a ConfigError naming `name` unless `value` is a number of `kind`:
    any "int" or "float", a "Size" >= 1, a "Count" >= 0 or a finite "Weight"
    >= 0. Sizes and counts are integers, reals fit in a float, a bool is no number."""
    cls, noun, least = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, cls):
        raise ConfigError(f"{name} must be {noun}, got {value!r}")
    real = cls is numbers.Real
    if real:
        try:
            float(value)
        except OverflowError:
            raise ConfigError(f"{name} is too large for a float") from None
    if least is not None and not least <= value < math.inf:   # NaN fails too
        raise ConfigError(f"{name} must be >= {least}{' and finite' if real else ''}")


def check_field_types(cfg):
    """`check_number` on each field of the config dataclass `cfg` annotated
    with a kind; each tuple field must be a pair (tuple or list) of integers."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type in _KINDS:
            check_number(f.name, value, f.type)
        elif f.type == "tuple" and not (
                isinstance(value, (tuple, list)) and len(value) == 2
                and all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                        for v in value)):
            raise ConfigError(f"{f.name} must be a pair of integers, got {value!r}")


@contextmanager
def utf8_text(path):
    """`path` opened as UTF-8 text; bytes read inside that do not decode
    raise a DataFormatError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as e:
            raise DataFormatError(f"{path}: not UTF-8 text ({e.reason})") from None


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
            dup = next(t for t, n in Counter(self.id_to_token).items() if n > 1)
            raise DataFormatError(f"duplicate token '{dup}' in vocabulary")

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
        with utf8_text(path) as fh:
            header = fh.readline().rstrip("\n")
            if not header.startswith(_VOCAB_HEADER):
                raise DataFormatError(f"{path}: missing vocabulary header")
            m = re.search(r"min_count=(\d+)", header)
            if m is None:
                raise DataFormatError(f"{path}: header lacks min_count")
            tokens = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
        try:
            return cls(tokens, min_count=int(m.group(1)))
        except ValueError as e:   # a duplicate token, or a min_count past int's digit limit
            raise DataFormatError(f"{path}: {e}") from None


def build_vocab(corpus, min_count: int = 5) -> Vocabulary:
    """Count tokens over an iterable of sentences (strings or token lists).

    Tokens seen fewer than min_count times are dropped and will encode as
    <unk>. Kept tokens are ordered by (-count, token) for stable ids.
    """
    check_number("min_count", min_count, "Count")
    counts = Counter()
    for sent in corpus:
        counts.update(tokenize(sent) if isinstance(sent, str) else sent)
    if not counts:
        raise DataFormatError("empty corpus")
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


def story_text(sentences, vocab: Vocabulary) -> list[str]:
    """Decoded id sequences as display sentences, tokens joined by spaces."""
    return [" ".join(decode_ids(ids, vocab)) for ids in sentences]


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
    A bool, string or null is no feature value, nor is an array of other
    than integers or reals. `feature_dim` None takes F from the first row."""
    if not isinstance(rows, (list, np.ndarray)) or len(rows) == 0:
        raise DataFormatError("features must be a non-empty list")
    out = []
    for row in rows[:max_photos]:
        if not isinstance(row, (list, np.ndarray)):
            raise DataFormatError("feature row is not a list of numbers")
        if (row.dtype.kind not in "iuf" if isinstance(row, np.ndarray)
                else not _NOT_NUMBERS.isdisjoint(map(type, row))):
            raise DataFormatError("non-numeric feature value")
        try:
            vec = np.array(row, dtype=np.float64)
        except (TypeError, ValueError):
            raise DataFormatError("non-numeric feature value") from None
        except OverflowError:   # an integer beyond the float range
            raise DataFormatError("non-finite feature value") from None
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


def check_stories(stories) -> list:
    """A non-empty list of stories, each a list of any number of sentence strings."""
    if not isinstance(stories, list) or len(stories) == 0:
        raise DataFormatError("stories must be a non-empty list")
    for ref in stories:
        if not (isinstance(ref, list) and all(isinstance(s, str) for s in ref)):
            raise DataFormatError("each story must be a list of sentence strings")
    return stories


def check_album_id(album_id) -> str:
    """A record's `album_id`, a string or an integer but no bool, as text."""
    if isinstance(album_id, bool) or not isinstance(album_id, (str, int)):
        raise DataFormatError("album_id must be a string or an integer")
    return str(album_id)


def check_gold(gold, num_photos: int, max_photos: int) -> list | None:
    """Gold scene boundaries, if any: an integer 0 or 1, not a bool, for each
    of the album's `num_photos` photos, returned without those past `max_photos`."""
    if gold is None:
        return None
    if not (isinstance(gold, list) and all(
            isinstance(b, numbers.Integral) and not isinstance(b, bool) and b in (0, 1)
            for b in gold)):
        raise DataFormatError("gold_boundaries must be a list of 0/1")
    if len(gold) != num_photos:
        raise DataFormatError(
            f"gold_boundaries length {len(gold)} != photo count {num_photos}")
    return gold[:max_photos]


@contextmanager
def at_record(where):
    """Prefix a DataFormatError raised inside with where the bad data is:
    `<path>: line N` for a file's record, `album N` for an estimator's,
    `--train-data <path>` for build-vocab's corpus as a whole."""
    try:
        yield
    except DataFormatError as e:
        raise DataFormatError(f"{where}: {e}") from None


def read_records(path, *required):
    """(`<path>: line N`, object) for each non-blank line of a JSON-lines
    file; every record must be an object holding the `required` fields."""
    with utf8_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {line_no}"
            with at_record(where):
                try:
                    rec = json.loads(line)
                except ValueError as e:   # bad JSON, or an integer past int's digit limit
                    raise DataFormatError(f"invalid record: {e}") from e
                if not isinstance(rec, dict):
                    raise DataFormatError("record is not an object")
                for key in required:
                    if key not in rec:
                        raise DataFormatError(f"missing field '{key}'")
            yield where, rec


def load_albums(path, vocab: Vocabulary, max_photos: int = 40, max_words: int = 25,
                feature_dim: int | None = None) -> list[AlbumExample]:
    """Read a non-empty album file, `stories` optional; photos past max_photos are cut.

    Every feature row must have `feature_dim` values; None lets the file's
    first row decide; the sizes are checked before any record is read.
    """
    for name, size in (("max_photos", max_photos), ("max_words", max_words)):
        check_number(name, size, "Size")
    albums = []
    for where, rec in read_records(path, "album_id", "features"):
        with at_record(where):
            album_id = check_album_id(rec["album_id"])
            feats = feature_rows(rec["features"], feature_dim, max_photos)
            raw_stories = check_stories(rec["stories"]) if "stories" in rec else []
            gold = check_gold(rec.get("gold_boundaries"), len(rec["features"]),
                              max_photos)
        feature_dim = len(feats[0])
        stories = [[encode_sentence(s, vocab, max_words) for s in ref]
                   for ref in raw_stories]
        albums.append(AlbumExample(album_id, feats, stories, raw_stories, gold))
    if not albums:
        raise DataFormatError(f"{path}: holds no albums")
    return albums


def save_albums(path, albums):
    """Write albums as `load_albums` reads them, a story-less one without `stories`."""
    with open(path, "w", encoding="utf-8") as fh:
        for a in albums:
            rec = {"album_id": a.album_id,
                   "features": [f.tolist() for f in a.features]}
            if a.raw_stories:
                rec["stories"] = a.raw_stories
            if a.gold_boundaries is not None:
                rec["gold_boundaries"] = list(a.gold_boundaries)
            fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# synthetic corpus with known scene boundaries


@dataclass
class SynthSpec:
    albums: Size = 8
    scenes_per_album: tuple = (2, 3)
    photos_per_scene: tuple = (2, 4)
    feature_dim: Size = 8
    cluster_separation: float = 4.0
    noise_scale: Weight = 0.05
    vocab_size: int = 30
    sentences: Size = 5
    seed: Count = 0

    def __post_init__(self):
        check_field_types(self)
        for name in ("scenes_per_album", "photos_per_scene"):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi:
                raise ConfigError(f"{name} range ({lo}, {hi}) needs 1 <= lo <= hi")
        if not 0 < self.cluster_separation < np.inf:
            raise ConfigError("cluster_separation must be finite and > 0")
        if self.num_clusters < self.scenes_per_album[1]:
            raise ConfigError(
                f"vocab_size {self.vocab_size} supports only {self.num_clusters} "
                f"clusters, need {self.scenes_per_album[1]}")

    @property
    def num_clusters(self):
        # template inventory: 4 specials + {the, shows} + {group_c, thing_c} + {step_j}
        return (self.vocab_size - len(SPECIALS) - 2 - self.sentences) // 2


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
        raise ConfigError("cluster centers collide; raise feature_dim")
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
    try:
        with np.errstate(over="raise"):   # a feature beyond the float range
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
    except FloatingPointError:
        raise ConfigError(f"noise_scale {spec.noise_scale} with cluster_separation "
                          f"{spec.cluster_separation} overflows the photo features") from None
    return albums
