"""Corpus-level BLEU-1..4, ROUGE-L, and CIDEr for multi-reference stories.

Candidates and references are raw token lists (whole stories, sentences
concatenated in order). BLEU follows the classic corpus formulation:
clipped n-gram counts against the per-gram max across references, a
geometric mean of precisions, and a brevity penalty using the closest
reference length. ROUGE-L is the LCS F-measure with beta=1.2, max over
references, averaged over the corpus. CIDEr is the mean over n of TF-IDF
n-gram cosine similarity, averaged over references and scaled by 10; the
document-frequency denominator is computed over the corpus references.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

MAX_N = 4          # BLEU and CIDEr n-gram orders 1..MAX_N
ROUGE_BETA = 1.2   # ROUGE-L's recall weight


@dataclass
class EvalPair:
    candidate: list
    references: list   # one or more token lists

    def __post_init__(self):
        if len(self.references) < 1:
            raise ValueError("EvalPair needs at least one reference")


def _require_corpus(pairs):
    if len(pairs) == 0:
        raise ValueError("empty evaluation corpus")


def _ngrams(tokens, n) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(pairs) -> dict:
    """Returns {n: score} for n = 1..MAX_N."""
    _require_corpus(pairs)
    clipped = [0] * (MAX_N + 1)
    totals = [0] * (MAX_N + 1)
    cand_len, ref_len = 0, 0
    for pair in pairs:
        c = len(pair.candidate)
        cand_len += c
        # closest reference length; ties go to the shorter reference
        ref_len += min((abs(len(r) - c), len(r)) for r in pair.references)[1]
        for n in range(1, MAX_N + 1):
            counts = _ngrams(pair.candidate, n)
            max_ref = Counter()
            for ref in pair.references:
                max_ref |= _ngrams(ref, n)  # per-gram max over references
            clipped[n] += sum(min(cnt, max_ref[gram]) for gram, cnt in counts.items())
            totals[n] += sum(counts.values())

    if cand_len == 0:
        return {n: 0.0 for n in range(1, MAX_N + 1)}
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    scores = {}
    for n in range(1, MAX_N + 1):
        log_sum = 0.0
        degenerate = False
        for k in range(1, n + 1):
            if clipped[k] == 0 or totals[k] == 0:
                degenerate = True
                break
            log_sum += math.log(clipped[k] / totals[k])
        scores[n] = 0.0 if degenerate else bp * math.exp(log_sum / n)
    return scores


def _lcs_len(a, b) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(pairs) -> float:
    _require_corpus(pairs)
    total = 0.0
    for pair in pairs:
        best = 0.0
        for ref in pair.references:
            lcs = _lcs_len(pair.candidate, ref)
            if lcs == 0:
                continue
            prec = lcs / len(pair.candidate)
            rec = lcs / len(ref)
            f = (1 + ROUGE_BETA ** 2) * rec * prec / (rec + ROUGE_BETA ** 2 * prec)
            if f > best:
                best = f
        total += best
    return total / len(pairs)


def cider(pairs) -> float:
    _require_corpus(pairs)
    # document frequency: number of corpus items whose reference set
    # contains the n-gram. The log-N term is floored at log 2 so that a
    # one-item corpus still produces nonzero idf (an identical candidate
    # must score the full 10).
    doc_freq = [Counter() for _ in range(MAX_N + 1)]
    for pair in pairs:
        for n in range(1, MAX_N + 1):
            seen = set()
            for ref in pair.references:
                seen.update(_ngrams(ref, n).keys())
            for gram in seen:
                doc_freq[n][gram] += 1
    log_docs = math.log(max(len(pairs), 2))

    def tfidf(tokens, n):
        vec = {gram: cnt * (log_docs - math.log(max(1, doc_freq[n][gram])))
               for gram, cnt in _ngrams(tokens, n).items()}
        norm = math.sqrt(sum(w * w for w in vec.values()))
        return vec, norm

    total = 0.0
    for pair in pairs:
        pair_score = 0.0
        for n in range(1, MAX_N + 1):
            c_vec, c_norm = tfidf(pair.candidate, n)
            sim = 0.0
            for ref in pair.references:
                r_vec, r_norm = tfidf(ref, n)
                if c_norm > 0 and r_norm > 0:
                    dot = sum(w * r_vec.get(g, 0.0) for g, w in c_vec.items())
                    sim += dot / (c_norm * r_norm)
            pair_score += sim / len(pair.references)
        total += pair_score / MAX_N
    return 10.0 * total / len(pairs)
