"""Training objectives: word NLL, sentence-order margin, reconstruction.

The order loss scores each true sentence against a deranged one at the
same album position and demands a margin of one nat:
    sum_j max(0, 1 - log P(S_j | A) + log P(S'_j | A)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T


@dataclass
class LossReport:
    nll: float
    rank: float
    recon: float
    total: float
    word_count: int

    def per_word_nll(self):
        return self.nll / max(1, self.word_count)


def nll_loss(word_logps, mask=None):
    """-sum of log-probs; word_logps is a flat list of scalar nodes.

    mask, when given, zeroes out padding positions (same length, 0/1).
    """
    total = T.wrap(0.0)
    for i, lp in enumerate(word_logps):
        if mask is not None and not mask[i]:
            continue
        total = total + lp
    return -total


def rank_loss(pos_logps, neg_logps):
    """Margin hinge per sentence; positive and negative lists align by
    album position."""
    if len(pos_logps) != len(neg_logps):
        raise ValueError("positive/negative sentence counts differ")
    total = T.wrap(0.0)
    for pos, neg in zip(pos_logps, neg_logps):
        total = total + T.relu(1.0 - pos + neg)
    return total


def recon_loss(z_list, z_tilde_list):
    """Sum of squared Euclidean distances over aligned sentence pairs."""
    if len(z_list) != len(z_tilde_list):
        raise ValueError("z / reconstruction counts differ")
    total = T.wrap(0.0)
    for z, zt in zip(z_list, z_tilde_list):
        if z.shape != zt.shape:
            raise T.DimensionError(f"z dim {z.shape} != reconstruction {zt.shape}")
        diff = zt - z
        total = total + T.arr_sum(diff * diff)
    return total


def total_loss(nll, rank, recon, lam: float = 0.2, mu: float = 0.8):
    if lam < 0 or mu < 0:
        raise ValueError("trade-off weights must be >= 0")
    return nll + lam * rank + mu * recon


def derangement(n: int, rng) -> np.ndarray:
    """Random permutation of range(n) with no fixed point; n >= 2."""
    if n < 2:
        raise ValueError("derangement needs n >= 2")
    while True:
        perm = rng.permutation(n)
        if not np.any(perm == np.arange(n)):
            return perm
