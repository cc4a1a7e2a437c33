"""Training objectives: word NLL, sentence-order margin, reconstruction.

The order loss scores each true sentence against a deranged one at the
same album position and demands a margin of one nat:
    sum_j max(0, 1 - log P(S_j | A) + log P(S'_j | A)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import check_number


@dataclass
class LossReport:
    nll: float
    rank: float
    recon: float
    total: float
    word_count: int


def nll_loss(pos_logps):
    """Minus the summed (n,) true-sentence log-probs; each total already
    covers every word and EOS."""
    return -T.arr_sum(pos_logps)


def rank_loss(pos_logps, neg_logps):
    """Margin hinge per sentence over two aligned (n,) score vectors."""
    if pos_logps.shape != neg_logps.shape:
        raise ValueError(f"positive/negative sentence scores differ in shape: "
                         f"{pos_logps.shape} vs {neg_logps.shape}")
    return T.arr_sum(T.relu(1.0 - pos_logps + neg_logps))


def recon_loss(Z, Z_tilde):
    """Sum of squared Euclidean distances between the aligned (n, D_v) rows."""
    if Z.shape != Z_tilde.shape:
        raise T.DimensionError(f"z rows {Z.shape} != reconstruction {Z_tilde.shape}")
    diff = Z_tilde - Z
    return T.arr_sum(diff * diff)


def total_loss(nll, rank, recon, lam: float = 0.2, mu: float = 0.8):
    check_number("lam", lam, "Weight")
    check_number("mu", mu, "Weight")
    return nll + lam * rank + mu * recon


def derangement(n: int, rng) -> np.ndarray:
    """Random permutation of range(n) with no fixed point; n >= 2. Draws
    `rng.permutation(n)` until one has no fixed point, checked in Python,
    which at these n costs less than a numpy comparison per try."""
    if n < 2:
        raise ValueError("derangement needs n >= 2")
    while True:
        perm = rng.permutation(n)
        if all(p != i for i, p in enumerate(perm.tolist())):
            return perm
