"""Numeric hot loops: LCS length (behind ROUGE-L) and BM25 accumulation.

Each kernel has one implementation.  LCS length uses the bit-parallel
recurrence of Allison & Dix (1986) in the form given by Hyyrö ("Bit-parallel
LCS-length computation revisited", 2004), on Python's arbitrary-precision
ints; BM25 accumulation is a single vectorized numpy expression.
"""
from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np


def lcs_length(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Length of the longest common subsequence of two token sequences.

    After each token of b, bit i of v is 0 exactly where the LCS of a[:i + 1]
    and the part of b seen so far is one longer than that of a[:i], so the
    zero bits of v count the LCS.  Each token of b updates every bit at once.
    """
    # The loop runs once per token of b, so b is the shorter side.
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 0:
        return 0
    masks: dict[Hashable, int] = {}
    for i, token in enumerate(a):
        masks[token] = masks.get(token, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for token in b:
        u = v & masks.get(token, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def bm25_accumulate(
    scores: np.ndarray,
    unit_ids: np.ndarray,
    tfs: np.ndarray,
    idf: float,
    k1: float,
    norm: np.ndarray,
) -> None:
    """Add one query term's BM25 contribution to per-unit scores, in place.

    norm[u] must hold the precomputed k1 * (1 - b + b * len_u / avg_len) for
    unit u; unit_ids lists each matching unit exactly once, which is what
    makes the fancy-index += below safe.
    """
    scores[unit_ids] += idf * (tfs * (k1 + 1.0)) / (tfs + norm[unit_ids])
