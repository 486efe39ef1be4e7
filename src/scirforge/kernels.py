"""LCS length, the hot loop behind ROUGE-L.

It uses the bit-parallel recurrence of Allison & Dix (1986) in the form given
by Hyyrö ("Bit-parallel LCS-length computation revisited", 2004), on Python's
arbitrary-precision ints.
"""
from __future__ import annotations

from typing import Hashable, Sequence


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

