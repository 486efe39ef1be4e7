"""Kernels against brute-force oracles."""
import random

import numpy as np

from scirforge import kernels


def lcs_oracle(a, b):
    """Plain quadratic DP, the reference for the bit-parallel kernel."""
    la, lb = len(a), len(b)
    dp = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            if a[i - 1] == b[j - 1]:
                dp[i][j] = dp[i - 1][j - 1] + 1
            else:
                dp[i][j] = max(dp[i - 1][j], dp[i][j - 1])
    return dp[la][lb]


def bm25_oracle(unit_ids, tfs, idf, k1, norm, n_units):
    scores = [0.0] * n_units
    for u, tf in zip(unit_ids, tfs):
        scores[u] += idf * (tf * (k1 + 1.0)) / (tf + norm[u])
    return scores


def test_lcs_empty_inputs():
    empty = np.array([], dtype=np.int64)
    seq = np.array([1, 2, 3], dtype=np.int64)
    assert kernels.lcs_length(empty, seq) == 0
    assert kernels.lcs_length(seq, empty) == 0
    assert kernels.lcs_length(empty, empty) == 0


def test_lcs_against_oracle():
    rng = random.Random(11)
    for _ in range(150):
        a = [rng.randrange(6) for _ in range(rng.randrange(0, 30))]
        b = [rng.randrange(6) for _ in range(rng.randrange(0, 30))]
        got = kernels.lcs_length(
            np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        )
        assert got == lcs_oracle(a, b)


def test_bm25_accumulate_against_oracle():
    rng = random.Random(13)
    for _ in range(100):
        n_units = rng.randrange(1, 12)
        n_postings = rng.randrange(0, n_units + 1)
        unit_ids = sorted(rng.sample(range(n_units), n_postings))
        tfs = [float(rng.randrange(1, 6)) for _ in unit_ids]
        idf = rng.uniform(0.01, 3.0)
        k1 = 1.2
        norm = [rng.uniform(0.3, 3.0) for _ in range(n_units)]
        scores = np.zeros(n_units)
        kernels.bm25_accumulate(
            scores,
            np.array(unit_ids, dtype=np.int64),
            np.array(tfs),
            idf,
            k1,
            np.array(norm),
        )
        expected = bm25_oracle(unit_ids, tfs, idf, k1, norm, n_units)
        assert np.allclose(scores, expected, rtol=0, atol=1e-12)


def test_bm25_accumulate_empty_postings():
    scores = np.zeros(4)
    kernels.bm25_accumulate(
        scores, np.array([], dtype=np.int64), np.array([]), 1.0, 1.2, np.ones(4)
    )
    assert not scores.any()
