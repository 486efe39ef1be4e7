"""The LCS kernel against a brute-force oracle."""
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

