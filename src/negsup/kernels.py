"""Numeric hot kernels, in numpy.

Kernels are deterministic for fixed inputs:
  dot_scores        -- dot products of a matrix's rows against one query
                       or a block of queries
  exact_top         -- the top k rows of a matrix for each query of a
                       block, found in a scan copy of the matrix (float32
                       for retrieval), scored exactly in the matrix's
                       float64 and ordered (score desc, row asc); the one
                       ranking rule of both retrieval and entity
                       classification
  attention_core    -- row-softmax scaled dot-product attention
  negative_scores   -- per-token max attention weight over negative queries
"""

from __future__ import annotations

import math

import numpy as np


def dot_scores(matrix: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Score of every row of `matrix` against `queries` (plain dot products):
    shape (N,) for one (d,) query, (B, N) for a (B, d) block."""
    return queries @ matrix.T


def exact_top(
    matrix: np.ndarray, scan: np.ndarray, queries, k: int
) -> list[list[tuple[float, int]]]:
    """The min(k, N) best rows of the (N, d) unit-row `matrix` for each unit
    query of a block, as (score, row) pairs in (score desc, row asc) order.

    `scan` is `matrix` or a copy of it in a narrower float dtype. One
    product of `scan` with the block scores every row approximately, and
    one partition per query finds its k-th approximate score. The rows
    within a rounding margin of it are re-scored with one float64 dot
    product of `matrix` each, and that dot is the score returned: it does
    not depend on the block or the scan, and rows with equal vectors tie
    exactly.

    The margin: for unit vectors, a dot product in a precision with unit
    roundoff u = eps/2 is off by at most (d+2)*u (d*u from the sum, 2*u
    from rounding the operands to that precision), so a scan score and the
    re-score differ by at most e = 2*(d+2)*u of the scan's precision. The
    k-th scan score is off by e too, so each row of the exact top k scans
    within 2*e of it; the margin is twice that, 4*(d+2)*eps.
    """
    n, d = matrix.shape
    margin = 4 * (d + 2) * float(np.finfo(scan.dtype).eps)
    block = np.array(queries, dtype=scan.dtype)
    results = []
    for row_scores, query in zip(dot_scores(scan, block), queries):
        cutoff = float(np.partition(row_scores, n - k)[n - k]) - margin if k < n else -np.inf
        scored = sorted(
            (-float(np.dot(matrix[i], query)), i)
            for i in np.flatnonzero(row_scores >= cutoff).tolist()
        )
        results.append([(-neg, i) for neg, i in scored[:k]])
    return results


def _scaled_softmax(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-softmax of a b^T / sqrt(d), max-shifted for stability."""
    logits = (a @ b.T) / math.sqrt(a.shape[1])
    logits = logits - logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=1, keepdims=True)


def attention_core(queries, keys, values):
    """Scaled dot-product attention.

    Returns (output, weights): output[i] = sum_j w[i, j] * values[j] with
    w = row-softmax(Q K^T / sqrt(d)).
    """
    weights = _scaled_softmax(queries, keys)
    return weights @ values, weights


def negative_scores(prefix, negatives):
    """Per-token score: max over negative queries of softmax-over-tokens weight.

    Each negative vector attends over the prefix tokens (softmax across
    tokens); a token's score is the largest weight any negative puts on it.
    No negatives => all-zero scores.
    """
    if negatives.shape[0] == 0:
        return np.zeros(prefix.shape[0])
    return _scaled_softmax(negatives, prefix).max(axis=0)


def backend() -> str:
    """Name of the kernel backend: always "numpy"."""
    return "numpy"
