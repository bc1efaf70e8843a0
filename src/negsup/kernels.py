"""Numeric hot kernels, in numpy.

Kernels operate on contiguous float64 arrays and are deterministic for
fixed inputs:
  dot_scores        -- dot products of a matrix's rows against one query
                       or a block of queries
  exact_top         -- the top k rows of a matrix for each query of a
                       block, scored exactly and ordered (score desc,
                       row asc); the one ranking rule of both retrieval
                       and entity classification
  attention_core    -- row-softmax scaled dot-product attention
  negative_scores   -- per-token max attention weight over negative queries
"""

from __future__ import annotations

import math

import numpy as np

# Scores of unit vectors from the block product and from a per-row dot
# differ by at most 2*d*u (u = eps/2); twice that bound of slack keeps every
# row of the exact top k among the candidates.
_MARGIN_PER_DIM = 4 * float(np.finfo(np.float64).eps)


def dot_scores(matrix: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Score of every row of `matrix` against `queries` (plain dot products):
    shape (N,) for one (d,) query, (B, N) for a (B, d) block."""
    return queries @ matrix.T


def exact_top(matrix: np.ndarray, queries, k: int) -> list[list[tuple[float, int]]]:
    """The min(k, N) best rows of the (N, d) unit-row `matrix` for each unit
    query of a block, as (score, row) pairs in (score desc, row asc) order.

    One product scores the block and one partition per query finds its
    k-th score; the rows within a rounding margin of it are re-scored with
    one dot product each. A pair's score is therefore that per-row dot,
    whatever the block, and rows with equal vectors tie exactly.
    """
    n, d = matrix.shape
    margin = _MARGIN_PER_DIM * d
    results = []
    for row_scores, query in zip(dot_scores(matrix, np.stack(queries)), queries):
        cutoff = np.partition(row_scores, n - k)[n - k] - margin if k < n else -np.inf
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
