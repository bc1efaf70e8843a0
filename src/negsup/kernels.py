"""Numeric hot kernels, in numpy.

Kernels operate on contiguous float64 arrays and are deterministic for
fixed inputs:
  dot_scores        -- dot products of a matrix's rows against one query
                       or a block of queries
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


def attention_core(queries, keys, values):
    """Scaled dot-product attention.

    Returns (output, weights): output[i] = sum_j w[i, j] * values[j] with
    w = row-softmax(Q K^T / sqrt(d)). Softmax is max-shifted for stability.
    """
    d = queries.shape[1]
    logits = (queries @ keys.T) / math.sqrt(d)
    logits = logits - logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    weights = weights / weights.sum(axis=1, keepdims=True)
    return weights @ values, weights


def negative_scores(prefix, negatives):
    """Per-token score: max over negative queries of softmax-over-tokens weight.

    Each negative vector attends over the prefix tokens (softmax across
    tokens); a token's score is the largest weight any negative puts on it.
    No negatives => all-zero scores.
    """
    n_tokens, d = prefix.shape
    if negatives.shape[0] == 0:
        return np.zeros(n_tokens)
    logits = (negatives @ prefix.T) / math.sqrt(d)
    logits = logits - logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    weights = weights / weights.sum(axis=1, keepdims=True)
    return weights.max(axis=0)


def backend() -> str:
    """Name of the kernel backend: always "numpy"."""
    return "numpy"
