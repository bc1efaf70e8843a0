"""Numeric hot kernels, in numpy.

Kernels are deterministic for fixed inputs:
  dot_scores        -- dot products of a matrix's rows against one query
                       or a block of queries
  exact_top         -- the top k rows of a matrix for each of many queries,
                       found in a scan copy of the matrix (float32 for
                       retrieval) in cache-sized chunks against blocks of
                       queries, scored exactly against float64 unit rows
                       that a caller-given function supplies for the
                       candidates only, and ordered (score desc, row asc);
                       the one ranking rule of both retrieval and entity
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


# Queries ranked per block, and store rows scored per chunk of a block: a
# chunk's (QUERY_BLOCK, SCAN_ROWS) float32 scores take 1 MiB, so they stay in
# a core's L2 cache. A chunk is reduced to per-query maxima over GROUP rows.
QUERY_BLOCK = 256
SCAN_ROWS = 1024
GROUP = 64  # SCAN_ROWS must be a multiple of GROUP


def _group_maxima(scan: np.ndarray, block: np.ndarray) -> np.ndarray:
    """(B, ceil(N/GROUP)) maxima of the scan scores of every GROUP rows of
    `scan` for each query of `block`, scored SCAN_ROWS rows at a time."""
    n = scan.shape[0]
    maxima = np.empty((block.shape[0], -(-n // GROUP)), dtype=scan.dtype)
    for start in range(0, n, SCAN_ROWS):
        rows = scan[start : start + SCAN_ROWS]
        heads = np.arange(0, rows.shape[0], GROUP)
        first = start // GROUP
        np.maximum.reduceat(
            dot_scores(rows, block), heads, axis=1,
            out=maxima[:, first : first + heads.shape[0]],
        )
    return maxima


def exact_top(
    unit_rows, scan: np.ndarray, queries, k: int
) -> list[list[tuple[float, int]]]:
    """The min(k, N) best rows of an (N, d) unit-row matrix for each unit
    query, as (score, row) pairs in (score desc, row asc) order.

    `unit_rows(index)` returns the matrix's float64 rows at an array of row
    numbers, equal whatever else the array holds; it is called only for the
    candidates below, so the matrix itself need not exist (the datastore
    derives its rows from a file's float32 rows). `scan` is the matrix or a
    copy of it in a narrower float dtype; every approximate score below is a
    product with `scan`, and the score returned is one float64 dot product
    of a unit row per row, so it does not depend on the block, the chunk or
    the scan, and rows with equal vectors tie exactly. Queries are ranked
    QUERY_BLOCK at a time, in two passes:

    1. `scan` is scored against the block SCAN_ROWS rows at a time, and each
       chunk is kept only as its per-query maximum over every GROUP rows.
    2. For each query, the rows of the groups whose maximum is within the
       margin of the bound (below) are scored again from `scan`, SCAN_ROWS
       rows at a time. Those within the margin of their k-th score are the
       query's candidates. The block's candidates are fetched from
       `unit_rows` SCAN_ROWS rows at a time and re-scored in float64; each
       query's are sorted and cut to k.

    The margin: for unit vectors, a dot product in a precision with unit
    roundoff u = eps/2 is off by at most (d+2)*u (d*u from the sum, 2*u
    from rounding the operands to that precision), so any scan score of a
    row and its float64 re-score differ by at most e = 2*(d+2)*u. A scan
    row s need not be the rounding of its unit row v: a row with
    |norm(s) - 1| <= eps (a loaded store scans its file's rows when all
    are) differs from v by at most |norm(s) - 1| + O(d*u64) <= 2*u, one u
    more than a rounding, for at most (d+3)*u, still within e. The margin
    is 4*(d+2)*eps, twice the 2*e the argument needs.

    Why the result is exact: let b be a query's k-th largest group maximum.
    Its k best groups hold k distinct rows that scan at >= b, so at least k
    rows re-score at >= b - e, and so does every row of the exact top k.
    Such a row scans at >= b - 2*e, so its group's maximum is within the
    margin of b, and pass 2 sees it. The candidate groups hold at least k
    rows; with c their k-th pass-2 score, the same argument puts every
    row of the exact top k within 2*e of c. So the rows re-scored hold the
    exact top k, and sorting them returns it. With k >= the number of
    groups the bound is -inf: pass 1 is skipped and pass 2 scores all rows.
    """
    n, d = scan.shape
    margin = 4 * (d + 2) * float(np.finfo(scan.dtype).eps)
    n_groups = -(-n // GROUP)
    offsets = np.arange(GROUP)
    results = []
    for start in range(0, len(queries), QUERY_BLOCK):
        batch = queries[start : start + QUERY_BLOCK]
        block = np.array(batch, dtype=scan.dtype)
        if k < n_groups:
            maxima = _group_maxima(scan, block)
            kth = n_groups - k
            bounds = np.partition(maxima, kth, axis=1)[:, kth].astype(np.float64) - margin
            near = maxima >= bounds[:, None]
            del maxima  # before the next block's
        picked = []  # each query's candidate rows
        for b in range(len(batch)):
            if k < n_groups:
                rows = (np.flatnonzero(near[b])[:, None] * GROUP + offsets).ravel()
                if rows[-1] >= n:  # the last group is short
                    rows = rows[rows < n]
                # gathered SCAN_ROWS at a time: ties can make all groups candidates
                scores = np.concatenate([
                    dot_scores(scan[rows[i : i + SCAN_ROWS]], block[b])
                    for i in range(0, rows.shape[0], SCAN_ROWS)
                ])
            else:
                rows = np.arange(n)
                scores = dot_scores(scan, block[b])
            m = rows.shape[0]
            cutoff = float(np.partition(scores, m - k)[m - k]) - margin if k < m else -np.inf
            picked.append(rows[scores >= cutoff])
        rows = np.concatenate(picked)
        owner = np.repeat(np.arange(len(batch)), [p.shape[0] for p in picked]).tolist()
        exact = []
        for i in range(0, rows.shape[0], SCAN_ROWS):
            exact += [
                -float(np.dot(row, batch[q]))
                for row, q in zip(unit_rows(rows[i : i + SCAN_ROWS]), owner[i : i + SCAN_ROWS])
            ]
        at = 0
        for p in picked:
            scored = sorted(zip(exact[at : at + p.shape[0]], p.tolist()))
            at += p.shape[0]
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
