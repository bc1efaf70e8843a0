"""Numeric hot kernels, in numpy.

Kernels are deterministic for fixed inputs:
  dot_scores        -- dot products of a matrix's rows against one query
                       or a block of queries
  row_dots          -- a[i].dot(b[i]) of every row, each np.dot's per-row
                       BLAS dot bit for bit; the one per-row dot rule of
                       normalization, clip scores, inference filtering,
                       the decoder's cosines and exact_top's re-scores
  exact_top         -- the top k rows of a matrix for each of many queries,
                       found in a scan copy of the matrix (float32 for
                       retrieval) in cache-sized chunks against blocks of
                       queries, scored exactly against float64 unit rows
                       that a caller-given function supplies for the
                       candidates only, and ordered (score desc, row asc);
                       the one ranking rule of both retrieval and entity
                       classification. Each block is ranked with no loop
                       over its queries: pass 2 scores each candidate
                       group's slab against all its queries at once. When
                       BLAS runs one thread (by its thread variables) and
                       the process may run on 2 or more CPUs, its first
                       pass splits the scan into two contiguous ranges of
                       chunks, one scanned by the calling thread and one
                       by a worker thread
  attention_core    -- row-softmax scaled dot-product attention
  negative_scores   -- per-token max attention weight over negative queries

attention_core and negative_scores take stacks of b instances' arrays,
(b, rows, d), as fusion and suppression call them, as well as one
instance's 2-D arrays. Each slice of a stack equals its 2-D call bit for
bit: a 3-D np.matmul calls BLAS once per slice, with the slice's own shape.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def dot_scores(matrix: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Score of every row of `matrix` against `queries` (plain dot products):
    shape (N,) for one (d,) query, (B, N) for a (B, d) block."""
    return queries @ matrix.T


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i].dot(b[i]) of every row of two (n, d) matrices (b may be one
    (1, d) row, dotted with every row of a), as a stack of (1, d) @ (d, 1)
    products: each runs the BLAS dot that np.dot(a[i], b[i]) runs, so every
    row equals it bit for bit. A sum taken another way (einsum, (a*b).sum(1))
    rounds many rows differently."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


# Queries ranked per block, and store rows scored per chunk of a block: a
# chunk's (SCAN_ROWS, QUERY_BLOCK) float32 scores take 1 MiB. A chunk is
# reduced to per-query maxima over GROUP rows.
QUERY_BLOCK = 256
SCAN_ROWS = 1024
GROUP = 64  # SCAN_ROWS must be a multiple of GROUP
# Pass 1 runs in at most SCAN_THREADS threads, each scoring SCAN_ROWS /
# SCAN_THREADS rows at a time. Two is the one thread count measured to pay
# off (on 2 CPUs, beside a one-thread BLAS).
SCAN_THREADS = 2
# The variables that set the BLAS library's thread count when it loads.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _scan_threads(environ, cpus: int) -> int:
    """Pass 1's thread count: SCAN_THREADS (at most `cpus`) when `environ`
    holds BLAS at one thread (some thread variable set, and every one set
    is 1), else 1, as BLAS's own threads already use the CPUs."""
    values = [environ.get(var, "").strip() for var in BLAS_THREAD_ENV]
    serial = any(values) and all(v in ("", "1") for v in values)
    return min(SCAN_THREADS, cpus) if serial else 1


# read once, as the BLAS library read the same variables when numpy loaded
SCAN_WORKERS = _scan_threads(os.environ, _cpus())


def _scan_range(scan, block, maxima, start, stop, step) -> None:
    """Fill the rows of `maxima` that cover scan rows start:stop, scoring
    each SCAN_ROWS chunk `step` rows at a time into one reused buffer."""
    width = block.shape[0]
    scores = np.empty((min(step, stop - start), width), dtype=scan.dtype)
    for chunk in range(start, stop, SCAN_ROWS):
        end = min(chunk + SCAN_ROWS, stop)
        for at in range(chunk, end, step):
            rows = scan[at : min(at + step, end)]
            m = rows.shape[0]
            p = np.matmul(rows, block.T, out=scores[:m])
            g, full = at // GROUP, m // GROUP
            np.max(p[: full * GROUP].reshape(full, GROUP, width), axis=1, out=maxima[g : g + full])
            if full * GROUP < m:  # the scan's short last group
                np.max(p[full * GROUP :], axis=0, out=maxima[g + full])


def _group_maxima(scan: np.ndarray, block: np.ndarray, workers: int | None = None) -> np.ndarray:
    """(ceil(N/GROUP), B) maxima of the scan scores of every GROUP rows of
    `scan` for each query of `block`.

    The SCAN_ROWS chunks are split into `workers` (by default SCAN_WORKERS)
    contiguous ranges, at most one per chunk; the calling thread scans the
    first range and a worker thread each other one, each writing only its
    own rows of the maxima.

    Every thread, however many run, scores SCAN_ROWS / SCAN_THREADS rows
    (in whole groups) at a time. So every product has the same row count
    (BLAS can round a row's scores differently in a product of another row
    count) and the maxima do not depend on `workers`. Up to SCAN_THREADS
    threads, their score buffers together hold at most one chunk's scores,
    which bounds the memory pass 1 allocates.
    """
    n = scan.shape[0]
    step = max(SCAN_ROWS // SCAN_THREADS // GROUP, 1) * GROUP
    chunks = -(-n // SCAN_ROWS)
    workers = min(workers or SCAN_WORKERS, chunks)
    maxima = np.empty((-(-n // GROUP), block.shape[0]), dtype=scan.dtype)
    if workers == 1:
        _scan_range(scan, block, maxima, 0, n, step)
        return maxima
    edges = [min(n, chunks * w // workers * SCAN_ROWS) for w in range(workers + 1)]
    with ThreadPoolExecutor(workers - 1) as pool:
        others = [
            pool.submit(_scan_range, scan, block, maxima, edges[w], edges[w + 1], step)
            for w in range(1, workers)
        ]
        _scan_range(scan, block, maxima, edges[0], edges[1], step)
        for other in others:
            other.result()
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
    the scan, and rows with equal vectors tie exactly. `queries` is a
    sequence or an array of them. Queries are ranked QUERY_BLOCK at a time,
    in two passes, with no loop over the queries of a block:

    1. `scan` is scored against the block SCAN_ROWS rows at a time, and each
       chunk is kept only as its per-query maximum over every GROUP rows.
       When BLAS runs one thread (by its thread variables) and the process
       may run on 2 or more CPUs, the chunks are split into two contiguous
       ranges scanned at once, one by the calling thread and one by a
       worker thread; otherwise the calling thread scans them all, and
       BLAS's own threads share out each product. The calling thread alone
       takes each query's bound from the maxima and runs pass 2.
    2. The (query, group) pairs whose group maximum is within the margin
       (below) of the query's bound are read from the maxima with one
       np.nonzero. Each such group is scored again from `scan`, as one
       product of its GROUP-row slab of `scan` (a view, not a gather) with
       all the queries it is a candidate for. The pass-2 scores at or
       above a query's bound hold its k-th best (see below); one np.lexsort
       of them by (query, -score) gives every query's k-th best pass-2
       score, and the rows within the margin of it are the query's
       candidates (see _near_candidates). With k >= the number of groups
       the bound is -inf: pass 1 is skipped, and one product of all of
       `scan` with the block and one np.partition along its rows give each
       query's k-th best scan score (see _all_candidates).

    The block's candidates are fetched from `unit_rows` SCAN_ROWS rows at a
    time and re-scored in float64 by one row_dots per fetch, equal to
    np.dot(row, query) bit for bit. One np.lexsort orders them by (query,
    -score, row) and each query keeps its first k (see _ranked).

    The margin: for unit vectors, a dot product in a precision with unit
    roundoff u = eps/2 is off by at most (d+2)*u (d*u from the sum, 2*u
    from rounding the operands to that precision), so any scan score of a
    row and its float64 re-score differ by at most e = 2*(d+2)*u, and two
    scan scores of one row (pass 1's and pass 2's products) by at most e.
    A scan row s need not be the rounding of its unit row v: a row with
    |norm(s) - 1| <= eps (a loaded store scans its file's rows when all
    are) differs from v by at most |norm(s) - 1| + O(d*u64) <= 2*u, one u
    more than a rounding, for at most (d+3)*u, still within e. The margin
    is 4*(d+2)*eps, twice the 2*e the argument needs.

    Why the result is exact: let b be a query's k-th largest group maximum.
    Its k best groups hold k distinct rows that scan at >= b, so at least k
    rows re-score at >= b - e, and so does every row of the exact top k.
    Such a row scans at >= b - 2*e, so its group's maximum is within the
    margin of b, and pass 2 sees it. The k best groups' maximum rows score
    >= b - e in pass 2 as well, so the query's k-th best pass-2 score c is
    at least b - margin, and the pass-2 scores at or above b - margin hold
    it. The candidate groups hold at least k rows; the same argument puts
    every row of the exact top k within 2*e of c. So the rows re-scored
    hold the exact top k, and sorting them returns it.
    """
    n, d = scan.shape
    k = min(k, n)  # so a k past any C integer ranks the whole matrix
    margin = 4 * (d + 2) * float(np.finfo(scan.dtype).eps)
    n_groups = -(-n // GROUP)
    results = []
    for start in range(0, len(queries), QUERY_BLOCK):
        batch = queries[start : start + QUERY_BLOCK]
        block = np.array(batch, dtype=scan.dtype)
        if k < n_groups:
            owner, rows = _near_candidates(scan, block, k, margin)
        else:
            owner, rows = _all_candidates(scan, block, k, margin)
        results += _ranked(unit_rows, np.asarray(batch, dtype=np.float64), owner, rows, k)
    return results


def _kth_best(values: np.ndarray, owner: np.ndarray, k: int, width: int) -> np.ndarray:
    """The k-th largest of the values of each of owners 0..width-1, each of
    which owns at least k of them, as float64: one np.lexsort by (owner,
    -value)."""
    order = np.lexsort((-values, owner))
    counts = np.bincount(owner, minlength=width)
    return values[order[np.cumsum(counts) - counts + k - 1]].astype(np.float64)


def _near_candidates(scan, block, k, margin) -> tuple[np.ndarray, np.ndarray]:
    """(query, row) of every candidate of the block's queries, for k below
    the number of groups: passes 1 and 2 of exact_top."""
    n = scan.shape[0]
    maxima = _group_maxima(scan, block)
    n_groups = maxima.shape[0]
    kth = n_groups - k
    # partitioned in place along C-ordered rows: np.partition would keep the
    # transpose's strides, np.ascontiguousarray would give a view of the
    # maxima at B = 1
    part = maxima.T.copy()
    part.partition(kth, axis=1)
    bounds = part[:, kth].astype(np.float64) - margin
    del part
    groups, owner = np.nonzero(maxima >= bounds)  # in (group, query) order
    del maxima  # before pass 2's scores
    pairs = groups.shape[0]
    firsts = np.flatnonzero(np.diff(groups, prepend=-1))
    pair_queries = block[owner]
    scores = np.empty((pairs, GROUP), dtype=scan.dtype)
    for g, lo, hi in zip(groups[firsts].tolist(), firsts.tolist(), [*firsts[1:].tolist(), pairs]):
        slab = scan[g * GROUP : (g + 1) * GROUP]
        scores[lo:hi, : slab.shape[0]] = dot_scores(slab, pair_queries[lo:hi])
    if n % GROUP:  # the short last group's missing rows
        scores[groups == n_groups - 1, n % GROUP :] = -np.inf
    pair, col = np.nonzero(scores >= bounds[owner][:, None])
    values = scores[pair, col]
    cutoffs = _kth_best(values, owner[pair], k, block.shape[0]) - margin
    near = values >= cutoffs[owner[pair]]
    pair, col = pair[near], col[near]
    return owner[pair], groups[pair] * GROUP + col


def _all_candidates(scan, block, k, margin) -> tuple[np.ndarray, np.ndarray]:
    """(query, row) of every candidate of the block's queries, for k at or
    above the number of groups: one product and one partition."""
    n = scan.shape[0]
    scores = dot_scores(scan, block)
    if k < n:
        cutoffs = np.partition(scores, n - k, axis=1)[:, n - k].astype(np.float64) - margin
    else:
        cutoffs = np.full(block.shape[0], -np.inf)
    return np.nonzero(scores >= cutoffs[:, None])


def _ranked(unit_rows, units, owner, rows, k) -> list[list[tuple[float, int]]]:
    """Each query's (score, row) pairs: its candidates re-scored in float64,
    ordered by (score desc, row asc) and cut to k."""
    exact = np.concatenate([
        row_dots(unit_rows(rows[i : i + SCAN_ROWS]), units[owner[i : i + SCAN_ROWS]])
        for i in range(0, rows.shape[0], SCAN_ROWS)
    ])
    order = np.lexsort((rows, -exact, owner))
    owner, rows, exact = owner[order], rows[order], exact[order]
    counts = np.bincount(owner, minlength=units.shape[0])
    keep = np.arange(owner.shape[0]) - (np.cumsum(counts) - counts)[owner] < k
    scores, kept = exact[keep].tolist(), rows[keep].tolist()
    results, at = [], 0
    for count in np.minimum(counts, k).tolist():
        results.append(list(zip(scores[at : at + count], kept[at : at + count])))
        at += count
    return results


def _scaled_softmax(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-softmax of a b^T / sqrt(d), max-shifted for stability (of each
    slice's pair, for stacks)."""
    logits = (a @ np.swapaxes(b, -1, -2)) / math.sqrt(a.shape[-1])
    logits = logits - logits.max(axis=-1, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=-1, keepdims=True)


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
    No negatives => all-zero scores. Stacks of (b, L, d) prefixes and
    (b, n, d) negatives give (b, L) scores.
    """
    if negatives.shape[-2] == 0:
        return np.zeros(prefix.shape[:-1])
    return _scaled_softmax(negatives, prefix).max(axis=-2)


def backend() -> str:
    """Name of the kernel backend: always "numpy"."""
    return "numpy"
