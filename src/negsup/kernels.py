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
                       classification. When BLAS runs one thread (by its
                       thread variables) and the process may run on 2 or
                       more CPUs, its first pass splits the scan into two
                       contiguous ranges of chunks, one scanned by the
                       calling thread and one by a worker thread
  attention_core    -- row-softmax scaled dot-product attention
  negative_scores   -- per-token max attention weight over negative queries

attention_core and negative_scores also take stacks of b instances' arrays,
(b, rows, d), and stay bit for bit equal to their per-instance 2-D calls:
a 3-D np.matmul calls BLAS once per slice, with the slice's own shape.
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
    the scan, and rows with equal vectors tie exactly. Queries are ranked
    QUERY_BLOCK at a time, in two passes:

    1. `scan` is scored against the block SCAN_ROWS rows at a time, and each
       chunk is kept only as its per-query maximum over every GROUP rows.
       When BLAS runs one thread (by its thread variables) and the process
       may run on 2 or more CPUs, the chunks are split into two contiguous
       ranges scanned at once, one by the calling thread and one by a
       worker thread; otherwise the calling thread scans them all, and
       BLAS's own threads share out each product. The calling thread alone
       takes each query's bound from the maxima and runs pass 2.
    2. For each query, the rows of the groups whose maximum is within the
       margin of the bound (below) are scored again from `scan`, SCAN_ROWS
       rows at a time. Those within the margin of their k-th score are the
       query's candidates. The block's candidates are fetched from
       `unit_rows` SCAN_ROWS rows at a time and re-scored in float64 as
       one stack of (1, d) @ (d, 1) products per fetch, which runs the
       per-row BLAS dot of np.dot(row, query), bit for bit; each query's
       are sorted and cut to k.

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
            # partitioned in place along C-ordered rows: np.partition would
            # keep the transpose's strides, np.ascontiguousarray would give
            # a view of the maxima at B = 1
            part = maxima.T.copy()
            part.partition(kth, axis=1)
            bounds = part[:, kth].astype(np.float64) - margin
            del part
            near = np.greater_equal(maxima.T, bounds[:, None], order="C")
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
        owner = np.repeat(np.arange(len(batch)), [p.shape[0] for p in picked])
        units = np.asarray(batch, dtype=np.float64)
        # a stack of (1, d) @ (d, 1) products runs np.dot's per-row BLAS dot
        exact = (-np.concatenate([
            (unit_rows(rows[i : i + SCAN_ROWS])[:, None, :]
             @ units[owner[i : i + SCAN_ROWS], :, None])[:, 0, 0]
            for i in range(0, rows.shape[0], SCAN_ROWS)
        ])).tolist()
        at = 0
        for p in picked:
            scored = sorted(zip(exact[at : at + p.shape[0]], p.tolist()))
            at += p.shape[0]
            results.append([(-neg, i) for neg, i in scored[:k]])
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
