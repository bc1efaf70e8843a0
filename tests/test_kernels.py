import ast
import functools
import importlib
import importlib.util
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from negsup import kernels
from negsup.datastore import brute_force_topk, build_datastore, retrieve
from negsup.embedding import l2_normalize


def _random_case(rng, n_q=4, n_k=7, d=12):
    return (
        rng.normal(size=(n_q, d)),
        rng.normal(size=(n_k, d)),
        rng.normal(size=(n_k, d)),
    )


class TestNumpyBackend:
    def test_dot_scores(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(20, 8))
        query = rng.normal(size=8)
        expected = np.array([float(np.dot(row, query)) for row in matrix])
        np.testing.assert_allclose(
            kernels.dot_scores(matrix, query), expected, rtol=1e-12
        )

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        q, k, v = _random_case(rng)
        _, weights = kernels.attention_core(q, k, v)
        np.testing.assert_allclose(weights.sum(axis=1), np.ones(4), atol=1e-12)
        assert np.all(weights >= 0)

    def test_negative_scores_empty(self):
        prefix = np.random.default_rng(2).normal(size=(5, 6))
        scores = kernels.negative_scores(prefix, np.zeros((0, 6)))
        assert np.array_equal(scores, np.zeros(5))

    def test_negative_scores_single_query_sums_to_one(self):
        rng = np.random.default_rng(3)
        prefix = rng.normal(size=(6, 4))
        negatives = rng.normal(size=(1, 4))
        scores = kernels.negative_scores(prefix, negatives)
        # one query: per-token max equals that query's softmax weights
        assert abs(scores.sum() - 1.0) <= 1e-12


def test_dot_scores_block_rows_match_single_queries():
    rng = np.random.default_rng(4)
    matrix = rng.normal(size=(30, 8))
    block = rng.normal(size=(5, 8))
    scores = kernels.dot_scores(matrix, block)
    assert scores.shape == (5, 30)
    for row, query in zip(scores, block):
        np.testing.assert_allclose(
            row, kernels.dot_scores(matrix, query), rtol=1e-12, atol=1e-12
        )


@pytest.mark.parametrize(
    "d", [1, 2, 3, 4, 5, 7, 8, 12, 16, 24, 31, 32, 33, 48, 64, 96, 100, 127, 128, 256, 512, 768]
)
def test_rescore_equals_per_row_dot(d):
    """exact_top's stacked float64 re-score gives each row the bits of
    np.dot(row, query), across re-score chunks and query boundaries."""
    rng = np.random.default_rng(d)
    n = kernels.SCAN_ROWS + 76
    matrix = np.stack([l2_normalize(v) for v in rng.normal(size=(n, d))])
    queries = [l2_normalize(v) for v in rng.normal(size=(3, d))]
    # k = n re-scores every row of every query, 3 * n rows in all
    for query, top in zip(queries, kernels.exact_top(matrix.__getitem__, matrix, queries, n)):
        expected = sorted((-float(np.dot(row, query)), i) for i, row in enumerate(matrix))
        assert np.array([s for s, _ in top]).tobytes() == np.array([-s for s, _ in expected]).tobytes()
        assert [i for _, i in top] == [i for _, i in expected]


def test_backend_name_matches_flag():
    assert kernels.backend() == "numpy"


def _planted_pairs(rng, dim=64, background=600, n_queries=40, levels=(0.95, 0.9, 0.85, 0.8)):
    """Raw records and queries where each query has one pair of rows at each
    cosine level: pairs sit at ranks (1, 2), (3, 4), ..., so every odd k
    cuts through one. A pair's rows differ by several float32 ulps, almost
    all of it orthogonal to the query, so their float64 scores differ by
    more than 0 but by far less than float32 rounding, and a float32 scan
    orders about half of the pairs wrongly. One bit-identical copy of the
    first row of each query's second pair ties it exactly."""
    records = [(f"b{i:04d}", "background", rng.normal(size=dim)) for i in range(background)]
    queries, pairs = [], []
    for j in range(n_queries):
        query = l2_normalize(rng.normal(size=dim))
        queries.append(query)
        for p, level in enumerate(levels):
            side = rng.normal(size=dim)
            side = l2_normalize(side - side.dot(query) * query)
            row = level * query + np.sqrt(1 - level**2) * side
            away = rng.normal(size=dim)
            away = l2_normalize(away - away.dot(query) * query - away.dot(side) * side)
            twin = row + 3e-7 * (away + 1e-4 * query)
            ids = (f"q{j:02d}p{p}a", f"q{j:02d}p{p}b")
            records += [(ids[0], "pair", row), (ids[1], "pair", twin)]
            pairs.append((j, ids))
        records.append((f"q{j:02d}p1c", "copy", records[-6][2].copy()))
    return records, queries, pairs


def _in_blocks(unit_rows, scan, queries, k, size):
    out = []
    for start in range(0, len(queries), size):
        out += kernels.exact_top(unit_rows, scan, queries[start : start + size], k)
    return out


class TestFloat32Scan:
    """exact_top over a float32 scan copy equals the float64-only scan and
    the brute-force oracle bit for bit."""

    @pytest.fixture(scope="class")
    def planted(self):
        records, queries, pairs = _planted_pairs(np.random.default_rng(41))
        store = build_datastore(records)
        ranked = [brute_force_topk(records, q, len(records)) for q in queries]
        # the unit queries brute_force_topk scores with
        return records, store, [l2_normalize(q) for q in queries], pairs, ranked

    def test_pairs_are_closer_than_float32_rounding(self, planted):
        _, store, queries, pairs, _ = planted
        row = {rid: i for i, rid in enumerate(store.ids)}
        scan_scores = kernels.dot_scores(store.scan, np.stack(queries).astype(np.float32))
        misordered = 0
        for j, (a, b) in pairs:
            gap = float(np.dot(store.matrix[row[a]], queries[j])) - float(
                np.dot(store.matrix[row[b]], queries[j])
            )
            assert 0 < abs(gap) < np.finfo(np.float32).eps
            scan_gap = float(scan_scores[j, row[a]]) - float(scan_scores[j, row[b]])
            misordered += scan_gap * gap < 0
        assert misordered >= 10

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 8, 9])
    @pytest.mark.parametrize("size", [1, 7, 32, 40])
    def test_equals_float64_scan_and_oracle(self, planted, k, size):
        _, store, queries, _, ranked = planted
        assert store.scan.dtype == np.float32
        row = {rid: i for i, rid in enumerate(store.ids)}
        got = _in_blocks(store.unit_rows, store.scan, queries, k, size)
        assert got == _in_blocks(store.unit_rows, store.matrix, queries, k, size)
        for top, oracle in zip(got, ranked):
            assert top == [(hit.score, row[hit.id]) for hit in oracle.hits[:k]]


def _tie_records(n, group, scan_rows, rng, dim=16):
    """n raw records, row i of the store at index i (ids sort by index),
    crowded with exact and near ties of three base vectors, plus planted
    pairs that straddle the group and chunk boundaries: a bit-identical
    pair at rows (group-1, group) and a pair one ulp apart at rows
    (scan_rows-1, scan_rows), where the store has them."""
    bases = [rng.normal(size=dim) for _ in range(3)]
    vectors = []
    for i in range(n):
        base = bases[i % 3]
        kind = rng.integers(4)
        if kind == 0:
            vectors.append(base.copy())
        elif kind == 1:
            # apart in float64 by far less than float32 rounding
            vectors.append(base + 1e-9 * rng.normal(size=dim))
        else:
            vectors.append(rng.normal(size=dim))
    if group < n:
        vectors[group - 1] = bases[0].copy()
        vectors[group] = bases[0].copy()
    if scan_rows < n:
        vectors[scan_rows - 1] = bases[1].copy()
        vectors[scan_rows] = bases[1].copy()
        vectors[scan_rows][0] = np.nextafter(bases[1][0], np.inf)
    queries = bases + [bases[0] + 1e-3 * rng.normal(size=dim)]
    queries += [rng.normal(size=dim) for _ in range(3)]
    return [(f"r{i:05d}", "c", v) for i, v in enumerate(vectors)], queries


@pytest.mark.parametrize("group,scan_rows", [(1, 1), (2, 6), (5, 35), (64, 64)])
def test_chunked_scan_boundaries_and_ties(monkeypatch, group, scan_rows):
    """exact_top over the float32 scan equals the float64 scan and the
    brute-force oracle bit for bit, for stores a row short of, at, and a row
    past a group, past two chunks, with k below, at and past the number of
    groups and the number of rows, and queries in more than one block."""
    monkeypatch.setattr(kernels, "GROUP", group)
    monkeypatch.setattr(kernels, "SCAN_ROWS", scan_rows)
    monkeypatch.setattr(kernels, "QUERY_BLOCK", 4)
    rng = np.random.default_rng(group * 1000 + scan_rows)
    for n in sorted({group - 1, group, group + 1, 2 * scan_rows + 1} - {0}):
        records, raw = _tie_records(n, group, scan_rows, rng)
        store = build_datastore(records)
        queries = [l2_normalize(q) for q in raw]
        oracle = [brute_force_topk(records, q, n) for q in raw]
        n_groups = -(-n // group)
        for k in sorted({1, 2, 3, 5, n_groups - 1, n_groups, n_groups + 1, n, n + 2} - {0}):
            got = kernels.exact_top(store.unit_rows, store.scan, queries, k)
            assert got == kernels.exact_top(store.unit_rows, store.matrix, queries, k)
            for top, ranked in zip(got, oracle):
                assert top == [(hit.score, int(hit.id[1:])) for hit in ranked.hits[:k]]


# A store of 5037 rows, a multiple of neither GROUP nor SCAN_ROWS: five
# chunks, so 2 workers split it at row 2048 and 3 workers at 1024 and 3072.
N_RANGED = 5037


@pytest.fixture(scope="module")
def ranged():
    """Records whose row i is at index i, with a bit-identical pair across
    the 3-worker boundaries 1024 and 3072 and a pair one ulp apart across
    the 2-worker boundary 2048, and 257 queries led by the pairs' vectors."""
    rng = np.random.default_rng(51)
    vectors = rng.normal(size=(N_RANGED, 32))
    bases = rng.normal(size=(2, 32))
    for boundary in (1024, 3072):
        vectors[boundary - 1] = vectors[boundary] = bases[0]
    vectors[2047] = vectors[2048] = bases[1]
    vectors[2048, 0] = np.nextafter(bases[1, 0], np.inf)
    records = [(f"r{i:05d}", "c", v) for i, v in enumerate(vectors)]
    raw = [bases[0], bases[1], bases[0] + 1e-3 * bases[1]]
    raw += list(rng.normal(size=(254, 32)))
    return records, build_datastore(records), raw


GROUP_MAXIMA = kernels._group_maxima


@pytest.mark.parametrize("width", [1, 2, 257])
def test_group_maxima_equal_at_any_worker_count(ranged, width):
    """The maxima do not depend on the worker count, with more workers than
    a 2-CPU machine has and the interpreter switching threads often."""
    _, store, raw = ranged
    block = np.array([l2_normalize(q) for q in raw[:width]], dtype=np.float32)
    one = kernels._group_maxima(store.scan, block, 1)
    assert one.shape == (-(-N_RANGED // kernels.GROUP), width)
    scores = block @ store.scan.T
    # at the range edges, each maximum is its group's largest scan score, up
    # to float32 rounding of the product
    for g in (0, 15, 16, 31, 32, 47, 48, one.shape[0] - 1):
        rows = scores[:, g * kernels.GROUP : (g + 1) * kernels.GROUP]
        np.testing.assert_allclose(one[g], rows.max(axis=1), rtol=0, atol=1e-5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 3):
            assert kernels._group_maxima(store.scan, block, workers).tobytes() == one.tobytes()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("width", [1, 2, 257])
def test_exact_top_equal_at_any_worker_count(monkeypatch, ranged, width):
    records, store, raw = ranged
    queries = [l2_normalize(q) for q in raw[:width]]
    got = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(kernels, "_group_maxima", functools.partial(GROUP_MAXIMA, workers=workers))
        got[workers] = kernels.exact_top(store.unit_rows, store.scan, queries, 9)
    assert got[1] == got[2] == got[3]
    for top, q in zip(got[1][:3], raw):
        oracle = brute_force_topk(records, q, 9)
        assert top == [(hit.score, int(hit.id[1:])) for hit in oracle.hits]
    # the planted pairs rank first, the identical one tied exactly
    assert [i for _, i in got[1][0][:4]] == [1023, 1024, 3071, 3072]
    assert got[1][0][0][0] == got[1][0][3][0]
    if width > 1:
        assert {i for _, i in got[1][1][:2]} == {2047, 2048}


def test_worker_exception_reaches_caller(monkeypatch, ranged):
    _, store, raw = ranged
    caller = threading.get_ident()
    scan_range = kernels._scan_range

    def failing(*args):
        if threading.get_ident() != caller:
            raise RuntimeError("worker failed")
        scan_range(*args)

    monkeypatch.setattr(kernels, "_scan_range", failing)
    block = np.array([l2_normalize(q) for q in raw[:2]], dtype=np.float32)
    with pytest.raises(RuntimeError, match="worker failed"):
        kernels._group_maxima(store.scan, block, 3)


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_traced_functions_run_on_the_calling_thread_only(monkeypatch, ranged):
    """The benchmark's tracer keeps one span stack, which threads would
    corrupt: the scan's workers call none of the traced functions."""
    _, store, raw = ranged
    threads = {"span": [], "scan": []}

    def recording(kind, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            threads[kind].append(threading.get_ident())
            return func(*args, **kwargs)

        return wrapper

    for _, module, name in _spans():
        func = getattr(importlib.import_module(module), name)
        wrapper = recording("span", func)
        for loaded in [m for key, m in sys.modules.items() if key.startswith("negsup")]:
            for attr, value in list(vars(loaded).items()):
                if value is func:
                    monkeypatch.setattr(loaded, attr, wrapper)
    monkeypatch.setattr(kernels, "_scan_range", recording("scan", kernels._scan_range))
    monkeypatch.setattr(kernels, "SCAN_WORKERS", kernels.SCAN_THREADS)
    retrieve(store, raw[:40], 9)
    # two ranges, one scanned on the calling thread and one on a worker
    assert len(threads["scan"]) == 2 and len(set(threads["scan"])) == 2
    assert threads["span"] and set(threads["span"]) == {threading.get_ident()}


@pytest.mark.parametrize(
    "environ,cpus,threads",
    [
        ({}, 2, 1),  # BLAS at its own thread count
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": " 1 "}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, 64, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 2, 1),  # 0 leaves BLAS at its default
        ({"OPENBLAS_NUM_THREADS": ""}, 2, 1),
    ],
)
def test_scan_threads_only_beside_one_blas_thread(environ, cpus, threads):
    assert kernels._scan_threads(environ, cpus) == threads


@pytest.mark.parametrize("value,workers", [(None, 1), ("1", 2)])
def test_scan_workers_read_at_import(value, workers):
    """A process whose BLAS thread variables hold BLAS at one thread scans
    on two threads, any other on one."""
    if kernels._cpus() < 2 and workers > 1:
        pytest.skip("one CPU")
    environ = {k: v for k, v in os.environ.items() if k not in kernels.BLAS_THREAD_ENV}
    if value is not None:
        environ["OPENBLAS_NUM_THREADS"] = value
    environ["PYTHONPATH"] = str(Path(kernels.__file__).resolve().parents[1])
    got = subprocess.run(
        [sys.executable, "-c", "from negsup import kernels; print(kernels.SCAN_WORKERS)"],
        env=environ, capture_output=True, text=True, check=True,
    )
    assert got.stdout.strip() == str(workers)


def _adds_axis(node) -> bool:
    """Whether `node` indexes with a None, as x[:, None, :] adds an axis."""
    if not isinstance(node, ast.Subscript):
        return False
    parts = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    return any(isinstance(p, ast.Constant) and p.value is None for p in parts)


def _stacked_row_products(tree) -> list[str]:
    """The scope ("Class.function", or None for module level) of each
    stacked row product in `tree`: an `@` or a matmul call both of whose
    operands add an axis, as a[:, None, :] @ b[:, :, None] does."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        operands = None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands = [node.left, node.right]
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "matmul":
                operands = node.args[:2]
        if operands is not None and all(_adds_axis(op) for op in operands):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_row_dots_is_the_one_stacked_row_product():
    """Every per-row dot of the package goes through kernels.row_dots."""
    package = Path(kernels.__file__).parent
    found = {
        (path.stem, scope)
        for path in sorted(package.glob("*.py"))
        for scope in _stacked_row_products(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {("kernels", "row_dots")}


def test_row_product_guard_sees_each_form():
    source = (
        "def f(v, p):\n"
        "    return (v[:, None, :] @ p[:, None])[:, 0, 0]\n"
        "class A:\n"
        "    def g(self, a, b):\n"
        "        return np.matmul(a[:, None, :], b[:, :, None])\n"
        "    def h(self, a, b):\n"
        "        return a @ b.T, a[:, None] * b[None]\n"
    )
    assert _stacked_row_products(ast.parse(source)) == ["f", "A.g"]


@pytest.mark.parametrize("shape", [(1, 3), (7, 16), (300, 128)])
def test_row_dots_equal_np_dot_of_each_row(shape):
    rng = np.random.default_rng(shape[0])
    a, b = rng.normal(size=shape), rng.normal(size=shape)
    dots = kernels.row_dots(a, b)
    assert [float(x) for x in dots] == [float(np.dot(x, y)) for x, y in zip(a, b)]
    one = kernels.row_dots(a, b[:1])
    assert [float(x) for x in one] == [float(np.dot(x, b[0])) for x in a]
