import re
import tracemalloc

import numpy as np
import pytest

from negsup.datastore import (
    _blank_free,
    brute_force_topk,
    build_datastore,
    ingest_datastore,
    load_datastore,
    retrieve,
    save_datastore,
)
from negsup.embedding import (
    HashSource,
    Texts,
    embed_text,
    l2_normalize,
    load_embedding_file,
    read_vector_file,
    write_embedding_file,
)
from negsup.errors import (
    DimMismatch,
    DuplicateId,
    EmptyInput,
    FormatError,
    ZeroVector,
)


def _random_records(rng, count, dim, prefix="r"):
    return [
        (f"{prefix}{i:04d}", f"caption {prefix}{i}", rng.normal(size=dim))
        for i in range(count)
    ]


class TestBuild:
    def test_basic(self):
        rng = np.random.default_rng(0)
        store = build_datastore(_random_records(rng, 3, 8))
        assert len(store) == 3
        assert store.dim == 8
        assert all(abs(np.linalg.norm(row) - 1.0) <= 1e-9 for row in store.matrix)

    def test_duplicate_id(self):
        with pytest.raises(DuplicateId):
            build_datastore(
                [("a", "x", np.ones(4)), ("a", "y", np.ones(4))]
            )

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            build_datastore(
                [("a", "x", np.ones(8)), ("b", "y", np.ones(16))]
            )

    def test_empty(self):
        with pytest.raises(EmptyInput):
            build_datastore([])

    def test_zero_record_names_its_id(self):
        with pytest.raises(ZeroVector, match="'b'"):
            build_datastore([("a", "x", np.ones(4)), ("b", "y", np.zeros(4))])

    def test_nan_record(self):
        with pytest.raises(FormatError):
            build_datastore([("a", "x", np.ones(4)), ("b", "y", [1.0, np.nan, 0.0, 0.0])])

    def test_two_dimensional_record(self):
        with pytest.raises(DimMismatch):
            build_datastore([("a", "x", np.ones(4)), ("b", "y", np.ones((1, 4)))])

    def test_matrix_immutable(self):
        store = build_datastore([("a", "x", np.ones(4))])
        with pytest.raises(ValueError):
            store.matrix[0, 0] = 9.0


class TestRetrieve:
    def test_self_retrieval(self):
        rng = np.random.default_rng(1)
        records = _random_records(rng, 20, 16)
        store = build_datastore(records)
        result = retrieve(store, [store.vector_of("r0007")], k=1)[0]
        assert result.ids() == ["r0007"]
        assert result.scores()[0] == pytest.approx(1.0, abs=1e-6)

    def test_k_larger_than_store(self):
        rng = np.random.default_rng(2)
        records = _random_records(rng, 5, 8)
        store = build_datastore(records)
        result = retrieve(store, [rng.normal(size=8)], k=50)[0]
        assert len(result) == 5
        scores = result.scores()
        assert all(scores[i] >= scores[i + 1] for i in range(len(scores) - 1))

    def test_matches_oracle_on_random_store(self):
        rng = np.random.default_rng(3)
        records = _random_records(rng, 200, 16)
        store = build_datastore(records)
        for _ in range(10):
            query = rng.normal(size=16)
            got = retrieve(store, [query], k=9)[0]
            want = brute_force_topk(records, query, k=9)
            assert got.ids() == want.ids()
            np.testing.assert_allclose(got.scores(), want.scores(), atol=1e-9)

    def test_dim_mismatch(self):
        store = build_datastore([("a", "x", np.ones(4))])
        with pytest.raises(DimMismatch):
            retrieve(store, [np.ones(5)], k=1)[0]

    def test_bad_k(self):
        store = build_datastore([("a", "x", np.ones(4))])
        with pytest.raises(ValueError):
            retrieve(store, [np.ones(4)], k=0)[0]

    def test_tie_break_by_ascending_id(self):
        vec = np.ones(4)
        records = [(rid, "same", vec) for rid in ("d", "b", "c", "a")]
        store = build_datastore(records)
        assert retrieve(store, [vec], k=3)[0].ids() == ["a", "b", "c"]
        assert brute_force_topk(records, vec, k=3).ids() == ["a", "b", "c"]

    def test_monotone_prefix_in_k(self):
        rng = np.random.default_rng(4)
        records = _random_records(rng, 40, 8)
        store = build_datastore(records)
        query = rng.normal(size=8)
        previous = []
        for k in range(1, 15):
            ids = retrieve(store, [query], k=k)[0].ids()
            assert ids[: len(previous)] == previous
            previous = ids

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        records = _random_records(rng, 30, 8)
        store_a = build_datastore(records)
        shuffled = list(records)
        rng.shuffle(shuffled)
        store_b = build_datastore(shuffled)
        query = rng.normal(size=8)
        a = retrieve(store_a, [query], k=7)[0]
        b = retrieve(store_b, [query], k=7)[0]
        assert a.ids() == b.ids()
        assert a.scores() == b.scores()

    def test_score_bounds(self):
        rng = np.random.default_rng(6)
        records = _random_records(rng, 100, 4)
        store = build_datastore(records)
        for _ in range(20):
            result = retrieve(store, [rng.normal(size=4)], k=100)[0]
            assert all(-1 - 1e-6 <= s <= 1 + 1e-6 for s in result.scores())

    def test_exactness_property(self):
        # random stores and queries, including duplicate-vector stores
        rng = np.random.default_rng(7)
        for trial in range(25):
            dim = int(rng.choice([4, 8, 16]))
            count = int(rng.integers(1, 120))
            records = _random_records(rng, count, dim)
            if trial % 3 == 0 and count >= 4:
                # inject exact duplicates to exercise the tie rule
                dup = records[0][2]
                records[1] = (records[1][0], records[1][1], dup.copy())
                records[2] = (records[2][0], records[2][1], dup.copy())
            store = build_datastore(records)
            k = int(rng.integers(1, count + 3))
            query = rng.normal(size=dim)
            got = retrieve(store, [query], k=k)[0]
            want = brute_force_topk(records, query, k=k)
            assert got.ids() == want.ids()

    def test_exactness_on_large_store(self):
        rng = np.random.default_rng(9)
        records = _random_records(rng, 5000, 16)
        store = build_datastore(records)
        query = rng.normal(size=16)
        got = retrieve(store, [query], k=25)[0]
        want = brute_force_topk(records, query, k=25)
        assert got.ids() == want.ids()


TIE_TOL = 1e-12


def _bits(result):
    return [(h.id, h.caption, h.score.hex()) for h in result.hits]


def _assert_matches_oracle(result, ranked, k):
    """`result` is the top k of brute_force_topk's full ranking `ranked`, where
    scores within TIE_TOL count as tied (the oracle renormalizes rows, which
    can move mathematically equal scores an ulp apart)."""
    score_of = {h.id: h.score for h in ranked.hits}
    assert len(result) == min(k, len(ranked))
    assert len(set(result.ids())) == len(result)
    for hit, want in zip(result.hits, ranked.hits):
        assert abs(hit.score - score_of[hit.id]) <= TIE_TOL
        assert abs(hit.score - want.score) <= TIE_TOL


@pytest.fixture(scope="module")
def planted():
    """A seeded store with planted bit-identical duplicate rows, rows that
    tie only mathematically, and queries aimed at both."""
    rng = np.random.default_rng(21)
    records = _random_records(rng, 400, 16)
    groups = [list(range(10, 16)), [50, 51], list(range(200, 204))]
    for group in groups:
        vec = records[group[0]][2]
        for i in group[1:]:
            records[i] = (records[i][0], records[i][1], vec.copy())
    # scaled copies normalize to rows an ulp apart: mathematical ties only
    base = records[300][2]
    for i, scale in enumerate((3.0, 7.0, 0.1, 1e3)):
        records.append((f"s{i}", f"scaled {i}", base * scale))
    queries = []
    for group in groups:
        vec = records[group[0]][2]
        queries.append(vec)
        queries += [vec + rng.normal(scale=0.05, size=16) for _ in range(8)]
    queries += [base, base + rng.normal(scale=0.05, size=16)]
    queries += [rng.normal(size=16) for _ in range(100 - len(queries))]
    queries = [queries[i] for i in rng.permutation(len(queries))]
    ranked = [brute_force_topk(records, q, len(records)) for q in queries]
    return records, build_datastore(records), queries, ranked


class TestRetrieveMany:
    @pytest.mark.parametrize("batch", [1, 2, 31, 32, 33, 67])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_batch_equals_single_queries(self, planted, batch, k):
        _, store, queries, ranked = planted
        for offset in (0, 5, len(queries) - batch):
            got = retrieve(store, queries[offset : offset + batch], k)
            assert len(got) == batch
            for i, result in enumerate(got, start=offset):
                assert _bits(result) == _bits(retrieve(store, [queries[i]], k)[0])
                _assert_matches_oracle(result, ranked[i], k)

    def test_duplicates_keep_id_order_at_the_cut(self, planted):
        records, store, _, _ = planted
        ids = [records[i][0] for i in range(10, 16)]
        query = records[10][2]
        for k in range(1, 8):
            results = retrieve(store, [query] * 40, k)
            assert all(_bits(r) == _bits(results[0]) for r in results)
            assert results[0].ids()[: min(k, 6)] == ids[: min(k, 6)]

    def test_store_smaller_than_k(self):
        rng = np.random.default_rng(22)
        records = _random_records(rng, 5, 8)
        records[3] = (records[3][0], records[3][1], records[1][2].copy())
        store = build_datastore(records)
        queries = [rng.normal(size=8) for _ in range(40)]
        for k in (5, 9, 50):
            for result, query in zip(retrieve(store, queries, k), queries):
                assert _bits(result) == _bits(retrieve(store, [query], k)[0])
                _assert_matches_oracle(result, brute_force_topk(records, query, 5), k)

    def test_empty_query_list(self, planted):
        _, store, _, _ = planted
        assert retrieve(store, [], 9) == []

    def test_bad_queries_raise(self, planted):
        _, store, queries, _ = planted
        good = queries[:40]
        with pytest.raises(DimMismatch):
            retrieve(store, good + [np.ones(17)], 3)
        with pytest.raises(ZeroVector):
            retrieve(store, good + [np.zeros(16)], 3)
        with pytest.raises(FormatError):
            retrieve(store, good + [np.full(16, np.nan)], 3)
        with pytest.raises(ValueError):
            retrieve(store, good, 0)
        with pytest.raises(ValueError):
            retrieve(store, [], 0)


class TestBruteForce:
    def test_zero_dim_query(self):
        records = [("a", "x", np.ones(4))]
        with pytest.raises(DimMismatch):
            brute_force_topk(records, np.ones(0), k=1)

    def test_all_identical_embeddings(self):
        vec = l2_normalize(np.array([1.0, 2.0, 3.0]))
        records = [(rid, "cap", vec) for rid in ("c", "a", "d", "b")]
        result = brute_force_topk(records, vec, k=3)
        assert result.ids() == ["a", "b", "c"]


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        store = build_datastore(_random_records(rng, 12, 8))
        save_datastore(store, tmp_path / "store")
        loaded = load_datastore(tmp_path / "store")
        assert loaded.ids == store.ids
        assert loaded.captions == store.captions
        np.testing.assert_allclose(
            loaded.unit_rows(np.arange(len(loaded))), store.matrix, atol=1e-7, rtol=0
        )

    def test_retrieval_survives_round_trip(self, tmp_path):
        src = HashSource(dim=16, seed=9)
        captions = {
            "a": "a dog in the park",
            "b": "a cat on the couch",
            "c": "a dog with a ball",
        }
        store = build_datastore(
            [(k, v, embed_text(src, v)) for k, v in captions.items()]
        )
        save_datastore(store, tmp_path / "s")
        loaded = load_datastore(tmp_path / "s")
        query = embed_text(src, "a dog in the park")
        assert retrieve(loaded, [query], k=2)[0].ids() == retrieve(store, [query], k=2)[0].ids()

    @pytest.mark.parametrize(
        "bad", [("c", "cap c\ud800"), ("c\udfff", "cap c")], ids=["caption", "id"]
    )
    def test_failed_save_keeps_the_previous_store(self, tmp_path, bad):
        # a lone surrogate cannot be written as UTF-8
        rng = np.random.default_rng(12)
        old = build_datastore([(rid, f"cap {rid}", rng.normal(size=4)) for rid in "abc"])
        save_datastore(old, tmp_path / "s")
        files = {p.name: p.read_bytes() for p in (tmp_path / "s").iterdir()}
        new = build_datastore(
            [("a", "cap a", np.ones(4)), ("b", "cap b", np.ones(4)), (*bad, np.ones(4))]
        )
        with pytest.raises(FormatError, match=re.escape(f"record {bad[0]!r}")):
            save_datastore(new, tmp_path / "s")
        assert {p.name: p.read_bytes() for p in (tmp_path / "s").iterdir()} == files
        loaded = load_datastore(tmp_path / "s")
        assert loaded.ids == old.ids and loaded.captions == old.captions

    def test_tab_in_caption_rejected(self, tmp_path):
        store = build_datastore([("a", "has\ttab", np.ones(4))])
        with pytest.raises(FormatError):
            save_datastore(store, tmp_path / "s")

    def test_ingest_key_mismatch(self, tmp_path):
        write_embedding_file(tmp_path / "v.nese", {"a": np.ones(4)})
        (tmp_path / "caps.tsv").write_text("a\tone\nb\ttwo\n")
        with pytest.raises(FormatError):
            ingest_datastore(tmp_path / "caps.tsv", tmp_path / "v.nese")

    def test_load_equals_per_record_oracle(self, tmp_path):
        # the file's rows are normalized on load, then again by the store
        rng = np.random.default_rng(17)
        rows = rng.normal(size=(80, 16)).astype(np.float32)
        ids = [f"r{i:03d}" for i in rng.permutation(len(rows))]
        once = [l2_normalize(row) for row in rows]
        twice = [l2_normalize(vec) for vec in once]
        assert any(not np.array_equal(a, b) for a, b in zip(once, twice))
        directory = tmp_path / "store"
        directory.mkdir()
        write_embedding_file(directory / "embeddings.nese", zip(ids, rows))
        (directory / "captions.tsv").write_text("".join(f"{rid}\tc {rid}\n" for rid in ids))
        store = load_datastore(directory)
        order = sorted(range(len(ids)), key=ids.__getitem__)
        assert store.ids == tuple(ids[i] for i in order)
        assert store.matrix.dtype == np.float32
        assert np.array_equal(store.matrix, rows[order])
        unit = np.stack([twice[i] for i in order])
        assert np.array_equal(store.unit_rows(np.arange(len(ids))), unit)
        assert np.array_equal(np.stack([row for _, _, row in store.records()]), unit)

    def test_ingest_jsonl_embeddings(self, tmp_path):
        write_embedding_file(
            tmp_path / "v.jsonl", {"a": np.array([1.0, 0.0])}, format="jsonl"
        )
        (tmp_path / "caps.tsv").write_text("a\tthe caption\n")
        store = ingest_datastore(tmp_path / "caps.tsv", tmp_path / "v.jsonl")
        assert store.caption_of("a") == "the caption"


# characters str.splitlines() splits on, other than "\n" and "\r"
LINE_SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestCaptionFileLines:
    @pytest.mark.parametrize("sep", LINE_SEPARATORS)
    def test_separator_round_trips(self, tmp_path, sep):
        store = build_datastore(
            [
                ("a", f"line{sep}sep", np.array([1.0, 0.0, 0.0])),
                (f"b{sep}id", f"{sep}leading", np.array([0.0, 1.0, 0.0])),
                ("c", f"trailing{sep}", np.array([0.0, 0.0, 1.0])),
            ]
        )
        save_datastore(store, tmp_path / "s")
        loaded = load_datastore(tmp_path / "s")
        assert loaded.ids == store.ids
        assert loaded.captions == store.captions

    @pytest.mark.parametrize(
        "rid,caption", [("a", "cr\rinside"), ("a", "trailing\r"), ("a\rb", "caption")]
    )
    def test_carriage_return_rejected(self, tmp_path, rid, caption):
        store = build_datastore([(rid, caption, np.ones(4))])
        with pytest.raises(FormatError, match="carriage returns"):
            save_datastore(store, tmp_path / "s")

    def test_crlf_caption_file(self, tmp_path):
        write_embedding_file(tmp_path / "v.nese", {"a": np.ones(2), "b": np.arange(2.0)})
        (tmp_path / "caps.tsv").write_bytes(b"a\tone\r\nb\ttwo\r\n")
        store = ingest_datastore(tmp_path / "caps.tsv", tmp_path / "v.nese")
        assert store.captions == ("one", "two")


@pytest.mark.parametrize(
    "rid", ["a", "", " ", "\x00", "\x1c", " \x1f\t", "\u3000", "\x85", "\u3000x", " \u00e9 "]
)
def test_blank_ids_found_on_the_bytes_as_str_strip_finds_them(rid):
    for ids in ([rid], ["a", rid], [rid, "z", "y"]):
        assert _blank_free(Texts.of(ids)) == all(map(str.strip, ids))


def _write_store(directory, ids, rows, format="binary"):
    """A store directory (or, for JSON lines, its two files) holding `rows`
    under `ids`; returns the caption and embedding paths."""
    directory.mkdir()
    captions = directory / "captions.tsv"
    captions.write_text("".join(f"{rid}\tcaption {rid}\n" for rid in ids))
    embeddings = directory / ("embeddings.nese" if format == "binary" else "v.jsonl")
    write_embedding_file(embeddings, zip(ids, rows), format=format)
    return captions, embeddings


class TestLoadFullWidth:
    @pytest.mark.parametrize("format", ["binary", "jsonl"])
    def test_load_equals_file_source_oracle(self, tmp_path, format):
        rng = np.random.default_rng(26)
        rows = rng.normal(size=(400, 128)).astype(np.float32)
        moved = [
            not np.array_equal(l2_normalize(l2_normalize(row)), l2_normalize(row))
            for row in rows
        ]
        assert any(moved) and not all(moved)
        ids = [f"r{i:04d}" for i in rng.permutation(len(rows))]
        captions, embeddings = _write_store(tmp_path / "s", ids, rows, format)
        if format == "binary":
            store = load_datastore(tmp_path / "s")
        else:
            store = ingest_datastore(captions, embeddings)
        caption_of = dict(line.split("\t") for line in captions.read_text().splitlines())
        oracle = build_datastore(
            [(key, caption_of[key], vec) for key, vec in load_embedding_file(embeddings).items()]
        )
        assert store.ids == oracle.ids
        assert store.captions == oracle.captions
        assert store.matrix.dtype == (np.float32 if format == "binary" else np.float64)
        unit = store.unit_rows(np.arange(len(store)))
        assert unit.dtype == np.float64
        assert unit.tobytes() == oracle.matrix.tobytes()
        assert store.scan.dtype == np.float32
        assert store.scan.tobytes() == oracle.matrix.astype(np.float32).tobytes()
        assert not store.matrix.flags.writeable and not store.scan.flags.writeable

    def test_peak_memory_of_load(self, tmp_path):
        # random rows are not near unit: the store holds the file's rows
        # and a separate scan, and the read makes no copy of the file's
        # bytes
        count, dim = 20000, 128
        rows = np.random.default_rng(27).normal(size=(count, dim)).astype(np.float32)
        _, embeddings = _write_store(tmp_path / "s", [f"r{i:05d}" for i in range(count)], rows)
        del rows
        assert _peak_of_load(tmp_path / "s", count) <= 2.5 * embeddings.stat().st_size

    def test_peak_memory_of_loading_a_saved_store(self, tmp_path):
        # a saved store's rows are near unit: one array is its rows and scan
        count, dim = 20000, 128
        rows = np.random.default_rng(27).normal(size=(count, dim))
        store = build_datastore([(f"r{i:05d}", f"c{i}", row) for i, row in enumerate(rows)])
        save_datastore(store, tmp_path / "s")
        del rows, store
        size = (tmp_path / "s" / "embeddings.nese").stat().st_size
        assert _peak_of_load(tmp_path / "s", count) <= 1.35 * size


def _set_row_1500(embeddings, value):
    """Every value of record 1500 (key 'r1500', d = 4) of a binary file set
    to `value`."""
    data = bytearray(embeddings.read_bytes())
    at = 16 + 1500 * (2 + 5 + 16) + 2 + 5  # header, 1500 records, key length and key
    data[at : at + 16] = np.full(4, value, dtype=np.float32).tobytes()
    embeddings.write_bytes(bytes(data))


def _peak_of_load(directory, count):
    """The peak of the memory traced while load_datastore(directory) runs."""
    tracemalloc.start()
    try:
        store = load_datastore(directory)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(store) == count
    return peak


def _held_bytes(store):
    """The bytes of the distinct arrays a store holds, its Texts' aside."""
    arrays = {id(a): a for a in vars(store).values() if isinstance(a, np.ndarray)}
    return sum(a.nbytes for a in arrays.values())


def _oracle(embeddings, captions):
    """build_datastore over load_embedding_file: the store a loaded one equals."""
    caption_of = dict(line.split("\t") for line in captions.read_text().splitlines())
    return build_datastore(
        [(key, caption_of[key], vec) for key, vec in load_embedding_file(embeddings).items()]
    )


def _assert_equals_oracle(store, oracle, file_rows, scan):
    n = len(store)
    assert store.ids == oracle.ids and store.captions == oracle.captions
    assert store.matrix.tobytes() == file_rows.tobytes()
    assert not store.matrix.flags.writeable and not store.scan.flags.writeable
    assert store.scan.tobytes() == scan.tobytes()
    assert store.unit_rows(np.arange(n)).tobytes() == oracle.matrix.tobytes()
    picked = np.random.default_rng(37).integers(n, size=300)
    assert store.unit_rows(picked).tobytes() == oracle.matrix[picked].tobytes()
    assert np.stack([row for _, _, row in store.records()]).tobytes() == oracle.matrix.tobytes()
    for i in picked[:50]:
        assert store.vector_of(store.ids[i]).tobytes() == oracle.matrix[i].tobytes()
    queries = list(np.random.default_rng(38).normal(size=(30, store.dim))) + list(file_rows[picked[:10]])
    for got, want in zip(retrieve(store, queries, 9), retrieve(oracle, queries, 9)):
        assert _bits(got) == _bits(want)
        assert got.vectors.tobytes() == want.vectors.tobytes()


F32_EPS = float(np.finfo(np.float32).eps)


def _near_unit(rows):
    """Whether every float32 row's float64 norm is within float32 eps of 1."""
    return bool(np.abs(np.linalg.norm(rows.astype(np.float64), axis=1) - 1.0).max() <= F32_EPS)


def _bump(rows, at):
    """Each value of rows[at] moved one ulp further from 0, in place."""
    for i in at:
        rows[i] = np.nextafter(rows[i], np.copysign(np.float32(np.inf), rows[i]))


class TestOneArray:
    """A loaded binary store whose float32 rows all have norms within
    float32 eps of 1, as a saved store's have, scans those rows; any other
    gets a separate scan, the float32 of its unit rows."""

    BUMPED = [0, 1023, 1024, 1500, 2999]  # rows at and across chunk edges

    @pytest.fixture
    def saved(self, tmp_path):
        rng = np.random.default_rng(35)
        store = build_datastore(_random_records(rng, 3000, 32))
        save_datastore(store, tmp_path / "s")
        embeddings = tmp_path / "s" / "embeddings.nese"
        keys, rows = read_vector_file(embeddings)
        return tmp_path / "s", embeddings, keys, rows.copy()

    def test_saved_store_is_its_own_scan(self, saved):
        directory, embeddings, _, rows = saved
        store = load_datastore(directory)
        assert np.shares_memory(store.scan, store.matrix)
        assert _held_bytes(store) == rows.nbytes
        _assert_equals_oracle(store, _oracle(embeddings, directory / "captions.tsv"), rows, rows)

    @pytest.mark.parametrize("change", ["bump", "stretch"])
    def test_scan_is_the_file_rows_only_when_every_norm_passes(self, saved, change):
        # a bumped row's values are each one ulp further from 0, which keeps
        # its norm within eps of 1, though its scan row as derived would be
        # the saved row again; a stretched row is 3 eps too long
        directory, embeddings, keys, rows = saved
        if change == "bump":
            _bump(rows, self.BUMPED)
        else:
            rows[1500] *= np.float32(1 + 3 * F32_EPS)
        write_embedding_file(embeddings, zip(keys, rows))
        passes = _near_unit(rows)
        assert passes == (change == "bump")
        store = load_datastore(directory)
        oracle = _oracle(embeddings, directory / "captions.tsv")
        derived = oracle.matrix.astype(np.float32)
        if passes:
            differ = (rows.view(np.uint32) != derived.view(np.uint32)).any(axis=1)
            assert np.flatnonzero(differ).tolist() == self.BUMPED
            assert np.shares_memory(store.scan, store.matrix)
            assert _held_bytes(store) == rows.nbytes
        else:
            assert _held_bytes(store) == 2 * rows.nbytes
        _assert_equals_oracle(store, oracle, rows, rows if passes else derived)

    def test_saving_a_loaded_store_keeps_its_file(self, saved, tmp_path):
        directory, embeddings, keys, rows = saved
        _bump(rows, self.BUMPED)
        write_embedding_file(embeddings, zip(keys, rows))
        loaded = load_datastore(directory)
        save_datastore(loaded, tmp_path / "again")
        assert (tmp_path / "again" / "embeddings.nese").read_bytes() == embeddings.read_bytes()
        again = load_datastore(tmp_path / "again")
        n = len(loaded)
        assert again.unit_rows(np.arange(n)).tobytes() == loaded.unit_rows(np.arange(n)).tobytes()

    def test_many_differing_rows_switch_to_a_separate_scan(self, saved):
        # rows 0-2999 are near unit, rows 3000-4999 random: the store's
        # scan is a separate array, the float32 of its unit rows
        directory, embeddings, keys, rows = saved
        more = np.random.default_rng(36).normal(size=(2000, 32)).astype(np.float32)
        keys = list(keys) + [f"s{i:04d}" for i in range(len(more))]
        rows = np.concatenate([rows, more])
        write_embedding_file(embeddings, zip(keys, rows))
        captions = directory / "captions.tsv"
        captions.write_text("".join(f"{key}\tcaption {key}\n" for key in keys))
        store = load_datastore(directory)
        assert not np.shares_memory(store.scan, store.matrix)
        assert _held_bytes(store) == 2 * rows.nbytes
        oracle = _oracle(embeddings, captions)
        _assert_equals_oracle(store, oracle, rows, oracle.matrix.astype(np.float32))

    @pytest.mark.parametrize("dim", [8, 32, 128])
    def test_every_saved_row_passes(self, tmp_path, dim):
        # a saved row is the float32 of a unit row: its norm is within
        # eps/2 of 1, whatever the dimension
        rng = np.random.default_rng(40 + dim)
        save_datastore(build_datastore(_random_records(rng, 3000, dim)), tmp_path / "s")
        _, rows = read_vector_file(tmp_path / "s" / "embeddings.nese")
        norms = np.linalg.norm(rows.astype(np.float64), axis=1)
        assert np.abs(norms - 1.0).max() <= F32_EPS / 2
        store = load_datastore(tmp_path / "s")
        assert np.shares_memory(store.scan, store.matrix)

    @pytest.mark.parametrize("bad,named", [(np.nan, "non-finite"), (0.0, "zero vector")])
    def test_bad_row_of_a_saved_store_names_its_id(self, tmp_path, bad, named):
        rng = np.random.default_rng(41)
        save_datastore(build_datastore(_random_records(rng, 2500, 4)), tmp_path / "s")
        _set_row_1500(tmp_path / "s" / "embeddings.nese", bad)
        with pytest.raises(FormatError, match=f"{named}.*'r1500'"):
            load_datastore(tmp_path / "s")

    def test_rows_unit_to_a_thousandth_are_not_scanned(self, tmp_path):
        # 400 rows near one query, their norms off 1 by up to 1e-3: scanned
        # as they are, r0300 (the best cosine, but norm 1 - 8e-4) would
        # score below rows of lower cosine and norm above 1, far beyond the
        # scan's margin
        dim = 32
        rng = np.random.default_rng(42)
        query = l2_normalize(rng.normal(size=dim))
        cosines = rng.uniform(0.9885, 0.98995, size=400)
        norms = 1.0 + rng.uniform(-1e-3, 1e-3, size=400)
        cosines[300], norms[300] = 0.99, 1.0 - 8e-4
        rows = []
        for cosine, norm in zip(cosines, norms):
            side = rng.normal(size=dim)
            side = l2_normalize(side - side.dot(query) * query)
            rows.append(norm * (cosine * query + np.sqrt(1 - cosine**2) * side))
        rows = np.array(rows, dtype=np.float32)
        ids = [f"r{i:04d}" for i in range(len(rows))]
        captions, embeddings = _write_store(tmp_path / "s", ids, rows)
        records = list(_oracle(embeddings, captions).records())
        store = load_datastore(tmp_path / "s")
        for k in (1, 9):
            assert retrieve(store, [query], k)[0].ids() == brute_force_topk(records, query, k).ids()
        assert retrieve(store, [query], 1)[0].ids() == ["r0300"]
        assert not np.shares_memory(store.scan, store.matrix)


class TestCompactStore:
    """A loaded binary store keeps the file's float32 rows and derives its
    float64 unit rows where they are read, equal to the per-row oracle."""

    @pytest.fixture(scope="class")
    def loaded(self, tmp_path_factory):
        rng = np.random.default_rng(29)
        rows = rng.normal(size=(3000, 32)).astype(np.float32)
        ids = [f"r{i:04d}" for i in range(len(rows))]
        captions, embeddings = _write_store(tmp_path_factory.mktemp("c") / "s", ids, rows)
        oracle = [l2_normalize(l2_normalize(row.astype(np.float64))) for row in rows]
        return load_datastore(captions.parent), rows, oracle, captions, embeddings

    def test_derived_rows_equal_twice_normalized(self, loaded):
        store, rows, oracle, _, _ = loaded
        once = [l2_normalize(row.astype(np.float64)) for row in rows]
        moved = np.mean([not np.array_equal(a, b) for a, b in zip(once, oracle)])
        assert 0.15 <= moved <= 0.35
        oracle = np.stack(oracle)
        n = len(store)
        assert store.unit_rows(np.arange(n)).tobytes() == oracle.tobytes()
        assert np.stack([row for _, _, row in store.records()]).tobytes() == oracle.tobytes()
        for i in range(n):
            assert store.vector_of(store.ids[i]).tobytes() == oracle[i].tobytes()
        rng = np.random.default_rng(30)
        for _ in range(50):
            picked = rng.integers(n, size=20)
            assert store.unit_rows(picked).tobytes() == oracle[picked].tobytes()
        assert store.scan.tobytes() == oracle.astype(np.float32).tobytes()

    def test_retrieve_many_equals_built_store(self, loaded):
        store, rows, _, captions, embeddings = loaded
        caption_of = dict(line.split("\t") for line in captions.read_text().splitlines())
        built = build_datastore(
            [(key, caption_of[key], vec) for key, vec in load_embedding_file(embeddings).items()]
        )
        rng = np.random.default_rng(31)
        queries = list(rng.normal(size=(40, 32))) + list(rows[:10])
        got = retrieve(store, queries, 9)
        want = retrieve(built, queries, 9)
        for a, b in zip(got, want):
            assert _bits(a) == _bits(b)
            assert a.vectors.tobytes() == b.vectors.tobytes()
            assert a.vectors.tobytes() == np.stack([built.vector_of(h.id) for h in a.hits]).tobytes()

    def test_holds_no_float64_rows(self, loaded):
        store, rows, _, _, _ = loaded
        arrays = [value for value in vars(store).values() if isinstance(value, np.ndarray)]
        arrays += [store.ids.starts, store.ids.stops, store.captions.starts, store.captions.stops]
        assert store.matrix.dtype == np.float32 and store.scan.dtype == np.float32
        assert not any(a.dtype == np.float64 and a.shape[0] == len(rows) for a in arrays)
        assert isinstance(store.ids.blob, bytes) and isinstance(store.captions.blob, bytes)

    def test_lookups_by_id(self, loaded):
        store = loaded[0]
        assert "r0000" in store and "r2999" in store and "r1234" in store
        assert "r3000" not in store and "" not in store and "r12345" not in store
        assert store.caption_of("r1234") == "caption r1234"
        with pytest.raises(KeyError):
            store.vector_of("r3000")

    @pytest.mark.parametrize("bad,named", [(np.nan, "non-finite"), (0.0, "zero vector")])
    def test_bad_row_in_a_later_chunk_names_its_id(self, tmp_path, bad, named):
        rows = np.random.default_rng(32).normal(size=(2500, 4)).astype(np.float32)
        _, embeddings = _write_store(tmp_path / "s", [f"r{i:04d}" for i in range(len(rows))], rows)
        _set_row_1500(embeddings, bad)
        with pytest.raises(FormatError, match=f"{named}.*'r1500'"):
            load_datastore(tmp_path / "s")

    def test_caption_id_changed_in_a_later_chunk_is_rejected(self, tmp_path):
        # the same line lengths as the ids, one id's bytes changed past the
        # first 1024 lines: not the ids' file, so read line by line
        rows = np.random.default_rng(39).normal(size=(2500, 4)).astype(np.float32)
        captions, _ = _write_store(tmp_path / "s", [f"r{i:04d}" for i in range(len(rows))], rows)
        captions.write_text(captions.read_text().replace("r2100\t", "x2100\t"))
        with pytest.raises(FormatError, match="'x2100'"):
            load_datastore(tmp_path / "s")

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(33)
        store = build_datastore(_random_records(rng, 500, 24))
        save_datastore(store, tmp_path / "a")
        save_datastore(load_datastore(tmp_path / "a"), tmp_path / "b")
        for name in ("embeddings.nese", "captions.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_unsorted_caption_file_keeps_its_captions(self, tmp_path):
        # a caption file in another order than the ids is read line by line
        rows = np.random.default_rng(34).normal(size=(5, 4)).astype(np.float32)
        ids = ["e", "b", "a", "d", "c"]
        _write_store(tmp_path / "s", ids, rows)
        store = load_datastore(tmp_path / "s")
        assert store.ids == ("a", "b", "c", "d", "e")
        assert store.captions == tuple(f"caption {rid}" for rid in "abcde")
        assert np.array_equal(store.matrix, rows[[2, 1, 4, 3, 0]])


def test_peak_memory_of_retrieve_many():
    # the scan keeps per-group maxima, never a (queries, rows) score block;
    # a (32, 100k) float32 block alone would be 12.8 MB
    rng = np.random.default_rng(28)
    matrix = rng.normal(size=(100_000, 32))
    store = build_datastore([(f"r{i:06d}", "c", row) for i, row in enumerate(matrix)])
    del matrix
    queries = [l2_normalize(q) for q in rng.normal(size=(256, 32))]
    tracemalloc.start()
    try:
        results = retrieve(store, queries, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
    for i in (0, 255):
        assert _bits(results[i]) == _bits(retrieve(store, [queries[i]], 9)[0])
