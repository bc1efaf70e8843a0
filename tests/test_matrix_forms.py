"""Every block form of the query stages against its one-vector formula or
the brute-force oracle, bit for bit (uint64 views): the bulk hash embed,
the row normalizations, the gate's score and the mix, the batch entity
filter, the decoder's probes, and exact_top's block pass 2, whose memory
stays bounded when one query of a block ties with every row."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negsup import kernels
from negsup.datastore import brute_force_topk, build_datastore, retrieve
from negsup.embedding import (
    ENTITY_TEMPLATE,
    HashSource,
    embed_entity,
    embed_rows,
    embed_text,
    l2_normalize,
    l2_normalize_rows,
    normalize_total,
    normalize_total_rows,
    tokenize,
)
from negsup.entities import EntityIndex, filter_inference
from negsup.errors import DimMismatch, FormatError, ZeroVector
from negsup.fusion import FusionConfig, clip_score, fuse_sif


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _hash_oracle(src: HashSource, text: str) -> np.ndarray:
    """The one-text hash embedding written out: integer counts summed token
    by token, then normalize_total."""
    counts = np.zeros(src.dim, dtype=np.int64)
    for token in tokenize(text):
        bucket, sign = src._bucket_sign(token)
        counts[bucket] += sign
    return normalize_total(counts.astype(np.float64))


# few tokens and few buckets, so texts repeat tokens and counts cancel;
# "--" and "_" hold no token
PIECES = ["dog", "cat", "a", "kite", "b1", "x", "é", "日本", "Dog", "--", "_"]
TEXTS = st.lists(st.lists(st.sampled_from(PIECES), max_size=8).map(" ".join), max_size=12)


class TestBulkEmbed:
    @given(texts=TEXTS, dim=st.sampled_from([1, 2, 3, 8, 32]), seed=st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_the_token_loop(self, texts, dim, seed):
        src = HashSource(dim=dim, seed=seed)
        rows = src.embed_many(texts)
        assert rows.shape == (len(texts), dim)
        for text, row in zip(texts, rows):
            assert _bits(row) == _bits(_hash_oracle(src, text))
            if text.strip():
                assert _bits(row) == _bits(embed_text(src, text))

    @given(terms=st.lists(st.sampled_from(PIECES[:9]), max_size=10), seed=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_entity_rows_equal_embed_entity(self, terms, seed):
        src = HashSource(dim=4, seed=seed)
        rows = embed_rows(src, [ENTITY_TEMPLATE.format(term) for term in terms])
        index = EntityIndex(HashSource(dim=4, seed=seed))
        for term, row, indexed in zip(terms, rows, index.vectors(terms)):
            assert _bits(row) == _bits(embed_entity(src, term)) == _bits(indexed)

    def test_counts_that_cancel_give_e1(self):
        src = HashSource(dim=2, seed=0)
        tokens = [f"t{i}" for i in range(40)]
        slots = {t: src._bucket_sign(t) for t in tokens}
        a, b = next(
            (a, b) for a in tokens for b in tokens
            if slots[a][0] == slots[b][0] and slots[a][1] == -slots[b][1]
        )
        rows = src.embed_many([f"{a} {b}", f"{a} {b} {a} {b}", "-- _", ""])
        assert np.array_equal(rows, np.tile([1.0, 0.0], (4, 1)))

    def test_no_texts(self):
        assert HashSource(dim=8).embed_many([]).shape == (0, 8)


# rows whose square sum overflows, underflows to zero, or is subnormal
EXTREME = [
    [1e300, 1e300, 1.0],
    [-1e308, 1e308, 1e308],
    [1e-300, 0.0, 0.0],
    [5e-324, -5e-324, 0.0],
    [1e-160, 1e-160, 0.0],
    [3.0, 4.0, 0.0],
    [0.1, -0.2, 0.3],
]


def _with_warnings(func):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = func()
    return result, sorted((w.category.__name__, str(w.message)) for w in caught)


class TestRowNormalization:
    def test_extreme_rows_equal_l2_normalize_with_the_same_warnings(self):
        rows, batch_warnings = _with_warnings(lambda: l2_normalize_rows(EXTREME))
        ones, one_warnings = _with_warnings(lambda: [l2_normalize(v) for v in EXTREME])
        assert [_bits(r) for r in rows] == [_bits(v) for v in ones]
        assert batch_warnings == one_warnings == []

    def test_total_rows_equal_normalize_total(self):
        values = EXTREME + [[0.0, -0.0, 0.0]]
        rows = normalize_total_rows(values)
        assert [_bits(r) for r in rows] == [_bits(normalize_total(v)) for v in values]

    def test_normalized_twice_as_the_stages_do(self):
        x = np.random.default_rng(5).normal(size=(300, 16))
        once = l2_normalize_rows(x)
        twice = l2_normalize_rows(once)
        assert [_bits(r) for r in twice] == [_bits(l2_normalize(l2_normalize(v))) for v in x]
        # l2_normalize is not idempotent: the second pass moves some rows
        assert any(_bits(a) != _bits(b) for a, b in zip(once, twice))

    @pytest.mark.parametrize("bad,error", [
        ([[1.0, 0.0], [np.nan, 1.0]], FormatError),
        ([[1.0, 0.0], [0.0, 0.0]], ZeroVector),
        ([[1.0, 0.0], [1.0, 0.0, 0.0]], DimMismatch),
        ([[[1.0]]], DimMismatch),
    ])
    def test_bad_rows_raise_as_one_vector_does(self, bad, error):
        with pytest.raises(error):
            l2_normalize_rows(bad)

    @pytest.mark.parametrize("bad,error", [
        ([np.ones(4), np.full(4, np.inf)], FormatError),
        ([np.ones(4), np.zeros(4)], ZeroVector),
        ([np.ones(4), np.ones(5)], DimMismatch),
        ([np.ones(5)], DimMismatch),
    ])
    def test_retrieve_checks_the_batch_once(self, bad, error):
        store = build_datastore([("a", "x", np.ones(4)), ("b", "y", np.arange(4.0))])
        with pytest.raises(error):
            retrieve(store, bad, 1)


def _oracle_score(a, b) -> float:
    return float(np.dot(a, b)) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))


def _oracle_mix(synth, text, config) -> np.ndarray:
    if config.strategy == "fixed":
        w = float(config.alpha)
    else:
        w = min(1.0, max(0.0, _oracle_score(synth, text)))
    if config.strategy == "clipscore-reverse":
        return normalize_total((1.0 - w) * synth + w * text)
    return normalize_total(w * synth + (1.0 - w) * text)


class TestGateAndMixRows:
    @pytest.mark.parametrize("dim", [1, 3, 32, 128])
    def test_clip_score_rows_equal_the_formula(self, dim):
        rng = np.random.default_rng(dim)
        a, b = rng.normal(size=(40, dim)), 3.0 * rng.normal(size=(40, dim))
        b[:3] = -a[:3]  # score -1
        scores = clip_score(a, b)
        assert scores.shape == (40,)
        for i in range(40):
            assert _bits(scores[i]) == _bits(_oracle_score(a[i], b[i]))
            assert _bits(clip_score(a[i], b[i])) == _bits(scores[i])

    @pytest.mark.parametrize("config", [
        FusionConfig(), FusionConfig(strategy="clipscore-reverse"),
        FusionConfig(strategy="fixed", alpha=0.3), FusionConfig(strategy="fixed", alpha=0.5),
    ])
    def test_fuse_sif_rows_equal_the_formula(self, config):
        rng = np.random.default_rng(7)
        synth = l2_normalize_rows(rng.normal(size=(50, 16)))
        text = l2_normalize_rows(rng.normal(size=(50, 16)))
        text[:4] = -synth[:4]  # scores clamp to 0, a fixed 0.5 mix cancels to e1
        text[4:6] = synth[4:6]
        fused = fuse_sif(synth, text, config)
        for i in range(50):
            assert _bits(fused[i]) == _bits(_oracle_mix(synth[i], text[i], config))
            assert _bits(fuse_sif(synth[i], text[i], config)) == _bits(fused[i])

    def test_pairs_of_two_shapes_rejected(self):
        with pytest.raises(DimMismatch):
            clip_score(np.ones((2, 3)), np.ones((3, 3)))
        with pytest.raises(DimMismatch):
            fuse_sif(np.ones(3), np.ones(4), FusionConfig())


def test_batch_filter_equals_one_image_calls():
    src = HashSource(dim=16, seed=2)
    rng = np.random.default_rng(9)
    terms = ["dog", "cat", "kite", "ball", "tree", "mat", "bench"]
    keys = [set(rng.choice(terms, size=2).tolist()) for _ in range(30)]
    candidates = [set(rng.choice(terms, size=4).tolist()) for _ in range(30)]
    images = rng.normal(size=(30, 16))
    for tau in (-0.2, 0.0, 0.15, 1.0):
        batch = filter_inference(keys, candidates, images, EntityIndex(src), tau)
        assert batch == [
            filter_inference(k, c, image, EntityIndex(src), tau)
            for k, c, image in zip(keys, candidates, images)
        ]
    assert filter_inference([], [], np.empty((0, 16)), EntityIndex(src)) == []


def test_decoder_probes_equal_one_context_calls():
    from test_pipeline import CAPTIONS, VOCAB_TERMS, _config, _seventy_instances
    from negsup.entities import EntityVocabulary
    from negsup.pipeline import Run, SourceBundle, standin_decode

    src = HashSource(dim=32, seed=7)
    store = build_datastore([(rid, cap, embed_text(src, cap)) for rid, cap in CAPTIONS.items()])
    vocab = EntityVocabulary(VOCAB_TERMS)
    run = Run(store, vocab, SourceBundle(src), _config(mode="inference", tau_sim=0.1, top_m=3))
    keys = [obj["image_key"] for obj in _seventy_instances("inference")]
    images = l2_normalize_rows([embed_text(src, key) for key in keys])
    for contexts, tokens in run._chunks("inference", [None] * len(images), images, images):
        batch = standin_decode(contexts, tokens, vocab)
        assert batch == [standin_decode(c, t, vocab) for c, t in zip(contexts, tokens)]
        prefixes = np.stack([c.suppressed_prefix for c in contexts])
        probes = normalize_total_rows(prefixes.mean(axis=1))
        for context, probe in zip(contexts, probes):
            assert _bits(probe) == _bits(normalize_total(context.suppressed_prefix.mean(axis=0)))


class _RawKeys:
    """A key source that hands out the given vectors as they are."""

    def __init__(self, vectors):
        self.vectors = vectors
        self.dim = len(next(iter(vectors.values())))

    def embed(self, key):
        return np.asarray(self.vectors[key], dtype=np.float64)


@pytest.mark.parametrize("bad,error,message", [
    ([np.nan, 1.0, 0.0, 0.0], FormatError, "non-finite"),
    ([0.0, 0.0, 0.0, 0.0], ZeroVector, "zero"),
])
@pytest.mark.parametrize("mode", ["training", "inference"])
def test_bad_key_vector_names_the_instance(mode, bad, error, message):
    from negsup.entities import EntityVocabulary
    from negsup.pipeline import KEY_FIELDS, PipelineConfig, SourceBundle, run_batch

    src = HashSource(dim=4, seed=1)
    store = build_datastore([("a", "a dog", embed_text(src, "a dog"))])
    keys = _RawKeys({"good": [1.0, 2.0, 0.0, 0.0], "bad": bad})
    field = KEY_FIELDS[mode]
    instances = [
        {"id": f"i{n}", "caption": "a dog", field: key} for n, key in enumerate(["good", "bad"])
    ]
    config = PipelineConfig(mode=mode, retrieval_k=1, enable_as=False)
    with pytest.raises(error, match=f"'i1'.*\"{field}\" 'bad'.*{message}"):
        run_batch(instances, store, EntityVocabulary(["dog"]), SourceBundle(src), config, None, keys)


def _tie_heavy_store(n, d, rng):
    """n records that all score exactly alike against e1: one row's values
    with their signs flipped at random past the first, so every row has the
    same norm and the same first unit value."""
    base = np.abs(rng.normal(size=d)) + 0.1
    signs = rng.choice([-1.0, 1.0], size=(n, d))
    signs[:, 0] = 1.0
    return [(f"r{i:06d}", "c", base * s) for i, s in enumerate(signs)]


class TestExactTopBlocks:
    """exact_top's block pass 2 against brute_force_topk: one query, two,
    and one past a block; a store whose last group is short; k below, at
    and past the number of groups and of rows; ties."""

    N = 7 * kernels.GROUP + 13  # 8 groups, the last one short

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(61)
        bases = rng.normal(size=(3, 16))
        vectors = rng.normal(size=(self.N, 16))
        # exact and near ties of three vectors across groups
        vectors[::5] = bases[np.arange(0, self.N, 5) % 3]
        vectors[1::7] = bases[1] + 1e-9 * rng.normal(size=(len(vectors[1::7]), 16))
        records = [(f"r{i:05d}", "c", v) for i, v in enumerate(vectors)]
        raw = list(bases) + list(rng.normal(size=(kernels.QUERY_BLOCK - 2, 16)))
        oracle = [brute_force_topk(records, q, self.N) for q in raw]
        return build_datastore(records), [l2_normalize(q) for q in raw], oracle

    @pytest.mark.parametrize("width", [1, 2, kernels.QUERY_BLOCK + 1])
    @pytest.mark.parametrize("k", [1, 3, 7, 8, 9, N - 1, N, N + 5])
    def test_equals_the_oracle(self, case, width, k):
        store, queries, oracle = case
        got = kernels.exact_top(store.unit_rows, store.scan, queries[:width], k)
        assert len(got) == width
        for top, ranked in zip(got, oracle[:width]):
            assert top == [(hit.score, int(hit.id[1:])) for hit in ranked.hits[:k]]

    def test_tie_heavy_query_among_others(self):
        rng = np.random.default_rng(62)
        records = _tie_heavy_store(3 * kernels.GROUP + 5, 8, rng)
        store = build_datastore(records)
        raw = [np.eye(8)[0]] + list(rng.normal(size=(4, 8)))
        got = kernels.exact_top(store.unit_rows, store.scan, [l2_normalize(q) for q in raw], 3)
        # every row ties with the first: the lowest rows win
        assert [i for _, i in got[0]] == [0, 1, 2] and len({s for s, _ in got[0]}) == 1
        for top, q in zip(got, raw):
            assert top == [(h.score, int(h.id[1:])) for h in brute_force_topk(records, q, 3).hits]


def test_peak_memory_of_a_block_with_one_tie_heavy_query():
    """One query that ties with all 100k rows makes every group a candidate
    for it alone: pass 2 holds its candidates, not a block padded to its
    width, which would be ~100 MB. The per-query pass 2 this replaced
    peaked at 16.7 MiB here (most of it the tie-heavy query's sorted Python
    tuples), the block form at 6.4 MiB; the bound is the former."""
    rng = np.random.default_rng(63)
    store = build_datastore(_tie_heavy_store(100_000, 32, rng))
    queries = l2_normalize_rows([np.eye(32)[0]] + list(rng.normal(size=(255, 32))))
    tracemalloc.start()
    try:
        results = retrieve(store, queries, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [hit.id for hit in results[0].hits] == [f"r{i:06d}" for i in range(9)]
    assert peak <= 17 * 2**20
