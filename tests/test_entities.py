import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import negsup
from negsup import kernels
from negsup.embedding import FileSource, HashSource, embed_entity, l2_normalize, tokenize
from negsup.entities import (
    EntityIndex,
    EntitySets,
    EntityVocabulary,
    classify_image_entities,
    extract_entities,
    filter_inference,
    filter_training,
    load_vocabulary,
    longest_runs,
    match_runs,
)
from negsup.errors import DimMismatch, EmptyInput, FormatError, UnknownKey


class TestVocabulary:
    def test_canonical_terms_map_to_themselves(self):
        vocab = EntityVocabulary(["dog", "cat"])
        assert vocab.synonyms == {"dog": "dog", "cat": "cat"}

    def test_synonym_targets_must_be_canonical(self):
        with pytest.raises(FormatError):
            EntityVocabulary(["dog"], {"puppy": "wolf"})

    def test_conflicting_surface_form(self):
        with pytest.raises(FormatError):
            EntityVocabulary(["dog", "cat"], {"pet": "dog", "PET": "cat"})

    def test_one_token_run_for_two_canonicals_rejected(self):
        # "t-shirt" and "t shirt" tokenize alike; which canonical the run
        # named used to depend on the set order, that is on the hash seed
        with pytest.raises(FormatError, match="'t shirt' and 't-shirt'.*two canonicals"):
            EntityVocabulary(["t-shirt", "t shirt", "dog"])
        with pytest.raises(FormatError, match="'t shirt' and 't-shirt'"):
            EntityVocabulary(["shirt", "tee"], {"t-shirt": "shirt", "T Shirt": "tee"})

    def test_one_token_run_for_one_canonical_accepted(self):
        vocab = EntityVocabulary(["t-shirt"], {"t shirt": "t-shirt", "T-Shirt": "t-shirt"})
        assert vocab.runs == {("t", "shirt"): "t-shirt"}
        assert extract_entities("a dog in a t shirt", vocab) == {"t-shirt"}

    def test_canonicalize_is_a_projection(self):
        vocab = EntityVocabulary(["television"], {"tv": "television"})
        once = vocab.canonicalize("tv")
        assert once == "television"
        assert vocab.canonicalize(once) == once
        assert vocab.canonicalize("unknown") == "unknown"


class TestExtract:
    def test_direct_match(self):
        vocab = EntityVocabulary(["dog", "frisbee", "cat"])
        assert extract_entities("A dog catches a frisbee", vocab) == {"dog", "frisbee"}

    def test_synonym_canonicalization(self):
        vocab = EntityVocabulary(["television"], {"tv": "television"})
        assert extract_entities("the tv glows", vocab) == {"television"}

    def test_no_substring_matches(self):
        vocab = EntityVocabulary(["dog"])
        caption = "hotdog stand"
        # tokenizer oracle: "dog" never appears as a whole token
        assert "dog" not in tokenize(caption)
        assert extract_entities(caption, vocab) == set()

    def test_multi_word_longest_match_first(self):
        vocab = EntityVocabulary(["dog", "hot dog"])
        assert extract_entities("a hot dog on a bun", vocab) == {"hot dog"}
        assert extract_entities("a hot dog and a dog", vocab) == {"hot dog", "dog"}

    def test_multi_word_synonym(self):
        vocab = EntityVocabulary(["television"], {"tv set": "television"})
        assert extract_entities("an old tv set hums", vocab) == {"television"}

    def test_empty_caption(self):
        vocab = EntityVocabulary(["dog"])
        assert extract_entities("", vocab) == set()

    def test_idempotent(self):
        vocab = EntityVocabulary(["dog", "hot dog"], {"puppy": "dog"})
        caption = "a puppy near a hot dog"
        assert extract_entities(caption, vocab) == extract_entities(caption, vocab)

    def test_empty_vocab_rejected(self):
        with pytest.raises(EmptyInput):
            extract_entities("anything", EntityVocabulary([]))


def _match_runs_oracle(tokens, runs, longest):
    """match_runs as a scan of every position, longest run first."""
    i, found = 0, []
    while i < len(tokens):
        for stop in range(min(i + longest.get(tokens[i], 0), len(tokens)), i, -1):
            if tuple(tokens[i:stop]) in runs:
                found.append((i, stop, runs[tuple(tokens[i:stop])]))
                i = stop
                break
        else:
            i += 1
    return found


WORDS = ["a", "hot", "dog", "bun", "tv", "set"]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3), max_size=6),
    st.lists(st.sampled_from(WORDS), max_size=12),
)
def test_match_runs_equals_the_scan_of_every_position(run_lists, tokens):
    # overlapping and nested runs ("hot", "hot dog", "hot dog bun"), each
    # mapped to its own name
    runs = {tuple(run): " ".join(run) for run in run_lists}
    longest = longest_runs(runs)
    assert list(match_runs(tokens, runs, longest)) == _match_runs_oracle(tokens, runs, longest)


class TestClassify:
    def test_self_similarity_tops_ranking(self):
        # seed chosen so "dog"/"cat"/"car" occupy distinct hash buckets
        src = HashSource(dim=32, seed=7)
        vocab = EntityVocabulary(["dog", "cat"])
        image = embed_entity(src, "dog")
        assert classify_image_entities([image], EntityIndex(src, vocab), top_m=1)[0] == ["dog"]

    def test_top_m_covers_whole_vocab(self):
        src = HashSource(dim=32, seed=7)
        vocab = EntityVocabulary(["dog", "cat", "car"])
        image = embed_entity(src, "car")
        ranked = classify_image_entities([image], EntityIndex(src, vocab), top_m=10)[0]
        assert sorted(ranked) == ["car", "cat", "dog"]
        assert ranked[0] == "car"

    def test_matches_exhaustive_oracle(self):
        src = HashSource(dim=24, seed=2)
        terms = [f"thing{i}" for i in range(10)]
        vocab = EntityVocabulary(terms)
        rng = np.random.default_rng(3)
        image = l2_normalize(rng.normal(size=24))
        # oracle: compute all cosines and sort by (-cosine, term)
        oracle = sorted(
            terms, key=lambda t: (-float(embed_entity(src, t) @ image), t)
        )
        assert classify_image_entities([image], EntityIndex(src, vocab), top_m=4)[0] == oracle[:4]

    def test_dim_mismatch(self):
        src = HashSource(dim=8, seed=0)
        vocab = EntityVocabulary(["dog"])
        with pytest.raises(DimMismatch):
            classify_image_entities([np.ones(4)], EntityIndex(src, vocab), top_m=1)[0]

    def test_bad_top_m(self):
        src = HashSource(dim=8, seed=0)
        with pytest.raises(ValueError):
            classify_image_entities(
                [np.ones(8)], EntityIndex(src, EntityVocabulary(["dog"])), top_m=0
            )[0]


def _ranking_oracle(image, terms, source):
    """Per-term scoring, one embedding and one dot per term, sorted by
    (-score, term)."""
    img = l2_normalize(image)
    return sorted(terms, key=lambda t: (-float(np.dot(embed_entity(source, t), img)), t))


class CountingSource:
    """Wraps a source and counts embed calls."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.calls = 0

    def embed(self, text):
        self.calls += 1
        return self.inner.embed(text)


class TestEntityIndex:
    def test_hash_collisions_match_oracle(self):
        # dim 4 puts 40 single-token terms into 4 signed buckets, so many
        # terms share a description vector and tie exactly
        src = HashSource(dim=4, seed=1)
        terms = [f"w{i}" for i in range(40)]
        vocab = EntityVocabulary(terms)
        distinct = {embed_entity(src, t).tobytes() for t in terms}
        assert len(distinct) < len(terms) // 2
        index = EntityIndex(src, vocab)
        rng = np.random.default_rng(11)
        for _ in range(25):
            image = rng.normal(size=4)
            oracle = _ranking_oracle(image, terms, src)
            for top_m in (1, 3, 17, 40):
                assert classify_image_entities([image], index, top_m)[0] == oracle[:top_m]

    def test_shared_file_vectors_match_oracle(self):
        rng = np.random.default_rng(12)
        shared, other = rng.normal(size=6), rng.normal(size=6)
        terms = ["zebra", "ant", "moth", "bee", "cow", "owl"]
        vectors = {f"A photo of {t}": shared for t in terms[:4]}
        vectors.update({f"A photo of {t}": other for t in terms[4:]})
        src = FileSource(vectors)
        vocab = EntityVocabulary(terms)
        index = EntityIndex(src, vocab)
        for image in (shared, other, -shared, rng.normal(size=6)):
            oracle = _ranking_oracle(image, terms, src)
            assert classify_image_entities([image], index, 6)[0] == oracle
            assert classify_image_entities([image], index, 2)[0] == oracle[:2]
        # the four terms sharing the image's vector tie and come in term order
        assert classify_image_entities([shared], index, 4)[0] == [
            "ant", "bee", "moth", "zebra"
        ]

    def test_dense_shared_vectors_match_oracle(self):
        # dense vectors, each stored under three terms: a matrix-vector
        # product rounds some rows differently and splits these ties
        rng = np.random.default_rng(15)
        base = [rng.normal(size=24) for _ in range(10)]
        terms = [f"w{i:02d}" for i in range(30)]
        src = FileSource({f"A photo of {t}": base[i % 10] for i, t in enumerate(terms)})
        vocab = EntityVocabulary(terms)
        index = EntityIndex(src, vocab)
        for _ in range(40):
            image = rng.normal(size=24)
            oracle = _ranking_oracle(image, terms, src)
            assert classify_image_entities([image], index, 30)[0] == oracle
            # below |V| a partition cuts the ranking, often inside a tie
            for top_m in range(1, 31):
                assert classify_image_entities([image], index, top_m)[0] == (
                    oracle[:top_m]
                )

    def test_each_term_embedded_once(self):
        src = CountingSource(HashSource(dim=16, seed=3))
        terms = [f"thing{i}" for i in range(12)]
        vocab = EntityVocabulary(terms)
        index = EntityIndex(src, vocab)
        rng = np.random.default_rng(13)
        for _ in range(5):
            image = rng.normal(size=16)
            classify_image_entities([image], index, 3)[0]
            filter_inference({"thing0"}, {"thing1", "thing2", "other"}, image, index, 0.1)
        assert src.calls == len(terms) + 1  # "other" is not in the vocabulary

    def test_filter_inference_matches_throwaway_index(self):
        src = HashSource(dim=8, seed=5)
        index = EntityIndex(src)
        rng = np.random.default_rng(14)
        for _ in range(20):
            image = rng.normal(size=8)
            key, candidates = {"dog"}, {"dog", "kite", "ball", "cat"}
            for tau in (-0.5, 0.0, 0.3):
                assert filter_inference(key, candidates, image, index, tau) == (
                    filter_inference(key, candidates, image, EntityIndex(src), tau)
                )

    def test_vectors_are_read_only(self):
        index = EntityIndex(HashSource(dim=8, seed=0))
        vec = index.vector("dog")
        assert vec is index.vector("dog")
        with pytest.raises(ValueError):
            vec[0] = 1.0

    def test_lazy_embedding_tolerates_missing_vectors(self):
        src = FileSource({"A photo of dog": np.ones(4)})
        vocab = EntityVocabulary(["dog", "unicorn"])
        index = EntityIndex(src, vocab)
        assert index.vector("dog").shape == (4,)
        with pytest.raises(UnknownKey):
            classify_image_entities([np.ones(4)], index, 1)[0]

    def test_dim_mismatch_with_filled_index(self):
        src = HashSource(dim=8, seed=0)
        vocab = EntityVocabulary(["dog", "cat"])
        index = EntityIndex(src, vocab)
        classify_image_entities([np.ones(8)], index, 1)[0]
        with pytest.raises(DimMismatch):
            classify_image_entities([np.ones(4)], index, 1)[0]
        with pytest.raises(DimMismatch):
            filter_inference(set(), {"dog"}, np.ones(4), index, 0.0)


class TestClassifyMany:
    def test_blocks_equal_per_image_calls_and_oracle(self, monkeypatch):
        # 300 terms make 5 groups of 64 rows, so top_m below 5 bounds the
        # k-th score from group maxima; each vector is shared by 3 terms
        monkeypatch.setattr(kernels, "QUERY_BLOCK", 7)
        rng = np.random.default_rng(16)
        base = [rng.normal(size=24) for _ in range(100)]
        terms = [f"w{i:03d}" for i in range(300)]
        src = FileSource({f"A photo of {t}": base[i % 100] for i, t in enumerate(terms)})
        vocab = EntityVocabulary(terms)
        index = EntityIndex(src, vocab)
        images = [rng.normal(size=24) for _ in range(20)] + [base[3], -base[7]]
        oracles = [_ranking_oracle(image, terms, src) for image in images]
        for top_m in (1, 3, 4, 5, 9, 300):
            ranked = classify_image_entities(images, index, top_m)
            assert ranked == [
                classify_image_entities([image], index, top_m)[0] for image in images
            ]
            assert ranked == [oracle[:top_m] for oracle in oracles]

    def test_no_images(self):
        src = HashSource(dim=8, seed=0)
        assert classify_image_entities([], EntityIndex(src, EntityVocabulary([])), 3) == []
        with pytest.raises(ValueError):
            classify_image_entities([], EntityIndex(src, EntityVocabulary(["dog"])), 0)
        with pytest.raises(EmptyInput):
            classify_image_entities([np.ones(8)], EntityIndex(src, EntityVocabulary([])), 3)


class TestFilterTraining:
    def test_spec_examples(self):
        sets = filter_training({"dog"}, {"dog", "frisbee"})
        assert sets.positive == {"dog"}
        assert sets.negative == {"frisbee"}

        sets = filter_training({"dog"}, set())
        assert sets.positive == {"dog"}
        assert sets.negative == set()

        sets = filter_training(set(), {"a", "b"})
        assert sets.positive == set()
        assert sets.negative == {"a", "b"}

    def test_invariants(self):
        sets = filter_training({"dog", "cat"}, {"cat", "kite", "ball"})
        sets.check()
        assert sets.filtered == {"kite", "ball"}


class TestFilterInference:
    def test_tau_minus_one_passes_everything(self):
        src = HashSource(dim=16, seed=4)
        image = embed_entity(src, "dog")
        sets = filter_inference({"dog"}, {"dog", "kite", "ball"}, image, EntityIndex(src), -1.0)
        assert sets.positive == {"dog", "kite", "ball"}
        assert sets.negative == set()

    def test_tau_one_passes_nothing(self):
        src = HashSource(dim=16, seed=4)
        image = embed_entity(src, "dog")
        sets = filter_inference({"dog"}, {"dog", "kite", "ball"}, image, EntityIndex(src), 1.0)
        assert sets.positive == {"dog"}
        assert sets.negative == {"kite", "ball"}

    def test_membership_matches_cosine_formula(self):
        src = HashSource(dim=32, seed=5)
        image = embed_entity(src, "frisbee")
        sets = filter_inference(
            {"dog"}, {"dog", "frisbee", "kite"}, image, EntityIndex(src), tau_sim=0.5
        )
        assert "frisbee" in sets.positive  # cosine with itself is 1 > 0.5
        kite_cos = float(embed_entity(src, "kite") @ image)
        if kite_cos > 0.5:
            assert "kite" in sets.positive
        else:
            assert "kite" in sets.negative
        sets.check()

    def test_tau_out_of_range(self):
        src = HashSource(dim=8, seed=0)
        with pytest.raises(ValueError):
            filter_inference(set(), set(), embed_entity(src, "dog"), EntityIndex(src), 1.5)

    def test_dim_mismatch(self):
        src = HashSource(dim=8, seed=0)
        with pytest.raises(DimMismatch):
            filter_inference(set(), {"dog"}, np.ones(4), EntityIndex(src), 0.0)


_terms = st.sets(
    st.sampled_from([f"ent{i}" for i in range(12)]), min_size=0, max_size=8
)


class TestSetAlgebraProperties:
    @given(key=_terms, candidates=_terms)
    @settings(max_examples=200, deadline=None)
    def test_training_invariants(self, key, candidates):
        sets = filter_training(key, candidates)
        sets.check()

    @given(key=_terms, candidates=_terms, tau=st.floats(-1.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_inference_invariants(self, key, candidates, tau):
        src = HashSource(dim=16, seed=6)
        image = l2_normalize(np.arange(1.0, 17.0))
        sets = filter_inference(key, candidates, image, EntityIndex(src), tau)
        sets.check()

    @given(key=_terms, candidates=_terms)
    @settings(max_examples=60, deadline=None)
    def test_threshold_monotonicity(self, key, candidates):
        src = HashSource(dim=16, seed=7)
        image = l2_normalize(np.arange(1.0, 17.0))
        ladder = [-1.0, -0.5, 0.0, 0.5, 1.0]
        results = [
            filter_inference(key, candidates, image, EntityIndex(src), tau) for tau in ladder
        ]
        for lo, hi in zip(results, results[1:]):
            assert hi.positive <= lo.positive
            assert hi.negative >= lo.negative

    @given(key=_terms, candidates=_terms)
    @settings(max_examples=60, deadline=None)
    def test_training_equals_inference_at_tau_one(self, key, candidates):
        # cosine can only reach 1.0 for the image embedding itself, which is
        # not an entity embedding here
        src = HashSource(dim=16, seed=8)
        image = l2_normalize(np.arange(1.0, 17.0))
        trained = filter_training(key, candidates)
        inferred = filter_inference(key, candidates, image, EntityIndex(src), 1.0)
        assert trained.positive == inferred.positive
        assert trained.negative == inferred.negative


def _split_oracle(shape, key, candidates, passed):
    """The five fields of each NEF shape, built by hand: training makes
    every filtered entity negative, inference the filtered ones outside
    `passed`, and NEF off none."""
    filtered = candidates - key
    if shape == "training":
        return dict(key=key, candidates=candidates, filtered=filtered, positive=key,
                    negative=filtered)
    if shape == "inference":
        positive = key | (filtered & passed)
        return dict(key=key, candidates=candidates, filtered=filtered, positive=positive,
                    negative=filtered - positive)
    return dict(key=key, candidates=candidates, filtered=filtered, positive=key | candidates,
                negative=frozenset())


class TestSplit:
    @given(
        shape=st.sampled_from(["training", "inference", "off"]),
        key=_terms, candidates=_terms, passed=_terms,
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_hand_built_sets(self, shape, key, candidates, passed):
        key, candidates, passed = map(frozenset, (key, candidates, passed))
        want = EntitySets(**_split_oracle(shape, key, candidates, passed))
        sets = EntitySets.split(key, candidates, want.negative)
        sets.check()
        assert sets == want

    def test_takes_any_iterables(self):
        sets = EntitySets.split(["dog", "dog"], iter(["dog", "kite", "ball"]), ("kite",))
        assert sets == EntitySets(
            key=frozenset({"dog"}), candidates=frozenset({"dog", "kite", "ball"}),
            filtered=frozenset({"kite", "ball"}), positive=frozenset({"dog", "ball"}),
            negative=frozenset({"kite"}),
        )


def _entity_sets_calls(tree):
    """Line numbers of the calls of EntitySets(...) in a syntax tree."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "EntitySets"
    ]


def test_every_split_goes_through_entity_sets_split():
    for path in sorted(Path(negsup.__file__).parent.glob("*.py")):
        assert _entity_sets_calls(ast.parse(path.read_text(encoding="utf-8"))) == [], path.name


def test_split_guard_sees_each_call():
    source = "EntitySets(a, b)\nentities.EntitySets(**s)\nEntitySets.split(k, c, n)\n"
    assert _entity_sets_calls(ast.parse(source)) == [1, 2]


class TestVocabularyFiles:
    def test_load_with_synonyms_and_comments(self, tmp_path):
        vocab_file = tmp_path / "vocab.txt"
        vocab_file.write_text("# objects\ndog\n\ntelevision\nhot dog\n")
        syn_file = tmp_path / "syn.tsv"
        syn_file.write_text("# synonyms\ntelevision\ttv, tv set\ndog\tpuppy\n")
        vocab = load_vocabulary(vocab_file, syn_file)
        assert vocab.canonical == {"dog", "television", "hot dog"}
        assert extract_entities("the tv set and a puppy", vocab) == {
            "television",
            "dog",
        }

    def test_synonym_without_tab_rejected(self, tmp_path):
        vocab_file = tmp_path / "vocab.txt"
        vocab_file.write_text("dog\n")
        syn_file = tmp_path / "syn.tsv"
        syn_file.write_text("dog puppy\n")
        with pytest.raises(FormatError):
            load_vocabulary(vocab_file, syn_file)

    def test_unknown_canonical_rejected(self, tmp_path):
        vocab_file = tmp_path / "vocab.txt"
        vocab_file.write_text("dog\n")
        syn_file = tmp_path / "syn.tsv"
        syn_file.write_text("cat\tkitty\n")
        with pytest.raises(FormatError):
            load_vocabulary(vocab_file, syn_file)
