import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import negsup.pipeline as pipeline_mod
from negsup.datastore import Hit, RetrievalResult, build_datastore, retrieve
from negsup.embedding import (
    FileSource,
    HashSource,
    embed_entity,
    embed_text,
    l2_normalize,
    tokenize,
)
from negsup.entities import EntityIndex, EntitySets, EntityVocabulary, extract_entities
from negsup.errors import (
    DimMismatch,
    EmptyRetrieval,
    FormatError,
    InvariantError,
    IoError,
    UnknownKey,
)
from negsup.fusion import FusionConfig, as_prefix, fuse_retrieval, map_to_prefix, xavier_weights
from negsup.pipeline import (
    GenerationContext,
    PipelineConfig,
    SourceBundle,
    build_prompt,
    run_batch,
    run_inference_instance,
    run_training_instance,
    standin_decode,
    write_jsonl,
)
from negsup.suppression import SuppressionConfig, SuppressionReport, suppress
from negsup.validation import array_from_json, json_line

DIM = 32
SEED = 7

CAPTIONS = {
    "c01": "a dog catches a frisbee in the park",
    "c02": "a dog leaps for a frisbee on the grass",
    "c03": "a dog catches a frisbee and a kite in the park",
    "c04": "a dog with a frisbee near a bench",
    "c05": "a cat sleeps on a warm mat",
    "c06": "a cat watches a bird from the window",
    "c07": "a kite flies over the beach",
    "c08": "a person rides a bike down the road",
    "c09": "a horse grazes in a green field",
    "c10": "a boat drifts across the lake",
}

VOCAB_TERMS = [
    "dog", "frisbee", "cat", "kite", "park", "bench", "bird",
    "person", "bike", "horse", "boat", "grass",
]


@pytest.fixture(scope="module")
def source():
    return HashSource(dim=DIM, seed=SEED)


@pytest.fixture(scope="module")
def vocab():
    return EntityVocabulary(VOCAB_TERMS)


@pytest.fixture(scope="module")
def store(source):
    return build_datastore(
        [(rid, cap, embed_text(source, cap)) for rid, cap in CAPTIONS.items()]
    )


def _config(**overrides):
    base = dict(
        mode="training",
        retrieval_k=3,
        prefix_length=4,
        seed=3,
        suppression=SuppressionConfig(strategy="top-k", lam=0.3),
    )
    base.update(overrides)
    return PipelineConfig(**base)


class TestBuildPrompt:
    def test_single_term(self):
        assert build_prompt({"dog"}) == "There are dog in the image."

    def test_empty(self):
        assert build_prompt(set()) == "There is something in the image."

    def test_sorted_terms(self):
        assert build_prompt({"dog", "cat"}) == "There are cat, dog in the image."


class TestTrainingFlow:
    def test_negative_entity_identified_and_suppressed(self, store, vocab, source):
        # one retrieved caption injects "kite", absent from the input
        caption = CAPTIONS["c01"]
        config = _config()
        ctx = run_training_instance(
            caption, embed_text(source, caption), store, vocab, source_bundle(source), config
        )
        assert "c03" in ctx.retrieval.ids()  # the kite-injecting caption
        assert ctx.entity_sets.key == {"dog", "frisbee", "park"}
        assert "kite" in ctx.entity_sets.negative
        assert ctx.entity_sets.negative == ctx.entity_sets.candidates - ctx.entity_sets.key
        assert ctx.positive_prompt == "There are dog, frisbee, park in the image."
        # top-k selects as many tokens as there are negatives, starting
        # with the most negative-aligned one
        scores = np.array(ctx.suppression_report.scores)
        n_neg = len(ctx.entity_sets.negative)
        assert len(ctx.suppression_report.selected) == min(n_neg, len(scores))
        assert int(np.argmax(scores)) in ctx.suppression_report.selected
        assert ctx.suppression_report.lambda_applied == 0.3

    def test_suppression_scales_selected_token_exactly(self, store, vocab, source):
        caption = CAPTIONS["c01"]
        bundle = source_bundle(source)
        on = run_training_instance(
            caption, embed_text(source, caption), store, vocab, bundle, _config()
        )
        off = run_training_instance(
            caption, embed_text(source, caption), store, vocab, bundle,
            _config(enable_as=False),
        )
        assert on.suppression_report.selected
        for i in range(off.suppressed_prefix.shape[0]):
            if i in on.suppression_report.selected:
                assert np.array_equal(
                    on.suppressed_prefix[i], off.suppressed_prefix[i] * 0.3
                )
            else:
                assert np.array_equal(on.suppressed_prefix[i], off.suppressed_prefix[i])

    def test_clean_retrieval_has_empty_negative_set(self, store, vocab, source):
        # retrieve only dog/frisbee captions: candidates stay inside the key
        caption = "a dog leaps for a frisbee on the grass in the park near a bench"
        ctx = run_training_instance(
            caption, embed_text(source, caption), store, vocab, source_bundle(source),
            _config(retrieval_k=2),
        )
        if ctx.entity_sets.candidates <= ctx.entity_sets.key:
            assert ctx.entity_sets.negative == set()
            assert ctx.suppression_report.selected == set()

    def test_emitted_context_satisfies_invariants(self, store, vocab, source):
        for caption in list(CAPTIONS.values())[:5]:
            ctx = run_training_instance(
                caption, embed_text(source, caption), store, vocab,
                source_bundle(source), _config(),
            )
            ctx.check()


def source_bundle(source):
    return SourceBundle(source)


def _grow_prefix(tokens: np.ndarray, target_len: int) -> np.ndarray:
    """Zero-pad the token sequence up to the mapping network's input length:
    the padded input whose product map_to_prefix's one-token product equals
    (the tests compose the stages with it)."""
    if tokens.shape[0] > target_len:
        raise DimMismatch(
            f"{tokens.shape[0]} tokens exceed the mapping input length {target_len}"
        )
    if tokens.shape[0] == target_len:
        return tokens
    padded = np.zeros((target_len, tokens.shape[1]))
    padded[: tokens.shape[0]] = tokens
    return padded


class TestStageToggles:
    def test_sir_off_uses_text_query(self, store, vocab, source):
        caption = CAPTIONS["c05"]
        synthetic = embed_text(source, CAPTIONS["c10"])  # deliberately different
        ctx = run_training_instance(
            caption, synthetic, store, vocab, source_bundle(source),
            _config(enable_sir=False),
        )
        expected = retrieve(store, [embed_text(source, caption)], k=3)[0]
        assert ctx.retrieval.ids() == expected.ids()

    def test_sir_on_sif_off_uses_raw_synthetic_query(self, store, vocab, source):
        caption = CAPTIONS["c05"]
        synthetic = embed_text(source, CAPTIONS["c10"])
        ctx = run_training_instance(
            caption, synthetic, store, vocab, source_bundle(source),
            _config(enable_sif=False),
        )
        expected = retrieve(store, [synthetic], k=3)[0]
        assert ctx.retrieval.ids() == expected.ids()

    def test_sif_off_equals_pipeline_built_without_the_stage(self, store, vocab, source):
        # identity bypass: composing the stages by hand with the raw text
        # embedding must reproduce the SIF-disabled pipeline bit for bit
        caption = CAPTIONS["c01"]
        synthetic = embed_text(source, CAPTIONS["c02"])
        config = _config(enable_sif=False)
        ctx = run_training_instance(
            caption, synthetic, store, vocab, source_bundle(source), config
        )

        weights = xavier_weights(store.dim, config.prefix_length, config.seed)
        text_emb = embed_text(source, caption)
        retrieval = retrieve(store, [synthetic], k=config.retrieval_k)[0]
        retrieved = np.stack([store.vector_of(h.id) for h in retrieval.hits])
        attn = fuse_retrieval(as_prefix(text_emb[None, None]), retrieved[None], weights)[0][0]
        grown = _grow_prefix(attn, weights.in_tokens)
        prefix = map_to_prefix(grown[None], weights)[0]
        key = frozenset(extract_entities(caption, vocab))
        negs = sorted(
            frozenset().union(*[extract_entities(h.caption, vocab) for h in retrieval.hits])
            - key
        )
        from negsup.embedding import embed_entity
        from negsup.suppression import score_negative_attention, select_tokens

        neg_embs = (
            np.stack([embed_entity(source, t) for t in negs])
            if negs
            else np.zeros((0, store.dim))
        )
        scores = score_negative_attention(prefix[None], [neg_embs])[0]
        selected = select_tokens(scores[None], [len(negs)], config.suppression)[0]
        expected_prefix = suppress(prefix[None], selected[None], config.suppression.lam)[0]
        assert np.array_equal(ctx.suppressed_prefix, expected_prefix)

    def test_as_off_is_identity_on_prefix(self, store, vocab, source):
        caption = CAPTIONS["c01"]
        bundle = source_bundle(source)
        synthetic = embed_text(source, caption)
        off = run_training_instance(
            caption, synthetic, store, vocab, bundle, _config(enable_as=False)
        )
        lam_one = run_training_instance(
            caption, synthetic, store, vocab, bundle,
            _config(suppression=SuppressionConfig(strategy="top-k", lam=1.0)),
        )
        never_selects = run_training_instance(
            caption, synthetic, store, vocab, bundle,
            _config(suppression=SuppressionConfig(strategy="fixed-threshold", tau_neg=1.1, lam=0.3)),
        )
        assert np.array_equal(off.suppressed_prefix, lam_one.suppressed_prefix)
        assert np.array_equal(off.suppressed_prefix, never_selects.suppressed_prefix)
        assert off.suppression_report.selected == set()
        assert off.suppression_report.lambda_applied == 1.0

    def test_nef_off_passes_all_candidates_through(self, store, vocab, source):
        caption = CAPTIONS["c01"]
        ctx = run_training_instance(
            caption, embed_text(source, caption), store, vocab, source_bundle(source),
            _config(enable_nef=False),
        )
        sets = ctx.entity_sets
        sets.check()
        assert sets.negative == set()
        assert sets.positive == sets.key | sets.candidates
        # with no negatives the AS stage cannot select anything under top-k
        assert ctx.suppression_report.selected == set()

    def test_all_toggles_off_is_text_only_baseline(self, store, vocab, source):
        # baseline: retrieval queried by the text embedding, features from
        # the text embedding alone, no entities filtered, no suppression
        caption = CAPTIONS["c01"]
        synthetic = embed_text(source, CAPTIONS["c10"])
        config = _config(
            enable_sir=False, enable_sif=False, enable_nef=False, enable_as=False,
            suppression=None,
        )
        ctx = run_training_instance(
            caption, synthetic, store, vocab, source_bundle(source), config
        )
        text_emb = embed_text(source, caption)
        assert ctx.retrieval.ids() == retrieve(store, [text_emb], k=3)[0].ids()
        assert ctx.entity_sets.negative == set()
        assert ctx.entity_sets.positive == ctx.entity_sets.key | ctx.entity_sets.candidates
        assert ctx.suppression_report.selected == set()
        assert ctx.suppression_report.lambda_applied == 1.0

        # the prefix must be exactly what the text embedding alone produces
        weights = xavier_weights(store.dim, config.prefix_length, config.seed)
        retrieved = np.stack([store.vector_of(h.id) for h in ctx.retrieval.hits])
        attn = fuse_retrieval(as_prefix(text_emb[None, None]), retrieved[None], weights)[0][0]
        grown = _grow_prefix(attn, weights.in_tokens)
        assert np.array_equal(ctx.suppressed_prefix, map_to_prefix(grown[None], weights)[0])

    def test_training_query_override(self, store, vocab, source):
        caption = CAPTIONS["c05"]
        synthetic = embed_text(source, CAPTIONS["c10"])
        ctx = run_training_instance(
            caption, synthetic, store, vocab, source_bundle(source),
            _config(training_query="text"),
        )
        assert ctx.retrieval.ids() == retrieve(store, [embed_text(source, caption)], k=3)[0].ids()


class TestInferenceFlow:
    def test_self_retrieval_and_key_classification(self, store, vocab, source):
        image = embed_text(source, CAPTIONS["c01"])
        config = _config(mode="inference", retrieval_k=1, top_m=3)
        ctx = run_inference_instance(image, store, vocab, source_bundle(source), config)
        assert ctx.retrieval.ids() == ["c01"]
        assert len(ctx.entity_sets.key) == 3
        ctx.check()

    def test_tau_sim_one_pushes_all_filtered_to_negative(self, store, vocab, source):
        image = embed_text(source, CAPTIONS["c01"])
        config = _config(mode="inference", retrieval_k=4, top_m=2, tau_sim=1.0)
        ctx = run_inference_instance(image, store, vocab, source_bundle(source), config)
        assert ctx.entity_sets.negative == ctx.entity_sets.filtered

    def test_mode_asymmetry(self, store, vocab, source, monkeypatch):
        calls = {"classify": 0, "fuse_sif": 0}

        def fake_classify(images, *args, **kwargs):
            calls["classify"] += 1
            return [["dog"] for _ in images]

        def fake_fuse_sif(*args, **kwargs):
            calls["fuse_sif"] += 1
            return embed_text(source, "a dog")

        monkeypatch.setattr(pipeline_mod, "classify_image_entities", fake_classify)
        monkeypatch.setattr(pipeline_mod, "fuse_sif", fake_fuse_sif)

        caption = CAPTIONS["c01"]
        run_training_instance(
            caption, embed_text(source, caption), store, vocab,
            source_bundle(source), _config(),
        )
        assert calls["classify"] == 0
        assert calls["fuse_sif"] == 1

        calls["fuse_sif"] = 0
        run_inference_instance(
            embed_text(source, caption), store, vocab, source_bundle(source),
            _config(mode="inference"),
        )
        assert calls["classify"] == 1
        assert calls["fuse_sif"] == 0


def _context_for_decode(store, hits, negative, prefix_vec):
    key = frozenset({"dog"})
    candidates = frozenset({"dog"} | negative)
    filtered = candidates - key
    sets = EntitySets(
        key=key,
        candidates=candidates,
        filtered=filtered,
        positive=frozenset(candidates - negative),
        negative=frozenset(negative),
    )
    prefix = as_prefix(prefix_vec[None, None])[0]
    return GenerationContext(
        suppressed_prefix=prefix,
        positive_prompt=build_prompt(sets.positive),
        entity_sets=sets,
        retrieval=RetrievalResult(
            hits=tuple(hits), vectors=np.array([store.vector_of(h.id) for h in hits])
        ),
        suppression_report=SuppressionReport(
            scores=tuple(0.0 for _ in range(prefix.shape[0])),
            selected=frozenset(),
            lambda_applied=1.0,
        ),
    )


def _hit_tokens(ctx):
    return [tokenize(hit.caption) for hit in ctx.retrieval.hits]


class TestStandinDecode:
    def test_single_clean_caption_verbatim(self, source):
        caption = "a dog in the park"
        store = build_datastore([("a", caption, embed_text(source, caption))])
        ctx = _context_for_decode(
            store,
            [Hit("a", caption, 1.0)],
            negative=set(),
            prefix_vec=embed_text(source, caption),
        )
        assert standin_decode(ctx, _hit_tokens(ctx)) == caption

    def test_hard_filter_beats_score_ordering(self, source):
        bad = "a dog chases a kite"
        good = "a dog rests by a tree"
        store = build_datastore(
            [
                ("bad", bad, embed_text(source, bad)),
                ("good", good, embed_text(source, good)),
            ]
        )
        # probe aligned with the negative-mentioning caption: it still loses
        ctx = _context_for_decode(
            store,
            [Hit("bad", bad, 0.99), Hit("good", good, 0.5)],
            negative={"kite"},
            prefix_vec=embed_text(source, bad),
        )
        assert standin_decode(ctx, _hit_tokens(ctx)) == good

    def test_all_candidates_contain_negative_get_tokens_deleted(self, source):
        first = "a dog chases a kite"
        second = "the kite and the dog"
        store = build_datastore(
            [
                ("a", first, embed_text(source, first)),
                ("b", second, embed_text(source, second)),
            ]
        )
        ctx = _context_for_decode(
            store,
            [Hit("a", first, 0.9), Hit("b", second, 0.8)],
            negative={"kite"},
            prefix_vec=embed_text(source, first),
        )
        assert standin_decode(ctx, _hit_tokens(ctx)) == "a dog chases a"

    def test_synonym_surface_forms_filtered_with_vocab(self, source):
        vocab = EntityVocabulary(["television", "dog"], {"tv": "television"})
        bad = "a dog near a tv"
        good = "a dog on a rug"
        store = build_datastore(
            [
                ("bad", bad, embed_text(source, bad)),
                ("good", good, embed_text(source, good)),
            ]
        )
        ctx = _context_for_decode(
            store,
            [Hit("bad", bad, 0.99), Hit("good", good, 0.1)],
            negative={"television"},
            prefix_vec=embed_text(source, bad),
        )
        assert standin_decode(ctx, _hit_tokens(ctx), vocab) == good
        # without the vocabulary the synonym leaks through
        assert standin_decode(ctx, _hit_tokens(ctx)) == bad

    def test_negative_outside_vocab_deleted_with_vocab(self, source):
        vocab = EntityVocabulary(["dog"], {"puppy": "dog"})
        caption = "a puppy chases a red kite"
        store = build_datastore([("a", caption, embed_text(source, caption))])
        ctx = _context_for_decode(
            store,
            [Hit("a", caption, 0.9)],
            negative={"dog", "kite"},
            prefix_vec=embed_text(source, caption),
        )
        assert standin_decode(ctx, _hit_tokens(ctx), vocab) == "a chases a red"
        assert standin_decode(ctx, _hit_tokens(ctx)) == "a puppy chases a red"

    def test_empty_retrieval_rejected(self, source):
        store = build_datastore([("a", "x", np.ones(DIM))])
        ctx = _context_for_decode(store, [], set(), np.ones(DIM))
        with pytest.raises(EmptyRetrieval):
            standin_decode(ctx, _hit_tokens(ctx))

    def test_hits_without_rows_or_tokens_rejected(self, source):
        caption = "a dog in the park"
        store = build_datastore([("a", caption, embed_text(source, caption))])
        hits = [Hit("a", caption, 1.0), Hit("a", caption, 1.0)]
        ctx = _context_for_decode(store, hits, set(), embed_text(source, caption))
        with pytest.raises(DimMismatch):
            standin_decode(ctx, _hit_tokens(ctx)[:1])
        bare = dataclasses.replace(ctx, retrieval=RetrievalResult(hits=tuple(hits)))
        with pytest.raises(DimMismatch):
            standin_decode(bare, _hit_tokens(ctx))

    def test_tie_breaks_by_id(self, source):
        caption = "a dog in the park"
        vec = embed_text(source, caption)
        store = build_datastore([("b", caption, vec), ("a", caption, vec)])
        ctx = _context_for_decode(
            store,
            [Hit("b", caption, 1.0), Hit("a", caption, 1.0)],
            negative=set(),
            prefix_vec=vec,
        )
        assert standin_decode(ctx, _hit_tokens(ctx)) == caption  # same caption either way
        # ids tie-break: the sort key puts "a" first
        probe = l2_normalize(ctx.suppressed_prefix.mean(axis=0))
        assert float(probe @ store.vector_of("a")) == float(probe @ store.vector_of("b"))


class TestRunBatch:
    def test_quality_gate_skips_low_scoring_instances(self, store, vocab, source):
        instances = [
            {"id": "ok", "caption": CAPTIONS["c01"], "synthetic_key": None},
            {"id": "low", "caption": CAPTIONS["c01"], "synthetic_key": "far away text"},
        ]
        # drop the None key so the first falls back to the text embedding
        instances[0] = {"id": "ok", "caption": CAPTIONS["c01"]}
        config = _config(fusion=FusionConfig(tau_quality=0.9))
        result = run_batch(instances, store, vocab, source_bundle(source), config)
        assert [o["id"] for o in result.outputs] == ["ok"]
        assert [s["id"] for s in result.skipped] == ["low"]

    def test_gate_inactive_when_synthetic_unused(self, store, vocab, source):
        instances = [
            {"id": "low", "caption": CAPTIONS["c01"], "synthetic_key": "far away text"}
        ]
        config = _config(
            enable_sir=False,
            enable_sif=False,
            fusion=FusionConfig(tau_quality=0.9),
        )
        result = run_batch(instances, store, vocab, source_bundle(source), config)
        assert [o["id"] for o in result.outputs] == ["low"]
        assert result.skipped == []

    @pytest.mark.parametrize("mode", ["training", "inference"])
    def test_no_instances_with_empty_vocabulary(self, store, source, mode):
        result = run_batch(
            [], store, EntityVocabulary([]), source_bundle(source), _config(mode=mode)
        )
        assert result.outputs == [] and result.skipped == []

    def test_training_requires_caption(self, store, vocab, source):
        with pytest.raises(FormatError):
            run_batch([{"id": "x"}], store, vocab, source_bundle(source), _config())

    def test_inference_requires_image_key(self, store, vocab, source):
        with pytest.raises(FormatError):
            run_batch(
                [{"id": "x"}], store, vocab, source_bundle(source),
                _config(mode="inference"),
            )

    @pytest.mark.parametrize(
        "mode,field",
        [("training", "caption"), ("training", "synthetic_key"), ("inference", "image_key")],
    )
    @pytest.mark.parametrize("value", [5, ["a"]])
    def test_non_string_field_names_the_instance(self, store, vocab, source, mode, field, value):
        instance = {"id": "x7", "caption": CAPTIONS["c01"], "image_key": "a dog", field: value}
        with pytest.raises(FormatError, match=f"'x7'.*{field}"):
            run_batch([instance], store, vocab, source_bundle(source), _config(mode=mode))

    def test_output_shape_and_determinism(self, store, vocab, source):
        instances = [
            {"id": "t1", "caption": CAPTIONS["c01"]},
            {"id": "t2", "caption": CAPTIONS["c05"], "references": ["a cat resting"]},
        ]
        config = _config()
        bundle = source_bundle(source)
        first = run_batch(instances, store, vocab, bundle, config)
        second = run_batch(instances, store, vocab, bundle, config)
        assert _lines(first.outputs) == _lines(second.outputs)
        out = first.outputs[0]
        assert set(out) == {"id", "generated", "retrieved", "context", "references"}
        assert out["references"] == [CAPTIONS["c01"]]
        assert first.outputs[1]["references"] == ["a cat resting"]
        ctx = out["context"]
        assert set(ctx) == {"prefix", "prompt", "entities", "retrieval", "suppression"}


def _lines(outputs):
    """The out.jsonl text of `outputs`: exact in every value, so equal text
    means equal outputs."""
    return "".join(json_line(obj) for obj in outputs)


def _per_instance_outputs(instances, store, vocab, sources, config, keys=None):
    """The batch outputs rebuilt one instance at a time, each run with its own
    throwaway entity index; a synthetic or image key is looked up in `keys`
    when given, else hashed as run_batch does."""
    keys = keys if keys is not None else sources.text
    outputs = []
    for obj in instances:
        if config.mode == "training":
            caption = obj["caption"]
            synthetic_key = obj.get("synthetic_key")
            if synthetic_key is None:
                synthetic = embed_text(sources.text, caption)
            else:
                synthetic = embed_text(keys, synthetic_key)
            ctx = run_training_instance(caption, synthetic, store, vocab, sources, config)
        else:
            image = embed_text(keys, obj["image_key"])
            ctx = run_inference_instance(image, store, vocab, sources, config)
        outputs.append(
            {
                "id": obj["id"],
                "generated": standin_decode(ctx, _hit_tokens(ctx), vocab),
                "retrieved": ctx.retrieval.captions(),
                "context": ctx.to_json_dict(),
            }
        )
        if config.mode == "training":
            outputs[-1]["references"] = [obj["caption"]]
    return outputs


def _key_file_instances(source):
    """Training instances whose synthetic vectors come from a key file: each
    caption's hashed vector pulled towards another caption's, so the
    synthetic, fused and text queries differ but every instance passes the
    default gate."""
    captions = list(CAPTIONS.values())
    instances, vectors = [], {}
    for n, (rid, cap) in enumerate(CAPTIONS.items()):
        other = embed_text(source, captions[(n + 3) % len(captions)])
        vectors[f"syn-{rid}"] = embed_text(source, cap) + 0.4 * other
        instances.append({"id": rid, "caption": cap, "synthetic_key": f"syn-{rid}"})
    return instances, FileSource(vectors)


# (mode, config overrides, synthetic vectors from a key file) of the
# batch-vs-per-instance cases; the first two are the default pipeline
STAGE_CASES = {
    "training": ("training", {}, False),
    "inference": ("inference", {}, False),
    "training-nef-off": ("training", {"enable_nef": False}, False),
    "inference-nef-off": ("inference", {"enable_nef": False}, False),
    "training-sif-off": ("training", {"enable_sif": False}, False),
    "training-sir-off": ("training", {"enable_sir": False}, False),
    "training-key-file": ("training", {}, True),
    "training-query-synthetic": ("training", {"training_query": "synthetic"}, True),
    "training-query-fused": ("training", {"training_query": "fused"}, True),
    "training-query-text": ("training", {"training_query": "text"}, True),
}


class TestBatchEntityIndex:
    @pytest.mark.parametrize("case", list(STAGE_CASES))
    def test_batch_equals_per_instance_path(self, store, vocab, source, case):
        mode, overrides, key_file = STAGE_CASES[case]
        keys = None
        if key_file:
            instances, keys = _key_file_instances(source)
        elif mode == "training":
            instances = [{"id": rid, "caption": cap} for rid, cap in CAPTIONS.items()]
        else:
            instances = [{"id": rid, "image_key": cap} for rid, cap in CAPTIONS.items()]
        config = _config(mode=mode, tau_sim=0.1, top_m=3, **overrides)
        bundle = source_bundle(source)
        batch = run_batch(instances, store, vocab, bundle, config, None, keys)
        assert batch.skipped == []
        expected = _per_instance_outputs(instances, store, vocab, bundle, config, keys)
        assert _lines(batch.outputs) == _lines(expected)
        assert any(o["context"]["entities"]["negative"] for o in batch.outputs) == (
            overrides.get("enable_nef", True)
        )

    def test_batch_embeds_each_term_once(self, store, vocab, source, monkeypatch):
        import negsup.entities as entities_mod

        embedded = []

        def counting_embed_entity(src, term):
            embedded.append(term)
            return embed_entity(src, term)

        monkeypatch.setattr(entities_mod, "embed_entity", counting_embed_entity)
        instances = [{"id": rid, "image_key": cap} for rid, cap in CAPTIONS.items()]
        run_batch(
            instances, store, vocab, source_bundle(source), _config(mode="inference", top_m=3)
        )
        assert sorted(embedded) == sorted(vocab.canonical)

    def test_training_with_partial_entity_file_source(self, store, vocab, source):
        # the entity source lacks the vectors of vocabulary terms that never
        # become negatives; only negatives are embedded in training
        extended = EntityVocabulary(VOCAB_TERMS + ["zebra", "violin"])
        vectors = {
            f"A photo of {t}": embed_entity(source, t) for t in VOCAB_TERMS + ["zebra", "violin"]
        }
        full = FileSource(vectors)
        partial = FileSource({k: v for k, v in vectors.items() if "zebra" not in k and "violin" not in k})
        instances = [{"id": rid, "caption": cap} for rid, cap in CAPTIONS.items()]
        config = _config()
        with_partial = run_batch(
            instances, store, extended, SourceBundle(source, entity=partial), config
        )
        with_full = run_batch(instances, store, extended, SourceBundle(source, entity=full), config)
        assert _lines(with_partial.outputs) == _lines(with_full.outputs)
        assert any(o["context"]["entities"]["negative"] for o in with_partial.outputs)
        with pytest.raises(UnknownKey):
            run_batch(
                [{"id": "q", "image_key": CAPTIONS["c01"]}], store, extended,
                SourceBundle(source, entity=partial), _config(mode="inference"),
            )

    def test_mismatched_image_dim_raises(self, store, vocab, source):
        config = _config(mode="inference")
        with pytest.raises(DimMismatch):
            run_inference_instance(np.ones(DIM + 1), store, vocab, source_bundle(source), config)

    def test_index_for_another_vocabulary_rejected(self, store, vocab, source):
        index = EntityIndex(source, EntityVocabulary(["dog"]))
        with pytest.raises(ValueError):
            run_inference_instance(
                embed_text(source, CAPTIONS["c01"]), store, vocab, source_bundle(source),
                _config(mode="inference"), index=index,
            )

    def test_index_for_another_source_rejected(self, store, vocab, source):
        # an equal source is not the run's entity source
        index = EntityIndex(HashSource(dim=DIM, seed=SEED), vocab)
        with pytest.raises(ValueError):
            run_training_instance(
                CAPTIONS["c01"], embed_text(source, CAPTIONS["c01"]), store, vocab,
                source_bundle(source), _config(), index=index,
            )
        bundle = source_bundle(source)
        context = run_training_instance(
            CAPTIONS["c01"], embed_text(source, CAPTIONS["c01"]), store, vocab, bundle,
            _config(), index=EntityIndex(bundle.entity, vocab),
        )
        context.check()


def _seventy_instances(mode):
    rng = np.random.default_rng(31)
    captions = list(CAPTIONS.values())
    instances = []
    for i in range(70):
        caption = captions[i % len(captions)]
        if i % 3:
            words = caption.split()
            caption = " ".join(words[: int(rng.integers(3, len(words) + 1))])
        if mode == "training":
            obj = {"id": f"t{i:02d}", "caption": caption}
            if i % 4 == 1:
                obj["synthetic_key"] = captions[(i * 7) % len(captions)]
        else:
            obj = {"id": f"i{i:02d}", "image_key": caption}
        instances.append(obj)
    return instances


class TestBatchedRetrieval:
    @pytest.mark.parametrize("mode", ["training", "inference"])
    def test_leading_slice_writes_same_bytes(self, store, vocab, source, mode, tmp_path):
        instances = _seventy_instances(mode)
        config = _config(mode=mode, tau_sim=0.1, top_m=3, fusion=FusionConfig(tau_quality=0.3))
        bundle = source_bundle(source)
        whole = run_batch(instances, store, vocab, bundle, config)
        head = run_batch(instances[:8], store, vocab, bundle, config)
        write_jsonl(tmp_path / "whole.jsonl", whole.outputs)
        write_jsonl(tmp_path / "head.jsonl", head.outputs)
        head_ids = {obj["id"] for obj in instances[:8]}
        whole_lines = (tmp_path / "whole.jsonl").read_bytes().splitlines(keepends=True)
        expected = b"".join(
            line for obj, line in zip(whole.outputs, whole_lines) if obj["id"] in head_ids
        )
        assert (tmp_path / "head.jsonl").read_bytes() == expected
        assert len(head.outputs) >= 6
        assert len(whole.outputs) > 2 * 32
        if mode == "training":
            assert whole.skipped and head.skipped == [
                s for s in whole.skipped if s["id"] in head_ids
            ]

    def test_per_instance_path_retrieves_as_the_batch(self, store, vocab, source):
        instances = _seventy_instances("inference")
        config = _config(mode="inference", top_m=3)
        bundle = source_bundle(source)
        batch = run_batch(instances, store, vocab, bundle, config)
        expected = _per_instance_outputs(instances, store, vocab, bundle, config)
        assert _lines(batch.outputs) == _lines(expected)


class TestChunkIndependence:
    @pytest.mark.parametrize("enable_nef", [True, False])
    @pytest.mark.parametrize("enable_as", [True, False])
    @pytest.mark.parametrize("mode", ["training", "inference"])
    def test_chunk_size_changes_no_byte(
        self, store, vocab, source, mode, enable_as, enable_nef, monkeypatch
    ):
        instances = _seventy_instances(mode)
        config = _config(
            mode=mode, tau_sim=0.1, top_m=3, fusion=FusionConfig(tau_quality=0.3),
            enable_as=enable_as, enable_nef=enable_nef,
        )
        bundle = source_bundle(source)
        lines = set()
        for chunk in (1, 2, 3, 16, len(instances)):
            monkeypatch.setattr(pipeline_mod, "CHUNK", chunk)
            outputs = run_batch(instances, store, vocab, bundle, config).outputs
            lines.add(_lines(outputs))
        assert len(lines) == 1
        assert any(o["context"]["entities"]["negative"] for o in outputs) == enable_nef
        assert any(o["context"]["suppression"]["selected"] for o in outputs) == (
            enable_as and enable_nef
        )


class TestPrefixEncoding:
    @pytest.mark.parametrize("mode", ["training", "inference"])
    def test_written_prefix_is_the_suppressed_prefix(self, store, vocab, source, mode):
        # the decoded line's prefix is the context's array, and also the
        # values that the repr of its floats held before
        config = _config(mode=mode, tau_sim=0.1, top_m=3, fusion=FusionConfig(tau_quality=0.3))
        result = run_batch(_seventy_instances(mode), store, vocab, source_bundle(source), config)
        assert any(out["context"]["suppression"]["selected"] for out in result.outputs)
        for out in result.outputs:
            prefix = out["context"]["prefix"]
            assert prefix.shape == (config.prefix_length, DIM)
            written = json.loads(json_line(out))
            decoded = array_from_json(written["context"].pop("prefix"), "prefix")
            assert np.array_equal(decoded.view(np.uint64), prefix.view(np.uint64))
            as_lists = np.array(json.loads(json.dumps(prefix.tolist())))
            assert np.array_equal(decoded.view(np.uint64), as_lists.view(np.uint64))
            rest = {**out, "context": {k: v for k, v in out["context"].items() if k != "prefix"}}
            assert written == json.loads(json.dumps(rest))


class TestWriteJsonl:
    def test_failed_write_leaves_existing_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_bytes(b'{"old": true}\n')
        with pytest.raises(TypeError):
            write_jsonl(path, [{"id": "a"}, {"id": "b", "bad": object()}])
        assert path.read_bytes() == b'{"old": true}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_bytes(b"stale line\n" * 10)
        write_jsonl(path, [{"b": 1, "a": "\u00e9"}])
        assert path.read_bytes() == '{"a": "\u00e9", "b": 1}\n'.encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "real.jsonl"
        target.write_bytes(b"old\n")
        link = tmp_path / "out.jsonl"
        link.symlink_to(target)
        write_jsonl(link, [{"id": "a"}])
        assert link.is_symlink()
        assert target.read_bytes() == b'{"id": "a"}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl", "real.jsonl"]

    def test_missing_directory_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            write_jsonl(tmp_path / "nowhere" / "out.jsonl", [{"id": "a"}])


class TestConfigTypes:
    @pytest.mark.parametrize(
        "data",
        [
            {"seed": 1.0},
            {"prefix_length": "4"},
            {"tau_sim": float("inf")},
            {"tau_sim": None},
            {"enable_sif": 1},
            {"suppression": "top-k"},
            {"suppression": {"strategy": "top-k", "lambda": True}},
            {"suppression": {"strategy": "top-k", "lamda": 0.3}},
            {"suppression": {"strategy": "top-k", "lam": 0.3}},
            {"fusion": {"strategy": "fixed", "alpha": float("nan")}},
            {"fusion": {"tau_quality": "0.6"}},
        ],
    )
    def test_rejected(self, data):
        data = {"mode": "training", "suppression": {"strategy": "top-k"}, **data}
        with pytest.raises((ValueError, FormatError)):
            PipelineConfig.from_json_dict(data)

    def test_integral_floats_and_json_ints_accepted(self):
        config = PipelineConfig.from_json_dict(
            {
                "mode": "training",
                "tau_sim": 0,
                "fusion": {"tau_quality": 1},
                "suppression": {"strategy": "fixed-threshold", "tau_neg": 1, "lambda": 0},
            }
        )
        assert config.tau_sim == 0 and config.suppression.lam == 0

    def test_sub_config_objects_required(self):
        with pytest.raises(ValueError):
            PipelineConfig(mode="training", enable_as=False, fusion={"strategy": "fixed"})


class TestConfig:
    def test_json_round_trip(self):
        config = _config(tau_sim=0.4, enable_sif=False)
        again = PipelineConfig.from_json_dict(config.to_json_dict())
        assert again == config

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError):
            PipelineConfig.from_json_dict({"mystery": 1})

    @pytest.mark.parametrize(
        "suppression",
        [
            SuppressionConfig(strategy="fixed-threshold", tau_neg=0.4, lam=0.1),
            SuppressionConfig(strategy="top-k"),
            SuppressionConfig(strategy="top-k-minus-1", lam=1),
            SuppressionConfig(strategy="proportional", proportion=0.5),
        ],
    )
    def test_json_round_trip_per_suppression_strategy(self, suppression):
        config = _config(
            suppression=suppression,
            fusion=FusionConfig(strategy="fixed", alpha=0.25, tau_quality=0.5),
            training_query="text",
        )
        data = json.loads(json.dumps(config.to_json_dict()))
        assert data["suppression"]["lambda"] == suppression.lam
        assert "lam" not in data["suppression"]
        assert PipelineConfig.from_json_dict(data) == config

    def test_null_sub_configs_mean_defaults(self):
        config = PipelineConfig.from_json_dict(
            {"enable_as": False, "fusion": None, "suppression": None}
        )
        assert config == PipelineConfig(enable_as=False)
        assert config.to_json_dict()["suppression"] is None
        assert PipelineConfig.from_json_dict(config.to_json_dict()) == config

    def test_enable_as_requires_suppression(self):
        with pytest.raises(ValueError):
            PipelineConfig(mode="training")

    def test_as_disabled_needs_no_suppression(self):
        PipelineConfig(mode="training", enable_as=False)

    def test_defaults_match_stated_values(self):
        config = PipelineConfig(enable_as=False)
        assert config.retrieval_k == 9
        assert config.tau_sim == 0.2
        assert config.fusion.tau_quality == 0.6
        assert SuppressionConfig(strategy="top-k").lam == 0.3


class TestInferenceDirectionality:
    def test_nef_and_as_never_raise_chair_i(self):
        # stand-in-decoded hallucination rate with filtering and suppression
        # on must not exceed the rate with both off, seed by seed
        import dataclasses

        from toycorpus import ablation_config, make_corpus, run_ablation
        from negsup.metrics import chair_scores

        for seed in range(5):
            corpus = make_corpus(seed)
            on_cfg = dataclasses.replace(
                ablation_config(seed, enable_nef=True, mode="inference"),
                retrieval_k=3,
            )
            off_cfg = dataclasses.replace(
                ablation_config(seed, enable_nef=False, enable_as=False, mode="inference"),
                retrieval_k=3,
            )
            chair_on = chair_scores(run_ablation(corpus, on_cfg))[1]
            chair_off = chair_scores(run_ablation(corpus, off_cfg))[1]
            assert chair_on <= chair_off


class TestContextInvariants:
    def test_prompt_mismatch_raises(self, source):
        sets = EntitySets(
            key=frozenset({"dog"}),
            candidates=frozenset({"dog"}),
            filtered=frozenset(),
            positive=frozenset({"dog"}),
            negative=frozenset(),
        )
        ctx = GenerationContext(
            suppressed_prefix=np.ones((1, 4)),
            positive_prompt="wrong",
            entity_sets=sets,
            retrieval=RetrievalResult(hits=()),
            suppression_report=SuppressionReport(
                scores=(0.0,), selected=frozenset(), lambda_applied=1.0
            ),
        )
        with pytest.raises(InvariantError):
            ctx.check()


class TestRunSetUp:
    def test_instance_faults_precede_a_weights_mismatch(self, store, vocab, source):
        weights = xavier_weights(DIM + 1, 4)
        with pytest.raises(FormatError, match="caption"):
            run_batch(
                [{"id": "t1", "caption": ""}], store, vocab, source_bundle(source), _config(),
                weights,
            )
        with pytest.raises(DimMismatch, match="weights dim"):
            run_batch(
                [{"id": "t1", "caption": CAPTIONS["c01"]}], store, vocab,
                source_bundle(source), _config(), weights,
            )


# a run's set-up: made once, in Run.__init__, and not again per call
SET_UP_CALLS = {"default_weights", "index_for", "EntityIndex"}


def _set_up_calls(tree):
    """(name, qualified name of the innermost enclosing class or def) of
    each call of a SET_UP_CALLS name in a module's syntax tree."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in SET_UP_CALLS:
                found.add((name, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_run_set_up_happens_only_in_run_init():
    source = Path(pipeline_mod.__file__).read_text(encoding="utf-8")
    assert _set_up_calls(ast.parse(source)) == {
        ("default_weights", "Run.__init__"), ("EntityIndex", "Run.__init__")
    }


def test_set_up_guard_sees_each_call():
    source = (
        "class A:\n"
        "    def f(self):\n"
        "        def g():\n"
        "            return index_for(s)\n"
        "        return entities.EntityIndex(s, v), default_weights(t, c)\n"
        "index_for(s)\n"
    )
    assert _set_up_calls(ast.parse(source)) == {
        ("index_for", "A.f.g"), ("EntityIndex", "A.f"), ("default_weights", "A.f"),
        ("index_for", None),
    }
