"""End-to-end orchestration of the two phase flows.

A Run holds a run's fixed inputs and makes its weights and entity index
once; both phases run its one flow (Run.contexts). Run is the one place an
EntityIndex meets the sources: it builds EntityIndex(sources.entity,
vocab) or checks a given one against them, and hands the entity stages
the index alone. Training queries with the caption's (gated, optionally
fused) synthetic-image embedding, takes the caption's own entities as the
key and splits against them. Inference queries with the image embedding,
takes the key from zero-shot classification and splits by embedding
similarity. run_batch runs the
flow for many instances at once; run_training_instance and
run_inference_instance are its one-instance case, without the gate.

After retrieval, instances are finished CHUNK at a time: each retrieved
caption is tokenized once, for both the candidate entities and the
decoder, and the dense stage (cross-attention, prefix map) and suppression
run over the chunk's stacked arrays (fusion.fuse_stack and map_stack,
suppression.score_stack, select_stack and suppress_stack), each of whose
rows equals its one-instance product bit for bit, so the chunk size
changes no output byte.

A small extractive stand-in decoder closes the loop so hallucination
metrics are computable without a neural decoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .datastore import DEFAULT_K, Datastore, RetrievalResult, retrieve_many
from .embedding import (
    EmbeddingSource,
    embed_text,
    l2_normalize,
    normalize_total,
    tokenize,
)
from .entities import (
    EntityIndex,
    EntitySets,
    EntityVocabulary,
    classify_many,
    entities_in,
    extract_entities,
    filter_inference,
    filter_training,
    longest_runs,
    match_runs,
)
from .errors import DimMismatch, EmptyRetrieval, FormatError, InvariantError, UnknownKey
from .fusion import (
    AttentionWeights,
    FusionConfig,
    clip_score,
    fuse_sif,
    fuse_stack,
    map_stack,
    xavier_weights,
)
from .metrics import is_entity_json
from .suppression import (
    SuppressionConfig,
    SuppressionReport,
    score_stack,
    select_stack,
    suppress_stack,
)
from .validation import (
    check_bool,
    check_float,
    check_int,
    config_from_json,
    config_to_json,
    json_lines,
    write_jsonl,
)

MODE_TRAINING = "training"
MODE_INFERENCE = "inference"

# the instance field each mode embeds (a key store's key, else hashed)
KEY_FIELDS = {MODE_TRAINING: "synthetic_key", MODE_INFERENCE: "image_key"}

QUERY_AUTO = "auto"
QUERY_SYNTHETIC = "synthetic"
QUERY_FUSED = "fused"
QUERY_TEXT = "text"

DEFAULT_TOP_M = 5
DEFAULT_PREFIX_LENGTH = 4

EMPTY_PROMPT = "There is something in the image."

# Instances finished together after retrieval (see Run.contexts). A chunk's
# largest arrays are its (CHUNK, k, d) float64 keys and values; 16 keeps
# peak RSS within ~1% of finishing one instance at a time, where a whole
# pass at once raised it by 8-10%.
CHUNK = 16


class SourceBundle:
    """Embedding sources for the pipeline: one for texts, one for entities.

    They may be the same object; a separate entity source models a distinct
    encoder for entity descriptions.
    """

    def __init__(self, text: EmbeddingSource, entity: EmbeddingSource | None = None):
        self.text = text
        self.entity = entity if entity is not None else text


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = MODE_INFERENCE
    retrieval_k: int = DEFAULT_K
    tau_sim: float = 0.2
    top_m: int = DEFAULT_TOP_M
    prefix_length: int = DEFAULT_PREFIX_LENGTH
    seed: int = 0
    enable_sir: bool = True
    enable_sif: bool = True
    enable_nef: bool = True
    enable_as: bool = True
    fusion: FusionConfig = field(
        default_factory=FusionConfig, metadata={"config": FusionConfig}
    )
    suppression: SuppressionConfig | None = field(
        default=None, metadata={"config": SuppressionConfig}
    )
    training_query: str = QUERY_AUTO

    def __post_init__(self):
        if self.mode not in (MODE_TRAINING, MODE_INFERENCE):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("retrieval_k", "top_m", "prefix_length", "seed"):
            check_int(name, getattr(self, name))
        check_float("tau_sim", self.tau_sim)
        for name in ("enable_sir", "enable_sif", "enable_nef", "enable_as"):
            check_bool(name, getattr(self, name))
        if not isinstance(self.fusion, FusionConfig):
            raise ValueError(f"fusion must be a FusionConfig, got {self.fusion!r}")
        if self.suppression is not None and not isinstance(
            self.suppression, SuppressionConfig
        ):
            raise ValueError(
                f"suppression must be a SuppressionConfig, got {self.suppression!r}"
            )
        if self.retrieval_k < 1:
            raise ValueError(f"retrieval_k must be >= 1, got {self.retrieval_k}")
        if not -1.0 <= self.tau_sim <= 1.0:
            raise ValueError(f"tau_sim must be in [-1, 1], got {self.tau_sim}")
        if self.top_m < 1:
            raise ValueError(f"top_m must be >= 1, got {self.top_m}")
        if self.prefix_length < 1:
            raise ValueError(f"prefix_length must be >= 1, got {self.prefix_length}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.training_query not in (QUERY_AUTO, QUERY_SYNTHETIC, QUERY_FUSED, QUERY_TEXT):
            raise ValueError(f"unknown training_query {self.training_query!r}")
        if self.enable_as and self.suppression is None:
            raise ValueError(
                "enable_as requires a suppression config: give the config key"
                " 'suppression' or --suppression-strategy, or turn suppression off"
                " with --no-as"
            )

    def to_json_dict(self) -> dict:
        return config_to_json(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "PipelineConfig":
        return config_from_json(cls, data, "config")


@dataclass(frozen=True)
class GenerationContext:
    """Per-instance handoff record: what a downstream decoder would consume."""

    suppressed_prefix: np.ndarray
    positive_prompt: str
    entity_sets: EntitySets
    retrieval: RetrievalResult
    suppression_report: SuppressionReport

    def check(self) -> None:
        self.entity_sets.check()
        self.suppression_report.check()
        if self.positive_prompt != build_prompt(self.entity_sets.positive):
            raise InvariantError("prompt does not match the positive entity set")
        if len(self.suppression_report.scores) != self.suppressed_prefix.shape[0]:
            raise InvariantError("suppression scores do not cover the prefix")

    def to_json_dict(self) -> dict:
        """The context's JSON object. Its "prefix" is the suppressed prefix
        itself, an (L, d) float64 array, which validation.json_line writes
        as base64 of its float64 bytes."""
        return {
            "prefix": self.suppressed_prefix,
            "prompt": self.positive_prompt,
            "entities": self.entity_sets.to_json_dict(),
            "retrieval": self.retrieval.to_json_dict(),
            "suppression": self.suppression_report.to_json_dict(),
        }


def build_prompt(positive: Iterable[str]) -> str:
    """Hard prompt naming the positive entities, sorted for determinism."""
    terms = sorted(positive)
    if not terms:
        return EMPTY_PROMPT
    return f"There are {', '.join(terms)} in the image."


def default_weights(store: Datastore, config: PipelineConfig) -> AttentionWeights:
    return xavier_weights(store.dim, config.prefix_length, config.seed)


def _training_query(
    text_emb: np.ndarray, synthetic_emb, config: PipelineConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Query stage of a training instance: (retrieval query, fused features)."""
    synthetic = l2_normalize(synthetic_emb)
    fused = fuse_sif(synthetic, text_emb, config.fusion) if config.enable_sif else text_emb
    choice = config.training_query
    if choice == QUERY_AUTO:
        if not config.enable_sir:
            choice = QUERY_TEXT
        else:
            choice = QUERY_FUSED if config.enable_sif else QUERY_SYNTHETIC
    query = {QUERY_TEXT: text_emb, QUERY_SYNTHETIC: synthetic, QUERY_FUSED: fused}[choice]
    return query, fused


class Run:
    """A run's fixed inputs, set up once for all its instances: the store,
    vocabulary, sources and config; the attention weights (Xavier weights
    from config.seed unless given); the EntityIndex of (sources.entity,
    vocab), so each term is embedded at most once per run (a given `index`
    built for another source or vocabulary is a ValueError); and the
    source of the instances' key vectors (`keys`, else the text source,
    which hashes each key string as a stand-in vector)."""

    def __init__(
        self, store: Datastore, vocab: EntityVocabulary, sources: SourceBundle,
        config: PipelineConfig, weights: AttentionWeights | None = None,
        keys: EmbeddingSource | None = None, index: EntityIndex | None = None,
    ):
        if weights is None:
            weights = default_weights(store, config)
        elif weights.dim != store.dim:
            raise DimMismatch(f"weights dim {weights.dim} != store dim {store.dim}")
        self.store = store
        self.vocab = vocab
        self.sources = sources
        self.config = config
        self.weights = weights
        if index is None:
            index = EntityIndex(sources.entity, vocab)
        elif index.source is not sources.entity or index.vocab is not vocab:
            raise ValueError("entity index was built for another source or vocabulary")
        self.index = index
        self.hashes_keys = keys is None
        self.keys = sources.text if keys is None else keys

    def contexts(
        self, mode: str, items: Sequence[tuple[str | None, np.ndarray, np.ndarray]]
    ) -> Iterator[GenerationContext]:
        """The flow of both phases for (caption | None, retrieval query,
        features) items: one context per item, in order, made CHUNK items
        at a time as the caller asks for them.

        All queries are retrieved together (see retrieve_many). The key
        entities are the caption's own in training and, in inference, the
        features' zero-shot classes, ranked for all items together (see
        classify_many). The entity split is filter_training, filter_inference
        against tau_sim, or with NEF off EntitySets.split with no negatives;
        the features then attend to the retrieved captions and the negatives
        are suppressed.
        """
        for context, _ in self._finished(mode, items):
            yield context

    def _finished(self, mode: str, items) -> Iterator[tuple[GenerationContext, list[list[str]]]]:
        """contexts() paired with the tokens of each context's hits."""
        config = self.config
        retrievals = retrieve_many(self.store, [query for _, query, _ in items], config.retrieval_k)
        if mode == MODE_INFERENCE:
            key_terms = classify_many(
                [features for _, _, features in items], self.index, config.top_m
            )
        else:
            key_terms = [extract_entities(caption, self.vocab) for caption, _, _ in items]
        for start in range(0, len(items), CHUNK):
            chunk = slice(start, start + CHUNK)
            yield from self._finish_chunk(mode, items[chunk], retrievals[chunk], key_terms[chunk])

    def _finish_chunk(
        self, mode: str, items, retrievals: Sequence[RetrievalResult], key_terms
    ) -> list[tuple[GenerationContext, list[list[str]]]]:
        """Finish a chunk of items: each one's entity split (from its hits,
        tokenized once), then the dense stage and suppression over the
        chunk's stacks, with each stack checked once."""
        config, index = self.config, self.index
        hit_tokens, splits, negatives = [], [], []
        for (_, _, features), retrieval, key in zip(items, retrievals, key_terms):
            tokens = [tokenize(hit.caption) for hit in retrieval.hits]
            candidates = frozenset().union(*[entities_in(t, self.vocab) for t in tokens])
            if not config.enable_nef:
                entity_sets = EntitySets.split(key, candidates, ())
            elif mode == MODE_TRAINING:
                entity_sets = filter_training(key, candidates)
            else:
                entity_sets = filter_inference(
                    key, candidates, features, index, config.tau_sim
                )
            hit_tokens.append(tokens)
            splits.append(entity_sets)
            negatives.append([index.vector(t) for t in sorted(entity_sets.negative)])

        # each item's features are one input token
        tokens_in = np.stack([features for _, _, features in items])[:, None, :]
        retrieved = np.stack([retrieval.vectors for retrieval in retrievals])
        prefixes = map_stack(fuse_stack(tokens_in, retrieved, self.weights)[0], self.weights)
        scores = score_stack(prefixes, negatives)
        if config.enable_as:
            selected = select_stack(scores, [len(n) for n in negatives], config.suppression)
            lam = config.suppression.lam
            suppressed = suppress_stack(prefixes, selected, lam)
        else:
            selected = np.zeros(scores.shape, dtype=bool)
            lam = 1.0
            suppressed = prefixes

        finished = []
        for i, (retrieval, entity_sets) in enumerate(zip(retrievals, splits)):
            report = SuppressionReport(
                scores=tuple(scores[i].tolist()),
                selected=frozenset(np.flatnonzero(selected[i]).tolist()),
                lambda_applied=lam,
            )
            context = GenerationContext(
                suppressed_prefix=suppressed[i],
                positive_prompt=build_prompt(entity_sets.positive),
                entity_sets=entity_sets,
                retrieval=retrieval,
                suppression_report=report,
            )
            context.check()
            finished.append((context, hit_tokens[i]))
        return finished

    def _key_vector(self, obj: dict) -> np.ndarray | None:
        """The vector of the instance's key (see KEY_FIELDS), if it has one;
        UnknownKey names the instance, the field and the key."""
        name = KEY_FIELDS[self.config.mode]
        key = obj.get(name)
        if key is None:
            return None
        try:
            return embed_text(self.keys, key)
        except UnknownKey as exc:
            raise UnknownKey(f'instance {obj["id"]!r}: "{name}": {exc}') from None

    def batch(self, instances: Sequence[dict]) -> BatchResult:
        """run_batch's flow for instances that _check_instances passed: each
        instance's query is made (and training's quality gate applied), then
        all of them go through contexts() together."""
        config = self.config
        skipped: list[dict] = []
        kept: list[dict] = []
        # (caption | None, retrieval query, features) of each kept instance
        items: list[tuple[str | None, np.ndarray, np.ndarray]] = []
        for obj in instances:
            if config.mode == MODE_TRAINING:
                caption = obj["caption"]
                text_emb = embed_text(self.sources.text, caption)
                synthetic = self._key_vector(obj)
                if synthetic is None:
                    synthetic = text_emb
                if config.enable_sir or config.enable_sif:
                    score = clip_score(synthetic, text_emb)
                    if score < config.fusion.tau_quality:
                        skipped.append({"id": obj["id"], "clip_score": score})
                        continue
                query, fused = _training_query(text_emb, synthetic, config)
                items.append((caption, query, fused))
            else:
                image = l2_normalize(self._key_vector(obj))
                items.append((None, image, image))
            kept.append(obj)

        outputs: list[dict] = []
        # one chunk at a time: each context is dropped once its output dict is made
        for obj, (context, hit_tokens) in zip(kept, self._finished(config.mode, items)):
            out = {
                "id": obj["id"],
                "generated": _decode(context, context.retrieval.vectors, hit_tokens, self.vocab),
                "retrieved": context.retrieval.captions(),
                "context": context.to_json_dict(),
            }
            if "references" in obj:
                out["references"] = obj["references"]
            elif config.mode == MODE_TRAINING:
                out["references"] = [obj["caption"]]
            outputs.append(out)
        key_field = KEY_FIELDS[config.mode]
        hashed = sum(obj.get(key_field) is not None for obj in instances) if self.hashes_keys else 0
        return BatchResult(outputs=outputs, skipped=skipped, hashed=hashed)


def run_training_instance(
    caption: str,
    synthetic_emb,
    store: Datastore,
    vocab: EntityVocabulary,
    sources: SourceBundle,
    config: PipelineConfig,
    weights: AttentionWeights | None = None,
    index: EntityIndex | None = None,
) -> GenerationContext:
    """Training-phase flow for one caption with its synthetic-image
    embedding: run_batch's flow for one instance, without its quality gate
    (the caller gates the synthetic embedding). `index` is the run's
    EntityIndex of (sources.entity, vocab); a throwaway one is built when
    it is not given."""
    query, fused = _training_query(embed_text(sources.text, caption), synthetic_emb, config)
    run = Run(store, vocab, sources, config, weights, index=index)
    return next(run.contexts(MODE_TRAINING, [(caption, query, fused)]))


def run_inference_instance(
    image_emb,
    store: Datastore,
    vocab: EntityVocabulary,
    sources: SourceBundle,
    config: PipelineConfig,
    weights: AttentionWeights | None = None,
    index: EntityIndex | None = None,
) -> GenerationContext:
    """Inference-phase flow for one image embedding: run_batch's flow for
    one instance. The normalized image is the retrieval query, key entities
    come from zero-shot classification, and the entity partition uses
    embedding similarity against tau_sim. `index` is as in
    run_training_instance."""
    image = l2_normalize(image_emb)
    run = Run(store, vocab, sources, config, weights, index=index)
    return next(run.contexts(MODE_INFERENCE, [(None, image, image)]))


# --- stand-in decoder ---------------------------------------------------------


def _negative_runs(
    negative: frozenset[str], vocab: EntityVocabulary | None
) -> dict[tuple[str, ...], str]:
    """The token runs that name a negative term: the negatives' own runs
    and, given a vocabulary, its runs (synonyms too) of negative terms."""
    runs = {run: term for term in negative if (run := tuple(tokenize(term)))}
    if vocab is not None:
        runs.update((run, term) for term in negative for run in vocab.runs_of.get(term, ()))
    return runs


def _delete_negative_tokens(
    tokens: list[str], runs: dict[tuple[str, ...], str], longest: dict[str, int]
) -> tuple[str, bool]:
    """A caption's `tokens` with the negative runs deleted (see match_runs;
    `longest` is longest_runs(runs)) joined by spaces, and whether any run
    occurred."""
    kept: list[str] = []
    i = 0
    for start, stop, _ in match_runs(tokens, runs, longest):
        kept += tokens[i:start]
        i = stop
    kept += tokens[i:]
    return " ".join(kept), len(kept) < len(tokens)


def _decode(
    context: GenerationContext,
    vectors: np.ndarray,
    hit_tokens: Sequence[list[str]],
    vocab: EntityVocabulary | None,
) -> str:
    """standin_decode's choice, given the (k, d) unit rows of the context's
    hits and the tokens of their captions."""
    probe = normalize_total(context.suppressed_prefix.mean(axis=0))
    # a stack of (1, d) @ (d, 1) products runs np.dot's per-row BLAS dot
    cosines = (vectors[:, None, :] @ probe[:, None])[:, 0, 0].tolist()
    hits = context.retrieval.hits
    order = sorted(range(len(hits)), key=lambda j: (-cosines[j], hits[j].id, hits[j].caption))
    runs = _negative_runs(context.entity_sets.negative, vocab)
    longest = longest_runs(runs)
    for j in order:
        if not _delete_negative_tokens(hit_tokens[j], runs, longest)[1]:
            return hits[j].caption
    return _delete_negative_tokens(hit_tokens[order[0]], runs, longest)[0]


def standin_decode(
    context: GenerationContext,
    store: Datastore,
    vocab: EntityVocabulary | None = None,
) -> str:
    """Extractive stand-in for a neural decoder.

    Prefers the retrieved caption most aligned (by cosine) with the mean
    suppressed prefix token among captions that mention no negative entity;
    if every candidate mentions one, the best candidate is returned with
    the negative surface forms deleted token-wise. Not a language model:
    exists so the evaluation loop closes deterministically.
    """
    hits = context.retrieval.hits
    if not hits:
        raise EmptyRetrieval("stand-in decoding needs at least one retrieved caption")
    vectors = context.retrieval.vectors
    if vectors is None:  # a result that retrieve_many did not make
        vectors = np.array([store.vector_of(hit.id) for hit in hits])
    return _decode(context, vectors, [tokenize(hit.caption) for hit in hits], vocab)


# --- batch runner ---------------------------------------------------------------


@dataclass(frozen=True)
class BatchResult:
    """run_batch's outputs, one JSON object per kept instance, whose
    ["context"]["prefix"] is an (L, d) float64 array in memory (see
    GenerationContext.to_json_dict); and its skipped instances."""

    outputs: list[dict]
    skipped: list[dict]
    # instances whose key string was hashed, for want of a key store
    hashed: int = 0


def _check_instances(instances: Sequence[dict], mode: str) -> None:
    """FormatError for the first fault of the instances, before any of them
    is processed: an "id" that is missing, not a string or repeated; then a
    text field of the mode that is not a string, a missing or blank
    "caption" (training) or "image_key" (inference), or "references" that
    `eval` would not read (see metrics.is_entity_json)."""
    seen: set[str] = set()
    for number, obj in enumerate(instances, 1):
        if not isinstance(obj, dict) or "id" not in obj:
            raise FormatError(f'instance {number}: object needs an "id"')
        if not isinstance(obj["id"], str):
            raise FormatError(f'instance {number}: "id" must be a string, got {obj["id"]!r}')
        if obj["id"] in seen:
            raise FormatError(f'instance {number}: duplicate id {obj["id"]!r}')
        seen.add(obj["id"])
    fields = ("caption", KEY_FIELDS[mode]) if mode == MODE_TRAINING else (KEY_FIELDS[mode],)
    for obj in instances:
        for name in fields:
            value = obj.get(name)
            if value is not None and not isinstance(value, str):
                raise FormatError(f'instance {obj["id"]!r}: "{name}" must be a string, got {value!r}')
        if not (obj.get(fields[0]) or "").strip():
            raise FormatError(f'{mode} instance {obj["id"]!r} needs a non-empty "{fields[0]}"')
        if "references" in obj and not is_entity_json(obj["references"]):
            raise FormatError(
                f'instance {obj["id"]!r}: "references" must be a string or an array'
                f' of strings, got {obj["references"]!r}'
            )


def run_batch(
    instances: Sequence[dict],
    store: Datastore,
    vocab: EntityVocabulary,
    sources: SourceBundle,
    config: PipelineConfig,
    weights: AttentionWeights | None = None,
    keys: EmbeddingSource | None = None,
) -> BatchResult:
    """Process parsed JSON instances ({"id", "caption"?, "image_key"?,
    "synthetic_key"?}). Training instances whose synthetic embedding scores
    below the quality gate are skipped and reported; the gate applies only
    here. The rest go through the flow of run_training_instance or
    run_inference_instance all at once, so each vocabulary term is
    embedded at most once per call (see EntityIndex). Every "id" must be
    a string, and no two instances may share one; either is a FormatError
    raised before any instance is processed."""
    _check_instances(instances, config.mode)
    return Run(store, vocab, sources, config, weights, keys).batch(instances)


def read_jsonl(path) -> list[dict]:
    return [obj for _, obj in json_lines(path)]
