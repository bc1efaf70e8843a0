"""negsup: retrieval-augmented captioning with negative-entity suppression.

Deterministic building blocks for caption retrieval pipelines: pluggable
embedding sources, exact cosine k-NN retrieval, entity extraction and
filtering, feature fusion, attention-level suppression, and hallucination
metrics, plus a CLI tying them together.
"""

from .datastore import (
    Datastore,
    Hit,
    RetrievalResult,
    brute_force_topk,
    build_datastore,
    ingest_datastore,
    load_datastore,
    retrieve,
    save_datastore,
)
from .embedding import (
    FileSource,
    HashSource,
    embed_entity,
    embed_text,
    l2_normalize,
    load_embedding_file,
    normalize_total,
    tokenize,
    write_embedding_file,
)
from .entities import (
    EntityIndex,
    EntitySets,
    EntityVocabulary,
    classify_image_entities,
    extract_entities,
    filter_inference,
    filter_training,
    load_vocabulary,
)
from .errors import (
    DimMismatch,
    DuplicateId,
    EmptyInput,
    EmptyRetrieval,
    EncodingError,
    FormatError,
    InvariantError,
    IoError,
    NegsupError,
    NoGroundTruth,
    UnknownKey,
    ZeroVector,
)
from .fusion import (
    AttentionWeights,
    FusionConfig,
    clip_score,
    fuse_retrieval,
    fuse_sif,
    load_weights_file,
    map_to_prefix,
    write_weights_file,
    xavier_weights,
)
from .metrics import (
    EvalInstance,
    EvalReport,
    attribute_hallucinations,
    chair_scores,
    entity_recall,
    evaluate,
    retrieval_diagnostics,
)
from .pipeline import (
    GenerationContext,
    PipelineConfig,
    SourceBundle,
    build_prompt,
    run_batch,
    run_inference_instance,
    run_training_instance,
    standin_decode,
)
from .suppression import (
    SuppressionConfig,
    SuppressionReport,
    score_negative_attention,
    select_tokens,
    suppress,
)

__version__ = "0.1.0"
