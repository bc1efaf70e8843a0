"""The benchmark's tracer wraps negsup functions by (module, name); a rename
must fail here, not only in a traced benchmark run. And the names it wraps
must be the ones the pipeline calls, or their spans read 0 while the time
lands in the caller."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from toycorpus import ablation_config, make_corpus, run_ablation

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _tracing()
TRACED = TRACING_MODULE.SPANS + TRACING_MODULE.COUNTS


@pytest.mark.parametrize("module,func", [t[1:] for t in TRACED], ids=[t[0] for t in TRACED])
def test_traced_function_resolves(module, func):
    assert callable(getattr(importlib.import_module(module), func, None))


# the per-instance spans of the benchmark's per-layer split, by mode
PER_INSTANCE = [
    "datastore.retrieve",
    "fusion.fuse_retrieval",
    "fusion.map_to_prefix",
    "suppression.score_negative_attention",
    "suppression.select_tokens",
    "suppression.suppress",
    "pipeline.standin_decode",
    "kernels.attention_core",
    "kernels.negative_scores",
]
ENTITY_STAGE = {
    "training": ["entities.filter_training"],
    "inference": ["entities.classify_image_entities", "entities.filter_inference"],
}


@pytest.mark.parametrize("mode", sorted(ENTITY_STAGE))
def test_every_per_instance_span_sees_the_pipeline(mode):
    corpus = make_corpus(3)
    config = ablation_config(3, enable_nef=True, mode=mode)
    if mode == "training":
        # the caption's own text retrieves the bait captions, so training
        # has negatives to score
        config = dataclasses.replace(config, training_query="text")
    assert config.enable_as and config.enable_nef
    tracer = TRACING_MODULE.Tracer()
    tracer.install()
    try:
        run_ablation(corpus, config)
    finally:
        tracer.uninstall()
    totals = tracer.totals(tracer.phase)
    missing = [name for name in PER_INSTANCE + ENTITY_STAGE[mode] if name not in totals]
    assert missing == []
