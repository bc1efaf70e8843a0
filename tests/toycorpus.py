"""Seeded toy corpus for directional ablation checks.

Ten scenes, two entities each (disjoint across scenes). Every scene gets
four clean datastore captions built from its "visual" tokens, plus one
spurious caption that injects an extra entity. Most spurious captions are
near-duplicates of the scene's input text (text-retrieval bait); two per
corpus also borrow the visual tokens so they can sneak into image-side
retrieval. Training instances pair each scene's input text with a
synthetic caption written in the visual token style.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from negsup.datastore import Datastore, build_datastore
from negsup.embedding import FileSource, HashSource, embed_text
from negsup.entities import EntityVocabulary, extract_entities
from negsup.fusion import FusionConfig
from negsup.metrics import EvalInstance
from negsup.pipeline import PipelineConfig, SourceBundle, run_batch
from negsup.suppression import SuppressionConfig

SCENE_ENTITIES = [
    "dog", "cat", "frisbee", "ball", "tree", "car", "bench", "bird",
    "hat", "bike", "boat", "horse", "sheep", "pizza", "cup", "chair",
    "lamp", "door", "fence", "flower",
]

SPURIOUS_ENTITIES = [
    "kite", "umbrella", "laptop", "guitar", "clock",
    "mirror", "ladder", "barrel", "kettle", "drum",
]

PLACES = [
    "field", "beach", "garden", "street", "yard",
    "market", "harbor", "meadow", "plaza", "forest",
]

VERBS = [
    "plays", "runs", "naps", "walks", "stands",
    "waits", "hides", "rolls", "jumps", "spins",
]

TIMES = [
    "today", "tonight", "early", "late", "now",
    "soon", "again", "often", "daily", "still",
]

N_SCENES = 10
BOTH_BAIT_SCENES = 2  # spurious captions that also borrow the visual tokens

DIM = 64
RETRIEVAL_K = 2


@dataclass(frozen=True)
class ToyCorpus:
    store: Datastore
    vocab: EntityVocabulary
    source: HashSource
    instances: list
    spurious_caption_count: int


def make_corpus(seed: int) -> ToyCorpus:
    rng = np.random.default_rng(seed)
    entities = list(rng.permutation(SCENE_ENTITIES))
    spurious = list(rng.permutation(SPURIOUS_ENTITIES))
    places = list(rng.permutation(PLACES))
    verbs = list(rng.permutation(VERBS))
    times = list(rng.permutation(TIMES))
    source = HashSource(dim=DIM, seed=1000 + seed)

    records = []
    instances = []
    spurious_count = 0
    for i in range(N_SCENES):
        e1, e2 = entities[2 * i], entities[2 * i + 1]
        spur = spurious[i]
        place = places[i]
        verb = verbs[i]
        when = times[i]

        text = f"a {e1} {verb} with a {e2} outside {when}"
        synthetic = f"the {e1} and the {e2} resting in the {place} at noon"
        clean = [
            f"the {e1} and the {e2} resting in the {place}",
            f"the {e1} sits with the {e2} in the {place} at noon",
            f"the {e2} and the {e1} together in the {place}",
            f"the {e1} near the {e2} resting at noon in the {place}",
        ]
        if i < BOTH_BAIT_SCENES:
            bait = f"the {e1} {verb} with the {e2} in the {place} and a {spur} at noon"
        else:
            bait = f"a {e1} {verb} with a {e2} and a {spur} outside {when}"
        spurious_count += 1

        for j, caption in enumerate(clean):
            records.append((f"s{i:02d}c{j}", caption, embed_text(source, caption)))
        records.append((f"s{i:02d}x", bait, embed_text(source, bait)))

        instances.append(
            {"id": f"scene{i:02d}", "caption": text, "synthetic": synthetic}
        )

    vocab = EntityVocabulary(SCENE_ENTITIES + SPURIOUS_ENTITIES)
    return ToyCorpus(
        store=build_datastore(records),
        vocab=vocab,
        source=source,
        instances=instances,
        spurious_caption_count=spurious_count,
    )


def ablation_config(
    seed: int,
    *,
    enable_nef: bool,
    baseline: bool = False,
    mode: str = "training",
    enable_as: bool | None = None,
) -> PipelineConfig:
    if baseline:
        return PipelineConfig(
            mode=mode,
            retrieval_k=RETRIEVAL_K,
            prefix_length=4,
            seed=seed,
            top_m=2,
            enable_sir=False,
            enable_sif=False,
            enable_nef=False,
            enable_as=False,
            fusion=FusionConfig(strategy="fixed", alpha=0.9, tau_quality=0.0),
        )
    if enable_as is None:
        enable_as = True
    return PipelineConfig(
        mode=mode,
        retrieval_k=RETRIEVAL_K,
        prefix_length=4,
        seed=seed,
        top_m=2,
        enable_nef=enable_nef,
        enable_as=enable_as,
        fusion=FusionConfig(strategy="fixed", alpha=0.9, tau_quality=0.0),
        suppression=(
            SuppressionConfig(strategy="fixed-threshold", tau_neg=0.4, lam=0.3)
            if enable_as
            else None
        ),
    )


def ablation_batch(corpus: ToyCorpus, mode: str) -> tuple[list[dict], FileSource]:
    """The corpus's instances as run_batch input of `mode`, with the key
    store that maps each instance's key to its hashed synthetic caption."""
    batch = []
    key_vectors = {}
    for inst in corpus.instances:
        key = f"visual::{inst['id']}"
        key_vectors[key] = embed_text(corpus.source, inst["synthetic"])
        if mode == "training":
            batch.append(
                {"id": inst["id"], "caption": inst["caption"], "synthetic_key": key}
            )
        else:
            batch.append(
                {
                    "id": inst["id"],
                    "image_key": key,
                    "references": [inst["caption"]],
                }
            )
    return batch, FileSource(key_vectors)


def run_ablation(corpus: ToyCorpus, config: PipelineConfig) -> list[EvalInstance]:
    """Run the pipeline with per-instance synthetic/image captions hashed
    into embeddings, returning metric-ready instances."""
    batch, keys = ablation_batch(corpus, config.mode)
    result = run_batch(
        batch, corpus.store, corpus.vocab, SourceBundle(corpus.source), config, keys=keys
    )
    out = []
    for obj in result.outputs:
        generated = frozenset(extract_entities(obj["generated"], corpus.vocab))
        truth = frozenset(extract_entities(obj["references"][0], corpus.vocab))
        retrieved = frozenset()
        for caption in obj["retrieved"]:
            retrieved |= extract_entities(caption, corpus.vocab)
        out.append(
            EvalInstance(generated=generated, ground_truth=truth, retrieved=retrieved)
        )
    return out
