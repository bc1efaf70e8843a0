"""Hallucination and coverage metrics over canonical entity sets.

A generated entity is hallucinated iff it is absent from the instance's
ground-truth set. All rate metrics are exposed both as floats and as the
underlying integer counts so tests can compare exact rationals.
Zero denominators yield 0 except entity recall, which requires at least
one ground-truth entity somewhere.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

from .entities import EntityVocabulary, extract_entities
from .errors import EmptyInput, FormatError, InvariantError, NoGroundTruth
from .validation import config_to_json, json_lines


@dataclass(frozen=True)
class EvalInstance:
    generated: frozenset[str]
    ground_truth: frozenset[str]
    retrieved: frozenset[str] = frozenset()


@dataclass(frozen=True)
class EvalReport:
    chair_s: float
    chair_i: float
    recall: float
    total_hallucinations: int
    retrieval_sourced: int
    model_sourced: int
    ratio_retrieval_sourced: float

    def check(self) -> None:
        if self.retrieval_sourced + self.model_sourced != self.total_hallucinations:
            raise InvariantError("hallucination source counts do not add up")
        for name in ("chair_s", "chair_i", "recall", "ratio_retrieval_sourced"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InvariantError(f"{name}={value} outside [0, 1]")

    def to_json_dict(self) -> dict:
        return config_to_json(self)


def _require_instances(instances: Sequence[EvalInstance]) -> None:
    if not instances:
        raise EmptyInput("no evaluation instances")


def hallucinated(instance: EvalInstance) -> frozenset[str]:
    return instance.generated - instance.ground_truth


def chair_counts(instances: Sequence[EvalInstance]) -> tuple[int, int, int, int]:
    """(captions with a hallucination, captions, hallucinated entities,
    generated entities)."""
    _require_instances(instances)
    bad_caps = 0
    halluc = 0
    generated = 0
    for inst in instances:
        wrong = hallucinated(inst)
        bad_caps += bool(wrong)
        halluc += len(wrong)
        generated += len(inst.generated)
    return bad_caps, len(instances), halluc, generated


def chair_scores(instances: Sequence[EvalInstance]) -> tuple[float, float]:
    """(chair_s, chair_i): share of captions with a hallucination, and share
    of generated entities that are hallucinated (0 when nothing generated)."""
    bad_caps, caps, halluc, generated = chair_counts(instances)
    chair_s = bad_caps / caps
    chair_i = halluc / generated if generated else 0.0
    return chair_s, chair_i


def recall_counts(instances: Sequence[EvalInstance]) -> tuple[int, int]:
    """(ground-truth entities covered by the generation, ground-truth entities)."""
    _require_instances(instances)
    matched = sum(len(inst.generated & inst.ground_truth) for inst in instances)
    total = sum(len(inst.ground_truth) for inst in instances)
    return matched, total


def entity_recall(instances: Sequence[EvalInstance]) -> float:
    matched, total = recall_counts(instances)
    if total == 0:
        raise NoGroundTruth("no ground-truth entities in any instance")
    return matched / total


@dataclass(frozen=True)
class HallucinationAttribution:
    total: int
    retrieval_sourced: int
    model_sourced: int
    ratio: float


def attribute_hallucinations(
    instances: Sequence[EvalInstance],
) -> HallucinationAttribution:
    """Split hallucinated entities into retrieval-sourced (present in the
    instance's retrieved set) and model-sourced."""
    _require_instances(instances)
    total = 0
    from_retrieval = 0
    for inst in instances:
        for term in hallucinated(inst):
            total += 1
            from_retrieval += term in inst.retrieved
    return HallucinationAttribution(
        total=total,
        retrieval_sourced=from_retrieval,
        model_sourced=total - from_retrieval,
        ratio=from_retrieval / total if total else 0.0,
    )


@dataclass(frozen=True)
class RetrievalDiagnostics:
    acc: float
    rc: float
    ahc: float
    dhc: int


def retrieval_diagnostic_counts(
    instances: Sequence[tuple[frozenset[str], frozenset[str]]],
) -> tuple[int, int, int, int, int, int]:
    """(overlap, retrieved, ground truth, hallucinated-retrieved, instances,
    distinct hallucinated-retrieved) summed over (retrieved, gt) pairs."""
    if not instances:
        raise EmptyInput("no retrieval instances")
    overlap = retrieved_total = gt_total = spurious_total = 0
    spurious_union: set[str] = set()
    for retrieved, gt in instances:
        retrieved = frozenset(retrieved)
        gt = frozenset(gt)
        overlap += len(retrieved & gt)
        retrieved_total += len(retrieved)
        gt_total += len(gt)
        wrong = retrieved - gt
        spurious_total += len(wrong)
        spurious_union |= wrong
    return (
        overlap,
        retrieved_total,
        gt_total,
        spurious_total,
        len(instances),
        len(spurious_union),
    )


def retrieval_diagnostics(
    instances: Sequence[tuple[frozenset[str], frozenset[str]]],
) -> RetrievalDiagnostics:
    """Entity accuracy and recall of retrieved content plus average and
    deduplicated hallucinated-entity counts."""
    overlap, retrieved, gt, spurious, n, dhc = retrieval_diagnostic_counts(instances)
    return RetrievalDiagnostics(
        acc=overlap / retrieved if retrieved else 0.0,
        rc=overlap / gt if gt else 0.0,
        ahc=spurious / n,
        dhc=dhc,
    )


def evaluate(instances: Sequence[EvalInstance]) -> EvalReport:
    """Full report: CHAIR scores, entity recall, and source attribution."""
    chair_s, chair_i = chair_scores(instances)
    attribution = attribute_hallucinations(instances)
    report = EvalReport(
        chair_s=chair_s,
        chair_i=chair_i,
        recall=entity_recall(instances),
        total_hallucinations=attribution.total,
        retrieval_sourced=attribution.retrieval_sourced,
        model_sourced=attribution.model_sourced,
        ratio_retrieval_sourced=attribution.ratio,
    )
    report.check()
    return report


# --- JSON-lines evaluation input ----------------------------------------------
#
# One object per line: "generated" is a caption string or an entity array;
# "references" is an array of caption strings; "retrieved" is an optional
# array of caption strings. Captions are reduced to entity sets with the
# supplied vocabulary; entity arrays are canonicalized through it.


def is_entity_json(value) -> bool:
    """Whether `value` has a form entity_set_from_json reads: a string or an
    array of strings."""
    return isinstance(value, str) or (
        isinstance(value, list) and all(isinstance(item, str) for item in value)
    )


def entity_set_from_json(value, vocab: EntityVocabulary | None, field_name: str) -> frozenset[str]:
    if not is_entity_json(value):
        raise FormatError(f"{field_name!r} must be a string or an array of strings")
    if isinstance(value, str):
        if vocab is None:
            raise FormatError(
                f"{field_name!r} is a caption string; a vocabulary is required"
            )
        return frozenset(extract_entities(value, vocab))
    joined: set[str] = set()
    for item in value:
        # heuristically: multi-token items with a vocabulary are captions
        if vocab is not None and item.strip().lower() not in vocab.synonyms:
            joined |= extract_entities(item, vocab)
        elif vocab is not None:
            joined.add(vocab.canonicalize(item))
        else:
            joined.add(item.strip().lower())
    return frozenset(joined)


def instance_from_json(obj: dict, vocab: EntityVocabulary | None) -> EvalInstance:
    if "generated" not in obj or "references" not in obj:
        raise FormatError('instance object needs "generated" and "references"')
    return EvalInstance(
        generated=entity_set_from_json(obj["generated"], vocab, "generated"),
        ground_truth=entity_set_from_json(obj["references"], vocab, "references"),
        retrieved=entity_set_from_json(obj.get("retrieved", []), vocab, "retrieved"),
    )


def load_instances(path, vocab: EntityVocabulary | None = None) -> list[EvalInstance]:
    instances = []
    for lineno, obj in json_lines(path):
        try:
            instances.append(instance_from_json(obj, vocab))
        except FormatError as exc:
            raise FormatError(f"{os.fspath(path)}: line {lineno}: {exc}") from exc
    return instances
