"""Attention-level suppression of hallucination-prone prefix tokens.

Tokens are scored by how strongly negative-entity embeddings attend to
them; a selection strategy picks tokens from those scores; selected tokens
are scaled by the suppression strength lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import kernels
from .errors import DimMismatch, IndexOutOfRange, InvariantError
from .fusion import as_prefix
from .validation import check_float

STRATEGY_FIXED_THRESHOLD = "fixed-threshold"
STRATEGY_TOP_K = "top-k"
STRATEGY_TOP_K_MINUS_1 = "top-k-minus-1"
STRATEGY_PROPORTIONAL = "proportional"

SUPPRESSION_STRATEGIES = (
    STRATEGY_FIXED_THRESHOLD,
    STRATEGY_TOP_K,
    STRATEGY_TOP_K_MINUS_1,
    STRATEGY_PROPORTIONAL,
)

DEFAULT_LAMBDA = 0.3


@dataclass(frozen=True)
class SuppressionConfig:
    strategy: str = STRATEGY_FIXED_THRESHOLD
    tau_neg: float | None = None
    lam: float = field(default=DEFAULT_LAMBDA, metadata={"key": "lambda"})
    proportion: float | None = None

    def __post_init__(self):
        check_float("tau_neg", self.tau_neg, optional=True)
        check_float("lambda", self.lam)
        check_float("proportion", self.proportion, optional=True)
        if self.strategy not in SUPPRESSION_STRATEGIES:
            raise ValueError(f"unknown suppression strategy {self.strategy!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")
        if self.strategy == STRATEGY_FIXED_THRESHOLD:
            if self.tau_neg is None:
                raise ValueError("fixed-threshold strategy requires tau_neg")
        elif self.tau_neg is not None:
            raise ValueError("tau_neg is only valid with the fixed-threshold strategy")
        if self.strategy == STRATEGY_PROPORTIONAL:
            if self.proportion is None or not 0.0 < self.proportion <= 1.0:
                raise ValueError(
                    f"proportional strategy requires proportion in (0, 1], got {self.proportion}"
                )
        elif self.proportion is not None:
            raise ValueError("proportion is only valid with the proportional strategy")


@dataclass(frozen=True)
class SuppressionReport:
    scores: tuple[float, ...]
    selected: frozenset[int]
    lambda_applied: float

    def check(self) -> None:
        n = len(self.scores)
        if any(i < 0 or i >= n for i in self.selected):
            raise InvariantError("selected index outside the token range")
        if any(not 0.0 <= s <= 1.0 + 1e-9 for s in self.scores):
            raise InvariantError("score outside [0, 1]")

    def to_json_dict(self) -> dict:
        return {
            "scores": list(self.scores),
            "selected": sorted(self.selected),
            "lambda": self.lambda_applied,
        }


def score_negative_attention(prefix, negative_embs) -> np.ndarray:
    """Per-token scores: each negative embedding softmax-attends over the
    tokens; a token keeps the largest weight any negative gives it.
    An empty negative set scores every token 0."""
    tokens = as_prefix(prefix)
    negatives = np.atleast_2d(np.asarray(negative_embs, dtype=np.float64))
    if negatives.size == 0:
        return np.zeros(tokens.shape[0])
    if negatives.shape[1] != tokens.shape[1]:
        raise DimMismatch(
            f"negative dim {negatives.shape[1]} != token dim {tokens.shape[1]}"
        )
    return kernels.negative_scores(
        np.ascontiguousarray(tokens), np.ascontiguousarray(negatives)
    )


def _top_by_score(scores: np.ndarray, count: int) -> set[int]:
    order = np.lexsort((np.arange(scores.shape[0]), -scores))
    return set(int(i) for i in order[:count])


def select_tokens(scores, neg_count: int, config: SuppressionConfig) -> set[int]:
    """Pick token indices to suppress from per-token scores.

    fixed-threshold keeps strict exceedances of tau_neg; top-k keeps the
    neg_count best (top-k-minus-1 one fewer); proportional keeps the best
    ceil(proportion * L). Score ties resolve to the lower index.
    """
    values = np.asarray(scores, dtype=np.float64)
    if values.ndim != 1:
        raise DimMismatch(f"scores must be 1-D, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("scores contain non-finite values")
    if neg_count < 0:
        raise ValueError(f"neg_count must be >= 0, got {neg_count}")
    n = values.shape[0]
    if config.strategy == STRATEGY_FIXED_THRESHOLD:
        return set(int(i) for i in np.flatnonzero(values > config.tau_neg))
    if config.strategy == STRATEGY_TOP_K:
        return _top_by_score(values, min(neg_count, n))
    if config.strategy == STRATEGY_TOP_K_MINUS_1:
        return _top_by_score(values, min(max(neg_count - 1, 0), n))
    return _top_by_score(values, min(math.ceil(config.proportion * n), n))


def suppress(prefix, selected: Iterable[int], lam: float) -> np.ndarray:
    """Scale the selected tokens by lam; all other tokens are untouched."""
    tokens = as_prefix(prefix)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    indices = sorted(set(int(i) for i in selected))
    if indices and (indices[0] < 0 or indices[-1] >= tokens.shape[0]):
        raise IndexOutOfRange(
            f"selected indices {indices} outside [0, {tokens.shape[0]})"
        )
    out = tokens.copy()
    if indices:
        out[indices] *= lam
    return out
