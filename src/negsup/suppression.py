"""Attention-level suppression of hallucination-prone prefix tokens.

Tokens are scored by how strongly negative-entity embeddings attend to
them; a selection strategy picks tokens from those scores; selected tokens
are scaled by the suppression strength lambda.

Each step runs over a block of b instances' (b, L, d) prefixes, which the
pipeline finishes a chunk of instances at a time: score_negative_attention
(b, L) scores, select_tokens (a (b, L) mask) and suppress (a mask
multiply). Each row of a block equals the block of that row alone bit for
bit, and one instance is a block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import kernels
from .errors import DimMismatch, InvariantError
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


def _negative_matrix(negative_embs, dim: int) -> np.ndarray:
    """The (n, dim) matrix of negative embeddings, n >= 0."""
    negatives = np.atleast_2d(np.asarray(negative_embs, dtype=np.float64))
    if negatives.size == 0:
        return np.zeros((0, dim))
    if negatives.shape[1] != dim:
        raise DimMismatch(f"negative dim {negatives.shape[1]} != token dim {dim}")
    return negatives


def score_negative_attention(prefixes, negatives: Sequence) -> np.ndarray:
    """Per-token scores of a stack of b prefixes, (b, L), where
    negatives[i] holds the negative embeddings of prefix i: each negative
    embedding softmax-attends over the prefix's tokens, and a token keeps
    the largest weight any negative gives it. The prefixes with equally
    many negatives are scored as one stack (see kernels.negative_scores);
    a prefix with an empty negative set scores every token 0."""
    tokens = as_prefix(prefixes)
    if len(negatives) != tokens.shape[0]:
        raise DimMismatch(f"{len(negatives)} negative sets for {tokens.shape[0]} prefixes")
    mats = [_negative_matrix(neg, tokens.shape[2]) for neg in negatives]
    counts = [mat.shape[0] for mat in mats]
    scores = np.zeros(tokens.shape[:2])
    for count in sorted(set(counts) - {0}):
        rows = [i for i, n in enumerate(counts) if n == count]
        scores[rows] = kernels.negative_scores(tokens[rows], np.stack([mats[i] for i in rows]))
    return scores


def select_tokens(scores, neg_counts: Sequence[int], config: SuppressionConfig) -> np.ndarray:
    """The (b, L) mask of the tokens to suppress that each row of (b, L)
    scores selects, given the row's negative count.

    fixed-threshold keeps strict exceedances of tau_neg; top-k keeps the
    neg_count best (top-k-minus-1 one fewer); proportional keeps the best
    ceil(proportion * L). The best tokens are those of lowest rank in a
    stable argsort of the negated scores, the order of a sort by (score
    desc, index asc), so score ties resolve to the lower index.
    """
    values = np.asarray(scores, dtype=np.float64)
    if values.ndim != 2:
        raise DimMismatch(f"scores must be 2-D, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("scores contain non-finite values")
    counts = np.array(neg_counts, dtype=np.int64).reshape(-1)
    if counts.shape[0] != values.shape[0]:
        raise DimMismatch(f"{counts.shape[0]} negative counts for {values.shape[0]} rows")
    if (counts < 0).any():
        raise ValueError(f"neg_count must be >= 0, got {counts.min()}")
    n = values.shape[1]
    if config.strategy == STRATEGY_FIXED_THRESHOLD:
        return values > config.tau_neg
    if config.strategy == STRATEGY_TOP_K:
        take = np.minimum(counts, n)
    elif config.strategy == STRATEGY_TOP_K_MINUS_1:
        take = np.minimum(np.maximum(counts - 1, 0), n)
    else:
        take = np.full(counts.shape, min(math.ceil(config.proportion * n), n))
    order = np.argsort(-values, axis=1, kind="stable")
    rank = np.argsort(order, axis=1)
    return rank < take[:, None]


def suppress(prefixes, mask, lam: float) -> np.ndarray:
    """Scale the tokens of a block of (b, L, d) prefixes that the (b, L)
    bool mask selects by lam, which must lie in [0, 1]; every other token
    is multiplied by 1.0, which keeps its bits."""
    tokens = as_prefix(prefixes)
    mask = np.asarray(mask)
    if mask.dtype != np.bool_ or mask.shape != tokens.shape[:2]:
        raise DimMismatch(
            f"expected a bool mask of shape {tokens.shape[:2]}, got {mask.dtype} {mask.shape}"
        )
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    return tokens * np.where(mask, lam, 1.0)[..., None]
