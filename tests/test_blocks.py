"""The block forms of the dense stage and of suppression against an
independent per-instance oracle: the one-instance formulas written out
here, compared bit for bit (uint64 views) over a grid of widths, hit
counts, prefix lengths, chunk sizes and negative counts."""

import math

import numpy as np
import pytest

from negsup.fusion import fuse_stack, map_stack, xavier_weights
from negsup.suppression import (
    SUPPRESSION_STRATEGIES,
    SuppressionConfig,
    score_stack,
    select_stack,
    suppress_stack,
)

DIMS = (1, 3, 4, 31, 32, 128)
HITS = (1, 2, 9)
PREFIX_LENGTHS = (1, 4, 5)
CHUNKS = (1, 2, 3, 16, 17)


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _softmax_rows(a, b):
    logits = (a @ b.T) / math.sqrt(a.shape[1])
    logits = logits - logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=1, keepdims=True)


def _oracle_dense(features, retrieved, weights):
    """(prefix, attention) of one instance, as one-instance products."""
    tokens = features.reshape(1, -1)
    queries = np.ascontiguousarray(tokens @ weights.q_proj.T)
    keys = np.ascontiguousarray(retrieved @ weights.k_proj.T)
    values = np.ascontiguousarray(retrieved @ weights.v_proj.T)
    attn = _softmax_rows(queries, keys)
    out = tokens + attn @ values
    prefix = (weights.one_token_map @ out[0]).reshape(weights.out_tokens, weights.dim)
    return prefix, attn


def _oracle_scores(prefix, negatives):
    if not negatives:
        return np.zeros(prefix.shape[0])
    return _softmax_rows(np.asarray(negatives), np.ascontiguousarray(prefix)).max(axis=0)


def _oracle_selected(scores, neg_count, config):
    n = scores.shape[0]
    if config.strategy == "fixed-threshold":
        return set(np.flatnonzero(scores > config.tau_neg).tolist())
    if config.strategy == "top-k":
        count = min(neg_count, n)
    elif config.strategy == "top-k-minus-1":
        count = min(max(neg_count - 1, 0), n)
    else:
        count = min(math.ceil(config.proportion * n), n)
    order = np.lexsort((np.arange(n), -scores))
    return set(order[:count].tolist())


def _oracle_suppressed(prefix, selected, lam):
    out = prefix.copy()
    if selected:
        out[sorted(selected)] *= lam
    return out


def _configs(lam):
    return [
        SuppressionConfig(strategy=strategy, lam=lam, **extra)
        for strategy, extra in (
            ("fixed-threshold", {"tau_neg": 0.3}),
            ("top-k", {}),
            ("top-k-minus-1", {}),
            ("proportional", {"proportion": 0.4}),
        )
    ]


def test_the_grid_covers_every_strategy():
    assert {c.strategy for c in _configs(0.3)} == set(SUPPRESSION_STRATEGIES)


@pytest.mark.parametrize("prefix_len", PREFIX_LENGTHS)
@pytest.mark.parametrize("k", HITS)
@pytest.mark.parametrize("dim", DIMS)
def test_blocks_equal_the_per_instance_oracle(dim, k, prefix_len):
    rng = np.random.default_rng(dim * 100 + k * 10 + prefix_len)
    weights = xavier_weights(dim, prefix_len, seed=dim + k)
    for b in CHUNKS:
        features = rng.normal(size=(b, dim))
        retrieved = rng.normal(size=(b, k, dim))
        # 0-3 negatives per instance, mixed within the chunk
        counts = rng.permutation([i % 4 for i in range(b)]).tolist()
        negatives = [list(rng.normal(size=(n, dim))) for n in counts]

        fused, attn = fuse_stack(features[:, None, :], retrieved, weights)
        prefixes = map_stack(fused, weights)
        scores = score_stack(prefixes, negatives)
        assert prefixes.shape == (b, prefix_len, dim)
        assert scores.shape == (b, prefix_len)

        want = [_oracle_dense(features[i], retrieved[i], weights) for i in range(b)]
        want_scores = [_oracle_scores(want[i][0], negatives[i]) for i in range(b)]
        for i in range(b):
            assert np.array_equal(_bits(attn[i]), _bits(want[i][1]))
            assert np.array_equal(_bits(prefixes[i]), _bits(want[i][0]))
            assert np.array_equal(_bits(scores[i]), _bits(want_scores[i]))

        for lam in (0.0, 0.3):
            for config in _configs(lam):
                mask = select_stack(scores, counts, config)
                suppressed = suppress_stack(prefixes, mask, lam)
                for i in range(b):
                    selected = _oracle_selected(want_scores[i], counts[i], config)
                    assert set(np.flatnonzero(mask[i]).tolist()) == selected
                    expected = _oracle_suppressed(want[i][0], selected, lam)
                    assert np.array_equal(_bits(suppressed[i]), _bits(expected))


@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_selection_breaks_ties_as_the_oracle(lam):
    # scores drawn from three values, so most rows hold ties
    rng = np.random.default_rng(11)
    scores = rng.choice([0.0, 0.25, 0.5], size=(40, 5))
    counts = rng.integers(0, 7, size=40).tolist()
    for config in _configs(lam):
        mask = select_stack(scores, counts, config)
        for row, count, picked in zip(scores, counts, mask):
            assert set(np.flatnonzero(picked).tolist()) == _oracle_selected(row, count, config)


def test_multi_token_map_equals_the_one_instance_product():
    weights = xavier_weights(8, 3, seed=2)
    tokens = np.random.default_rng(3).normal(size=(5, 3, 8))
    got = map_stack(tokens, weights)
    for i in range(5):
        want = (weights.map_proj @ tokens[i].reshape(-1)).reshape(3, 8)
        assert np.array_equal(_bits(got[i]), _bits(want))
