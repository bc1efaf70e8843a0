import dataclasses
import math

import numpy as np
import pytest

from negsup.errors import DimMismatch, InvariantError
from negsup.pipeline import SourceBundle, run_batch
from negsup.suppression import (
    SUPPRESSION_STRATEGIES,
    SuppressionConfig,
    SuppressionReport,
    score_negative_attention,
    select_tokens,
    suppress,
)
from toycorpus import ablation_batch, ablation_config, make_corpus


class TestScores:
    def test_no_negatives_gives_zeros(self):
        prefix = np.random.default_rng(0).normal(size=(4, 8))
        scores = score_negative_attention(prefix[None], [np.zeros((0, 8))])[0]
        assert np.array_equal(scores, np.zeros(4))

    def test_single_token_softmax_is_one(self):
        prefix = np.array([[0.3, -0.2, 0.5]])
        negatives = np.array([[1.0, 0.0, 0.0]])
        scores = score_negative_attention(prefix[None], [negatives])[0]
        np.testing.assert_allclose(scores, [1.0], atol=1e-12)

    def test_orthonormal_prefix_hand_computed(self):
        # 4 orthonormal tokens, one negative equal to token 2: logits are
        # [0, 0, 1/sqrt(4), 0]; hand-computed softmax puts the strict max
        # weight on token 2
        prefix = np.eye(4)
        negatives = prefix[2].reshape(1, -1)
        scores = score_negative_attention(prefix[None], [negatives])[0]
        hot = math.exp(0.5)
        expected = np.array([1.0, 1.0, hot, 1.0]) / (3.0 + hot)
        np.testing.assert_allclose(scores, expected, atol=1e-12)
        assert np.argmax(scores) == 2
        assert scores[2] > max(scores[i] for i in (0, 1, 3))

    def test_weights_sum_to_one_per_negative(self):
        rng = np.random.default_rng(1)
        prefix = rng.normal(size=(6, 5))
        for _ in range(10):
            one_negative = rng.normal(size=(1, 5))
            scores = score_negative_attention(prefix[None], [one_negative])[0]
            assert abs(scores.sum() - 1.0) <= 1e-6
            assert np.all(scores >= 0.0) and np.all(scores <= 1.0)

    def test_max_aggregation_over_negatives(self):
        rng = np.random.default_rng(2)
        prefix = rng.normal(size=(5, 7))
        negatives = rng.normal(size=(3, 7))
        combined = score_negative_attention(prefix[None], [negatives])[0]
        singles = np.stack(
            [
                score_negative_attention(prefix[None], [negatives[i].reshape(1, -1)])[0]
                for i in range(3)
            ]
        )
        np.testing.assert_allclose(combined, singles.max(axis=0), atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            score_negative_attention(np.ones((1, 2, 4)), [np.ones((1, 5))])


def _cfg(strategy, **kwargs):
    return SuppressionConfig(strategy=strategy, **kwargs)


def _indices(mask):
    """The token indices a one-row (1, L) selection mask holds."""
    return set(np.flatnonzero(mask[0]).tolist())


class TestSelect:
    def test_fixed_threshold_nothing_exceeds(self):
        scores = [0.2, 0.4, 0.1]
        got = select_tokens([scores], [2], _cfg("fixed-threshold", tau_neg=0.4))
        assert _indices(got) == set()

    def test_fixed_threshold_strict_inequality(self):
        scores = [0.2, 0.4, 0.5]
        got = select_tokens([scores], [2], _cfg("fixed-threshold", tau_neg=0.39))
        assert _indices(got) == {1, 2}

    def test_top_k_all_tokens(self):
        scores = [0.1, 0.2, 0.3]
        assert _indices(select_tokens([scores], [3], _cfg("top-k"))) == {0, 1, 2}
        assert _indices(select_tokens([scores], [99], _cfg("top-k"))) == {0, 1, 2}

    def test_top_k_hand_sorted(self):
        scores = [0.1, 0.4, 0.3, 0.2]
        assert _indices(select_tokens([scores], [2], _cfg("top-k"))) == {1, 2}

    def test_top_k_zero_negatives(self):
        scores = [0.9, 0.8]
        assert _indices(select_tokens([scores], [0], _cfg("top-k"))) == set()
        assert _indices(select_tokens([scores], [0], _cfg("top-k-minus-1"))) == set()
        assert _indices(select_tokens([scores], [1], _cfg("top-k-minus-1"))) == set()

    def test_top_k_minus_1(self):
        scores = [0.1, 0.4, 0.3, 0.2]
        assert _indices(select_tokens([scores], [3], _cfg("top-k-minus-1"))) == {1, 2}

    def test_proportional_ceil(self):
        scores = [0.5, 0.1, 0.9, 0.3]
        def picked(proportion):
            config = _cfg("proportional", proportion=proportion)
            return _indices(select_tokens([scores], [0], config))

        assert picked(0.01) == {2}
        assert picked(0.5) == {0, 2}
        assert picked(1.0) == {
            0,
            1,
            2,
            3,
        }

    def test_ties_break_to_lower_index(self):
        scores = [0.5, 0.5, 0.5]
        assert _indices(select_tokens([scores], [2], _cfg("top-k"))) == {0, 1}

    def test_cardinality_contracts(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            scores = rng.uniform(0, 1, size=n)
            neg_count = int(rng.integers(0, 8))
            tau = float(rng.uniform(0, 1))
            config = _cfg("fixed-threshold", tau_neg=tau)
            picked = _indices(select_tokens([scores], [neg_count], config))
            assert len(picked) == int(np.sum(scores > tau))
            picked = _indices(select_tokens([scores], [neg_count], _cfg("top-k")))
            assert len(picked) == min(neg_count, n)
            picked = _indices(select_tokens([scores], [neg_count], _cfg("top-k-minus-1")))
            assert len(picked) == min(max(neg_count - 1, 0), n)
            proportion = float(rng.uniform(0.01, 1.0))
            config = _cfg("proportional", proportion=proportion)
            picked = _indices(select_tokens([scores], [neg_count], config))
            assert len(picked) == min(math.ceil(proportion * n), n)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            select_tokens([[0.1]], [-1], _cfg("top-k"))


def _mask(prefix, selected):
    """The (1, L) mask of the selected token indices of one (L, d) prefix."""
    return np.isin(np.arange(prefix.shape[0]), sorted(selected))[None]


class TestSuppress:
    def test_lambda_one_is_bit_exact_identity(self):
        rng = np.random.default_rng(4)
        prefix = rng.normal(size=(5, 6))
        out = suppress(prefix[None], _mask(prefix, {0, 2, 4}), 1.0)[0]
        assert np.array_equal(out, prefix)

    def test_lambda_zero_annihilates_selected(self):
        rng = np.random.default_rng(5)
        prefix = rng.normal(size=(4, 3))
        out = suppress(prefix[None], _mask(prefix, {1, 3}), 0.0)[0]
        assert np.array_equal(out[1], np.zeros(3))
        assert np.array_equal(out[3], np.zeros(3))
        assert np.array_equal(out[0], prefix[0])
        assert np.array_equal(out[2], prefix[2])

    def test_default_strength_scales_exactly(self):
        rng = np.random.default_rng(6)
        prefix = rng.normal(size=(3, 4))
        out = suppress(prefix[None], _mask(prefix, {1}), 0.3)[0]
        assert np.array_equal(out[1], prefix[1] * 0.3)
        assert np.array_equal(out[0], prefix[0])

    def test_composition_law(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            prefix = rng.normal(size=(int(rng.integers(1, 7)), 5))
            selected = set(
                int(i)
                for i in rng.choice(prefix.shape[0], size=rng.integers(0, prefix.shape[0] + 1), replace=False)
            )
            lam1 = float(rng.uniform(0, 1))
            lam2 = float(rng.uniform(0, 1))
            mask = _mask(prefix, selected)
            chained = suppress(suppress(prefix[None], mask, lam1), mask, lam2)[0]
            direct = suppress(prefix[None], mask, lam1 * lam2)[0]
            np.testing.assert_allclose(chained, direct, atol=1e-7)

    def test_locality(self):
        rng = np.random.default_rng(8)
        prefix = rng.normal(size=(6, 4))
        out = suppress(prefix[None], _mask(prefix, {2}), 0.5)[0]
        for i in (0, 1, 3, 4, 5):
            assert np.array_equal(out[i], prefix[i])

    def test_input_not_mutated(self):
        prefix = np.ones((2, 2))
        suppress(prefix[None], _mask(prefix, {0}), 0.0)[0]
        assert np.array_equal(prefix, np.ones((2, 2)))

    def test_index_out_of_range(self):
        # a mask reaching past the last token, or stopping short of it
        with pytest.raises(DimMismatch):
            suppress(np.ones((1, 2, 2)), np.arange(6)[None] == 5, 0.5)
        with pytest.raises(DimMismatch):
            suppress(np.ones((1, 2, 2)), np.ones((1, 1), dtype=bool), 0.5)

    def test_lambda_out_of_range(self):
        with pytest.raises(ValueError):
            suppress(np.ones((1, 2, 2)), np.array([[True, False]]), 1.5)

    @pytest.mark.parametrize(
        "mask, lam, error",
        [
            (np.array([[True, False, True]]), 0.3, DimMismatch),
            (np.array([[True], [False]]), 0.3, DimMismatch),
            (np.array([[1, 0, 1], [0, 1, 0]]), 0.3, DimMismatch),
            (np.array([[True, False, True], [False, True, False]]), 7.0, ValueError),
        ],
        ids=["one_row_for_a_block", "one_column", "int_mask", "lambda_7"],
    )
    def test_block_mask_and_lambda_are_checked(self, mask, lam, error):
        # a block of 2 prefixes of 3 tokens: the mask must be bool and
        # (2, 3) exactly, not broadcast to it, and lambda must lie in [0, 1]
        with pytest.raises(error):
            suppress(np.ones((2, 3, 4)), mask, lam)


class TestConfig:
    def test_strategy_field_exclusivity(self):
        with pytest.raises(ValueError):
            SuppressionConfig(strategy="top-k", tau_neg=0.5)
        with pytest.raises(ValueError):
            SuppressionConfig(strategy="fixed-threshold")
        with pytest.raises(ValueError):
            SuppressionConfig(strategy="fixed-threshold", tau_neg=0.5, proportion=0.1)
        with pytest.raises(ValueError):
            SuppressionConfig(strategy="proportional")

    def test_lambda_bounds(self):
        with pytest.raises(ValueError):
            SuppressionConfig(strategy="top-k", lam=1.2)

    def test_all_strategies_constructible(self):
        for strategy in SUPPRESSION_STRATEGIES:
            kwargs = {}
            if strategy == "fixed-threshold":
                kwargs["tau_neg"] = 0.4
            if strategy == "proportional":
                kwargs["proportion"] = 0.01
            SuppressionConfig(strategy=strategy, **kwargs)


class TestReport:
    def test_json_shape(self):
        report = SuppressionReport(scores=(0.25, 0.5), selected=frozenset({1}), lambda_applied=0.3)
        assert report.to_json_dict() == {
            "scores": [0.25, 0.5],
            "selected": [1],
            "lambda": 0.3,
        }

    def test_check_rejects_bad_index(self):
        report = SuppressionReport(scores=(0.1,), selected=frozenset({3}), lambda_applied=0.3)
        with pytest.raises(InvariantError):
            report.check()


# (mode, seed, config fields over toycorpus.ablation_config): runs whose
# top-k suppression selects tokens (training retrieves with the text query)
TOY_RUNS = [("training", seed, {"enable_sir": False}) for seed in range(4)] + [
    ("inference", seed, {}) for seed in (1, 2, 3)
]


@pytest.mark.parametrize("mode,seed,fields", TOY_RUNS)
def test_toy_corpus_runs_scale_exactly_the_selected_rows(mode, seed, fields):
    """On the toy corpus top-k suppression selects tokens, and each output's
    prefix is the prefix of the same run with AS off, its selected rows
    (and no other) multiplied by lambda, bit for bit."""
    corpus = make_corpus(seed)
    batch, keys = ablation_batch(corpus, mode)
    config = dataclasses.replace(
        ablation_config(seed, enable_nef=True, mode=mode),
        suppression=SuppressionConfig(strategy="top-k"), **fields,
    )
    runs = [
        run_batch(batch, corpus.store, corpus.vocab, SourceBundle(corpus.source), c, keys=keys)
        for c in (config, dataclasses.replace(config, enable_as=False))
    ]
    on, off = (run.outputs for run in runs)
    assert [obj["id"] for obj in on] == [obj["id"] for obj in off]
    selected_total = 0
    for suppressed, plain in zip(on, off):
        selected = sorted(suppressed["context"]["suppression"]["selected"])
        selected_total += len(selected)
        expected = plain["context"]["prefix"].copy()
        expected[selected] *= config.suppression.lam
        assert suppressed["context"]["prefix"].tobytes() == expected.tobytes()
        assert plain["context"]["suppression"]["selected"] == []
    assert selected_total > 0
