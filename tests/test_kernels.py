import numpy as np

from negsup import kernels


def _random_case(rng, n_q=4, n_k=7, d=12):
    return (
        rng.normal(size=(n_q, d)),
        rng.normal(size=(n_k, d)),
        rng.normal(size=(n_k, d)),
    )


class TestNumpyBackend:
    def test_dot_scores(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(20, 8))
        query = rng.normal(size=8)
        expected = np.array([float(np.dot(row, query)) for row in matrix])
        np.testing.assert_allclose(
            kernels.dot_scores(matrix, query), expected, rtol=1e-12
        )

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        q, k, v = _random_case(rng)
        _, weights = kernels.attention_core(q, k, v)
        np.testing.assert_allclose(weights.sum(axis=1), np.ones(4), atol=1e-12)
        assert np.all(weights >= 0)

    def test_negative_scores_empty(self):
        prefix = np.random.default_rng(2).normal(size=(5, 6))
        scores = kernels.negative_scores(prefix, np.zeros((0, 6)))
        assert np.array_equal(scores, np.zeros(5))

    def test_negative_scores_single_query_sums_to_one(self):
        rng = np.random.default_rng(3)
        prefix = rng.normal(size=(6, 4))
        negatives = rng.normal(size=(1, 4))
        scores = kernels.negative_scores(prefix, negatives)
        # one query: per-token max equals that query's softmax weights
        assert abs(scores.sum() - 1.0) <= 1e-12


def test_dot_scores_block_rows_match_single_queries():
    rng = np.random.default_rng(4)
    matrix = rng.normal(size=(30, 8))
    block = rng.normal(size=(5, 8))
    scores = kernels.dot_scores(matrix, block)
    assert scores.shape == (5, 30)
    for row, query in zip(scores, block):
        np.testing.assert_allclose(
            row, kernels.dot_scores(matrix, query), rtol=1e-12, atol=1e-12
        )


def test_backend_name_matches_flag():
    assert kernels.backend() == "numpy"
