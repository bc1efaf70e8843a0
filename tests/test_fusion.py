import math

import numpy as np
import pytest

from negsup.datastore import build_datastore
from negsup.embedding import FileSource, HashSource, l2_normalize
from negsup.entities import EntityVocabulary
from negsup.errors import (
    DimMismatch,
    EmptyRetrieval,
    FormatError,
    ZeroVector,
)
from negsup.fusion import (
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
from negsup.pipeline import PipelineConfig, SourceBundle, run_batch


class TestClipScore:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert clip_score(v, v) == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_unit_vectors(self):
        assert clip_score([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-6)

    def test_antipodal(self):
        v = np.array([0.3, -0.7, 0.1])
        assert clip_score(v, -v) == pytest.approx(-1.0, abs=1e-6)

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            c = float(rng.uniform(0.1, 10.0))
            assert clip_score(a, b) == pytest.approx(clip_score(b, a), abs=1e-12)
            assert clip_score(c * a, b) == pytest.approx(clip_score(a, b), abs=1e-6)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            clip_score(np.zeros(3), np.ones(3))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            clip_score(np.ones(3), np.ones(4))


def _pair_with_cosine(target: float, dim: int = 6):
    """Unit vectors (u, w) with dot(u, w) == target up to float error."""
    u = np.zeros(dim)
    u[0] = 1.0
    v = np.zeros(dim)
    v[1] = 1.0
    w = target * u + math.sqrt(1.0 - target * target) * v
    return u, w


GATE_DIM = 6
GATE_CAPTION = "a dog on the grass"


def _unit(i: int) -> np.ndarray:
    e = np.zeros(GATE_DIM)
    e[i] = 1.0
    return e


def _gated_ids(
    synthetics, tau_quality: float, text=None
) -> tuple[list[int], list[int]]:
    """(kept, skipped) instance numbers of run_batch's quality gate, one
    training instance per synthetic vector, all with the caption whose
    text vector is `text` (default e0, the u of _pair_with_cosine); a None
    vector leaves the instance without a key."""
    if text is None:
        text = _unit(0)
    store = build_datastore(
        [("s0", GATE_CAPTION, _unit(0)), ("s1", "a dog in a park", _unit(2))]
    )
    sources = SourceBundle(
        FileSource({GATE_CAPTION: text}), entity=HashSource(dim=GATE_DIM, seed=0)
    )
    instances = [{"id": str(i), "caption": GATE_CAPTION} for i in range(len(synthetics))]
    vectors = {}
    for obj, vec in zip(instances, synthetics):
        if vec is not None:
            obj["synthetic_key"] = f"synthetic {obj['id']}"
            vectors[obj["synthetic_key"]] = vec
    config = PipelineConfig(
        mode="training",
        retrieval_k=2,
        enable_as=False,
        fusion=FusionConfig(tau_quality=tau_quality),
    )
    keys = FileSource(vectors, dim=GATE_DIM)
    result = run_batch(
        instances, store, EntityVocabulary(["dog"]), sources, config, None, keys
    )
    return [int(o["id"]) for o in result.outputs], [int(s["id"]) for s in result.skipped]


class TestQualityGate:
    def test_zero_threshold_keeps_nonnegative_scores(self):
        synthetics = [_pair_with_cosine(c)[1] for c in (0.0, 0.1, 0.5, 0.9)]
        assert _gated_ids(synthetics, 0.0) == ([0, 1, 2, 3], [])

    def test_one_keeps_only_exact_duplicates(self):
        # a non-axis text vector, whose cosine with itself rounds above 1
        text = l2_normalize(np.array([1.0, 2.0, 0.0, 0.0, 0.0, 0.0]))
        near = 0.999 * text + math.sqrt(1.0 - 0.999**2) * _unit(2)
        # no synthetic key: the text vector stands in for it
        assert _gated_ids([text, None, near], 1.0, text) == ([0, 1], [2])

    def test_crafted_059_pair_dropped_at_default_gate(self):
        # default threshold 0.6; a 0.59-cosine synthetic vector is skipped,
        # and a score equal to the threshold passes
        vec = FileSource({"v": _pair_with_cosine(0.59)[1]}).embed("v")
        score = clip_score(vec, _unit(0))
        assert score == pytest.approx(0.59, abs=1e-12)
        assert FusionConfig().tau_quality == 0.6
        assert _gated_ids([vec], 0.6) == ([], [0])
        assert _gated_ids([vec], score) == ([0], [])
        assert _gated_ids([vec], math.nextafter(score, 1.0)) == ([], [0])

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(1)
        synthetics = [rng.normal(size=GATE_DIM) for _ in range(30)]
        kept = None
        for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
            now, skipped = _gated_ids(synthetics, tau)
            assert sorted(now + skipped) == list(range(30))
            if kept is not None:
                assert set(now) <= kept
            kept = set(now)

    def test_order_preserved(self):
        synthetics = [_pair_with_cosine(c)[1] for c in (0.9, 0.1, 0.8)]
        assert _gated_ids(synthetics, 0.5) == ([0, 2], [1])


class TestFuseSif:
    def test_fixed_alpha_one_is_image_only(self):
        rng = np.random.default_rng(2)
        synth = rng.normal(size=8)
        text = rng.normal(size=8)
        out = fuse_sif(synth, text, FusionConfig(strategy="fixed", alpha=1.0))
        np.testing.assert_allclose(out, l2_normalize(synth), atol=1e-12)

    def test_fixed_alpha_zero_is_text_only(self):
        rng = np.random.default_rng(3)
        synth = rng.normal(size=8)
        text = rng.normal(size=8)
        out = fuse_sif(synth, text, FusionConfig(strategy="fixed", alpha=0.0))
        np.testing.assert_allclose(out, l2_normalize(text), atol=1e-12)

    def test_forward_reverse_duality_is_exact(self):
        # forward with weight w must equal the reverse formula with weight
        # 1-w bit for bit; rng.random() weights are multiples of 2**-53,
        # for which the double complement 1-(1-w) is exact
        rng = np.random.default_rng(4)
        for _ in range(200):
            synth = rng.normal(size=5)
            text = rng.normal(size=5)
            w = float(rng.random())
            fwd = fuse_sif(synth, text, FusionConfig(strategy="fixed", alpha=w))
            w_rev = 1.0 - w
            reverse_mix = l2_normalize((1.0 - w_rev) * synth + w_rev * text)
            assert np.array_equal(fwd, reverse_mix)

    def test_clipscore_forward_equals_reverse_with_swapped_roles(self):
        # clip_score is symmetric, so forward(s, t) and reverse(t, s)
        # evaluate the same mix expression and must agree exactly
        rng = np.random.default_rng(14)
        for _ in range(100):
            synth = rng.normal(size=6)
            text = rng.normal(size=6)
            fwd = fuse_sif(synth, text, FusionConfig(strategy="clipscore-forward"))
            rev = fuse_sif(text, synth, FusionConfig(strategy="clipscore-reverse"))
            assert np.array_equal(fwd, rev)

    def test_clipscore_forward_weight(self):
        u, w = _pair_with_cosine(0.75)
        out = fuse_sif(u, w, FusionConfig(strategy="clipscore-forward"))
        expected = l2_normalize(0.75 * u + 0.25 * w)
        np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_clipscore_reverse_weight(self):
        u, w = _pair_with_cosine(0.75)
        out = fuse_sif(u, w, FusionConfig(strategy="clipscore-reverse"))
        expected = l2_normalize(0.25 * u + 0.75 * w)
        np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_negative_cosine_clamps_to_zero(self):
        v = l2_normalize(np.array([1.0, 1.0, 0.0]))
        out = fuse_sif(-v, v, FusionConfig(strategy="clipscore-forward"))
        # w clamps to 0 => pure text embedding
        np.testing.assert_allclose(out, v, atol=1e-12)

    def test_cancelling_mix_returns_basis_vector(self):
        v = l2_normalize(np.array([0.0, 3.0, 4.0]))
        out = fuse_sif(-v, v, FusionConfig(strategy="fixed", alpha=0.5))
        assert np.array_equal(out, np.array([1.0, 0.0, 0.0]))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            fuse_sif(np.ones(3), np.ones(4), FusionConfig())


class TestFusionConfig:
    def test_alpha_requires_fixed(self):
        with pytest.raises(ValueError):
            FusionConfig(strategy="clipscore-forward", alpha=0.5)

    def test_fixed_requires_alpha(self):
        with pytest.raises(ValueError):
            FusionConfig(strategy="fixed")

    def test_tau_quality_bounds(self):
        with pytest.raises(ValueError):
            FusionConfig(tau_quality=1.5)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            FusionConfig(strategy="mystery")


def _identity_weights(dim: int, prefix_len: int = 1) -> AttentionWeights:
    eye = np.eye(dim)
    return AttentionWeights(eye, eye, eye, np.eye(prefix_len * dim))


def _attention_oracle(tokens, retrieved, weights):
    """Independent loop-based reimplementation of fuse_retrieval."""
    n_tok, d = tokens.shape
    n_ret = retrieved.shape[0]
    out = np.zeros_like(tokens)
    for i in range(n_tok):
        q = np.array([sum(weights.q_proj[r, c] * tokens[i, c] for c in range(d)) for r in range(d)])
        logits = []
        for j in range(n_ret):
            k = np.array([sum(weights.k_proj[r, c] * retrieved[j, c] for c in range(d)) for r in range(d)])
            logits.append(sum(q[c] * k[c] for c in range(d)) / math.sqrt(d))
        peak = max(logits)
        expw = [math.exp(x - peak) for x in logits]
        total = sum(expw)
        mix = np.zeros(d)
        for j in range(n_ret):
            v = np.array([sum(weights.v_proj[r, c] * retrieved[j, c] for c in range(d)) for r in range(d)])
            mix += (expw[j] / total) * v
        out[i] = tokens[i] + mix
    return out


class TestFuseRetrieval:
    def test_single_key_softmax_is_one(self):
        rng = np.random.default_rng(5)
        tokens = rng.normal(size=(3, 6))
        r = rng.normal(size=(1, 6))
        out = fuse_retrieval(tokens[None], r[None], _identity_weights(6))[0][0]
        np.testing.assert_allclose(out, tokens + r[0], atol=1e-12)

    def test_duplicate_keys_average_to_one_copy(self):
        rng = np.random.default_rng(6)
        tokens = rng.normal(size=(2, 5))
        r = rng.normal(size=5)
        once = fuse_retrieval(tokens[None], r.reshape(1, 1, -1), _identity_weights(5))[0][0]
        twice = fuse_retrieval(tokens[None], np.stack([r, r])[None], _identity_weights(5))[0][0]
        np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        weights = xavier_weights(dim=8, prefix_len=4, seed=11)
        tokens = rng.normal(size=(4, 8))
        retrieved = rng.normal(size=(9, 8))
        got = fuse_retrieval(tokens[None], retrieved[None], weights)[0][0]
        want = _attention_oracle(tokens, retrieved, weights)
        np.testing.assert_allclose(got, want, atol=1e-5, rtol=0)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        weights = xavier_weights(dim=6, prefix_len=2, seed=12)
        _, (attn,) = fuse_retrieval(
            rng.normal(size=(1, 2, 6)),
            rng.normal(size=(1, 5, 6)),
            weights,
        )
        np.testing.assert_allclose(attn.sum(axis=1), np.ones(2), atol=1e-6)

    def test_permutation_invariance_of_retrieved_order(self):
        rng = np.random.default_rng(9)
        weights = xavier_weights(dim=6, prefix_len=3, seed=13)
        tokens = rng.normal(size=(3, 6))
        retrieved = rng.normal(size=(7, 6))
        base = fuse_retrieval(tokens[None], retrieved[None], weights)[0][0]
        perm = rng.permutation(7)
        shuffled = fuse_retrieval(tokens[None], retrieved[perm][None], weights)[0][0]
        np.testing.assert_allclose(base, shuffled, atol=1e-12)

    def test_empty_retrieval(self):
        with pytest.raises(EmptyRetrieval):
            fuse_retrieval(np.ones((1, 1, 4)), np.zeros((1, 0, 4)), _identity_weights(4))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            fuse_retrieval(np.ones((1, 1, 4)), np.ones((1, 2, 5)), _identity_weights(4))


class TestMapToPrefix:
    def test_identity_square_case(self):
        rng = np.random.default_rng(10)
        tokens = rng.normal(size=(3, 4))
        out = map_to_prefix(tokens[None], _identity_weights(4, prefix_len=3))[0]
        assert np.array_equal(out, tokens)

    def test_zero_map(self):
        eye = np.eye(4)
        weights = AttentionWeights(eye, eye, eye, np.zeros((8, 8)))
        out = map_to_prefix(np.ones((1, 2, 4)), weights)[0]
        assert np.array_equal(out, np.zeros((2, 4)))

    def test_frozen_golden_output(self):
        # recorded once for (dim=3, prefix_len=2, seed=42, rng(99) input);
        # guards bit-stability of the seeded initialization and the map
        weights = xavier_weights(dim=3, prefix_len=2, seed=42)
        attn_out = np.random.default_rng(99).normal(size=(2, 3))
        expected_in = [
            "0x1.51e58c301390ep-4", "-0x1.db90803f8dda2p-2", "0x1.9dd1c3edce679p-5",
            "0x1.5f59a560139bep-1", "-0x1.c1bd05c762844p+0", "0x1.af36e8cf3e3c4p+0",
        ]
        assert [x.hex() for x in attn_out.reshape(-1)] == expected_in
        expected_out = [
            "-0x1.26e80005fb768p+0", "-0x1.eeeacf13c322cp-1", "0x1.89705130a8cbep+0",
            "0x1.ce725c1867b64p-2", "-0x1.a9263dd55e4e0p-1", "0x1.3724ca21b653ap-1",
        ]
        prefix = map_to_prefix(attn_out[None], weights)[0]
        assert [x.hex() for x in prefix.reshape(-1)] == expected_out

    def test_shape_mismatch(self):
        with pytest.raises(DimMismatch):
            map_to_prefix(np.ones((1, 2, 4)), _identity_weights(4, prefix_len=3))
        # one token of another width than the weights'
        with pytest.raises(DimMismatch):
            map_to_prefix(np.ones((1, 1, 5)), _identity_weights(4, prefix_len=3))

    # the default prefix length at the dimensions of the benchmark and the
    # tests, and a one-token map
    @pytest.mark.parametrize("dim,prefix_len", [(128, 4), (64, 4), (32, 4), (24, 4), (5, 1)])
    def test_one_token_equals_zero_padded_tokens(self, dim, prefix_len):
        # one token is multiplied by the first d columns only; the BLAS must
        # sum those products as it does within the padded row
        weights = xavier_weights(dim, prefix_len, seed=dim)
        assert weights.one_token_map.flags.c_contiguous
        assert not weights.one_token_map.flags.writeable
        rng = np.random.default_rng(dim)
        for token in rng.normal(size=(200, dim)):
            padded = np.zeros((prefix_len, dim))
            padded[0] = token
            got = map_to_prefix(token[None, None, :], weights)[0]
            assert got.shape == (prefix_len, dim)
            assert got.tobytes() == map_to_prefix(padded[None], weights)[0].tobytes()


class TestXavier:
    def test_bounds(self):
        weights = xavier_weights(dim=16, prefix_len=4, seed=5)
        for mat in (weights.q_proj, weights.k_proj, weights.v_proj):
            bound = math.sqrt(6.0 / 32)
            assert np.all(np.abs(mat) <= bound)
        map_bound = math.sqrt(6.0 / (2 * 64))
        assert np.all(np.abs(weights.map_proj) <= map_bound)

    def test_seed_determinism(self):
        a = xavier_weights(8, 2, seed=3)
        b = xavier_weights(8, 2, seed=3)
        assert np.array_equal(a.q_proj, b.q_proj)
        assert np.array_equal(a.map_proj, b.map_proj)

    def test_oversized_mapping_rejected_before_allocation(self):
        # (L*d)^2 float64 would be ~1.3 PB: a MemoryError if ever attempted
        with pytest.raises(ValueError, match="MiB limit"):
            xavier_weights(dim=128, prefix_len=100000)


class TestWeightsFile:
    def test_round_trip(self, tmp_path):
        weights = xavier_weights(dim=6, prefix_len=3, seed=21)
        path = tmp_path / "w.nesw"
        write_weights_file(path, weights)
        loaded = load_weights_file(path)
        assert loaded.dim == 6
        assert loaded.out_tokens == 3
        for name in ("q_proj", "k_proj", "v_proj", "map_proj"):
            np.testing.assert_allclose(
                getattr(loaded, name), getattr(weights, name), atol=1e-7, rtol=0
            )

    def test_minimal_round_trip(self, tmp_path):
        weights = xavier_weights(dim=1, prefix_len=1, seed=0)
        path = tmp_path / "w.nesw"
        write_weights_file(path, weights)
        loaded = load_weights_file(path)
        assert loaded.dim == 1 and loaded.out_tokens == 1

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.nesw"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError):
            load_weights_file(path)

    def test_size_mismatch(self, tmp_path):
        weights = xavier_weights(dim=4, prefix_len=2, seed=1)
        path = tmp_path / "w.nesw"
        write_weights_file(path, weights)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            load_weights_file(path)

    def test_non_square_map_rejected_on_write(self, tmp_path):
        eye = np.eye(3)
        weights = AttentionWeights(eye, eye, eye, np.zeros((6, 3)))
        with pytest.raises(FormatError):
            write_weights_file(tmp_path / "w.nesw", weights)


class TestAttentionWeightsValidation:
    def test_non_finite_rejected(self):
        eye = np.eye(2)
        bad = eye.copy()
        bad[0, 0] = np.inf
        with pytest.raises(FormatError):
            AttentionWeights(bad, eye, eye, np.eye(2))

    def test_non_square_projection_rejected(self):
        eye = np.eye(2)
        with pytest.raises(DimMismatch):
            AttentionWeights(np.ones((2, 3)), eye, eye, np.eye(2))

    def test_map_not_multiple_of_dim_rejected(self):
        eye = np.eye(2)
        with pytest.raises(DimMismatch):
            AttentionWeights(eye, eye, eye, np.ones((3, 2)))
