"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from negsup import kernels
from negsup.datastore import (
    brute_force_topk,
    build_datastore,
    load_datastore,
    retrieve,
    save_datastore,
)
from negsup.embedding import (
    FORMAT_BINARY,
    FORMAT_JSONL,
    HashSource,
    embed_entity,
    embed_text,
    l2_normalize,
    load_embedding_file,
    write_embedding_file,
)
from negsup.entities import EntityIndex, filter_inference, filter_training
from negsup.errors import EmptyInput
from negsup.fusion import (
    FusionConfig,
    fuse_retrieval,
    fuse_sif,
    load_weights_file,
    write_weights_file,
    xavier_weights,
)
from negsup.metrics import (
    attribute_hallucinations,
    chair_counts,
    chair_scores,
    recall_counts,
    retrieval_diagnostic_counts,
)
from negsup.suppression import SuppressionConfig, select_tokens, suppress

from test_fusion import _attention_oracle
from toycorpus import ablation_config, make_corpus, run_ablation

GOLDEN_PATH = Path(__file__).parent / "data" / "metrics_golden.json"


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_retrieval_exactness():
    with criterion(1, "retrieval exactness"):
        rng = np.random.default_rng(2024)
        # warm the jitted kernel so the timer measures the workload
        kernels.dot_scores(np.ones((2, 4)), np.ones(4))
        start = time.perf_counter()
        cases = 0
        for _ in range(100):
            dim = int(rng.choice([8, 32, 128]))
            count = int(rng.integers(1, 1001))
            records = [
                (f"r{i:04d}", f"caption {i}", rng.normal(size=dim))
                for i in range(count)
            ]
            store = build_datastore(records)
            for _ in range(10):
                query = rng.normal(size=dim)
                k = int(rng.integers(1, 16))
                got = retrieve(store, [query], k=k)[0]
                want = brute_force_topk(records, query, k=k)
                assert got.ids() == want.ids(), f"mismatch at case {cases}"
                cases += 1
        elapsed = time.perf_counter() - start
        assert cases == 1000
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def _exhaustive_partition(key, candidates, passes):
    """Independent set-builder: classify every element one at a time."""
    key = set(key)
    filtered = set()
    for term in candidates:
        if term not in key:
            filtered.add(term)
    positive = set(key)
    negative = set()
    for term in filtered:
        if passes(term):
            positive.add(term)
        else:
            negative.add(term)
    return filtered, positive, negative


def test_criterion_2_set_algebra_oracle():
    with criterion(2, "set-algebra oracle"):
        rng = np.random.default_rng(7)
        source = HashSource(dim=16, seed=42)
        image = l2_normalize(np.arange(1.0, 17.0))
        alphabet = np.array([f"ent{i}" for i in range(16)])
        tau_ladder = [-1.0, -0.5, 0.0, 0.5, 1.0]
        start = time.perf_counter()
        for trial in range(10_000):
            key = set(rng.choice(alphabet, size=rng.integers(0, 6), replace=False))
            candidates = set(
                rng.choice(alphabet, size=rng.integers(0, 8), replace=False)
            )
            trained = filter_training(key, candidates)
            trained.check()
            filt, pos, neg = _exhaustive_partition(key, candidates, lambda t: False)
            assert trained.filtered == filt
            assert trained.positive == pos
            assert trained.negative == neg

            tau = float(rng.uniform(-1.0, 1.0))
            inferred = filter_inference([key], [candidates], [image], EntityIndex(source), tau)[0]
            inferred.check()
            filt, pos, neg = _exhaustive_partition(
                key,
                candidates,
                lambda t: float(embed_entity(source, t) @ image) > tau,
            )
            assert inferred.filtered == filt
            assert inferred.positive == pos
            assert inferred.negative == neg

            if trial % 5 == 0:
                ladder = [
                    filter_inference([key], [candidates], [image], EntityIndex(source), t)[0]
                    for t in tau_ladder
                ]
                for lo, hi in zip(ladder, ladder[1:]):
                    assert hi.positive <= lo.positive
                    assert hi.negative >= lo.negative
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_3_suppression_identities():
    with criterion(3, "suppression identities"):
        rng = np.random.default_rng(11)
        start = time.perf_counter()
        for _ in range(1000):
            n_tokens = int(rng.integers(1, 9))
            dim = int(rng.integers(2, 24))
            prefix = rng.normal(size=(n_tokens, dim))
            selected = set(
                int(i)
                for i in rng.choice(
                    n_tokens, size=rng.integers(0, n_tokens + 1), replace=False
                )
            )
            mask = np.isin(np.arange(n_tokens), sorted(selected))[None]
            assert np.array_equal(suppress(prefix[None], mask, 1.0)[0], prefix)
            wiped = suppress(prefix[None], mask, 0.0)[0]
            for i in range(n_tokens):
                if i in selected:
                    assert np.array_equal(wiped[i], np.zeros(dim))
                else:
                    assert np.array_equal(wiped[i], prefix[i])
            lam1 = float(rng.uniform(0, 1))
            lam2 = float(rng.uniform(0, 1))
            chained = suppress(suppress(prefix[None], mask, lam1), mask, lam2)[0]
            np.testing.assert_allclose(
                chained, suppress(prefix[None], mask, lam1 * lam2)[0], atol=1e-7
            )

            scores = rng.uniform(0, 1, size=n_tokens)
            neg_count = int(rng.integers(0, 10))
            tau = float(rng.uniform(0, 1))
            got = np.flatnonzero(select_tokens(
                scores[None], [neg_count],
                SuppressionConfig(strategy="fixed-threshold", tau_neg=tau),
            )[0])
            assert len(got) == int(np.sum(scores > tau))
            got = np.flatnonzero(select_tokens(
                scores[None], [neg_count], SuppressionConfig(strategy="top-k")
            )[0])
            assert len(got) == min(neg_count, n_tokens)
            got = np.flatnonzero(select_tokens(
                scores[None], [neg_count], SuppressionConfig(strategy="top-k-minus-1")
            )[0])
            assert len(got) == min(max(neg_count - 1, 0), n_tokens)
            proportion = float(rng.uniform(0.01, 1.0))
            got = np.flatnonzero(select_tokens(
                scores[None], [neg_count],
                SuppressionConfig(strategy="proportional", proportion=proportion),
            )[0])
            assert len(got) == min(math.ceil(proportion * n_tokens), n_tokens)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_4_fusion_duality_and_attention_oracle():
    with criterion(4, "fusion duality and attention oracle"):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            synth = rng.normal(size=int(rng.integers(2, 16)))
            text = rng.normal(size=synth.shape[0])
            w = float(rng.random())
            forward = fuse_sif(synth, text, FusionConfig(strategy="fixed", alpha=w))
            w_rev = 1.0 - w
            reverse_mix = l2_normalize((1.0 - w_rev) * synth + w_rev * text)
            assert np.array_equal(forward, reverse_mix)
            fwd_cs = fuse_sif(synth, text, FusionConfig(strategy="clipscore-forward"))
            rev_cs = fuse_sif(text, synth, FusionConfig(strategy="clipscore-reverse"))
            assert np.array_equal(fwd_cs, rev_cs)

        for _ in range(100):
            dim = int(rng.integers(2, 16))
            n_tokens = int(rng.integers(1, 6))
            n_retrieved = int(rng.integers(1, 10))
            weights = xavier_weights(dim, n_tokens, seed=int(rng.integers(0, 10_000)))
            tokens = rng.normal(size=(n_tokens, dim))
            retrieved = rng.normal(size=(n_retrieved, dim))
            (got,), (attn,) = fuse_retrieval(tokens[None], retrieved[None], weights)
            np.testing.assert_allclose(
                attn.sum(axis=1), np.ones(n_tokens), atol=1e-6
            )
            want = _attention_oracle(tokens, retrieved, weights)
            np.testing.assert_allclose(got, want, atol=1e-5, rtol=0)


def test_criterion_5_metric_golden_fixtures():
    with criterion(5, "metric golden fixtures"):
        from negsup.metrics import EvalInstance

        data = json.loads(GOLDEN_PATH.read_text())
        instances = [
            EvalInstance(
                generated=frozenset(obj["generated"]),
                ground_truth=frozenset(obj["ground_truth"]),
                retrieved=frozenset(obj["retrieved"]),
            )
            for obj in data["instances"]
        ]
        expected = data["expected"]
        assert len(instances) == 12

        bad_caps, caps, halluc, generated = chair_counts(instances)
        assert Fraction(bad_caps, caps) == Fraction(expected["chair_s"])
        assert Fraction(halluc, generated) == Fraction(expected["chair_i"])

        matched, total = recall_counts(instances)
        assert Fraction(matched, total) == Fraction(expected["recall"])

        attribution = attribute_hallucinations(instances)
        want = expected["attribution"]
        assert attribution.total == want["total"]
        assert attribution.retrieval_sourced == want["retrieval_sourced"]
        assert attribution.model_sourced == want["model_sourced"]
        assert Fraction(attribution.retrieval_sourced, attribution.total) == Fraction(
            want["ratio"]
        )

        pairs = [(inst.retrieved, inst.ground_truth) for inst in instances]
        overlap, retrieved, gt, spurious, count, dhc = retrieval_diagnostic_counts(pairs)
        want = expected["diagnostics"]
        assert Fraction(overlap, retrieved) == Fraction(want["acc"])
        assert Fraction(overlap, gt) == Fraction(want["rc"])
        assert Fraction(spurious, count) == Fraction(want["ahc"])
        assert dhc == want["dhc"]


def test_criterion_6_directional_ablation():
    with criterion(6, "directional ablation"):
        start = time.perf_counter()
        holds = 0
        for seed in range(5):
            corpus = make_corpus(seed)
            assert len(corpus.store) == 50
            assert corpus.spurious_caption_count == 10
            full = run_ablation(corpus, ablation_config(seed, enable_nef=True))
            nef_off = run_ablation(corpus, ablation_config(seed, enable_nef=False))
            baseline = run_ablation(
                corpus, ablation_config(seed, enable_nef=False, baseline=True)
            )
            chair_full = chair_scores(full)[1]
            chair_off = chair_scores(nef_off)[1]
            rs_off = attribute_hallucinations(nef_off).retrieval_sourced
            rs_base = attribute_hallucinations(baseline).retrieval_sourced
            if chair_full <= chair_off and rs_off <= rs_base:
                holds += 1
        elapsed = time.perf_counter() - start
        assert holds >= 4, f"direction held on only {holds}/5 seeds"
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_7_run_determinism(tmp_path):
    with criterion(7, "run determinism"):
        from negsup import cli

        src = HashSource(dim=24, seed=17)
        captions = {
            "c1": "a dog catches a frisbee in the park",
            "c2": "a dog leaps for a frisbee on the grass",
            "c3": "a dog catches a frisbee and a kite",
            "c4": "a cat sleeps on a warm mat",
        }
        (tmp_path / "captions.tsv").write_text(
            "".join(f"{k}\t{v}\n" for k, v in captions.items())
        )
        write_embedding_file(
            tmp_path / "emb.nese", {k: embed_text(src, v) for k, v in captions.items()}
        )
        (tmp_path / "vocab.txt").write_text("dog\nfrisbee\ncat\nkite\npark\ngrass\nmat\n")
        (tmp_path / "input.jsonl").write_text(
            json.dumps({"id": "t1", "caption": "a dog catches a frisbee in the park"})
            + "\n"
            + json.dumps({"id": "t2", "caption": "a cat sleeps on a warm mat"})
            + "\n"
        )
        assert cli.main(
            ["ingest", "--captions", str(tmp_path / "captions.tsv"),
             "--embeddings", str(tmp_path / "emb.nese"), "--out", str(tmp_path / "store")]
        ) == 0
        base = ["run", "--mode", "training", "--store", str(tmp_path / "store"),
                "--input", str(tmp_path / "input.jsonl"),
                "--vocab", str(tmp_path / "vocab.txt"),
                "--tau-neg", "0.4", "--seed", "23"]
        assert cli.main(base + ["--out", str(tmp_path / "run_a.jsonl")]) == 0
        assert cli.main(base + ["--out", str(tmp_path / "run_b.jsonl")]) == 0
        blob_a = (tmp_path / "run_a.jsonl").read_bytes()
        blob_b = (tmp_path / "run_b.jsonl").read_bytes()
        assert blob_a == blob_b
        assert len(blob_a) > 0


def test_criterion_8_format_round_trips(tmp_path):
    with criterion(8, "format round trips"):
        rng = np.random.default_rng(31)

        entries = {
            f"key{i}": l2_normalize(rng.normal(size=10)) for i in range(8)
        }
        for fmt, suffix in ((FORMAT_BINARY, "nese"), (FORMAT_JSONL, "jsonl")):
            path = tmp_path / f"v.{suffix}"
            write_embedding_file(path, entries, format=fmt)
            loaded = load_embedding_file(path, format=fmt)
            assert set(loaded.keys()) == set(entries)
            for key, vec in entries.items():
                np.testing.assert_allclose(loaded.embed(key), vec, atol=1e-7, rtol=0)

        empty_bin = tmp_path / "empty.nese"
        write_embedding_file(empty_bin, {}, format=FORMAT_BINARY, dim=5)
        loaded = load_embedding_file(empty_bin)
        assert len(loaded) == 0 and loaded.dim == 5
        empty_jsonl = tmp_path / "empty.jsonl"
        write_embedding_file(empty_jsonl, {}, format=FORMAT_JSONL)
        assert len(load_embedding_file(empty_jsonl, format=FORMAT_JSONL)) == 0

        for dim, prefix_len in ((6, 3), (1, 1)):
            weights = xavier_weights(dim, prefix_len, seed=3)
            wpath = tmp_path / f"w{dim}.nesw"
            write_weights_file(wpath, weights)
            loaded_w = load_weights_file(wpath)
            for name in ("q_proj", "k_proj", "v_proj", "map_proj"):
                np.testing.assert_allclose(
                    getattr(loaded_w, name), getattr(weights, name), atol=1e-7, rtol=0
                )

        records = [
            (f"r{i:03d}", f"caption number {i}", rng.normal(size=12))
            for i in range(12)
        ]
        store = build_datastore(records)
        save_datastore(store, tmp_path / "store")
        loaded_store = load_datastore(tmp_path / "store")
        assert loaded_store.ids == store.ids
        assert loaded_store.captions == store.captions
        np.testing.assert_allclose(
            loaded_store.unit_rows(np.arange(len(loaded_store))), store.matrix,
            atol=1e-7, rtol=0,
        )

        with pytest.raises(EmptyInput):
            build_datastore([])
