"""Correctness checks on the benchmark's pipeline outputs.

Each check names the instance ids it finds wrong; the benchmark counts
those as failed. The checks recompute what they can from the output JSON
and the generated inputs instead of trusting the pipeline's own objects.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np

from negsup import datastore, embedding, fusion
from negsup.entities import EntitySets, extract_entities
from negsup.errors import InvariantError
from negsup.pipeline import MODE_TRAINING

CLI_TIMEOUT_S = 120
TIE_TOL = 1e-12


def _entity_sets_ok(obj: dict, source: dict, vocab, config) -> bool:
    sets = {k: frozenset(v) for k, v in obj["context"]["entities"].items()}
    try:
        EntitySets(**sets).check()
    except InvariantError:
        return False
    candidates = set()
    for caption in obj["retrieved"]:
        candidates |= extract_entities(caption, vocab)
    if sets["candidates"] != candidates:
        return False
    if config.mode == MODE_TRAINING:
        return sets["key"] == extract_entities(source["caption"], vocab)
    return len(sets["key"]) == min(config.top_m, len(vocab)) and sets["key"] <= vocab.canonical


def _retrieval_order_ok(obj: dict, k: int) -> bool:
    hits = obj["context"]["retrieval"]["hits"]
    keys = [(-h["score"], h["id"]) for h in hits]
    return (
        len(hits) == k
        and keys == sorted(keys)
        and [h["caption"] for h in hits] == obj["retrieved"]
    )


def _decoded_ok(obj: dict, store) -> bool:
    """generated is a retrieved caption, or a token deletion of the caption
    the stand-in decoder ranks first (recomputed from the output prefix)."""
    generated = obj["generated"]
    if generated in obj["retrieved"]:
        return True
    probe = embedding.normalize_total(np.array(obj["context"]["prefix"]).mean(axis=0))
    hits = obj["context"]["retrieval"]["hits"]
    top = min(hits, key=lambda h: (-float(np.dot(probe, store.vector_of(h["id"]))), h["id"]))
    kept = embedding.tokenize(generated)
    tokens = iter(embedding.tokenize(top["caption"]))
    is_subsequence = all(tok in tokens for tok in kept)
    return is_subsequence and len(kept) < len(embedding.tokenize(top["caption"]))


def check_outputs(inputs: list[dict], result, ctx) -> dict[str, str]:
    """Instance id -> reason, for outputs that break an output invariant
    and for instances that went missing."""
    by_id = {obj["id"]: obj for obj in inputs}
    failed = {}
    seen = {obj["id"] for obj in result.outputs}
    for skip in result.skipped:
        seen.add(skip["id"])
        if not skip["clip_score"] < ctx.config.fusion.tau_quality:
            failed[skip["id"]] = "skipped although it passes the quality gate"
    for rid in set(by_id) - seen:
        failed[rid] = "neither output nor skipped"
    checks = (
        ("retrieval order", lambda obj: _retrieval_order_ok(obj, ctx.config.retrieval_k)),
        ("entity sets", lambda obj: _entity_sets_ok(obj, by_id[obj["id"]], ctx.vocab, ctx.config)),
        ("decoded caption", lambda obj: _decoded_ok(obj, ctx.store)),
    )
    for obj in result.outputs:
        for reason, ok in checks:
            if not ok(obj):
                failed[obj["id"]] = reason
                break
    return failed


def _query(source: dict, ctx) -> np.ndarray:
    """The retrieval query the pipeline should have used for `source`."""
    if ctx.config.mode == MODE_TRAINING:
        text = embedding.embed_text(ctx.sources.text, source["caption"])
        synthetic = embedding.l2_normalize(ctx.keys.embed(source["synthetic_key"]))
        return fusion.fuse_sif(synthetic, text, ctx.config.fusion)
    return ctx.keys.embed(source["image_key"])


def _matches_oracle(ids: list[str], ranked, store, k: int) -> bool:
    """Whether `ids` are the top k of brute_force_topk's full `ranked` list
    in (score desc, id asc) order.

    Scores are compared within TIE_TOL: brute_force_topk renormalizes every
    row, which can move two mathematically equal scores an ulp apart, and
    hashed captions that differ only in words the query lacks have exactly
    such scores. Rows that are bit-identical (the planted duplicate
    captions) score exactly alike in any computation, so among those the
    smaller id must come first, and be kept first at the cut.
    """
    score = {hit.id: hit.score for hit in ranked.hits}
    kept = set(ids)
    if len(ids) != min(k, len(score)) or len(kept) != len(ids):
        return False
    scores = [score[i] for i in ids]
    if any(b > a + TIE_TOL for a, b in zip(scores, scores[1:])):
        return False
    near_cut = [h.id for h in ranked.hits if h.id not in kept and h.score >= scores[-1] - TIE_TOL]
    if near_cut and score[near_cut[0]] > scores[-1] + TIE_TOL:
        return False
    for i, a in enumerate(ids):
        for b in ids[i + 1 :] + near_cut:
            if np.array_equal(store.vector_of(a), store.vector_of(b)) and b < a:
                return False
    return True


def check_against_oracle(inputs: list[dict], result, ctx, rng, samples: int) -> dict[str, str]:
    """Sampled outputs whose hits are not brute_force_topk's top k."""
    by_id = {obj["id"]: obj for obj in inputs}
    records = list(ctx.store.records())
    picks = rng.choice(len(result.outputs), size=min(samples, len(result.outputs)), replace=False)
    failed = {}
    for i in sorted(picks.tolist()):
        obj = result.outputs[i]
        ranked = datastore.brute_force_topk(records, _query(by_id[obj["id"]], ctx), len(records))
        ids = [h["id"] for h in obj["context"]["retrieval"]["hits"]]
        if not _matches_oracle(ids, ranked, ctx.store, ctx.config.retrieval_k):
            failed[obj["id"]] = "retrieved ids differ from brute_force_topk"
    return failed


def start_cli_run(root: str, files: dict, slice_path: str, out_path: str, env: dict):
    """Start `negsup run` on a slice of the input, as a user would."""
    cmd = [
        sys.executable, "-m", "negsup.cli", "run",
        "--config", files["config"],
        "--store", files["store"],
        "--input", slice_path,
        "--out", out_path,
        "--vocab", files["vocab"],
        "--synonyms", files["synonyms"],
        "--aux-embeddings", files["aux"],
    ]
    env = dict(env, PYTHONPATH=os.path.join(root, "src"))
    return subprocess.Popen(
        cmd, env=env, cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    )


def finish_cli_run(proc, out_path: str, expected: bytes, slice_ids: list[str]) -> dict[str, str]:
    """All slice ids, unless the subprocess wrote exactly `expected`."""
    try:
        _, err = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        reason = "negsup run subprocess timed out"
    else:
        if proc.returncode != 0:
            reason = f"negsup run exited {proc.returncode}: {err.decode(errors='replace')}"
        else:
            with open(out_path, "rb") as fh:
                if fh.read() == expected:
                    return {}
            reason = "negsup run output differs from the in-process run"
    return {rid: reason for rid in slice_ids}
