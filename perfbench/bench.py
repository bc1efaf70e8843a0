"""negsup pipeline benchmark: one offline batch job per run.

A run generates the workload's inputs from --seed in a child process,
then drives the `negsup run` path in this process: load_datastore,
load_vocabulary and load_embedding_file (set-up), then read_jsonl,
run_batch and write_jsonl over the whole input file (one pass), repeated
by a single closed-loop client until --seconds have passed. The output is
scored through the `eval chair` path (load_instances, evaluate) and
checked for correctness.

--trace 0 reports the end-to-end metrics:
  throughput   input instances (gate-skipped included) over all passes /
               the passes' summed wall time
  setup_s      set-up wall time, median over SETUP_REPEATS set-ups
  peak_rss_mb  peak RSS of this process (the generator runs apart)
  chair_s, chair_i, recall   quality of the first pass's out.jsonl
--trace 1 alternates untraced and traced passes, and reports the
per-layer metrics (see tracing.py); times are ms per input instance,
set-up spans ms per set-up, eval spans ms per evaluation.

Every run prints an environment record, one "metric" line per metric
(failed_frac too) and, last, the JSON result. It exits 1 when any
correctness check failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from negsup import datastore, embedding, entities, kernels, metrics, pipeline

import checks
import inputs
from tracing import Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 3
GENERATOR_TIMEOUT_S = 300

E2E_UNITS = {
    "throughput": "inst/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "chair_s": "ratio",
    "chair_i": "ratio",
    "recall": "ratio",
}


@dataclass
class Context:
    """What `negsup run` holds before it processes the first instance."""

    config: pipeline.PipelineConfig
    vocab: entities.EntityVocabulary
    store: datastore.Datastore
    sources: pipeline.SourceBundle
    keys: embedding.FileSource
    weights: pipeline.AttentionWeights


@dataclass
class Passes:
    seconds: list[float]  # wall time of each pass
    instances: list[dict]
    result: pipeline.BatchResult
    lines: list[bytes]
    diverged: int  # instance outputs of later passes that differ from pass 1

    def throughput(self) -> float:
        """Input instances over all passes / their summed wall time."""
        return len(self.instances) * len(self.seconds) / sum(self.seconds)


def _files(work: str) -> dict[str, str]:
    return {
        "store": os.path.join(work, inputs.STORE_DIR),
        "vocab": os.path.join(work, inputs.VOCAB_FILE),
        "synonyms": os.path.join(work, inputs.SYNONYMS_FILE),
        "aux": os.path.join(work, inputs.AUX_FILE),
        "input": os.path.join(work, inputs.INPUT_FILE),
        "config": os.path.join(work, inputs.CONFIG_FILE),
        "out": os.path.join(work, "out.jsonl"),
        "slice": os.path.join(work, "slice.jsonl"),
        "cli_out": os.path.join(work, "cli_out.jsonl"),
    }


def setup(files: dict) -> Context:
    """Load everything `negsup run` loads, in the order it loads it."""
    with open(files["config"], "r", encoding="utf-8") as fh:
        config = pipeline.PipelineConfig.from_json_dict(json.load(fh))
    vocab = entities.load_vocabulary(files["vocab"], files["synonyms"])
    store = datastore.load_datastore(files["store"])
    sources = pipeline.SourceBundle(embedding.HashSource(dim=store.dim, seed=config.seed))
    weights = pipeline.default_weights(store, config)
    keys = embedding.load_embedding_file(files["aux"])
    return Context(config, vocab, store, sources, keys, weights)


def timed_setups(files: dict, repeats: int) -> tuple[Context, list[float]]:
    times, ctx = [], None
    for _ in range(repeats):
        ctx = None
        gc.collect()  # free the previous set-up before timing the next
        start = time.perf_counter()
        ctx = setup(files)
        times.append(time.perf_counter() - start)
    return ctx, times


def run_passes(ctx: Context, files: dict, seconds: float, passes: Passes | None = None) -> Passes:
    """Whole-file passes until `seconds` have passed (at least one),
    appended to `passes` and compared byte for byte with its first."""
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        instances = pipeline.read_jsonl(files["input"])
        result = pipeline.run_batch(
            instances, ctx.store, ctx.vocab, ctx.sources, ctx.config, ctx.weights, ctx.keys
        )
        pipeline.write_jsonl(files["out"], result.outputs)
        elapsed = time.perf_counter() - start
        with open(files["out"], "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        if passes is None:
            passes = Passes([elapsed], instances, result, lines, 0)
        else:
            passes.seconds.append(elapsed)
            if lines != passes.lines:
                changed = sum(a != b for a, b in zip(lines, passes.lines))
                passes.diverged += changed + abs(len(lines) - len(passes.lines))
        if time.perf_counter() >= deadline:
            return passes


def quality(files: dict, vocab) -> dict[str, float]:
    report = metrics.evaluate(metrics.load_instances(files["out"], vocab))
    return {"chair_s": report.chair_s, "chair_i": report.chair_i, "recall": report.recall}


def run_checks(root, files, workload, seed, ctx, passes: Passes, env) -> dict[str, str]:
    """Instance id -> reason, for instances that fail a correctness check."""
    failed = checks.check_outputs(passes.instances, passes.result, ctx)
    slice_ids = [obj["id"] for obj in passes.instances[: workload.cli_slice]]
    with open(files["input"], "rb") as fh:
        head = fh.read().splitlines(keepends=True)[: workload.cli_slice]
    with open(files["slice"], "wb") as fh:
        fh.write(b"".join(head))
    expected = b"".join(
        line for obj, line in zip(passes.result.outputs, passes.lines) if obj["id"] in slice_ids
    )
    proc = checks.start_cli_run(root, files, files["slice"], files["cli_out"], env)
    try:
        rng = np.random.default_rng([seed, 1])
        failed.update(
            checks.check_against_oracle(
                passes.instances, passes.result, ctx, rng, workload.oracle_samples
            )
        )
    finally:
        failed.update(checks.finish_cli_run(proc, files["cli_out"], expected, slice_ids))
    return failed


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def environment(blas_threads: int, store) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, AttributeError):
        blas_name = "unknown"
    return {
        "kernel_backend": kernels.backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cache_bytes": {
            "l1d": _getconf("LEVEL1_DCACHE_SIZE"),
            "l2": _getconf("LEVEL2_CACHE_SIZE"),
            "l3": _getconf("LEVEL3_CACHE_SIZE"),
        },
        "store_matrix_bytes": int(store.matrix.nbytes),
    }


def per_layer(tracer: Tracer, passes: Passes, untraced: Passes) -> dict:
    """Per-layer metrics: name -> (value, unit). Pass spans are per input
    instance; the traced run sets up once and evaluates once."""
    n_inst = len(passes.instances) * len(passes.seconds)
    totals = {phase: tracer.totals(phase) for phase in ("setup", "pass", "eval")}
    calls = tracer.calls["pass"]
    outputs = passes.result.outputs

    def span(name, key="ns", phase="pass"):
        value = totals[phase].get(name, {}).get(key, 0)
        if key == "calls":
            return value / n_inst, "calls/inst"
        return (value / 1e6 / n_inst, "ms/inst") if phase == "pass" else (value / 1e6, "ms")

    def per_output(count, unit):
        return (count / len(outputs) if outputs else 0.0), unit

    entity_calls = calls["embedding.embed_entity"]
    distinct = len(tracer.distinct["pass"]["embedding.embed_entity"]) * len(passes.seconds)
    return {
        "datastore.load.ms": span("datastore.load", phase="setup"),
        "datastore.read_caption_file.ms": span("datastore.read_caption_file", phase="setup"),
        "datastore.build_datastore.ms": span("datastore.build_datastore", phase="setup"),
        "datastore.retrieve.self_ms": span("datastore.retrieve", "self_ns"),
        "datastore.retrieve.calls": span("datastore.retrieve", "calls"),
        "kernels.dot_scores.ms": span("kernels.dot_scores"),
        "kernels.dot_scores.computed_mb": (
            tracer.measured["pass"]["kernels.dot_scores"] / (n_inst * 1_000_000),
            "MB/inst",
        ),
        "kernels.attention_core.ms": span("kernels.attention_core"),
        "kernels.negative_scores.ms": span("kernels.negative_scores"),
        "embedding.load_embedding_file.ms": span("embedding.load_embedding_file", phase="setup"),
        "embedding.embed_text.calls": (calls["embedding.embed_text"] / n_inst, "calls/inst"),
        "embedding.embed_entity.calls": (entity_calls / n_inst, "calls/inst"),
        "embedding.embed_entity.distinct_frac": (
            distinct / entity_calls if entity_calls else 0.0,
            "ratio",
        ),
        "entities.classify_image_entities.self_ms": span("entities.classify_image_entities", "self_ns"),
        "entities.filter_inference.self_ms": span("entities.filter_inference", "self_ns"),
        "entities.filter_training.ms": span("entities.filter_training"),
        "entities.extract_entities.calls": span("entities.extract_entities", "calls"),
        "entities.extract_entities.ms": span("entities.extract_entities"),
        "entities.negatives_per_inst": per_output(
            sum(len(o["context"]["entities"]["negative"]) for o in outputs), "neg/inst"
        ),
        "fusion.clip_score.ms": span("fusion.clip_score"),
        "fusion.fuse_sif.ms": span("fusion.fuse_sif"),
        "fusion.fuse_retrieval.self_ms": span("fusion.fuse_retrieval", "self_ns"),
        "fusion.map_to_prefix.ms": span("fusion.map_to_prefix"),
        "fusion.xavier_weights.ms": span("fusion.xavier_weights", phase="setup"),
        "suppression.score_negative_attention.self_ms": span(
            "suppression.score_negative_attention", "self_ns"
        ),
        "suppression.select_tokens.ms": span("suppression.select_tokens"),
        "suppression.suppress.ms": span("suppression.suppress"),
        "suppression.selected_per_inst": per_output(
            sum(len(o["context"]["suppression"]["selected"]) for o in outputs), "tok/inst"
        ),
        "pipeline.read_jsonl.ms": span("pipeline.read_jsonl"),
        "pipeline.run_batch.self_ms": span("pipeline.run_batch", "self_ns"),
        "pipeline.standin_decode.self_ms": span("pipeline.standin_decode", "self_ns"),
        "pipeline.decode_fallback_frac": per_output(
            sum(o["generated"] not in o["retrieved"] for o in outputs), "ratio"
        ),
        "pipeline.gate_skip_frac": (len(passes.result.skipped) / len(passes.instances), "ratio"),
        "pipeline.write_jsonl.ms": span("pipeline.write_jsonl"),
        "pipeline.write_jsonl.kb_per_inst": per_output(
            sum(len(line) for line in passes.lines) / 1000, "KB/inst"
        ),
        "metrics.load_instances.ms": span("metrics.load_instances", phase="eval"),
        "metrics.evaluate.ms": span("metrics.evaluate", phase="eval"),
        "trace.overhead_frac": (passes.throughput() / untraced.throughput() - 1.0, "ratio"),
    }


def measure(args, root: str, blas_threads: int, work: str) -> int:
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    env = dict(os.environ)
    gen_cmd = [
        sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--out", work,
    ] + (["--tiny"] if args.tiny else [])
    subprocess.run(
        gen_cmd,
        env=dict(env, PYTHONPATH=os.path.join(root, "src")),
        check=True,
        timeout=GENERATOR_TIMEOUT_S,
    )
    files = _files(work)

    if args.trace:
        tracer = Tracer()
        tracer.install()
        ctx = setup(files)
        tracer.uninstall()
        # alternate untraced and traced passes so both see the same machine
        tracer.phase = "pass"
        untraced = passes = None
        deadline = time.perf_counter() + args.seconds
        while passes is None or time.perf_counter() < deadline:
            untraced = run_passes(ctx, files, 0, untraced)
            tracer.install()
            passes = run_passes(ctx, files, 0, passes)
            tracer.uninstall()
        tracer.install()
        tracer.phase = "eval"
        scores = quality(files, ctx.vocab)
        tracer.uninstall()
        tracer.write(os.path.join(os.path.dirname(work), f"trace-{args.workload}-s{args.seed}.json"))
        found = per_layer(tracer, passes, untraced)
        passes.diverged += sum(a != b for a, b in zip(untraced.lines, passes.lines))
    else:
        ctx, setup_times = timed_setups(files, SETUP_REPEATS)
        passes = run_passes(ctx, files, args.seconds)
        scores = quality(files, ctx.vocab)
        found = {
            "throughput": passes.throughput(),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **scores,
        }
        found = {name: (value, E2E_UNITS[name]) for name, value in found.items()}

    failed_ids = run_checks(root, files, workload, args.seed, ctx, passes, env)
    for rid, reason in sorted(failed_ids.items()):
        print(f"check failed for {rid}: {reason}", file=sys.stderr)
    if passes.diverged:
        print(f"{passes.diverged} outputs differ between passes", file=sys.stderr)
    n_passes = len(passes.seconds) + (len(untraced.seconds) if args.trace else 0)
    attempted = len(passes.instances) * n_passes
    failed = min(attempted, len(failed_ids) * n_passes + passes.diverged)

    print("env " + json.dumps(environment(blas_threads, ctx.store), sort_keys=True))
    print("out_sha256 " + hashlib.sha256(b"".join(passes.lines)).hexdigest())
    print(f"instances_per_pass {len(passes.instances)} pass_seconds {passes.seconds!r}")
    for name, (value, unit) in found.items():
        print(f"metric {name} {value!r} {unit}")
    if not args.trace:
        print(f"metric failed_frac {failed / attempted!r} ratio")
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in found.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def main(argv, root: str, blas_threads: int) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    work = os.path.join(root, ".perfbench", f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return measure(args, root, blas_threads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
