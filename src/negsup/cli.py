"""Command-line interface.

Subcommands: ingest (build and persist a datastore), retrieve (query a
datastore), run (batch pipeline over JSON-lines instances), eval chair
(hallucination report), eval retrieval (retrieval diagnostics).

Exit codes: 0 success, 2 input or format error, 3 invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .datastore import (
    DEFAULT_K,
    ingest_datastore,
    load_datastore,
    retrieve,
    save_datastore,
)
from .embedding import HashSource, as_vector, load_embedding_file
from .entities import load_vocabulary
from .errors import FormatError, InvariantError, IoError, NegsupError
from .fusion import load_weights_file
from .metrics import (
    entity_set_from_json,
    evaluate,
    load_instances,
    retrieval_diagnostics,
)
from .pipeline import (
    MODE_TRAINING,
    PipelineConfig,
    SourceBundle,
    sub_config,
    read_jsonl,
    run_batch,
    write_jsonl,
)

CONFIG_EXTRA_KEYS = ("vocab", "synonyms", "weights", "aux_embeddings")


def _emit(obj: dict, compact: bool) -> None:
    if compact:
        print(json.dumps(obj, sort_keys=True))
    else:
        print(json.dumps(obj, sort_keys=True, indent=2))


def cmd_ingest(args) -> int:
    store = ingest_datastore(args.captions, args.embeddings)
    save_datastore(store, args.out)
    print(f"ingested {len(store)} records (dim {store.dim}) into {args.out}")
    return 0


def _load_query_vector(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"query vector file is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("vector")
    if not isinstance(data, list):
        raise FormatError('query vector file must hold an array or {"vector": [...]}')
    return as_vector(data)


def cmd_retrieve(args) -> int:
    store = load_datastore(args.store)
    if args.query_key is not None:
        if args.query_key not in store:
            raise FormatError(f"no record with id {args.query_key!r}")
        query = store.vector_of(args.query_key)
    else:
        query = _load_query_vector(args.query_vec)
    result = retrieve(store, query, args.k)
    if args.json:
        _emit(result.to_json_dict(), compact=True)
    else:
        for hit in result.hits:
            print(f"{hit.id}\t{hit.score:.6f}\t{hit.caption}")
    return 0


def _build_config(args, file_data: dict) -> PipelineConfig:
    data = dict(file_data)
    if args.mode is not None:
        data["mode"] = args.mode
    for flag, key in (
        ("no_sir", "enable_sir"),
        ("no_sif", "enable_sif"),
        ("no_nef", "enable_nef"),
        ("no_as", "enable_as"),
    ):
        if getattr(args, flag):
            data[key] = False
    for attr, key in (
        ("tau_sim", "tau_sim"),
        ("top_m", "top_m"),
        ("seed", "seed"),
    ):
        value = getattr(args, attr)
        if value is not None:
            data[key] = value
    fusion = dict(sub_config(data, "fusion") or {})
    if args.tau_quality is not None:
        fusion["tau_quality"] = args.tau_quality
    if args.fusion_strategy is not None:
        fusion["strategy"] = args.fusion_strategy
    if args.alpha is not None:
        fusion["alpha"] = args.alpha
    if fusion:
        data["fusion"] = fusion
    suppression = dict(sub_config(data, "suppression") or {})
    if args.tau_neg is not None:
        suppression["tau_neg"] = args.tau_neg
    if getattr(args, "lam") is not None:
        suppression["lambda"] = args.lam
    if args.suppression_strategy is not None:
        suppression["strategy"] = args.suppression_strategy
    if suppression:
        data["suppression"] = suppression
    return PipelineConfig.from_json_dict(data)


def cmd_run(args) -> int:
    file_data: dict = {}
    extras: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_data = json.load(fh)
        except OSError as exc:
            raise IoError(str(exc)) from exc
        except json.JSONDecodeError as exc:
            raise FormatError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_data, dict):
            raise FormatError("config file must hold a JSON object")
        for key in CONFIG_EXTRA_KEYS:
            if key in file_data:
                extras[key] = file_data.pop(key)
    config = _build_config(args, file_data)

    vocab_path = args.vocab or extras.get("vocab")
    if vocab_path is None:
        raise FormatError("run needs a vocabulary (--vocab or config key 'vocab')")
    vocab = load_vocabulary(vocab_path, args.synonyms or extras.get("synonyms"))

    store = load_datastore(args.store)
    sources = SourceBundle(HashSource(dim=store.dim, seed=config.seed))

    weights = None
    weights_path = args.weights or extras.get("weights")
    if weights_path is not None:
        weights = load_weights_file(weights_path)

    keys = None
    aux_path = args.aux_embeddings or extras.get("aux_embeddings")
    if aux_path is not None:
        keys = load_embedding_file(aux_path)

    instances = read_jsonl(args.input)
    if keys is None:
        key_field = "synthetic_key" if config.mode == MODE_TRAINING else "image_key"
        hashed = sum(obj.get(key_field) is not None for obj in instances)
        if hashed:
            print(
                f"warning: no --aux-embeddings given; {hashed} instances use the "
                f"hash of their {key_field} string as the embedding",
                file=sys.stderr,
            )
    result = run_batch(instances, store, vocab, sources, config, weights, keys)
    write_jsonl(args.out, result.outputs)
    if args.report is not None:
        write_jsonl(
            args.report,
            (
                {"id": out["id"], **out["context"]["suppression"]}
                for out in result.outputs
            ),
        )
    for skip in result.skipped:
        print(
            f"skipped {skip['id']}: clip_score {skip['clip_score']:.4f} below gate",
            file=sys.stderr,
        )
    print(
        f"wrote {len(result.outputs)} instances to {args.out}"
        + (f" ({len(result.skipped)} skipped)" if result.skipped else "")
    )
    return 0


def cmd_eval_chair(args) -> int:
    vocab = load_vocabulary(args.vocab, args.synonyms)
    instances = load_instances(args.pred, vocab)
    report = evaluate(instances)
    _emit(report.to_json_dict(), compact=args.json)
    return 0


def cmd_eval_retrieval(args) -> int:
    vocab = None
    if args.vocab is not None:
        vocab = load_vocabulary(args.vocab, args.synonyms)
    pairs = []
    for lineno, obj in enumerate(read_jsonl(args.instances), start=1):
        retrieved = obj.get("retrieved", obj.get("retrieved_entities"))
        truth = obj.get("references", obj.get("ground_truth_entities"))
        if retrieved is None or truth is None:
            raise FormatError(
                f"line {lineno}: need 'retrieved' and 'references' "
                "(or *_entities arrays)"
            )
        pairs.append(
            (
                entity_set_from_json(retrieved, vocab, "retrieved"),
                entity_set_from_json(truth, vocab, "references"),
            )
        )
    diag = retrieval_diagnostics(pairs)
    _emit(
        {"acc": diag.acc, "rc": diag.rc, "ahc": diag.ahc, "dhc": diag.dhc},
        compact=args.json,
    )
    return 0


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-sir", action="store_true", help="text-query retrieval instead of the synthetic-image query")
    parser.add_argument("--no-sif", action="store_true", help="disable synthetic/text embedding fusion")
    parser.add_argument("--no-nef", action="store_true", help="disable negative-entity filtering")
    parser.add_argument("--no-as", action="store_true", help="disable attention-level suppression")
    parser.add_argument("--tau-sim", type=float, default=None)
    parser.add_argument("--tau-quality", type=float, default=None)
    parser.add_argument("--tau-neg", type=float, default=None)
    parser.add_argument("--lambda", dest="lam", type=float, default=None)
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--fusion-strategy", default=None)
    parser.add_argument("--suppression-strategy", default=None)
    parser.add_argument("--top-m", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negsup",
        description="Caption retrieval with negative-entity suppression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="build and persist a datastore")
    p_ingest.add_argument("--captions", required=True, help="id<TAB>caption file")
    p_ingest.add_argument("--embeddings", required=True, help="embedding file (binary or JSONL)")
    p_ingest.add_argument("--out", required=True, help="output datastore directory")
    p_ingest.set_defaults(func=cmd_ingest)

    p_retr = sub.add_parser("retrieve", help="query a datastore")
    p_retr.add_argument("--store", required=True)
    group = p_retr.add_mutually_exclusive_group(required=True)
    group.add_argument("--query-key", help="use a stored record's embedding")
    group.add_argument("--query-vec", help='JSON file: array or {"vector": [...]}')
    p_retr.add_argument("-k", type=int, default=DEFAULT_K)
    p_retr.add_argument("--json", action="store_true")
    p_retr.set_defaults(func=cmd_retrieve)

    p_run = sub.add_parser("run", help="batch pipeline over JSON-lines instances")
    p_run.add_argument("--mode", choices=("training", "inference"), default=None)
    p_run.add_argument("--store", required=True)
    p_run.add_argument("--config", default=None, help="JSON config (flags override it)")
    p_run.add_argument("--input", required=True, help="JSON-lines instances")
    p_run.add_argument("--out", required=True, help="JSON-lines output")
    p_run.add_argument("--report", default=None, help="write per-instance suppression reports here")
    p_run.add_argument("--vocab", default=None, help="entity vocabulary file")
    p_run.add_argument("--synonyms", default=None, help="synonym TSV file")
    p_run.add_argument("--weights", default=None, help="attention weights file")
    p_run.add_argument("--aux-embeddings", default=None, help="embedding file for image/synthetic keys")
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="evaluation reports")
    eval_sub = p_eval.add_subparsers(dest="eval_command", required=True)

    p_chair = eval_sub.add_parser("chair", help="hallucination and recall report")
    p_chair.add_argument("--pred", required=True, help="JSON-lines predictions")
    p_chair.add_argument("--vocab", required=True)
    p_chair.add_argument("--synonyms", default=None)
    p_chair.add_argument("--json", action="store_true")
    p_chair.set_defaults(func=cmd_eval_chair)

    p_diag = eval_sub.add_parser("retrieval", help="retrieval diagnostics (ACC/RC/AHC/DHC)")
    p_diag.add_argument("--instances", required=True)
    p_diag.add_argument("--vocab", default=None)
    p_diag.add_argument("--synonyms", default=None)
    p_diag.add_argument("--json", action="store_true")
    p_diag.set_defaults(func=cmd_eval_retrieval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (NegsupError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
