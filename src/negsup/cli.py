"""Command-line interface.

Subcommands: ingest (build and persist a datastore), retrieve (query a
datastore), run (batch pipeline over JSON-lines instances), eval chair
(hallucination report), eval retrieval (retrieval diagnostics).

Exit codes: 0 success, 2 input or format error, 3 invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .datastore import (
    DEFAULT_K,
    ingest_datastore,
    load_datastore,
    retrieve,
    save_datastore,
)
from .embedding import HashSource, load_embedding_file, vector_from_json
from .entities import load_vocabulary
from .errors import FormatError, InvariantError, NegsupError, UnknownKey
from .fusion import load_weights_file
from .metrics import (
    entity_set_from_json,
    evaluate,
    load_instances,
    retrieval_diagnostics,
)
from .pipeline import (
    KEY_FIELDS,
    PipelineConfig,
    SourceBundle,
    read_jsonl,
    run_batch,
    write_jsonl,
)
from .validation import check_output, check_path, json_lines, read_json

# Config keys naming input files; the flag of the same name overrides each.
CONFIG_PATH_KEYS = ("vocab", "synonyms", "weights", "aux_embeddings")

# `negsup run` flag dest -> (sub-config or None, config JSON key, flag,
# add_argument keywords): every flag that overrides a config key, declared
# once, so none is parsed and then ignored.
RUN_FLAG_KEYS = {
    "mode": (None, "mode", "--mode", {"choices": ("training", "inference")}),
    "enable_sir": (None, "enable_sir", "--no-sir", {
        "action": "store_false", "help": "text-query retrieval instead of the synthetic-image query"
    }),
    "enable_sif": (None, "enable_sif", "--no-sif", {
        "action": "store_false", "help": "disable synthetic/text embedding fusion"
    }),
    "enable_nef": (None, "enable_nef", "--no-nef", {
        "action": "store_false", "help": "disable negative-entity filtering"
    }),
    "enable_as": (None, "enable_as", "--no-as", {
        "action": "store_false", "help": "disable attention-level suppression"
    }),
    "tau_sim": (None, "tau_sim", "--tau-sim", {"type": float}),
    "top_m": (None, "top_m", "--top-m", {"type": int}),
    "seed": (None, "seed", "--seed", {"type": int}),
    "tau_quality": ("fusion", "tau_quality", "--tau-quality", {"type": float}),
    "fusion_strategy": ("fusion", "strategy", "--fusion-strategy", {}),
    "alpha": ("fusion", "alpha", "--alpha", {"type": float}),
    "tau_neg": ("suppression", "tau_neg", "--tau-neg", {"type": float}),
    "lam": ("suppression", "lambda", "--lambda", {"type": float}),
    "suppression_strategy": ("suppression", "strategy", "--suppression-strategy", {}),
}


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
    data = read_json(path, "query vector file")
    if isinstance(data, dict):
        data = data.get("vector")
    if not isinstance(data, list):
        raise FormatError('query vector file must hold an array or {"vector": [...]}')
    return vector_from_json(data)


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
    """The file's config JSON with each given flag written over its key."""
    data = dict(file_data)
    for dest, (section, key, _, _) in RUN_FLAG_KEYS.items():
        value = getattr(args, dest)
        if value is None:
            continue
        if section is None:
            data[key] = value
        elif isinstance(data.get(section), (dict, type(None))):
            # any other sub-config value is left for from_json_dict to reject
            data[section] = {**(data.get(section) or {}), key: value}
    return PipelineConfig.from_json_dict(data)


def _same_file(a, b) -> bool:
    """Whether two paths name one file: the same path once links and
    spelling are resolved, or, where both exist, the same inode."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:
        return False


def cmd_run(args) -> int:
    check_output(args.out, "--out")
    if args.report is not None:
        check_output(args.report, "--report")
        if _same_file(args.out, args.report):
            raise FormatError(f"--report {args.report!r} names the --out file {args.out!r}")
    file_data: dict = {}
    if args.config is not None:
        file_data = read_json(args.config, "config file")
        if not isinstance(file_data, dict):
            raise FormatError("config file must hold a JSON object")
    paths = {}
    for key in CONFIG_PATH_KEYS:
        value = file_data.pop(key, None)
        if value is not None:
            check_path(f"config key {key!r}", value)
        paths[key] = getattr(args, key) or value
    config = _build_config(args, file_data)

    if paths["vocab"] is None:
        raise FormatError("run needs a vocabulary (--vocab or config key 'vocab')")
    vocab = load_vocabulary(paths["vocab"], paths["synonyms"])

    store = load_datastore(args.store)
    sources = SourceBundle(HashSource(dim=store.dim, seed=config.seed))

    weights = None
    if paths["weights"] is not None:
        weights = load_weights_file(paths["weights"])
        if "prefix_length" in file_data and weights.out_tokens != config.prefix_length:
            raise FormatError(
                f"config prefix_length {config.prefix_length} != the weights file's"
                f" prefix length {weights.out_tokens}"
            )

    keys = None
    if paths["aux_embeddings"] is not None:
        keys = load_embedding_file(paths["aux_embeddings"])

    instances = read_jsonl(args.input)
    try:
        result = run_batch(instances, store, vocab, sources, config, weights, keys)
    except UnknownKey as exc:  # the one file-backed source here is the key store
        raise UnknownKey(f"{paths['aux_embeddings']}: {exc}") from None
    if result.hashed:
        print(
            f"warning: no --aux-embeddings given; {result.hashed} instances use the "
            f"hash of their {KEY_FIELDS[config.mode]} string as the embedding",
            file=sys.stderr,
        )
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
    for lineno, obj in json_lines(args.instances):
        retrieved = obj.get("retrieved", obj.get("retrieved_entities"))
        truth = obj.get("references", obj.get("ground_truth_entities"))
        try:
            if retrieved is None or truth is None:
                raise FormatError("need 'retrieved' and 'references' (or *_entities arrays)")
            pairs.append(
                (
                    entity_set_from_json(retrieved, vocab, "retrieved"),
                    entity_set_from_json(truth, vocab, "references"),
                )
            )
        except FormatError as exc:
            raise FormatError(f"{args.instances}: line {lineno}: {exc}") from exc
    diag = retrieval_diagnostics(pairs)
    _emit(
        {"acc": diag.acc, "rc": diag.rc, "ahc": diag.ahc, "dhc": diag.dhc},
        compact=args.json,
    )
    return 0


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
    p_run.add_argument("--store", required=True)
    p_run.add_argument("--config", default=None, help="JSON config (flags override it)")
    p_run.add_argument("--input", required=True, help="JSON-lines instances")
    p_run.add_argument("--out", required=True, help="JSON-lines output")
    p_run.add_argument("--report", default=None, help="write per-instance suppression reports here")
    p_run.add_argument("--vocab", default=None, help="entity vocabulary file")
    p_run.add_argument("--synonyms", default=None, help="synonym TSV file")
    p_run.add_argument("--weights", default=None, help="attention weights file")
    p_run.add_argument("--aux-embeddings", default=None, help="embedding file for image/synthetic keys")
    for dest, (_, _, flag, options) in RUN_FLAG_KEYS.items():
        p_run.add_argument(flag, dest=dest, default=None, **options)
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
