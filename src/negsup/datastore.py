"""Immutable caption datastore with exact top-k cosine retrieval.

Records are held row-sorted by id so that score ties resolve to ascending
id regardless of insertion order, as one float64 matrix of unit rows plus a
float32 copy of it for scanning. Retrieval is exact and batched:
retrieve_many ranks all its queries with kernels.exact_top, which scans the
float32 copy in cache-sized chunks against blocks of queries, keeps only
per-group maxima to bound each query's k-th score, and re-scores the rows
near that bound in float64; so a hit's score depends only on its row and
the query, never on the batch. retrieve is the one-query case.
brute_force_topk is the independent oracle (per-record dots, full stable
sort).

ingest_datastore (and load_datastore) gathers an embedding file's records in
id order straight into the one float64 matrix; the file's bytes are dropped
before the matrix is normalized and the float32 copy is made.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .embedding import (
    FORMAT_BINARY,
    l2_normalize,
    normalize_rows,
    read_vector_file,
    unit_rows,
    write_embedding_file,
)
from .errors import (
    DimMismatch,
    DuplicateId,
    EmptyInput,
    FormatError,
    IoError,
    ZeroVector,
)
from .validation import read_lines

DEFAULT_K = 9

EMBEDDINGS_FILENAME = "embeddings.nese"
CAPTIONS_FILENAME = "captions.tsv"


@dataclass(frozen=True)
class Hit:
    id: str
    caption: str
    score: float


@dataclass(frozen=True)
class RetrievalResult:
    """Ordered retrieval hits: scores non-increasing, ties by ascending id."""

    hits: tuple[Hit, ...]

    def ids(self) -> list[str]:
        return [h.id for h in self.hits]

    def captions(self) -> list[str]:
        return [h.caption for h in self.hits]

    def scores(self) -> list[float]:
        return [h.score for h in self.hits]

    def __len__(self) -> int:
        return len(self.hits)

    def to_json_dict(self) -> dict:
        return {
            "hits": [
                {"id": h.id, "caption": h.caption, "score": h.score}
                for h in self.hits
            ]
        }


class Datastore:
    """Immutable (id, caption, normalized embedding) collection.

    `matrix` holds the float64 unit rows that scores come from; `scan` is
    its read-only float32 copy, which retrieval scans for candidates.
    """

    def __init__(self, ids, captions, matrix):
        self.ids = tuple(ids)
        self.captions = tuple(captions)
        self.matrix = matrix
        self.matrix.flags.writeable = False
        self.scan = matrix.astype(np.float32)
        self.scan.flags.writeable = False
        self._row_of = {rid: i for i, rid in enumerate(self.ids)}

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, rid: str) -> bool:
        return rid in self._row_of

    def caption_of(self, rid: str) -> str:
        return self.captions[self._row_of[rid]]

    def vector_of(self, rid: str) -> np.ndarray:
        return self.matrix[self._row_of[rid]]

    def records(self) -> Iterable[tuple[str, str, np.ndarray]]:
        for i, rid in enumerate(self.ids):
            yield rid, self.captions[i], self.matrix[i]


def build_datastore(records: Sequence[tuple[str, str, np.ndarray]]) -> Datastore:
    """Build a retrieval-ready datastore from (id, caption, embedding) triples."""
    rows = sorted(records, key=lambda rec: rec[0])
    if not rows:
        raise EmptyInput("cannot build a datastore from zero records")
    ids = [r[0] for r in rows]
    for rid, after in zip(ids, ids[1:]):
        if rid == after:
            raise DuplicateId(f"duplicate record id {rid!r}")
    return Datastore(ids, [r[1] for r in rows], unit_rows(ids, [r[2] for r in rows]))


def retrieve_many(store: Datastore, queries, k: int = DEFAULT_K) -> list[RetrievalResult]:
    """Exact top-k records by cosine similarity for each query, in order.

    Every query is normalized and dimension-checked before the scan, which
    kernels.exact_top runs over blocks of queries; each result equals
    retrieve(store, query, k) bit for bit, whatever the batch.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    vecs = []
    for query in queries:
        vec = l2_normalize(query)
        if vec.shape[0] != store.dim:
            raise DimMismatch(f"query dim {vec.shape[0]} != store dim {store.dim}")
        vecs.append(vec)
    return [
        RetrievalResult(
            tuple(Hit(store.ids[i], store.captions[i], score) for score, i in top)
        )
        for top in kernels.exact_top(store.matrix, store.scan, vecs, k)
    ]


def retrieve(store: Datastore, query, k: int = DEFAULT_K) -> RetrievalResult:
    """Exact top-k records by cosine similarity to `query`."""
    return retrieve_many(store, [query], k)[0]


def brute_force_topk(
    records: Sequence[tuple[str, str, np.ndarray]], query, k: int
) -> RetrievalResult:
    """Test oracle: exhaustive per-record scan plus a full stable sort."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    vec = l2_normalize(query)
    scored = []
    for rid, caption, values in records:
        row = l2_normalize(values)
        if row.shape[0] != vec.shape[0]:
            raise DimMismatch(
                f"record {rid!r} has dim {row.shape[0]}, query has {vec.shape[0]}"
            )
        scored.append((rid, caption, float(np.dot(row, vec))))
    scored.sort(key=lambda item: (-item[2], item[0]))
    return RetrievalResult(tuple(Hit(*item) for item in scored[:k]))


# --- persistence -------------------------------------------------------------


def save_datastore(store: Datastore, directory) -> None:
    """Persist a datastore as an embeddings file plus an id<TAB>caption file."""
    os.makedirs(directory, exist_ok=True)
    for rid, caption in zip(store.ids, store.captions):
        if any(c in text for text in (rid, caption) for c in "\t\n\r"):
            raise FormatError(
                f"record {rid!r}: ids and captions must not contain tabs,"
                " newlines or carriage returns"
            )
    write_embedding_file(
        os.path.join(directory, EMBEDDINGS_FILENAME),
        zip(store.ids, store.matrix),
        format=FORMAT_BINARY,
        dim=store.dim,
    )
    try:
        path = os.path.join(directory, CAPTIONS_FILENAME)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for rid, caption in zip(store.ids, store.captions):
                fh.write(f"{rid}\t{caption}\n")
    except OSError as exc:
        raise IoError(str(exc)) from exc


def read_caption_file(path) -> dict[str, str]:
    """Read an id<TAB>caption file into an id -> caption mapping."""
    captions: dict[str, str] = {}
    for lineno, line in read_lines(path):
        if "\t" not in line:
            raise FormatError(f"line {lineno}: expected 'id<TAB>caption'")
        rid, caption = line.split("\t", 1)
        if rid in captions:
            raise DuplicateId(f"line {lineno}: duplicate id {rid!r}")
        captions[rid] = caption
    return captions


def ingest_datastore(captions_path, embeddings_path, format=None) -> Datastore:
    """Build a datastore from a caption file and a parallel embedding file.

    The file's records are gathered in id order straight into the store's
    one float64 matrix, and the file's bytes are dropped before anything
    else is allocated. The matrix is then normalized twice in place: once
    as load_embedding_file normalizes a file's rows, once as build_datastore
    normalizes a store's (the second pass moves about a quarter of the rows
    by an ulp). The store therefore equals
    build_datastore(load_embedding_file(...).items()) bit for bit.
    """
    captions = read_caption_file(captions_path)
    table = read_vector_file(embeddings_path, format=format)
    keys = table.keys
    missing = sorted(set(captions) - set(keys))
    extra = sorted(set(keys) - set(captions))
    if missing:
        raise FormatError(f"ids with captions but no embedding: {missing[:5]}")
    if extra:
        raise FormatError(f"ids with embeddings but no caption: {extra[:5]}")
    if not keys:
        raise EmptyInput("cannot build a datastore from zero records")
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ids = [keys[i] for i in order]
    matrix = table.gather(order)
    del table, keys  # the file's bytes
    try:
        for _ in range(2):  # the file's pass, then the store's
            normalize_rows(matrix, ids)
    except ZeroVector as exc:
        raise FormatError(str(exc)) from exc
    return Datastore(ids, [captions[rid] for rid in ids], matrix)


def load_datastore(directory) -> Datastore:
    """Load a datastore persisted by save_datastore."""
    return ingest_datastore(
        os.path.join(directory, CAPTIONS_FILENAME),
        os.path.join(directory, EMBEDDINGS_FILENAME),
    )
