"""Immutable caption datastore with exact top-k cosine retrieval.

Records are held row-sorted by id so that score ties resolve to ascending
id regardless of insertion order. Ids and captions are each one UTF-8 blob
(embedding.Texts), and a record is found by bisecting the sorted ids; a
loaded store's ids are the key blob its embedding file was read into, so
a load makes no Python string per record. Retrieval scans a float32
matrix (`scan`) and scores in float64 unit rows, which a store holds only
when it was built from float64 unit rows (build_datastore). A loaded store (ingest_datastore, load_datastore)
holds its embedding file's rows as stored and derives float64 unit rows
from them only where they are read: the candidates retrieval re-scores,
the hits it hands out, vector_of and records(). A binary file's float32
rows are the scan themselves when every norm is within float32 eps of 1,
as in every file save_datastore writes, so such a store holds one
float32 array; other rows get a separate scan.

Retrieval is exact and batched: retrieve normalizes all its queries as
one matrix and ranks them with kernels.exact_top, which scans `scan` in
cache-sized chunks against blocks of queries, keeps only per-group maxima
to bound each query's k-th score, scores the groups near that bound a
block at a time, and re-scores the rows near the k-th score in float64;
so a hit's score depends only on its row and the query, never on the
batch; one query is a batch of one. A result carries its hits' unit rows
(`vectors`) and, made on first use, their captions' tokens (`tokens`), so
the pipeline's entity filter and stand-in decoder read both from it.
brute_force_topk is the independent oracle (per-record l2_normalize and
dots, full stable sort).
"""

from __future__ import annotations

import bisect
import functools
import operator
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .embedding import (
    FORMAT_BINARY,
    MOVE_ROWS,
    Texts,
    _gather,
    l2_normalize,
    l2_normalize_rows,
    normalize_rows,
    read_vector_file,
    tokenize,
    unit_rows,
    write_embedding_file,
)
from .errors import (
    DimMismatch,
    DuplicateId,
    EmptyInput,
    FormatError,
    ZeroVector,
)
from .validation import make_directory, read_bytes, read_lines, write_file

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
    """Ordered retrieval hits: scores non-increasing, ties by ascending id.

    `vectors` holds the hits' float64 unit rows when retrieve made the
    result (pipeline.standin_decode reads them), and is not serialized.
    `tokens` holds each hit's caption as embedding.tokenize splits it, made
    on first use and kept, so the entity filter's candidates and the
    stand-in decoder share one tokenizing of each hit.
    """

    hits: tuple[Hit, ...]
    vectors: np.ndarray | None = field(default=None, compare=False, repr=False)

    @functools.cached_property
    def tokens(self) -> list[list[str]]:
        return [tokenize(hit.caption) for hit in self.hits]

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


def _derive(raw: np.ndarray, keys) -> np.ndarray:
    """Float64 unit rows of an embedding file's `raw` rows: normalized once
    as load_embedding_file normalizes a file's rows, then once as
    build_datastore normalizes a store's (the second pass moves about a
    quarter of the rows by an ulp). Each row depends on its own values
    only; keys[i] names row i in errors."""
    rows = raw.astype(np.float64)
    for _ in range(2):
        normalize_rows(rows, keys)
    return rows


def _near_unit(raw: np.ndarray) -> bool:
    """Whether every row of the float32 `raw` has a float64 norm within
    float32 eps of 1, as every row save_datastore writes has (see
    kernels.exact_top for why such rows can be the scan). A non-finite or
    zero row has not."""
    eps = float(np.finfo(np.float32).eps)
    for start in range(0, len(raw), MOVE_ROWS):
        rows = raw[start : start + MOVE_ROWS].astype(np.float64)
        if not (np.abs(np.sqrt(np.einsum("ij,ij->i", rows, rows)) - 1.0) <= eps).all():
            return False
    return True


def _scan_of(raw: np.ndarray, ids) -> np.ndarray:
    """The float32 of the unit rows derived from `raw`, MOVE_ROWS at a time."""
    scan = np.empty(raw.shape, dtype=np.float32)
    for start in range(0, len(raw), MOVE_ROWS):
        stop = start + MOVE_ROWS
        scan[start:stop] = _derive(raw[start:stop], ids[start:stop])
    return scan


class Datastore:
    """Immutable (id, caption, normalized embedding) collection, with ids
    distinct and ascending.

    `ids` and `captions` are Texts. `scan` is the read-only float32 matrix
    that retrieval scans for candidates. By default the store is given
    float64 unit rows, which unit_rows reads as they are, and scans their
    float32. With `raw` it is given an embedding file's rows as stored
    (float32 for a binary file), which it then owns, and derives float64
    unit rows from them where they are read (see _derive), so no float64
    copy of the store is ever held. Float32 file rows whose norms are all
    within float32 eps of 1, as a saved store's are, are the scan
    themselves (see _near_unit); other file rows get a separate scan, the
    float32 of their unit rows. `matrix` is the rows as given.
    """

    def __init__(self, ids, captions, matrix, *, raw: bool = False):
        if not isinstance(ids, Texts):
            ids = list(ids)
            if any(map(operator.ge, ids, ids[1:])):
                raise ValueError("datastore ids must be distinct and ascending")
            ids = Texts.of(ids)
        self.ids = ids
        self.captions = captions if isinstance(captions, Texts) else Texts.of(captions)
        self._raw = raw
        if not raw:
            self.scan = matrix.astype(np.float32)
        elif matrix.dtype == np.float32 and _near_unit(matrix):
            self.scan = matrix
        else:
            self.scan = _scan_of(matrix, ids)
        self.matrix = matrix
        self.matrix.flags.writeable = False
        self.scan.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.scan.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def unit_rows(self, index) -> np.ndarray:
        """The float64 unit rows at `index`, an array of row numbers."""
        rows = self.matrix[index]
        return _derive(rows, index) if self._raw else rows

    def _row(self, rid: str) -> int:
        i = bisect.bisect_left(self.ids, rid)
        if i == len(self.ids) or self.ids[i] != rid:
            raise KeyError(rid)
        return i

    def __contains__(self, rid: str) -> bool:
        try:
            self._row(rid)
        except KeyError:
            return False
        return True

    def vector_of(self, rid: str) -> np.ndarray:
        return self.unit_rows(np.array([self._row(rid)]))[0]

    def records(self) -> Iterable[tuple[str, str, np.ndarray]]:
        for start in range(0, len(self), MOVE_ROWS):
            rows = self.unit_rows(np.arange(start, min(start + MOVE_ROWS, len(self))))
            chunk = slice(start, start + MOVE_ROWS)
            yield from zip(self.ids[chunk], self.captions[chunk], rows)


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


def retrieve(store: Datastore, queries, k: int = DEFAULT_K) -> list[RetrievalResult]:
    """Exact top-k records by cosine similarity for each query, in order.

    The queries, a sequence or an (n, d) stack of vectors, are normalized
    as one matrix (embedding.l2_normalize_rows, each row equal to
    l2_normalize of it bit for bit) and checked once: a non-finite value
    is a FormatError, a zero query ZeroVector, another width DimMismatch.
    kernels.exact_top then ranks them a block at a time; each result is
    the same bit for bit whatever else the batch holds, so
    `retrieve(store, [query], k)[0]` ranks one query. The hits' unit rows
    are fetched from the store in one call for all queries and handed out
    as each result's `vectors`; their ids and captions are decoded from
    one read of their spans (Texts.take).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(queries) == 0:
        return []
    units = l2_normalize_rows(queries)
    if units.shape[1] != store.dim:
        raise DimMismatch(f"query dim {units.shape[1]} != store dim {store.dim}")
    tops = kernels.exact_top(store.unit_rows, store.scan, units, k)
    index = np.array([i for top in tops for _, i in top], dtype=np.intp)
    vectors = store.unit_rows(index)
    ids, captions = store.ids.take(index), store.captions.take(index)
    results = []
    at = 0
    for top in tops:
        end = at + len(top)
        hits = tuple(map(Hit, ids[at:end], captions[at:end], [score for score, _ in top]))
        results.append(RetrievalResult(hits, vectors[at:end]))
        at = end
    return results


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
    """Persist a datastore as an embeddings file plus an id<TAB>caption file.

    The caption lines are encoded before either file is written, and each
    file replaces its old copy only once written whole (see
    validation.write_file), so a record that cannot be saved (a tab,
    newline or lone surrogate in its id or caption) leaves an existing
    store as it was.

    The two files are not replaced together: embeddings.nese is replaced
    first, so an OSError while captions.tsv is written leaves the new
    vectors beside the old captions. The load rejects that pair when the
    id sets differ ("ids with embeddings but no caption", or the reverse);
    when only the captions or the vectors changed, the pair loads and
    nothing detects it.
    """
    lines = []
    for rid, caption in zip(store.ids, store.captions):
        if any(c in text for text in (rid, caption) for c in "\t\n\r"):
            raise FormatError(
                f"record {rid!r}: ids and captions must not contain tabs,"
                " newlines or carriage returns"
            )
        try:
            lines.append(f"{rid}\t{caption}\n".encode("utf-8"))
        except UnicodeEncodeError as exc:
            raise FormatError(
                f"record {rid!r}: ids and captions must not contain lone surrogates"
            ) from exc
    make_directory(directory)
    write_embedding_file(
        os.path.join(directory, EMBEDDINGS_FILENAME),
        # the float32 of the unit rows, or the file rows a loaded store
        # scans, so such a store is saved as the file it was loaded from
        zip(store.ids, store.scan),
        format=FORMAT_BINARY,
        dim=store.dim,
    )
    write_file(os.path.join(directory, CAPTIONS_FILENAME), lines)


def read_caption_file(path) -> dict[str, str]:
    """Read an id<TAB>caption file into an id -> caption mapping; a line
    without a tab or with a repeated id is an error naming the file and it."""
    captions: dict[str, str] = {}
    for lineno, line in read_lines(path):
        if "\t" not in line:
            raise FormatError(f"{os.fspath(path)}: line {lineno}: expected 'id<TAB>caption'")
        rid, caption = line.split("\t", 1)
        if rid in captions:
            raise DuplicateId(f"{os.fspath(path)}: line {lineno}: duplicate id {rid!r}")
        captions[rid] = caption
    return captions


def _caption_spans(data: bytes, ids: Texts):
    """Where the captions of `ids` lie in an id<TAB>caption file's bytes,
    as (starts, stops), when the file is one "id<TAB>caption\n" line per
    id, in the order of `ids`, with no "\r" and valid UTF-8; else None."""
    if not data.endswith(b"\n") or b"\r" in data:
        return None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    tabs = np.flatnonzero(buf == ord("\t"))
    if ends.shape[0] != len(ids) or tabs.shape[0] != len(ids):
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    # with one tab per line in all, the i-th tab ends the i-th line's id
    if not (np.array_equal(tabs - starts, ids.stops - ids.starts) and (tabs < ends).all()):
        return None
    if _gather(buf, starts, tabs).blob != ids.blob:
        return None
    return tabs + 1, ends


def _blank_free(ids: Texts) -> bool:
    """Whether every id holds a character that str.strip keeps. An id
    holding an ASCII byte that is not whitespace does; only the others are
    decoded and stripped."""
    keeps = np.array([not chr(byte).isspace() for byte in range(128)] + [False] * 128)
    held = np.append(keeps[np.frombuffer(ids.blob, dtype=np.uint8)], False)
    bounds = np.stack([ids.starts, ids.stops], axis=1).ravel()
    # reduceat over [start, stop) of each id, which for an empty id reads
    # held[start]: an empty id is blank
    kept = np.logical_or.reduceat(held, bounds)[::2] & (ids.stops > ids.starts)
    return all(ids[i].strip() for i in np.flatnonzero(~kept))


def _read_captions(path, ids: Texts) -> Texts:
    """The captions of the ascending `ids` from an id<TAB>caption file.

    A file as save_datastore writes it, which _caption_spans recognizes, is
    split where it lies, its bytes kept as the captions' blob. That is done
    only when every id holds a non-space character (see _blank_free), so
    that no line of the file is one that read_lines skips as blank. Any
    other file goes through read_caption_file and must name the same ids.
    """
    data = read_bytes(path)
    spans = _caption_spans(data, ids) if _blank_free(ids) else None
    if spans is not None:
        return Texts(data, *spans)
    del data
    captions = read_caption_file(path)
    keys = list(ids)
    missing = sorted(set(captions) - set(keys))
    extra = sorted(set(keys) - set(captions))
    if missing:
        raise FormatError(f"ids with captions but no embedding: {missing[:5]}")
    if extra:
        raise FormatError(f"ids with embeddings but no caption: {extra[:5]}")
    return Texts.of([captions[rid] for rid in keys])


def ingest_datastore(captions_path, embeddings_path) -> Datastore:
    """Build a datastore from a caption file and a parallel embedding file.

    The embedding file is read first, and only its rows are kept, as
    stored, in id order (sorted only when the file's ids are not); its
    keys, one Texts blob, are the store's ids. A binary file's rows are the
    front of the buffer it was read into, and may be the store's scan as
    well (see Datastore). The store's unit rows (see _derive) equal
    those of build_datastore(load_embedding_file(...).items()) bit for bit.
    """
    ids, rows = read_vector_file(embeddings_path)
    if not ids.ascending:  # save_datastore writes them in order
        keys = list(ids)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        ids = Texts.of([keys[i] for i in order])
        rows = rows[order]
    captions = _read_captions(captions_path, ids)
    if not len(ids):
        raise EmptyInput("cannot build a datastore from zero records")
    try:
        return Datastore(ids, captions, rows, raw=True)
    except ZeroVector as exc:
        raise FormatError(str(exc)) from exc


def load_datastore(directory) -> Datastore:
    """Load a datastore persisted by save_datastore."""
    return ingest_datastore(
        os.path.join(directory, CAPTIONS_FILENAME),
        os.path.join(directory, EMBEDDINGS_FILENAME),
    )
