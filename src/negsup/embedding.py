"""Embedding sources and vector file IO.

Two interchangeable sources produce L2-normalized float64 vectors in a
shared space: HashSource (seeded feature hashing, fully deterministic and
self-contained) and FileSource (precomputed vectors loaded from disk in
either a binary or a JSON-lines format).

embed_rows embeds many texts at once. HashSource.embed_many sums every
text's signed bucket counts as integers with one np.add.at and
normalizes all rows with one normalize_rows call, and HashSource.embed
is its one-text case; a FileSource's rows are gathered. Stacks of query
vectors are normalized the same way (l2_normalize_rows,
normalize_total_rows), each row equal bit for bit to l2_normalize or
normalize_total of it, which stay as the one-vector forms.

read_vector_file reads an embedding file in either format into a
VectorTable: the keys, as one UTF-8 blob (Texts), and one matrix of their
vectors as the file holds them (float32 for a binary file, a view of the
buffer the file was read into). A binary file is read with no Python
object per record: its record offsets come from one numpy read of the
length fields when every key has the first key's length, else from one
loop over the length fields, and its keys are decoded only where they
must be named or sorted. FileSource turns a copy of the table into
float64 unit rows with normalize_rows; datastore.ingest_datastore keeps
the key blob as the store's ids and a binary file's float32 rows, writes
its scan over them and derives unit rows only where they are read.

All downstream cosine computations assume normalized vectors, so cosine
similarity reduces to a dot product.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import re
from collections.abc import Sequence
from typing import Iterable, Mapping, NamedTuple, Union

import numpy as np

from .errors import (
    DimMismatch,
    EmptyInput,
    FormatError,
    IoError,
    UnknownKey,
    ZeroVector,
)
from .validation import HEADER, json_lines, read_bytes, read_header, write_file, write_jsonl

ENTITY_TEMPLATE = "A photo of {}"

BINARY_MAGIC = b"NESE"
BINARY_VERSION = 1

FORMAT_BINARY = "binary"
FORMAT_JSONL = "jsonl"

# rows (or records, or lines) one pass over a whole table handles at a
# time, so that no temporary as large as the table is made
MOVE_ROWS = 1024
# bytes `_gather` moves at a time (or one longer span): its three int64
# index temporaries take 24 bytes per byte moved
GATHER_BYTES = 1 << 16

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase `text` and split it on non-alphanumeric boundaries."""
    return _TOKEN_RE.findall(text.lower())


def as_vector(values) -> np.ndarray:
    """Coerce to a finite 1-D float64 array (raises DimMismatch otherwise)."""
    vec = np.asarray(values, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] < 1:
        raise DimMismatch(f"expected a 1-D vector, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise FormatError("vector contains non-finite values")
    return vec


def vector_from_json(values) -> np.ndarray:
    """as_vector for a parsed JSON value: only a flat array of numbers is a
    vector; strings, bools, nested values and numbers beyond the float range
    are a FormatError."""
    if not isinstance(values, list) or not all(type(v) in (int, float) for v in values):
        raise FormatError("vector must be an array of numbers")
    try:
        return as_vector(values)
    except OverflowError as exc:
        raise FormatError(f"vector value out of range: {exc}") from None


def _unit(vec: np.ndarray) -> np.ndarray | None:
    """`vec` divided by its norm sqrt(vec.dot(vec)); None for the zero vector.

    When the square sum overflows to inf, or underflows to 0 while an entry
    is nonzero, `vec` is first divided by its largest |entry|. Every other
    vector is divided by its norm as it is.
    """
    with np.errstate(over="ignore"):
        squares = float(vec.dot(vec))
    if squares == math.inf or (squares == 0.0 and vec.any()):
        vec = vec / np.abs(vec).max()
        squares = float(vec.dot(vec))
    if squares == 0.0:
        return None
    return vec / math.sqrt(squares)


def as_rows(values) -> np.ndarray:
    """A new finite (n, d) float64 array, d >= 1, of a stack of n vectors,
    or of one (d,) vector as one row. Any other shape, a ragged stack
    included, raises DimMismatch; a non-finite value, FormatError."""
    try:
        matrix = np.array(values, dtype=np.float64)
    except ValueError as exc:  # a ragged stack, or a value that is no number
        raise DimMismatch(f"expected numeric vectors of one width: {exc}") from None
    if matrix.ndim == 1:
        matrix = matrix[None]
    if matrix.ndim != 2 or matrix.shape[1] < 1:
        raise DimMismatch(f"expected a stack of 1-D vectors, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise FormatError("vector contains non-finite values")
    return matrix


def l2_normalize_rows(values) -> np.ndarray:
    """l2_normalize of every vector of a stack (see as_rows), as one new
    matrix normalized by normalize_rows, so each row equals l2_normalize
    of it bit for bit; errors name a row by its position."""
    matrix = as_rows(values)
    return normalize_rows(matrix, range(len(matrix)))


def normalize_total_rows(values) -> np.ndarray:
    """normalize_total of every vector of a stack, as l2_normalize_rows:
    a zero row (-0.0 entries included) becomes the unit basis e1."""
    matrix = as_rows(values)
    zero = ~matrix.any(axis=1)
    matrix[zero] = 0.0
    matrix[zero, 0] = 1.0
    return normalize_rows(matrix, range(len(matrix)))


def l2_normalize(values) -> np.ndarray:
    """Return `values` scaled to unit Euclidean norm; zero vectors raise.
    The one-vector form: brute_force_topk and the tests' oracles use it."""
    unit = _unit(as_vector(values))
    if unit is None:
        raise ZeroVector("cannot normalize a zero vector")
    return unit


def normalize_total(values) -> np.ndarray:
    """Like l2_normalize, but maps the zero vector to the unit basis e1."""
    vec = as_vector(values)
    unit = _unit(vec)
    if unit is None:
        unit = np.zeros(vec.shape[0])
        unit[0] = 1.0
    return unit


# --- deterministic 64-bit token hashing -------------------------------------
#
# Pure fixed-width integer arithmetic (FNV-1a over seed bytes + token bytes,
# then a splitmix64-style finalizer), so the embedder is bit-identical across
# runs and platforms.

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def _token_hash(token: str, seed: int) -> int:
    h = _FNV_OFFSET
    for byte in (seed & _U64).to_bytes(8, "little") + token.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _U64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _U64
    return h ^ (h >> 31)


class HashSource:
    """Feature-hashing text embedder (signed-bucket trick, L2-normalized).

    Tokens are hashed to one of `dim` buckets with a +/-1 sign; bucket
    counts are accumulated in integers and only then projected to floats,
    so identical (seed, text) always yields an identical vector, whatever
    else is embedded with it. Texts whose signed counts cancel exactly, or
    that hold no token, embed to the unit basis e1.
    """

    kind = "hash"

    def __init__(self, dim: int, seed: int = 0):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self.seed = int(seed)
        self._bucket_cache: dict[str, tuple[int, int]] = {}

    def _bucket_sign(self, token: str) -> tuple[int, int]:
        hit = self._bucket_cache.get(token)
        if hit is None:
            h = _token_hash(token, self.seed)
            hit = (h % self.dim, 1 if (h >> 63) & 1 == 0 else -1)
            self._bucket_cache[token] = hit
        return hit

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """The (len(texts), dim) unit rows of the texts, row i the vector of
        texts[i]: all bucket counts summed by one np.add.at into an int64
        matrix (integer sums, so their order does not matter), zero rows
        set to e1, then one normalize_rows call."""
        token_lists = [tokenize(text) for text in texts]
        cache = self._bucket_cache
        pairs = [cache.get(t) or self._bucket_sign(t) for tokens in token_lists for t in tokens]
        counts = np.zeros((len(token_lists), self.dim), dtype=np.int64)
        if pairs:
            buckets, signs = np.array(pairs, dtype=np.int64).T
            owner = np.repeat(np.arange(len(token_lists)), [len(t) for t in token_lists])
            np.add.at(counts, (owner, buckets), signs)
        matrix = counts.astype(np.float64)
        matrix[~counts.any(axis=1), 0] = 1.0
        return normalize_rows(matrix, texts)

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def __repr__(self) -> str:
        return f"HashSource(dim={self.dim}, seed={self.seed})"


def _square_sums(matrix: np.ndarray) -> np.ndarray:
    """row.dot(row) of every row, as a stack of (1, d) @ (d, 1) products."""
    return (matrix[:, None, :] @ matrix[:, :, None])[:, 0, 0]


def normalize_rows(matrix: np.ndarray, keys) -> np.ndarray:
    """Divide each row of the float64 `matrix` by its norm, in place, and
    return it; keys[i] names row i in errors.

    A non-finite row raises FormatError and a zero row ZeroVector. Each norm
    is sqrt(row.dot(row)), as l2_normalize computes it, taken for all rows at
    once as a stack of (1, d) @ (d, 1) products, which run the same per-row
    BLAS dot; so every row equals l2_normalize(row) bit for bit. A norm that
    sums the rows another way (einsum, (m*m).sum(1), norm(axis=1)) rounds
    many rows differently.
    """
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise FormatError(f"non-finite value in vector for {keys[np.argmin(finite)]!r}")
    with np.errstate(over="ignore"):
        squares = _square_sums(matrix)
    # rows whose square sum overflows, or underflows while nonzero: as in
    # l2_normalize, divided by their largest |entry| first
    zero = squares == 0.0
    odd = np.flatnonzero(zero | (squares == math.inf))
    odd = odd[~zero[odd] | matrix[odd].any(axis=1)]
    if odd.size:
        matrix[odd] /= np.abs(matrix[odd]).max(axis=1)[:, None]
        squares[odd] = _square_sums(matrix[odd])
    norms = np.sqrt(squares)
    if not norms.all():
        raise ZeroVector(f"cannot normalize the zero vector for {keys[np.argmin(norms)]!r}")
    matrix /= norms[:, None]
    return matrix


def unit_rows(keys, vectors, dim: int | None = None) -> np.ndarray:
    """Stack keyed vectors into one read-only float64 matrix of unit rows.

    Each vector must be 1-D with `dim` values (by default the first one's);
    a wrong shape raises DimMismatch, naming its key. The rows are then
    normalized by normalize_rows.
    """
    keys = list(keys)
    rows = [np.asarray(values) for values in vectors]
    for key, row in zip(keys, rows):
        if row.ndim != 1 or row.shape[0] < 1:
            raise DimMismatch(f"{key!r}: expected a 1-D vector, got shape {row.shape}")
        if dim is None:
            dim = row.shape[0]
        elif row.shape[0] != dim:
            raise DimMismatch(f"{key!r} has dim {row.shape[0]}, expected {dim}")
    matrix = np.array(rows, dtype=np.float64) if rows else np.empty((0, dim or 0))
    normalize_rows(matrix, keys)
    matrix.flags.writeable = False
    return matrix


class Texts(Sequence):
    """Strings held as one UTF-8 blob: item i is blob[starts[i]:stops[i]],
    decoded. Equal to a tuple, or other Texts, of the same strings."""

    def __init__(self, blob: bytes, starts: np.ndarray, stops: np.ndarray):
        self.blob = blob
        self.starts = starts
        self.stops = stops

    @classmethod
    def of(cls, strings) -> "Texts":
        # surrogatepass: any str round-trips, also one a UTF-8 file cannot hold
        encoded = [text.encode("utf-8", "surrogatepass") for text in strings]
        bounds = np.zeros(len(encoded) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, encoded), np.int64, len(encoded)), out=bounds[1:])
        return cls(b"".join(encoded), bounds[:-1], bounds[1:])

    def __len__(self) -> int:
        return self.starts.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Texts(self.blob, self.starts[i], self.stops[i])
        return self.blob[self.starts[i] : self.stops[i]].decode("utf-8", "surrogatepass")

    def __iter__(self):
        blob = self.blob
        for start, stop in zip(self.starts.tolist(), self.stops.tolist()):
            yield blob[start:stop].decode("utf-8", "surrogatepass")

    def take(self, index) -> list[str]:
        """The strings at `index`, an array of positions, each decoded from
        its span; the spans are read with one tolist() each."""
        blob = self.blob
        return [
            blob[start:stop].decode("utf-8", "surrogatepass")
            for start, stop in zip(self.starts[index].tolist(), self.stops[index].tolist())
        ]

    def __eq__(self, other):
        if not isinstance(other, (Texts, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None

    @functools.cached_property
    def ascending(self) -> bool:
        """Whether the strings strictly ascend, compared as their UTF-8
        bytes (whose order is the strings' order). Nothing is decoded.

        Windows of MOVE_ROWS + 1 keys, each overlapping the next by one, are
        NUL-padded to the window's longest key and compared as fixed-width
        bytes: padded keys order as their bytes do, except that a key and
        itself followed by NULs pad alike, so an equal pair ascends only
        when its first key is the shorter. A window's padded keys and their
        mask take 2 * (MOVE_ROWS + 1) * w bytes for its longest key of w
        bytes: at most 2 * 1025 * 65535 for a binary file's u16 key lengths.
        """
        buf = np.frombuffer(self.blob, dtype=np.uint8)
        for at in range(0, len(self) - 1, MOVE_ROWS):
            starts = self.starts[at : at + MOVE_ROWS + 1]
            lengths = self.stops[at : at + MOVE_ROWS + 1] - starts
            width = max(int(lengths.max()), 1)
            padded = np.zeros((len(starts), width), dtype=np.uint8)
            present = np.arange(width) < lengths[:, None]
            padded[present] = np.frombuffer(_gather(buf, starts, starts + lengths).blob, np.uint8)
            keys = padded.view(f"S{width}")[:, 0]
            a, b = keys[:-1], keys[1:]
            if not ((a < b) | ((a == b) & (lengths[:-1] < lengths[1:]))).all():
                return False
        return True


class VectorTable(NamedTuple):
    """Keyed vectors as an embedding file holds them: rows[i] is the vector
    of keys[i], in file order; float32 for a binary file (a writable view
    of the buffer it was read into), float64 for a JSON-lines file. The
    keys are one Texts blob."""

    keys: Texts
    rows: np.ndarray


class FileSource:
    """Store of precomputed vectors keyed by text: one read-only matrix of
    unit rows (see normalize_rows) and the row of each key.

    `vectors` is a key -> vector mapping (checked by unit_rows) or a table
    read by read_vector_file.
    """

    kind = "file"

    def __init__(
        self, vectors: Mapping[str, np.ndarray] | VectorTable, dim: int | None = None
    ):
        if isinstance(vectors, VectorTable):
            self.matrix = normalize_rows(vectors.rows.astype(np.float64), vectors.keys)
            self.matrix.flags.writeable = False
            keys = vectors.keys
        else:
            self.matrix = unit_rows(vectors.keys(), vectors.values(), dim)
            keys = vectors
        self.dim = self.matrix.shape[1]  # 0 for an empty source without dim
        self._row_of = {key: i for i, key in enumerate(keys)}

    def keys(self):
        return self._row_of.keys()

    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, key: str) -> bool:
        return key in self._row_of

    def embed(self, text: str) -> np.ndarray:
        try:
            return self.matrix[self._row_of[text]]
        except KeyError:
            raise UnknownKey(f"no stored embedding for key {text!r}") from None

    def items(self):
        return ((key, self.matrix[i]) for key, i in self._row_of.items())

    def __repr__(self) -> str:
        return f"FileSource(dim={self.dim}, entries={len(self)})"


EmbeddingSource = Union[HashSource, FileSource]


def embed_rows(source: EmbeddingSource, texts: Sequence[str]) -> np.ndarray:
    """The vectors of many texts as one new (len(texts), dim) matrix: one
    bulk pass for a HashSource (HashSource.embed_many), each text's own
    vector from any other source (a FileSource's stored rows, the first
    missing key raising UnknownKey). The texts are used as given."""
    if isinstance(source, HashSource):
        return source.embed_many(texts)
    return np.array([source.embed(text) for text in texts]).reshape(len(texts), source.dim)


def embed_text(source: EmbeddingSource, text: str) -> np.ndarray:
    """Embed a text with the given source. Empty (post-trim) text raises."""
    if not text or not text.strip():
        raise EmptyInput("text is empty")
    return source.embed(text)


def embed_entity(source: EmbeddingSource, entity: str) -> np.ndarray:
    """Embed an entity via its templated description ("A photo of {entity}")."""
    if not entity or not entity.strip():
        raise EmptyInput("entity is empty")
    return embed_text(source, ENTITY_TEMPLATE.format(entity))


# --- embedding files ---------------------------------------------------------
#
# Binary layout: magic "NESE", u32 LE version=1, u32 LE record count, u32 LE
# dimension; then per record: u16 LE key byte-length, key bytes (UTF-8),
# dim float32 LE values. JSONL layout: one {"key": ..., "vector": [...]}
# object per line, UTF-8, LF line endings.


def read_vector_file(path, format: str | None = None) -> VectorTable:
    """The keys and vectors of an embedding file in either layout (by
    default the one its first bytes show), checked for structure: header,
    truncation, key encoding, duplicate keys, widths, trailing bytes."""
    if format is None:
        format = FORMAT_BINARY if read_bytes(path, 4) == BINARY_MAGIC else FORMAT_JSONL
    if format == FORMAT_BINARY:
        return _read_binary(path)
    if format == FORMAT_JSONL:
        return _read_jsonl(path)
    raise ValueError(f"unknown embedding file format {format!r}")


def load_embedding_file(path, format: str | None = None) -> FileSource:
    """Load a vector file into a FileSource (vectors renormalized on load)."""
    table = read_vector_file(path, format)
    try:
        return FileSource(table)
    except ZeroVector as exc:
        raise FormatError(str(exc)) from exc


def write_embedding_file(
    path,
    entries: Mapping[str, np.ndarray] | Iterable[tuple[str, np.ndarray]],
    format: str = FORMAT_BINARY,
    dim: int | None = None,
) -> None:
    """Write (key, vector) entries to `path` in the binary or JSONL layout.

    `dim` is only needed to write an empty binary file (the header carries
    the dimension); otherwise it is inferred and cross-checked. A vector
    that load_embedding_file would reject as the file holds it (zero, or
    beyond float32 range in the binary layout) raises its error before
    anything is written.
    """
    pairs = list(entries.items() if isinstance(entries, Mapping) else entries)
    for key, values in pairs:
        vec = as_vector(values)
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise DimMismatch(f"key {key!r} has dim {vec.shape[0]}, expected {dim}")
    if format not in (FORMAT_BINARY, FORMAT_JSONL):
        raise ValueError(f"unknown embedding file format {format!r}")
    if format == FORMAT_BINARY and dim is None:
        raise ValueError("dim is required to write an empty binary file")
    # the rows as the file holds them; a value beyond float32 range is inf
    rows = np.empty((len(pairs), dim or 0), "<f4" if format == FORMAT_BINARY else np.float64)
    with np.errstate(over="ignore"):
        for row, (_, values) in zip(rows, pairs):
            row[:] = values
    keys = [key for key, _ in pairs]
    for at in range(0, len(keys), MOVE_ROWS):
        try:
            normalize_rows(rows[at : at + MOVE_ROWS].astype(np.float64), keys[at : at + MOVE_ROWS])
        except ZeroVector as exc:
            raise FormatError(str(exc)) from exc
    if format == FORMAT_BINARY:
        _write_binary(path, keys, rows)
    else:
        write_jsonl(path, ({"key": key, "vector": row.tolist()} for key, row in zip(keys, rows)))


def _read_binary(path) -> VectorTable:
    """The file's keys, as one Texts blob, and its float32 rows, with no
    Python object per record.

    The records are walked by their key spans (see _key_spans); the key
    bytes are gathered into the blob in windows (see _gather), checked
    as UTF-8 once (see _check_keys) and for order as bytes (Texts.ascending),
    and only unordered keys are decoded, to find duplicates. The rows are a
    view of the front of the one buffer the file is read into: each vector
    is moved there, MOVE_ROWS at a time, over the bytes already read.
    Record j's vector starts past byte 16 + j*(2 + 4*dim) + 2, beyond the
    bytes j*4*dim.. it moves to, so each move reads bytes no earlier move
    wrote."""
    # not read_bytes: the rows move within this buffer, and bytes would be a second copy
    try:
        with open(path, "rb") as fh:
            nbytes = os.fstat(fh.fileno()).st_size
            data = np.empty(nbytes, dtype=np.uint8)
            got = fh.readinto(data)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    if got != nbytes:
        raise IoError(f"read {got} of the {nbytes} bytes of {os.fspath(path)!r}")
    count, dim = read_header(data, BINARY_MAGIC, BINARY_VERSION, "binary embedding file")
    if dim == 0 and count:
        raise FormatError("binary embedding file has dimension 0")
    size = 4 * dim
    if 16 + count * (2 + size) > nbytes:
        raise FormatError(
            f"header claims {count} records of dimension {dim}, more than the"
            f" file's {nbytes} bytes hold"
        )
    starts, stops, fault = _key_spans(data, count, size)
    keys = _gather(data, starts, stops)
    _check_keys(keys)
    if fault is not None:
        raise FormatError(fault)
    if not keys.ascending:  # save_datastore writes them ascending
        ordered = sorted(keys)
        for key, after in zip(ordered, ordered[1:]):
            if key == after:
                raise FormatError(f"duplicate key {key!r}")
    # row j of `at_byte` holds the dim float32 values that start at byte j
    at_byte = np.ndarray(
        (max(nbytes - size + 1, 0), dim), dtype="<f4", buffer=data, strides=(1, 4)
    )
    rows = np.ndarray((count, dim), dtype="<f4", buffer=data)
    for start in range(0, count, MOVE_ROWS):
        rows[start : start + MOVE_ROWS] = at_byte[stops[start : start + MOVE_ROWS]]
    return VectorTable(keys, rows)


def _key_spans(data: np.ndarray, count: int, size: int):
    """The byte spans (starts, stops) of the keys of a binary file's
    records, whose vectors are `size` bytes, and the structural fault that
    ends the walk, or None.

    When the u16 length fields at the heads that the first key's length L
    predicts, 16 + j*(2 + L + size), all hold L, and `count` such records
    fill the file, those heads are the walk: record j, of length L, ends
    where record j+1 is predicted to start. Otherwise one loop reads the
    length fields only, and stops at the first record that the file cannot
    hold, or flags trailing bytes; spans are kept for the keys read whole,
    and a key is decoded only to name it in a fault.
    """
    nbytes = data.shape[0]
    if count:
        length = int(data[16]) | int(data[17]) << 8
        stride = 2 + length + size
        if 16 + count * stride == nbytes:
            fields = np.ndarray((count,), dtype="<u2", buffer=data, offset=16, strides=(stride,))
            if (fields == length).all():
                starts = np.arange(18, nbytes, stride, dtype=np.int64)
                return starts, starts + length, None
    view = memoryview(data)
    starts, stops = [], []
    fault = None
    offset = 16
    for _ in range(count):
        if offset + 2 > nbytes:
            fault = "truncated record header"
            break
        start = offset + 2
        end = start + (view[offset] | view[offset + 1] << 8)
        if end > nbytes:
            fault = "truncated record key"
            break
        starts.append(start)
        stops.append(end)
        offset = end + size
        if offset > nbytes:
            # an invalid key is reported before this fault, so "replace"
            # decodes the key as it is named
            fault = f"truncated vector for key {str(view[start:end], 'utf-8', 'replace')!r}"
            break
    else:
        if offset != nbytes:
            fault = f"{nbytes - offset} trailing bytes after records"
    return np.array(starts, dtype=np.int64), np.array(stops, dtype=np.int64), fault


def _gather(data: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> Texts:
    """The bytes data[starts[i]:stops[i]] of every i as one Texts blob,
    gathered in windows of at most MOVE_ROWS spans and GATHER_BYTES bytes
    (a longer span is a window of its own): an index array over all of
    them would be eight times the blob."""
    lengths = stops - starts
    bounds = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    blob = np.empty(bounds[-1], dtype=np.uint8)
    at = 0
    while at < len(starts):
        # the last span that ends within the byte budget
        end = int(np.searchsorted(bounds, bounds[at] + GATHER_BYTES, side="right")) - 1
        end = min(max(end, at + 1), at + MOVE_ROWS)
        first, last = bounds[at], bounds[end]
        shift = np.repeat(starts[at:end] - bounds[at:end], lengths[at:end])
        blob[first:last] = data[shift + np.arange(first, last)]
        at = end
    return Texts(blob.tobytes(), bounds[:-1], bounds[1:])


def _check_keys(keys: Texts) -> None:
    """FormatError naming the first key that is not valid UTF-8.

    The blob is decoded once. A valid blob holds only valid keys when each
    non-empty key begins a character, i.e. not with a continuation byte
    0x80-0xBF: then every key ends where a character begins too (the next
    non-empty key's start, or the blob's end). Only when that fails are
    the keys decoded one by one, to name the first bad key.
    """
    try:
        keys.blob.decode("utf-8")
    except UnicodeDecodeError:
        pass
    else:
        heads = np.frombuffer(keys.blob, dtype=np.uint8)[keys.starts[keys.stops > keys.starts]]
        if not ((heads & 0xC0) == 0x80).any():
            return
    for start, stop in zip(keys.starts.tolist(), keys.stops.tolist()):
        try:
            keys.blob[start:stop].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"record key is not valid UTF-8: {exc}") from exc


def _write_binary(path, keys: list[str], rows: np.ndarray) -> None:
    chunks = [HEADER.pack(BINARY_MAGIC, BINARY_VERSION, len(keys), rows.shape[1])]
    for key, row in zip(keys, rows):
        raw = key.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise FormatError(f"key too long for u16 length: {key[:32]!r}...")
        chunks.append(len(raw).to_bytes(2, "little"))
        chunks.append(raw)
        chunks.append(row.tobytes())
    write_file(path, chunks)


def _read_jsonl(path) -> VectorTable:
    entries: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, obj in json_lines(path):
        where = f"{os.fspath(path)}: line {lineno}"
        if "key" not in obj or "vector" not in obj:
            raise FormatError(f'{where}: expected {{"key", "vector"}} object')
        key = obj["key"]
        if not isinstance(key, str):
            raise FormatError(f"{where}: key must be a string")
        try:
            vec = vector_from_json(obj["vector"])
        except (DimMismatch, FormatError) as exc:
            raise FormatError(f"{where}: {exc}") from exc
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise FormatError(f"{where}: dim {vec.shape[0]} != expected {dim}")
        if key in entries:
            raise FormatError(f"{where}: duplicate key {key!r}")
        entries[key] = vec
    rows = np.array(list(entries.values())) if entries else np.empty((0, 0))
    return VectorTable(Texts.of(entries), rows)
