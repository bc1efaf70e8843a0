"""Feature fusion: similarity scoring (the quality gate's score), embedding
mixing, cross-attention over retrieved captions, and the prefix mapping
network.

The gate's score and the mix (clip_score, fuse_sif) take one pair of
vectors or two (n, d) stacks, as the pipeline gates and fuses a batch at
once; every dot product is a per-row BLAS dot, so each row equals the
one-pair call bit for bit.

An instance's prefix features are an (L, d) float64 array. Projection
matrices act on column vectors (token_out = M @ token_in), stored
row-major.

Cross-attention and the prefix map run over stacks of b instances, (b, L,
d) features and (b, k, d) retrieved embeddings (fuse_retrieval,
map_to_prefix), as the pipeline runs them a chunk at a time; one
instance is a stack of one. Every product is a 3-D np.matmul, one BLAS
call per instance with the instance's own shapes, so each slice equals
the stack of that instance alone bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .embedding import as_rows, normalize_total_rows
from .errors import (
    DimMismatch,
    EmptyRetrieval,
    FormatError,
    ZeroVector,
)
from .validation import HEADER, check_float, read_bytes, read_header, write_file

STRATEGY_CLIPSCORE_FORWARD = "clipscore-forward"
STRATEGY_CLIPSCORE_REVERSE = "clipscore-reverse"
STRATEGY_FIXED = "fixed"

FUSION_STRATEGIES = (
    STRATEGY_CLIPSCORE_FORWARD,
    STRATEGY_CLIPSCORE_REVERSE,
    STRATEGY_FIXED,
)

DEFAULT_TAU_QUALITY = 0.6

# Largest mapping network xavier_weights builds: map_proj holds (L*d)^2
# float64 values, 512 MiB allows L*d up to 8192 (L=10 at d=768).
MAP_PROJ_MAX_BYTES = 512 * 2**20

WEIGHTS_MAGIC = b"NESW"
WEIGHTS_VERSION = 1


@dataclass(frozen=True)
class FusionConfig:
    strategy: str = STRATEGY_CLIPSCORE_FORWARD
    alpha: float | None = None
    tau_quality: float = DEFAULT_TAU_QUALITY

    def __post_init__(self):
        check_float("alpha", self.alpha, optional=True)
        check_float("tau_quality", self.tau_quality)
        if self.strategy not in FUSION_STRATEGIES:
            raise ValueError(f"unknown fusion strategy {self.strategy!r}")
        if self.strategy == STRATEGY_FIXED:
            if self.alpha is None:
                raise ValueError("fixed fusion strategy requires alpha")
            if not 0.0 <= self.alpha <= 1.0:
                raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        elif self.alpha is not None:
            raise ValueError("alpha is only valid with the fixed strategy")
        if not 0.0 <= self.tau_quality <= 1.0:
            raise ValueError(f"tau_quality must be in [0, 1], got {self.tau_quality}")


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Two vectors, or two (n, d) stacks, as rows (see embedding.as_rows),
    of one shape."""
    rows_a, rows_b = as_rows(a), as_rows(b)
    if rows_a.shape != rows_b.shape:
        raise DimMismatch(f"shapes differ: {np.shape(a)} vs {np.shape(b)}")
    return rows_a, rows_b


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i].dot(b[i]) of every row, as a stack of (1, d) @ (d, 1) products,
    which run np.dot's per-row BLAS dot."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def clip_score(a, b):
    """Cosine similarity of two (not necessarily normalized) vectors: a
    float for two (d,) vectors, an (n,) array for two (n, d) stacks, row
    by row. Each is dot(a, b) / (norm(a) * norm(b)), with np.linalg.norm's
    sqrt(v.dot(v)), every dot a per-row BLAS dot, so a stack's rows equal
    the scores of their vectors bit for bit."""
    va, vb = _pair(a, b)
    na, nb = np.sqrt(_row_dots(va, va)), np.sqrt(_row_dots(vb, vb))
    if not (na.all() and nb.all()):
        raise ZeroVector("clip_score is undefined for zero vectors")
    scores = _row_dots(va, vb) / (na * nb)
    return float(scores[0]) if np.ndim(a) == 1 else scores


def fuse_sif(synthetic_emb, text_emb, config: FusionConfig) -> np.ndarray:
    """Mix a synthetic-image embedding with a text embedding: two (d,)
    vectors give one (d,) mix, two (n, d) stacks the (n, d) mixes, row by
    row, each equal to the mix of its vectors bit for bit.

    forward: w*synthetic + (1-w)*text, reverse swaps the roles; w is the
    fixed alpha or the pair's similarity clamped to [0, 1]. The mix is
    renormalized (an exactly-cancelling mix becomes the unit basis e1).
    """
    synth, text = _pair(synthetic_emb, text_emb)
    if config.strategy == STRATEGY_FIXED:
        w = float(config.alpha)
    else:
        # min(1.0, max(0.0, score)), as Python's min and max pick
        score = np.atleast_1d(clip_score(synth, text))
        w = np.where(score > 0.0, np.where(score < 1.0, score, 1.0), 0.0)[:, None]
    if config.strategy == STRATEGY_CLIPSCORE_REVERSE:
        mixed = (1.0 - w) * synth + w * text
    else:
        mixed = w * synth + (1.0 - w) * text
    fused = normalize_total_rows(mixed)
    return fused[0] if np.ndim(synthetic_emb) == 1 else fused


# --- attention weights -------------------------------------------------------


class AttentionWeights:
    """Projection matrices for retrieval fusion and the prefix mapping network.

    q_proj/k_proj/v_proj are (d, d); map_proj is (out_tokens*d, in_tokens*d)
    and is applied to the flattened token sequence. one_token_map is a
    contiguous copy of its first d columns, the map of a single token.
    """

    def __init__(self, q_proj, k_proj, v_proj, map_proj):
        self.q_proj = self._matrix(q_proj, "q_proj")
        self.k_proj = self._matrix(k_proj, "k_proj")
        self.v_proj = self._matrix(v_proj, "v_proj")
        self.map_proj = self._matrix(map_proj, "map_proj")
        d = self.q_proj.shape[0]
        for name in ("q_proj", "k_proj", "v_proj"):
            mat = getattr(self, name)
            if mat.shape != (d, d):
                raise DimMismatch(f"{name} must be ({d}, {d}), got {mat.shape}")
        rows, cols = self.map_proj.shape
        if rows % d or cols % d:
            raise DimMismatch(
                f"map_proj shape {self.map_proj.shape} is not a multiple of d={d}"
            )
        self.dim = d
        self.out_tokens = rows // d
        self.in_tokens = cols // d
        self.one_token_map = np.ascontiguousarray(self.map_proj[:, :d])
        self.one_token_map.flags.writeable = False

    @staticmethod
    def _matrix(values, name) -> np.ndarray:
        mat = np.ascontiguousarray(values, dtype=np.float64)
        if mat.ndim != 2:
            raise DimMismatch(f"{name} must be 2-D, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise FormatError(f"{name} contains non-finite values")
        mat.flags.writeable = False
        return mat


def xavier_weights(dim: int, prefix_len: int, seed: int = 0) -> AttentionWeights:
    """Seeded Xavier-uniform weights with the square (L*d, L*d) mapping."""
    if dim < 1 or prefix_len < 1:
        raise ValueError("dim and prefix_len must be >= 1")
    map_bytes = 8 * (prefix_len * dim) ** 2
    if map_bytes > MAP_PROJ_MAX_BYTES:
        raise ValueError(
            f"prefix length {prefix_len} at dim {dim} needs a {map_bytes / 2**20:.0f} MiB "
            f"mapping matrix, over the {MAP_PROJ_MAX_BYTES // 2**20} MiB limit"
        )
    rng = np.random.default_rng(seed)

    def draw(rows, cols):
        bound = math.sqrt(6.0 / (rows + cols))
        return rng.uniform(-bound, bound, size=(rows, cols))

    return AttentionWeights(
        q_proj=draw(dim, dim),
        k_proj=draw(dim, dim),
        v_proj=draw(dim, dim),
        map_proj=draw(prefix_len * dim, prefix_len * dim),
    )


# --- prefix features ---------------------------------------------------------


def as_prefix(values) -> np.ndarray:
    """Coerce a stack of b instances' features to a finite (b, L, d)
    float64 array with L, d >= 1."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[1] < 1 or arr.shape[2] < 1:
        raise DimMismatch(f"expected (b, L, d) features, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FormatError("prefix features contain non-finite values")
    return arr


def fuse_retrieval(tokens, retrieved, weights: AttentionWeights) -> tuple[np.ndarray, np.ndarray]:
    """Cross-attend input tokens (queries) over retrieved embeddings (keys
    and values) and add the attention output back onto the input tokens:
    (b, L, d) tokens over (b, k, d) retrieved embeddings give the (b, L, d)
    features and the (b, L, k) softmax weights.

    Each projection and attention product is a 3-D np.matmul, which calls
    BLAS once per instance with the instance's own shapes, so every slice
    equals the call on that instance alone bit for bit. A (b*k, d) @ (d, d)
    product of the flattened stack would not: BLAS rounds a row's sums by
    the shape of the whole product.
    """
    tokens = as_prefix(tokens)
    retrieved = np.asarray(retrieved, dtype=np.float64)
    if retrieved.ndim != 3 or retrieved.shape[0] != tokens.shape[0]:
        raise DimMismatch(
            f"expected ({tokens.shape[0]}, k, d) retrieved embeddings, got shape {retrieved.shape}"
        )
    if retrieved.shape[1] == 0:
        raise EmptyRetrieval("fuse_retrieval needs at least one retrieved embedding")
    if tokens.shape[2] != weights.dim:
        raise DimMismatch(
            f"input token dim {tokens.shape[2]} != weights dim {weights.dim}"
        )
    if retrieved.shape[2] != weights.dim:
        raise DimMismatch(
            f"retrieved dim {retrieved.shape[2]} != weights dim {weights.dim}"
        )
    queries = tokens @ weights.q_proj.T
    keys = retrieved @ weights.k_proj.T
    values = retrieved @ weights.v_proj.T
    attn_out, attn = kernels.attention_core(queries, keys, values)
    return tokens + attn_out, attn


def map_to_prefix(tokens, weights: AttentionWeights) -> np.ndarray:
    """Apply the mapping network to each instance's flattened features:
    (b, L, d) features give the (b, out_tokens, d) prefixes, each slice
    equal to its instance's map alone bit for bit (one np.matmul of a
    (rows, cols) map by (cols, 1) columns runs BLAS's per-column
    matrix-vector product).

    One token is read as the first of in_tokens, the others zero, and
    multiplied by one_token_map alone. That equals the product of the
    zero-padded tokens bit for bit where the BLAS sums each row's first d
    products alike whatever the row's length. OpenBLAS 0.3.31 does so at
    the default 4 tokens for every d that is a multiple of 4 (a test checks
    the dimensions in use), but not for an odd d, where the prefix can
    differ from the padded product in its last bits.
    """
    tokens = as_prefix(tokens)
    b, n, d = tokens.shape
    if d != weights.dim:
        raise DimMismatch(f"feature dim {d} != weights dim {weights.dim}")
    if n == 1:
        mapped = np.matmul(weights.one_token_map, tokens.transpose(0, 2, 1))
    else:
        if n * d != weights.map_proj.shape[1]:
            raise DimMismatch(
                f"flattened features have {n * d} values, map_proj expects "
                f"{weights.map_proj.shape[1]}"
            )
        mapped = np.matmul(weights.map_proj, tokens.reshape(b, n * d, 1))
    return mapped.reshape(b, weights.out_tokens, weights.dim)


# --- weights file ------------------------------------------------------------
#
# Binary layout: magic "NESW", u32 LE version=1, u32 LE d, u32 LE L, then
# q_proj, k_proj, v_proj (each d*d float32 LE row-major) and map_proj
# ((L*d)*(L*d) float32 LE row-major).


def write_weights_file(path, weights: AttentionWeights) -> None:
    if weights.in_tokens != weights.out_tokens:
        raise FormatError(
            "weights file stores square mappings only "
            f"(in_tokens={weights.in_tokens}, out_tokens={weights.out_tokens})"
        )
    header = HEADER.pack(WEIGHTS_MAGIC, WEIGHTS_VERSION, weights.dim, weights.out_tokens)
    matrices = (weights.q_proj, weights.k_proj, weights.v_proj, weights.map_proj)
    # one matrix's bytes at a time: map_proj's alone may be hundreds of MiB
    chunks = (np.asarray(mat, dtype="<f4").tobytes() for mat in matrices)
    write_file(path, itertools.chain([header], chunks))


def load_weights_file(path) -> AttentionWeights:
    data = read_bytes(path)
    dim, prefix_len = read_header(data, WEIGHTS_MAGIC, WEIGHTS_VERSION, "weights file")
    if dim < 1 or prefix_len < 1:
        raise FormatError(f"invalid header: d={dim}, L={prefix_len}")
    expected = HEADER.size + 4 * (3 * dim * dim + (prefix_len * dim) ** 2)
    if len(data) != expected:
        raise FormatError(f"weights file has {len(data)} bytes, expected {expected}")
    values = np.frombuffer(data, dtype="<f4", offset=HEADER.size).astype(np.float64)
    q, k, v = values[: 3 * dim * dim].reshape(3, dim, dim)
    m = values[3 * dim * dim :].reshape(prefix_len * dim, prefix_len * dim)
    try:
        return AttentionWeights(q, k, v, m)
    except (DimMismatch, FormatError) as exc:
        raise FormatError(str(exc)) from exc
